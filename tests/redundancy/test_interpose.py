"""Tests for RedComm: transparent replication of p2p and collectives."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import RedundancyError, SimulationDeadlock, VotingError
from repro.mpi import ANY_SOURCE, ANY_TAG, SimMPI, Status, ops
from repro.mpi.comm import USER_TAG_LIMIT, Communicator
from repro.mpi.runtime import RankContext
from repro.redundancy import (
    ALL_TO_ALL, MSG_PLUS_HASH, RecvSet, RedComm, ReplicaMap, SendSet, SphereTracker,
)
from repro.redundancy.anysource import CONTROL_TAG_BASE
from repro.redundancy.request import is_member
from repro.redundancy.voting import HASH_TAG_OFFSET, plan_copies
from repro.simkit import Environment
from repro.simkit.events import Event, Timeout
from tests.mpi.test_comm import record_completions


def run_redundant(n, r, program_body, mode=ALL_TO_ALL, corruptor=None, kill_plan=()):
    """Run ``program_body(red)`` on every physical rank.

    Returns the world, the replica map, the virtual ranks whose spheres
    were exhausted (in order) and each physical rank's result.
    """
    env = Environment()
    rmap = ReplicaMap(n, r)
    tracker = SphereTracker(rmap)
    exhausted = []
    tracker.on_sphere_exhausted(exhausted.append)
    world = SimMPI(env, size=rmap.total_physical)
    results = {}

    def program(ctx):
        red = RedComm(ctx, rmap, tracker, mode=mode, corruptor=corruptor)
        value = yield from program_body(red)
        results[ctx.rank] = value
        return value

    world.spawn(program)
    for delay, rank in kill_plan:
        def killer(env, delay=delay, rank=rank):
            yield env.timeout(delay)
            world.kill_rank(rank, cause="test kill")

        env.process(killer(env))
    world.run()
    return world, rmap, exhausted, results


class TestTransparency:
    @pytest.mark.parametrize("r", [1.0, 1.25, 1.5, 2.0, 2.5, 3.0])
    def test_allreduce_any_degree(self, r):
        def body(red):
            total = yield from red.allreduce(red.rank, ops.SUM)
            return total

        world, rmap, _, results = run_redundant(4, r, body)
        assert set(results.values()) == {6}
        assert len(results) == rmap.total_physical

    @pytest.mark.parametrize("r", [1.0, 2.0, 2.5])
    def test_ring_p2p(self, r):
        def body(red):
            right = (red.rank + 1) % red.size
            left = (red.rank - 1) % red.size
            payload, status = yield from red.sendrecv(
                red.rank, right, source=left, send_tag=4, recv_tag=4
            )
            return payload, status.source

        _, _, _, results = run_redundant(5, r, body)
        for _, (payload, source) in results.items():
            assert payload == source  # neighbour sent its own rank

    @pytest.mark.parametrize("nbytes, last", [(8, "recv"), (128 * 1024, "send")])
    def test_sendrecv_whichever_set_finishes_last(self, nbytes, last):
        """Virtual 0 sends ``nbytes`` and gets 8 bytes back.  A
        rendezvous payload (> 64 KB) keeps its replicas' NICs busy past
        the replies' arrival, so the send set finishes last; at 8 bytes
        the receive set does."""

        def body(red):
            order = []
            record_completions(red, order)
            partner = 1 - red.rank
            payload = bytes(nbytes) if red.rank == 0 else b"8 bytes!"
            got, status = yield from red.sendrecv(
                payload, partner, source=partner, send_tag=3, recv_tag=3
            )
            # A copy: both sets must be complete when sendrecv returns.
            return got, status, list(order)

        _, rmap, _, results = run_redundant(2, 2.0, body)
        for physical in rmap.replicas_of(0):
            got, status, order = results[physical]
            assert sorted(order) == ["recv", "send"] and order[-1] == last
            assert got == b"8 bytes!"
            assert status == Status(source=1, tag=3, nbytes=8)
        for physical in rmap.replicas_of(1):
            got, status, _ = results[physical]
            assert got == bytes(nbytes)
            assert status == Status(source=0, tag=3, nbytes=nbytes)

    def test_status_reports_virtual_source(self):
        def body(red):
            if red.rank == 0:
                yield from red.send("x", 1, tag=2)
                return None
            if red.rank == 1:
                _, status = yield from red.recv(source=0, tag=2)
                return status.source
            return None

        _, rmap, _, results = run_redundant(2, 2.0, body)
        for physical in rmap.replicas_of(1):
            assert results[physical] == 0

    def test_virtual_identity(self):
        def body(red):
            yield red.env.timeout(0)
            return red.rank, red.size, red.replica_index

        _, rmap, _, results = run_redundant(3, 2.0, body)
        for physical, (virtual, size, index) in results.items():
            assert virtual == rmap.virtual_of(physical)
            assert size == 3
            assert index == rmap.replica_index(physical)

    def test_message_amplification_counted(self):
        def body(red):
            if red.rank == 0:
                yield from red.send(b"data", 1, tag=1)
            elif red.rank == 1:
                yield from red.recv(source=0, tag=1)
            return None

        world_1x, *_ = run_redundant(2, 1.0, body)
        world_2x, *_ = run_redundant(2, 2.0, body)
        # r=2: each of 2 sender replicas sends to 2 receiver replicas.
        assert world_2x.counters["p2p_messages"] == 4 * world_1x.counters["p2p_messages"]

    @pytest.mark.parametrize("r", [1.0, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0])
    def test_physical_message_count_matches_eq1_fanout(self, r):
        """One virtual message costs |senders| x |receivers| physical
        messages — the exact mechanism behind Eq. 1's r factor."""

        def body(red):
            if red.rank == 0:
                yield from red.send(b"one", 1, tag=1)
            elif red.rank == 1:
                yield from red.recv(source=0, tag=1)
            return None

        world, rmap, _, _ = run_redundant(4, r, body)
        expected = len(rmap.replicas_of(0)) * len(rmap.replicas_of(1))
        assert world.counters["p2p_messages"] == expected

    def test_members_build_no_events(self, monkeypatch):
        """An r=2 exchange builds no Event besides its request sets: a
        set is its own event, replica members complete by a direct call
        into it, and the two sets are waited in turn (no AllOf)."""
        built = []
        constructors = {cls: cls.__init__ for cls in (Event, RecvSet, SendSet, Timeout)}

        def counting(original):
            def init(event, *args):
                built.append(event)
                original(event, *args)

            return init

        def body(red):
            # Counting starts once every process exists and has started,
            # so it covers the exchange alone.
            if Event.__init__ is constructors[Event]:
                for cls, original in constructors.items():
                    monkeypatch.setattr(cls, "__init__", counting(original))
            peer = 1 - red.rank
            send_set, recv_set = red.isend(red.rank, peer, tag=2), red.irecv(peer, tag=2)
            yield send_set
            raw = yield recv_set
            return recv_set._finalize(raw)[0] == peer

        world, _, _, results = run_redundant(2, 2.0, body)
        # Two request sets per rank, each over two replica members.
        assert world.counters["p2p_messages"] == 4 * 2
        # Each object once, whichever constructors it ran.
        unique = {id(event): type(event).__name__ for event in built}
        assert sorted(unique.values()) == ["RecvSet"] * 4 + ["SendSet"] * 4
        for physical, got_peer_rank in results.items():
            assert got_peer_rank, physical

    def test_send_set_queues_one_completion_for_its_copies(self):
        """An r=2 isend queues one wire arrival per copy and one
        completion for the set: the last copy leaves the FIFO NIC last."""
        queued = {}

        def body(red):
            if red.rank == 0 and red.replica_index == 0:
                before = red.env._sequence
                request = red.isend(b"data", 1, tag=1)
                new = sorted(entry for entry in red.env._queue if entry[2] > before)
                queued["calls"] = [entry[3].__name__ for entry in new]
                queued["times"] = [entry[0] for entry in new]
                yield from request.wait()
                queued["done_at"] = red.env.now
            elif red.rank == 0:
                yield from red.send(b"data", 1, tag=1)
            else:
                yield from red.recv(source=0, tag=1)
            return None

        world, *_ = run_redundant(2, 2.0, body)
        assert sorted(queued["calls"]) == ["_arrive", "_arrive", "succeed_inline"]
        completion = queued["times"][queued["calls"].index("succeed_inline")]
        assert queued["done_at"] == completion
        assert world.counters["p2p_messages"] == 4

    def test_user_receive_at_collective_tags_rejected(self):
        rmap = ReplicaMap(2, 2.0)
        env = Environment()
        world = SimMPI(env, size=rmap.total_physical)
        ctx = RankContext(world, 0, Communicator(world, 0))
        red = RedComm(ctx, rmap, SphereTracker(rmap))
        for source in (1, ANY_SOURCE):
            with pytest.raises(RedundancyError):
                next(red.recv(source, tag=USER_TAG_LIMIT))
        with pytest.raises(RedundancyError):
            red.irecv(1, tag=USER_TAG_LIMIT)
        assert env.now == 0.0 and world.counters["app_recvs"] == 0


class TestWildcards:
    def test_any_source_blocking_recv(self):
        def body(red):
            if red.rank == 0:
                seen = []
                for _ in range(2):
                    payload, status = yield from red.recv(source=ANY_SOURCE, tag=7)
                    assert payload == status.source * 11
                    seen.append(status.source)
                return sorted(seen)
            yield from red.send(red.rank * 11, 0, tag=7)
            return None

        _, rmap, _, results = run_redundant(3, 2.0, body)
        for physical in rmap.replicas_of(0):
            assert results[physical] == [1, 2]

    def test_replicas_agree_on_wildcard_order(self):
        def body(red):
            if red.rank == 0:
                order = []
                for _ in range(3):
                    _, status = yield from red.recv(source=ANY_SOURCE, tag=9)
                    order.append(status.source)
                return tuple(order)
            yield red.env.timeout(0.001 * red.rank)
            yield from red.send(red.rank, 0, tag=9)
            return None

        _, rmap, _, results = run_redundant(4, 2.0, body)
        lead, shadow = rmap.replicas_of(0)
        assert results[lead] == results[shadow]

    def test_any_source_irecv_rejected(self):
        def body(red):
            with pytest.raises(RedundancyError):
                red.irecv(source=ANY_SOURCE, tag=1)
            yield red.env.timeout(0)

        run_redundant(2, 2.0, body)

    def test_any_tag_rejected(self):
        def body(red):
            with pytest.raises(RedundancyError):
                red.irecv(source=0, tag=ANY_TAG)
            yield red.env.timeout(0)

        run_redundant(2, 2.0, body)


class TestModes:
    def test_msg_plus_hash_moves_fewer_bytes(self):
        def body(red):
            if red.rank == 0:
                yield from red.send(b"z" * 50_000, 1, tag=1)
            elif red.rank == 1:
                yield from red.recv(source=0, tag=1)
            return None

        world_full, *_ = run_redundant(2, 3.0, body, mode=ALL_TO_ALL)
        world_hash, *_ = run_redundant(2, 3.0, body, mode=MSG_PLUS_HASH)
        assert world_hash.counters["p2p_bytes"] < world_full.counters["p2p_bytes"]
        # Message *count* identical: hashes still travel as messages.
        assert (
            world_hash.counters["p2p_messages"]
            == world_full.counters["p2p_messages"]
        )

    def test_msg_plus_hash_collectives_correct(self):
        def body(red):
            total = yield from red.allreduce(red.rank + 1, ops.SUM)
            gathered = yield from red.allgather(red.rank)
            return total, tuple(gathered)

        _, _, _, results = run_redundant(4, 2.0, body, mode=MSG_PLUS_HASH)
        assert set(results.values()) == {(10, (0, 1, 2, 3))}

    def test_unknown_mode_rejected(self):
        env = Environment()
        rmap = ReplicaMap(2, 2.0)
        tracker = SphereTracker(rmap)
        world = SimMPI(env, size=rmap.total_physical)
        captured = {}

        def program(ctx):
            captured["ctx"] = ctx
            yield ctx.env.timeout(0)

        world.spawn(program)
        world.run()
        with pytest.raises(RedundancyError):
            RedComm(captured["ctx"], rmap, tracker, mode="quantum")


class TestVotingIntegration:
    def test_corrupt_replica_voted_out_r3(self):
        rmap = ReplicaMap(2, 3.0)
        bad = rmap.replicas_of(0)[1]

        def corruptor(sender, receiver, payload):
            if sender == bad and isinstance(payload, bytes):
                return payload + b"!"
            return payload

        def body(red):
            if red.rank == 0:
                yield from red.send(b"payload", 1, tag=3)
                return None
            payload, _ = yield from red.recv(source=0, tag=3)
            return payload

        world, rmap2, _, results = run_redundant(
            2, 3.0, body, corruptor=corruptor
        )
        for physical in rmap2.replicas_of(1):
            assert results[physical] == b"payload"
        assert world.counters["corrupt_copies_voted_out"] == 3

    def test_corrupt_detection_r2_raises(self):
        def corruptor(sender, receiver, payload):
            if sender >= 2 and isinstance(payload, bytes):  # the shadows
                return payload + b"!"
            return payload

        def body(red):
            if red.rank == 0:
                yield from red.send(b"v", 1, tag=3)
                return None
            try:
                yield from red.recv(source=0, tag=3)
                return "undetected"
            except VotingError:
                return "detected"

        _, rmap, _, results = run_redundant(2, 2.0, body, corruptor=corruptor)
        for physical in rmap.replicas_of(1):
            assert results[physical] == "detected"


class TestReplicaDeath:
    def test_survivors_finish_long_collective_loop(self):
        def body(red):
            acc = 0
            for iteration in range(100):
                acc += yield from red.allreduce(red.rank + iteration, ops.SUM)
            return acc

        _, rmap, exhausted, results = run_redundant(
            4, 2.0, body, kill_plan=[(0.0004, 6)]
        )
        assert exhausted == []
        values = set(results.values())
        assert len(values) == 1  # every survivor computed the same sums
        assert len(results) == rmap.total_physical - 1

    def test_pending_recv_from_dead_replica_cancelled(self):
        def body(red):
            if red.rank == 1:
                payload, _ = yield from red.recv(source=0, tag=5)
                return payload
            if red.rank == 0:
                yield red.env.timeout(0.01)  # outlive the kill
                yield from red.send("late", 1, tag=5)
            return None

        _, rmap, _, results = run_redundant(
            2, 2.0, body, kill_plan=[(0.001, 2)]  # virtual 0's shadow
        )
        # Virtual 0's shadow (physical 2) died before sending; receivers
        # still complete from the surviving replica's copy.
        for physical in rmap.replicas_of(1):
            assert results[physical] == "late"

    def test_sendrecv_source_replica_killed_mid_exchange(self):
        """Virtual 1's shadow dies before it sends: virtual 0's receive
        sets complete at the kill, from the surviving replica's copy."""
        rmap = ReplicaMap(2, 2.0)
        survivor, shadow = rmap.replicas_of(1)

        def body(red):
            order = []
            record_completions(red, order)
            if red.physical_rank == shadow:
                yield red.env.timeout(0.01)  # killed before it gets here
            partner = 1 - red.rank
            got, status = yield from red.sendrecv(
                f"from{red.rank}", partner, source=partner, send_tag=3, recv_tag=3
            )
            return got, status, list(order), red.env.now

        _, _, exhausted, results = run_redundant(
            2, 2.0, body, kill_plan=[(0.001, shadow)]
        )
        assert exhausted == [] and shadow not in results
        for physical in rmap.replicas_of(0):
            got, status, order, finished = results[physical]
            assert (got, status) == ("from1", Status(source=1, tag=3, nbytes=5))
            assert order[-1] == "recv" and finished == 0.001
        assert results[survivor][:2] == ("from0", Status(source=0, tag=3, nbytes=5))

    def test_send_to_partially_dead_sphere(self):
        def body(red):
            if red.rank == 0:
                yield red.env.timeout(0.01)
                yield from red.send("ping", 1, tag=6)
                return None
            payload, _ = yield from red.recv(source=0, tag=6)
            return payload

        _, rmap, exhausted, results = run_redundant(
            2, 2.0, body, kill_plan=[(0.001, 3)]  # virtual 1's shadow
        )
        survivor = rmap.replicas_of(1)[0]
        assert results[survivor] == "ping"
        assert exhausted == []


def _fresh_plan(red, senders_virtual, receivers_virtual):
    """``plan_copies`` over the replicas the runtime has alive right now."""
    world = red.runtime

    def live(virtual):
        return [rank for rank in red.replica_map.replicas_of(virtual) if world.is_alive(rank)]

    senders, receivers = live(senders_virtual), live(receivers_virtual)
    return senders, receivers, plan_copies(senders, receivers, red.mode)


def _offset(kind):
    return 0 if kind == "full" else HASH_TAG_OFFSET


class TestSharedRoutes:
    """The routes are built once per attempt and shared by its RedComms;
    each one must still be the route a fresh plan over the replicas alive
    at that instant gives."""

    @settings(max_examples=40, deadline=None)
    @given(
        degree=st.sampled_from([2.0, 3.0]),
        mode=st.sampled_from([ALL_TO_ALL, MSG_PLUS_HASH]),
        kills=st.lists(
            st.tuples(st.integers(0, 120), st.integers(0, 7)), max_size=6
        ),
    )
    # A shadow of virtual 0 dies after the first round, one of virtual 2
    # during the third.
    @example(degree=2.0, mode=ALL_TO_ALL, kills=[(15, 0), (40, 2)])
    @example(degree=3.0, mode=MSG_PLUS_HASH, kills=[(15, 0), (40, 4), (70, 5)])
    def test_every_send_and_receive_uses_the_live_plan(self, degree, mode, kills):
        n = 4
        rmap = ReplicaMap(n, degree)
        # Only shadows die, so no sphere is exhausted; ``kills`` name
        # them by index, at microsecond times.
        shadows = [rank for rank in range(rmap.total_physical) if rank >= n]
        kill_plan = [(when * 1e-6, shadows[index % len(shadows)]) for when, index in kills]
        posted = []
        mismatches = []
        original_post_send = SimMPI.post_send
        original_post_recv = SimMPI.post_recv
        original_isend = RedComm.isend
        original_irecv = RedComm.irecv

        def post_send(world, src, dests, tag, payload, nbytes, done=None):
            posted.extend((dst, tag) for dst in dests)
            return original_post_send(world, src, dests, tag, payload, nbytes, done)

        def post_recv(world, rank, members, tag, done):
            posted.extend(members)
            return original_post_recv(world, rank, members, tag, done)

        def isend(red, payload, dest, tag=0, _internal=False):
            _senders, receivers, plan = _fresh_plan(red, red.rank, dest)
            me = red.physical_rank
            expected = [
                (receiver, tag + _offset(plan[(me, receiver)])) for receiver in receivers
            ]
            posted.clear()
            request = original_isend(red, payload, dest, tag, _internal)
            if posted != expected:
                mismatches.append(("send", me, dest, red.env.now, list(posted), expected))
            return request

        def irecv(red, source=ANY_SOURCE, tag=ANY_TAG, _internal=False):
            senders, _receivers, plan = _fresh_plan(red, source, red.rank)
            me = red.physical_rank
            expected = [(sender, _offset(plan[(sender, me)])) for sender in senders]
            posted.clear()
            request = original_irecv(red, source, tag, _internal)
            if posted != expected:
                mismatches.append(("recv", me, source, red.env.now, list(posted), expected))
            return request

        def body(red):
            total = 0
            for round_ in range(6):
                right = (red.rank + 1) % red.size
                left = (red.rank - 1) % red.size
                got, _status = yield from red.sendrecv(
                    (red.rank, round_), right, source=left, send_tag=round_, recv_tag=round_
                )
                assert got == (left, round_)
                total += yield from red.allreduce(red.rank, ops.SUM)
                yield red.env.timeout(10e-6)
            return total

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(SimMPI, "post_send", post_send)
            patch.setattr(SimMPI, "post_recv", post_recv)
            patch.setattr(RedComm, "isend", isend)
            patch.setattr(RedComm, "irecv", irecv)
            try:
                world, _, exhausted, results = run_redundant(
                    n, degree, body, mode=mode, kill_plan=kill_plan
                )
            except (VotingError, SimulationDeadlock):
                # Msg-PlusHash loses a message whose full copy's carrier
                # dies, or whose plan changes between send and receive
                # (``test_msg_plus_hash_survives_a_carrier_death``); the
                # routes up to that point are still checked.
                if mode == ALL_TO_ALL:
                    raise
                world = None
        assert mismatches == []
        if world is not None:
            assert exhausted == []
            survivors = [rank for rank in range(rmap.total_physical) if world.is_alive(rank)]
            assert sorted(results) == survivors
            assert set(results.values()) == {6 * 6}

    @pytest.mark.xfail(
        raises=(VotingError, SimulationDeadlock),
        strict=True,
        reason="Msg-PlusHash loses a message when a sender replica dies "
        "between the receive's post and the last copy's send",
    )
    @pytest.mark.parametrize(
        "victim, sends_first",
        [("primary", "shadow"), ("shadow", "primary"), ("shadow", None)],
    )
    def test_msg_plus_hash_survives_a_carrier_death(self, victim, sends_first):
        """A replica of virtual 0 dies while virtual 1's receives wait.

        When the other replica had already sent, one receiver got only
        its digest, and the full copy's carrier is dead (a
        ``VotingError``).  When it sends after the death, the new plan
        ships receiver 3 a full copy where its receive waits for a
        digest (a deadlock)."""
        rmap = ReplicaMap(2, 2.0)
        replicas = dict(zip(("primary", "shadow"), rmap.replicas_of(0)))
        early = replicas.get(sends_first)

        def body(red):
            if red.rank == 1:
                payload, _ = yield from red.recv(source=0, tag=5)
                return payload
            if red.physical_rank != early:
                yield red.env.timeout(0.01)  # the victim dies waiting here
            yield from red.send("late", 1, tag=5)
            return None

        _, _, _, results = run_redundant(
            2, 2.0, body, mode=MSG_PLUS_HASH, kill_plan=[(0.001, replicas[victim])]
        )
        for physical in rmap.replicas_of(1):
            assert results[physical] == "late"


def _count_watcher_calls(patch):
    """Wrap every death watcher registered from now on; returns the tally."""
    calls = []
    original = SimMPI.on_rank_death

    def on_rank_death(world, watcher):
        def counted(rank):
            calls.append(rank)
            watcher(rank)

        original(world, counted)

    patch.setattr(SimMPI, "on_rank_death", on_rank_death)
    return calls


def _ring_and_allreduce(rounds):
    def body(red):
        total = 0
        for round_ in range(rounds):
            right = (red.rank + 1) % red.size
            left = (red.rank - 1) % red.size
            got, _status = yield from red.sendrecv(
                (red.rank, round_), right, source=left, send_tag=round_, recv_tag=round_
            )
            assert got == (left, round_)
            total += yield from red.allreduce(red.rank, ops.SUM)
            yield red.env.timeout(10e-6)
        return total

    return body


class TestDeathWalk:
    """A world has one death watcher, the sphere tracker's: a death
    withdraws the request-set members waiting on the dead replica and
    leaves plain receives posted."""

    @pytest.mark.parametrize("n", [16, 64])
    def test_one_watcher_call_per_kill(self, n):
        rmap = ReplicaMap(n, 2.0)
        shadows = rmap.replicas_of(1)[1:] + rmap.replicas_of(n - 1)[1:]
        kill_plan = [(15e-6, shadows[0]), (40e-6, shadows[1])]
        with pytest.MonkeyPatch.context() as patch:
            calls = _count_watcher_calls(patch)
            world, _, exhausted, results = run_redundant(
                n, 2.0, _ring_and_allreduce(2), kill_plan=kill_plan
            )
        assert world.counters["ranks_killed"] == 2
        assert calls == shadows
        assert exhausted == [] and len(results) == rmap.total_physical - 2

    @settings(max_examples=40, deadline=None)
    @given(
        degree=st.sampled_from([2.0, 3.0]),
        mode=st.sampled_from([ALL_TO_ALL, MSG_PLUS_HASH]),
        kills=st.lists(
            st.tuples(st.integers(0, 120), st.integers(0, 7)), max_size=6
        ),
    )
    @example(degree=2.0, mode=ALL_TO_ALL, kills=[(15, 0), (40, 2)])
    @example(degree=3.0, mode=MSG_PLUS_HASH, kills=[(15, 0), (40, 4), (70, 5)])
    def test_no_member_waits_on_a_dead_sender(self, degree, mode, kills):
        n = 4
        rmap = ReplicaMap(n, degree)
        shadows = [rank for rank in range(rmap.total_physical) if rank >= n]
        kill_plan = [(when * 1e-6, shadows[index % len(shadows)]) for when, index in kills]
        # Every rank also posts a plain receive from each shadow at a tag
        # no one sends on: it must outlive the shadow's death.
        never_sent = CONTROL_TAG_BASE + 99
        violations = []
        original_kill = SimMPI.kill_rank

        def kill_rank(world, rank, cause=None):
            original_kill(world, rank, cause)
            dead = set(range(world.size)) - world.alive_ranks
            for receiver, posted in enumerate(world._posted):
                if receiver in dead:
                    continue
                members = [source for source, _tag, done in posted if is_member(done)]
                plain = sorted(
                    source for source, tag, done in posted
                    if not is_member(done) and tag == never_sent
                )
                if dead.intersection(members):
                    violations.append(("member", receiver, rank, members))
                if plain != [shadow for shadow in shadows if shadow != receiver]:
                    violations.append(("plain", receiver, rank, plain))

        def body(red):
            for shadow in shadows:
                if shadow != red.physical_rank:
                    red._world.irecv(shadow, never_sent, _internal=True)
            result = yield from _ring_and_allreduce(6)(red)
            return result

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(SimMPI, "kill_rank", kill_rank)
            try:
                world, _, exhausted, results = run_redundant(
                    n, degree, body, mode=mode, kill_plan=kill_plan
                )
            except (VotingError, SimulationDeadlock):
                # Msg-PlusHash may lose a message when a replica dies
                # (``test_msg_plus_hash_survives_a_carrier_death``); the
                # deaths up to that point are still checked.
                if mode == ALL_TO_ALL:
                    raise
                world = None
        assert violations == []
        if world is not None:
            assert exhausted == []
            survivors = [rank for rank in range(rmap.total_physical) if world.is_alive(rank)]
            assert sorted(results) == survivors
