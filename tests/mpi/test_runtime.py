"""Tests for the SimMPI runtime: lifecycle, liveness, accounting."""

from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import MPIError
from repro.mpi import SimMPI
from repro.mpi.datatypes import message_wire_size
from repro.netsim import CPU_OVERHEAD, LOOPBACK_FACTOR, Network
from repro.simkit import Environment


class TestLifecycle:
    def test_result_of_requires_completion(self):
        env = Environment()
        world = SimMPI(env, size=1)

        def program(ctx):
            yield ctx.compute(1.0)
            return "ok"

        world.spawn(program)
        with pytest.raises(MPIError):
            world.result_of(0)
        world.run()
        assert world.result_of(0) == "ok"

    def test_run_before_spawn_rejected(self):
        world = SimMPI(Environment(), size=1)
        with pytest.raises(MPIError):
            world.run()

    def test_double_spawn_rejected(self):
        world = SimMPI(Environment(), size=1)

        def program(ctx):
            yield ctx.compute(0.0)

        world.spawn(program)
        with pytest.raises(MPIError):
            world.spawn(program)

    def test_run_until_horizon(self):
        env = Environment()
        world = SimMPI(env, size=1)

        def program(ctx):
            yield ctx.compute(10.0)

        world.spawn(program)
        world.run(until=1.0)
        assert env.now == 1.0

    def test_world_size_validation(self):
        with pytest.raises(MPIError):
            SimMPI(Environment(), size=0)


class TestLiveness:
    def test_kill_rank_updates_liveness(self):
        world = SimMPI(Environment(), size=3)

        def program(ctx):
            yield ctx.compute(100.0)

        world.spawn(program)
        world.kill_rank(1)
        assert not world.is_alive(1)
        assert world.alive_ranks == {0, 2}

    def test_kill_is_idempotent(self):
        world = SimMPI(Environment(), size=2)

        def program(ctx):
            yield ctx.compute(1.0)

        world.spawn(program)
        world.kill_rank(0)
        world.kill_rank(0)
        assert world.counters["ranks_killed"] == 1

    def test_death_watchers_called(self):
        world = SimMPI(Environment(), size=2)
        deaths = []
        world.on_rank_death(deaths.append)

        def program(ctx):
            yield ctx.compute(1.0)

        world.spawn(program)
        world.kill_rank(1)
        assert deaths == [1]

    def test_send_to_dead_rank_completes_but_drops(self):
        env = Environment()
        world = SimMPI(env, size=2)

        def program(ctx):
            if ctx.rank == 0:
                yield ctx.compute(1.0)
                yield from ctx.comm.send(b"into-void", dest=1)
                return "sent"
            yield ctx.compute(100.0)

        world.spawn(program)
        world.kill_rank(1)
        world.run()
        assert world.result_of(0) == "sent"
        assert world.counters["p2p_dropped"] >= 1

    def test_dead_rank_cannot_send(self):
        world = SimMPI(Environment(), size=2)

        def program(ctx):
            yield ctx.compute(1.0)

        world.spawn(program)
        world.kill_rank(0)
        with pytest.raises(MPIError):
            world.post_send(0, (1,), 0, b"", message_wire_size(b""), done=None)

    def test_message_in_flight_to_dying_rank_dropped(self):
        env = Environment()
        world = SimMPI(env, size=2)

        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.send(b"x", dest=1)
                return "done"
            yield ctx.compute(100.0)

        world.spawn(program)

        def killer(env):
            # Kill after injection starts but likely before delivery.
            yield env.timeout(1e-9)
            world.kill_rank(1)

        env.process(killer(env))
        world.run()
        assert world.result_of(0) == "done"


class TestAccounting:
    def test_message_and_byte_counters(self):
        world = SimMPI(Environment(), size=2)

        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.send(b"x" * 100, dest=1)
            else:
                yield from ctx.comm.recv(source=0)

        world.spawn(program)
        world.run()
        assert world.counters["p2p_messages"] == 1
        assert world.counters["p2p_bytes"] >= 100

    def test_channels_quiet_after_completion(self):
        world = SimMPI(Environment(), size=2)

        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.send(b"q", dest=1)
            else:
                yield from ctx.comm.recv(source=0)

        world.spawn(program)
        world.run()
        assert world.channels_quiet()

    def test_channels_quiet_excludes_dead_destinations(self):
        env = Environment()
        world = SimMPI(env, size=2)

        def program(ctx):
            if ctx.rank == 0:
                yield ctx.compute(1.0)
                yield from ctx.comm.send(b"void", dest=1)
            else:
                yield ctx.compute(100.0)

        world.spawn(program)
        world.kill_rank(1)
        world.run()
        assert world.channels_quiet()


class Ledger:
    """The test's own count of each (src, dst) pair's sends and arrivals.

    ``send`` posts one message and counts it; arrivals are counted by
    wrapping the world's arrival entry point, as a destination still
    alive takes them in (one to a dead rank is dropped, not counted).
    """

    def __init__(self, world):
        self.world = world
        self.sent = Counter()
        self.arrived = Counter()
        arrive = world._arrive

        def observed(envelope):
            if world.is_alive(envelope.dest):
                self.arrived[envelope.source, envelope.dest] += 1
            arrive(envelope)

        # ``post_send`` queues whatever ``world._arrive`` is at post.
        world._arrive = observed

    def send(self, src, dst, payload=b"m" * 100):
        self.sent[src, dst] += 1
        self.world.post_send(src, (dst,), 0, payload, message_wire_size(payload))


def pairwise_quiet(ledger):
    """``channels_quiet`` by a scan over every (src, dst) pair of the ledger."""
    world = ledger.world
    for (src, dst), sent in ledger.sent.items():
        if not world.is_alive(dst) or not world.is_alive(src):
            continue
        if ledger.arrived[src, dst] != sent:
            return False
    return True


_TRAFFIC = st.lists(
    st.one_of(
        st.tuples(st.just("send"), st.integers(0, 3), st.integers(0, 3)),
        st.tuples(st.just("kill"), st.integers(0, 3)),
        st.tuples(st.just("step"), st.integers(1, 4)),
    ),
    max_size=60,
)


class TestInFlightCount:
    @settings(max_examples=300, deadline=None)
    @given(_TRAFFIC)
    # Rank 0 queues three sends on its NIC and dies with them draining.
    @example(
        [("send", 0, 1), ("send", 0, 1), ("send", 0, 2), ("kill", 0),
         ("step", 1), ("step", 2), ("step", 4)]
    )
    def test_running_count_agrees_with_pairwise_scan(self, traffic):
        env = Environment()
        # Two ranks per node: same-node and off-node wires differ, so
        # messages of different pairs overtake each other.
        world = SimMPI(env, size=4, placement={0: 0, 1: 0, 2: 1, 3: 1})
        ledger = Ledger(world)
        for op in traffic:
            if op[0] == "send":
                _, src, dst = op
                if world.is_alive(src):
                    ledger.send(src, dst)
            elif op[0] == "kill":
                world.kill_rank(op[1])
            else:
                for _ in range(op[1]):
                    if env._queue:
                        env.step()
            assert world.channels_quiet() == pairwise_quiet(ledger)
        env.run()
        assert world.channels_quiet() and pairwise_quiet(ledger)


def queued_between_live_ranks(world):
    """The messages in flight by brute force: queued arrivals whose two
    ends are alive."""
    arrive = world._arrive
    return sum(
        1
        for entry in world.env._queue
        if entry[3] == arrive
        and world.is_alive(entry[4].source)
        and world.is_alive(entry[4].dest)
    )


class TestKillScan:
    """``kill_rank`` scans the queue only while messages are in flight."""

    @settings(max_examples=300, deadline=None)
    @given(_TRAFFIC)
    def test_in_flight_is_the_queued_arrivals_between_live_ranks(self, traffic):
        env = Environment()
        world = SimMPI(env, size=4, placement={0: 0, 1: 0, 2: 1, 3: 1})
        for op in traffic:
            if op[0] == "send":
                _, src, dst = op
                if world.is_alive(src):
                    world.post_send(src, (dst,), 0, b"m" * 100, message_wire_size(b"m" * 100))
            elif op[0] == "kill":
                world.kill_rank(op[1])
            else:
                for _ in range(op[1]):
                    if env._queue:
                        env.step()
            assert world._in_flight == queued_between_live_ranks(world)

    def test_a_kill_with_nothing_in_flight_does_not_scan_the_queue(self):
        env = Environment()
        world = SimMPI(env, size=2)
        env.timeout(1.0)

        class Unscannable(list):
            def __iter__(self):
                raise AssertionError("the queue was scanned")

        env._queue = Unscannable(env._queue)
        world.kill_rank(1)
        assert not world.is_alive(1) and world._in_flight == 0


class TestPlacement:
    def test_default_placement_is_one_rank_per_node(self):
        world = SimMPI(Environment(), size=4)
        assert [world.placement[rank] for rank in range(4)] == [0, 1, 2, 3]

    @pytest.mark.parametrize("placement", [{0: 0}, {0: 0, 2: 1}])
    def test_placement_must_cover_every_rank(self, placement):
        with pytest.raises(MPIError):
            SimMPI(Environment(), size=2, placement=placement)

    def test_rejects_zero_ranks(self):
        with pytest.raises(MPIError):
            SimMPI(Environment(), size=0, placement={})


class TestNicInjection:
    """A rank's NIC injects one message at a time (Eq. 1's r-fold cost)."""

    PAYLOAD = b"n" * 4096

    def _costs(self, world, src, dst):
        same_node = world.placement[src] == world.placement[dst]
        busy = world.network.sender_busy_time(
            message_wire_size(self.PAYLOAD), same_node
        )
        return busy, world.network.wire_latency(same_node)

    def test_back_to_back_sends_serialise_on_the_nic(self):
        env = Environment()
        world = SimMPI(env, size=2)
        count, start = 5, 2.0
        busy, wire = self._costs(world, 0, 1)
        completed, arrived = [], []

        def program(ctx):
            if ctx.rank == 0:
                yield ctx.compute(start)
                requests = [ctx.comm.isend(self.PAYLOAD, dest=1) for _ in range(count)]
                for request in requests:
                    request.add_callback(lambda _e: completed.append(env.now))
                yield from ctx.comm.waitall(requests)
            else:
                requests = [ctx.comm.irecv(source=0) for _ in range(count)]
                for request in requests:
                    request.add_callback(lambda _e: arrived.append(env.now))
                yield from ctx.comm.waitall(requests)

        world.spawn(program)
        world.run()
        expected, when = [], start
        for _ in range(count):
            when = when + busy
            expected.append(when)
        assert completed == expected
        assert arrived == [done + wire for done in expected]

    def test_killed_sender_drains_its_nic_queue(self):
        env = Environment()
        world = SimMPI(env, size=3)
        ledger = Ledger(world)
        busy, wire = self._costs(world, 0, 1)
        destinations = [1, 2, 1, 2, 1]
        arrived = []

        def program(ctx):
            if ctx.rank == 0:
                for dest in destinations:
                    ctx.comm.isend(self.PAYLOAD, dest=dest)
                yield ctx.compute(1000.0)
            elif ctx.rank == 1:
                requests = [ctx.comm.irecv(source=0) for _ in range(3)]
                for request in requests:
                    request.add_callback(lambda _e: arrived.append(env.now))
                yield from ctx.comm.waitall(requests)
                return "received"
            else:
                yield ctx.compute(1000.0)

        def killer(env):
            # The first send is on the NIC; four more are queued behind it.
            yield env.timeout(0.5 * busy)
            world.kill_rank(0)
            world.kill_rank(2)

        world.spawn(program)
        env.process(killer(env))
        world.run(until=100.0)
        assert world.result_of(1) == "received"
        ends = [busy]
        for _ in destinations[1:]:
            ends.append(ends[-1] + busy)
        assert arrived == [end + wire for end, dest in zip(ends, destinations) if dest == 1]
        assert ledger.arrived == {(0, 1): 3}
        assert world.counters["p2p_dropped"] == 2

    def test_destination_killed_before_the_copy_leaves_the_nic(self):
        env = Environment()
        world = SimMPI(env, size=2)
        ledger = Ledger(world)
        busy, _wire = self._costs(world, 0, 1)
        start = 1.0
        completed, delivered = [], []

        def program(ctx):
            if ctx.rank == 0:
                yield ctx.compute(start)
                yield from ctx.comm.isend(self.PAYLOAD, dest=1).wait()
                completed.append(env.now)
            else:
                request = ctx.comm.irecv(source=0)
                request.add_callback(lambda _e: delivered.append(env.now))
                yield ctx.compute(1000.0)

        def killer(env):
            yield env.timeout(start + 0.5 * busy)
            world.kill_rank(1)

        world.spawn(program)
        env.process(killer(env))
        world.run(until=100.0)
        assert completed == [start + busy]
        assert delivered == []
        assert world.counters["p2p_dropped"] == 1
        assert ledger.arrived == {}

    def test_send_to_a_dead_rank_is_dropped_at_post(self):
        env = Environment()
        world = SimMPI(env, size=2)
        ledger = Ledger(world)
        world.kill_rank(1)
        nbytes = message_wire_size(self.PAYLOAD)
        completions = []
        world.post_send(0, (1,), 0, self.PAYLOAD, nbytes, completions.append)
        assert world.counters["p2p_dropped"] == 1
        env.run()
        # The sender still pays its NIC time; nothing reaches the wire.
        assert completions == [None]
        assert env.now == world.network.sender_busy_time(nbytes, False)
        assert ledger.arrived == {}

    def test_post_queues_one_arrival_and_one_completion(self):
        env = Environment()
        world = SimMPI(env, size=2)
        busy, wire = self._costs(world, 0, 1)
        nbytes = message_wire_size(self.PAYLOAD)
        world.post_send(0, (1,), 0, self.PAYLOAD, nbytes, lambda _value: None)
        world.post_send(0, (1,), 0, self.PAYLOAD, nbytes, None)
        queued = sorted((when, call.__name__) for when, _p, _s, call, _a in env._queue)
        assert queued == [
            (busy, "<lambda>"), (busy + wire, "_arrive"), (busy + busy + wire, "_arrive"),
        ]

    @pytest.mark.parametrize("dead", [None, 2])
    @pytest.mark.parametrize("dests", [(1, 2, 3), (3, 1, 2), (2, 2, 1)])
    def test_fan_out_queues_what_one_call_per_copy_queues(self, dests, dead):
        """One call over three destinations pushes the same heap entries
        (time, sequence, envelope) as three one-destination calls, the
        completion with the last, and leaves the same accounting."""

        def post(fan_out):
            env = Environment()
            # Rank 1 shares rank 0's node: its copy pays loopback costs.
            world = SimMPI(env, size=4, placement={0: 0, 1: 0, 2: 1, 3: 2})
            if dead is not None:
                world.kill_rank(dead)
            nbytes = message_wire_size(self.PAYLOAD)

            def done(_value):
                pass

            # Two posts, so the second starts behind a busy NIC.
            for tag in (7, 8):
                if fan_out:
                    world.post_send(0, dests, tag, self.PAYLOAD, nbytes, done)
                    continue
                for index, dst in enumerate(dests):
                    last = index == len(dests) - 1
                    world.post_send(0, (dst,), tag, self.PAYLOAD, nbytes, done if last else None)
            queued = sorted(
                (when, priority, sequence, getattr(call, "__name__", call), arg)
                for when, priority, sequence, call, arg in env._queue
            )
            accounting = (
                dict(world.counters), world._nic_free,
                world._in_flight, env._sequence,
            )
            return queued, accounting

        assert post(fan_out=True) == post(fan_out=False)

    @pytest.mark.parametrize(
        "placement", [None, {0: 0, 1: 0, 2: 1}], ids=["own-nodes", "shared-node"]
    )
    @pytest.mark.parametrize("dests", [(1, 9), (9, 1), (2, 1, 9)])
    def test_unplaced_destination_changes_nothing(self, placement, dests):
        """A destination with no placement fails the whole post before
        any copy is queued, counted or charged to the NIC."""
        env = Environment()
        world = SimMPI(env, size=3, placement=placement)
        nbytes = message_wire_size(self.PAYLOAD)
        world.post_send(0, (1,), 0, self.PAYLOAD, nbytes, lambda _value: None)

        def state():
            return (
                list(env._queue), world._in_flight, list(world._nic_free),
                env._sequence, dict(world.counters),
            )

        before = state()
        with pytest.raises(MPIError, match="no placement for rank 9"):
            world.post_send(0, dests, 5, self.PAYLOAD, nbytes, lambda _value: None)
        assert state() == before

    def test_colocated_ranks_pay_loopback_costs_on_the_nic(self):
        # Ranks 0 and 1 share node 0; rank 2 is alone on node 1.  Above
        # the eager threshold, only the off-node send pays the
        # rendezvous, and only the on-node sends get the loopback wire.
        network = Network(latency=1e-3, bandwidth=1e9)
        payload = b"r" * 100_000
        nbytes = message_wire_size(payload)
        env = Environment()
        world = SimMPI(env, size=3, network=network, placement={0: 0, 1: 0, 2: 1})
        destinations = [1, 2, 1]
        arrived = {1: [], 2: []}

        def program(ctx):
            if ctx.rank == 0:
                requests = [ctx.comm.isend(payload, dest=dest) for dest in destinations]
                yield from ctx.comm.waitall(requests)
            else:
                count = destinations.count(ctx.rank)
                requests = [ctx.comm.irecv(source=0) for _ in range(count)]
                for request in requests:
                    request.add_callback(
                        lambda _e, rank=ctx.rank: arrived[rank].append(env.now)
                    )
                yield from ctx.comm.waitall(requests)

        world.spawn(program)
        world.run()
        local_busy = CPU_OVERHEAD + nbytes / 1e9
        remote_busy = local_busy + 2.0 * 1e-3
        first = local_busy
        second = first + remote_busy
        third = second + local_busy
        loopback = 1e-3 * LOOPBACK_FACTOR
        assert arrived[1] == [first + loopback, third + loopback]
        assert arrived[2] == [second + 1e-3]
