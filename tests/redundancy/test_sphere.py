"""Tests for sphere liveness tracking."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RedundancyError
from repro.experiments.table4 import ScaledSetup
from repro.mpi import SimMPI
from repro.orchestration import run_redundancy_sweep
from repro.redundancy import ALL_TO_ALL, MSG_PLUS_HASH, ReplicaMap, SphereTracker
from repro.redundancy import sphere as sphere_module
from repro.redundancy.voting import HASH_TAG_OFFSET
from repro.simkit import Environment


@pytest.fixture
def tracker():
    return SphereTracker(ReplicaMap(3, 2.0))


class TestLiveness:
    def test_initially_all_alive(self, tracker):
        rmap = tracker.replica_map
        for virtual in range(rmap.virtual_processes):
            assert tracker.alive_replicas(virtual) == rmap.replicas_of(virtual)

    def test_one_death_keeps_sphere_alive(self, tracker):
        fired = []
        tracker.on_sphere_exhausted(fired.append)
        shadow = tracker.replica_map.replicas_of(1)[1]
        tracker.notice_death(shadow)
        assert tracker.alive_replicas(1) == [1]
        assert fired == []

    def test_sphere_exhaustion_fires_once(self, tracker):
        fired = []
        tracker.on_sphere_exhausted(fired.append)
        for physical in tracker.replica_map.replicas_of(2):
            tracker.notice_death(physical)
        # Kill another whole sphere: no second callback.
        for physical in tracker.replica_map.replicas_of(0):
            tracker.notice_death(physical)
        assert fired == [2]

    def test_duplicate_death_ignored(self, tracker):
        fired = []
        tracker.on_sphere_exhausted(fired.append)
        for _ in range(2):
            tracker.notice_death(0)
        assert 0 not in tracker.alive_replicas(tracker.replica_map.virtual_of(0))
        assert tracker.alive_replicas(0) == tracker.replica_map.replicas_of(0)[1:]
        assert fired == []

    def test_lead_replica_moves_on_death(self, tracker):
        replicas = tracker.replica_map.replicas_of(0)
        assert tracker.lead_replica(0) == replicas[0]
        tracker.notice_death(replicas[0])
        assert tracker.lead_replica(0) == replicas[1]

    def test_lead_replica_of_exhausted_sphere_raises(self, tracker):
        for physical in tracker.replica_map.replicas_of(0):
            tracker.notice_death(physical)
        with pytest.raises(RedundancyError):
            tracker.lead_replica(0)

    def test_is_dead(self, tracker):
        virtual_of = tracker.replica_map.virtual_of
        tracker.notice_death(4)
        assert 4 not in tracker.alive_replicas(virtual_of(4))
        assert 0 in tracker.alive_replicas(virtual_of(0))


class TestUnreplicated:
    def test_r1_single_death_is_fatal(self):
        tracker = SphereTracker(ReplicaMap(3, 1.0))
        fired = []
        tracker.on_sphere_exhausted(fired.append)
        tracker.notice_death(1)
        assert fired == [1]

    def test_partial_only_unreplicated_fatal(self):
        rmap = ReplicaMap(4, 1.5)  # even virtual ranks have replicas
        tracker = SphereTracker(rmap)
        fired = []
        tracker.on_sphere_exhausted(fired.append)
        tracker.notice_death(0)  # replicated: survives
        assert fired == []
        tracker.notice_death(1)  # unreplicated: fatal
        assert fired == [1]


class TestRoutes:
    """Routes are built on first use, shared, and dropped on a death."""

    def _bound(self, tracker, mode):
        world = SimMPI(Environment(), size=tracker.replica_map.total_physical)
        tracker.bind(world, mode)
        return world

    def test_all_to_all_replicas_share_one_route(self, tracker):
        self._bound(tracker, ALL_TO_ALL)
        # Virtual 0 is physical {0, 3}, virtual 1 is {1, 4}.
        route = tracker.send_route(0, 1)
        assert route == ((1, 4), None)
        assert tracker.send_route(3, 1) is route
        members = tracker.recv_route(3, 1)
        assert members == ((1, 0), (4, 0))
        assert tracker.recv_route(0, 1) is members

    def test_msg_plus_hash_routes_are_per_rank(self, tracker):
        self._bound(tracker, MSG_PLUS_HASH)
        # Receiver replica j gets the full copy from sender replica j.
        assert tracker.send_route(0, 1) == ((1, 4), ("full", "hash"))
        assert tracker.send_route(3, 1) == ((1, 4), ("hash", "full"))
        assert tracker.recv_route(4, 0) == ((0, HASH_TAG_OFFSET), (3, 0))
        assert tracker.recv_route(1, 0) == ((0, 0), (3, HASH_TAG_OFFSET))

    @pytest.mark.parametrize("mode", [ALL_TO_ALL, MSG_PLUS_HASH])
    def test_a_death_drops_its_spheres_routes(self, tracker, mode):
        world = self._bound(tracker, mode)
        before = tracker.send_route(0, 1), tracker.recv_route(0, 1)
        world.kill_rank(4)
        tracker.notice_death(4)
        assert tracker.send_route(0, 1) == ((1,), None)
        assert tracker.recv_route(0, 1) == ((1, 0),)
        assert (tracker.send_route(0, 1), tracker.recv_route(0, 1)) != before

    @pytest.mark.parametrize("mode", [ALL_TO_ALL, MSG_PLUS_HASH])
    def test_a_death_keeps_every_route_it_does_not_change(self, tracker, mode):
        """Virtual 1 is physical {1, 4}; rank 4 dies.  Every route keyed
        by another sphere stays the same object, except, in Msg-PlusHash
        mode, the routes of sphere 1's own ranks, whose copy kinds
        depend on their own sphere's live replicas."""
        world = self._bound(tracker, mode)
        rmap = tracker.replica_map
        ranks, spheres = range(rmap.total_physical), range(rmap.virtual_processes)
        before = {
            (rank, peer): (tracker.send_route(rank, peer), tracker.recv_route(rank, peer))
            for rank in ranks
            for peer in spheres
        }
        world.kill_rank(4)
        for (rank, peer), (send, recv) in before.items():
            if rank == 4:
                continue
            changed = peer == 1 or (mode == MSG_PLUS_HASH and rmap.virtual_of(rank) == 1)
            after = tracker.send_route(rank, peer), tracker.recv_route(rank, peer)
            assert (after[0] is send and after[1] is recv) == (not changed)
            assert 4 not in after[0][0]
            assert 4 not in [sender for sender, _ in after[1]]
            if changed:
                assert after == _fresh_routes(rmap, mode, {4}, rank, peer)

    def test_a_rank_the_runtime_killed_is_left_out(self, tracker):
        world = self._bound(tracker, ALL_TO_ALL)
        world.kill_rank(4)  # before any RedComm heard of it
        assert tracker.send_route(0, 1) == ((1,), None)

    def test_one_world_in_one_mode(self, tracker):
        world = self._bound(tracker, ALL_TO_ALL)
        tracker.bind(world, ALL_TO_ALL)
        with pytest.raises(RedundancyError):
            tracker.bind(world, MSG_PLUS_HASH)
        with pytest.raises(RedundancyError):
            tracker.bind(SimMPI(Environment(), size=6), ALL_TO_ALL)


def _fresh_routes(rmap, mode, dead, rank, peer):
    """``rank``'s routes to and from ``peer`` on a new tracker over a
    world where ``dead`` died before any route was built."""
    world = SimMPI(Environment(), size=rmap.total_physical)
    tracker = SphereTracker(rmap)
    tracker.bind(world, mode)
    for physical in sorted(dead):
        world.kill_rank(physical)
    return tracker.send_route(rank, peer), tracker.recv_route(rank, peer)


class TestRoutesAfterDeaths:
    """A kept route is what a new tracker would build: routes depend on
    their two spheres' live replicas only."""

    @settings(max_examples=60, deadline=None)
    @given(
        mode=st.sampled_from([ALL_TO_ALL, MSG_PLUS_HASH]),
        degree=st.sampled_from([1.5, 2.0, 2.5, 3.0]),
        script=st.lists(
            st.tuples(st.booleans(), st.integers(0, 11), st.integers(0, 3)), max_size=12
        ),
    )
    def test_every_route_equals_a_fresh_build(self, mode, degree, script):
        rmap = ReplicaMap(4, degree)
        world = SimMPI(Environment(), size=rmap.total_physical)
        tracker = SphereTracker(rmap)
        tracker.bind(world, mode)
        dead = set()
        for kill, rank, peer in script:
            rank %= rmap.total_physical
            if kill:
                world.kill_rank(rank)
                dead.add(rank)
            elif rank not in dead:
                tracker.send_route(rank, peer)
                tracker.recv_route(rank, peer)
        for rank in range(rmap.total_physical):
            if rank in dead:
                continue
            for peer in range(rmap.virtual_processes):
                routes = tracker.send_route(rank, peer), tracker.recv_route(rank, peer)
                assert routes == _fresh_routes(rmap, mode, dead, rank, peer)


#: Route builds (``plan_copies`` calls, send and receive routes) of the
#: Table 4 cell at the 6 h MTBF and 2.0x, which loses three replicas in
#: one attempt.  When every death emptied every table the cell built 32
#: routes in All-to-all mode and 132 in Msg-PlusHash mode.
ROUTE_BUILDS_6H_2X = {ALL_TO_ALL: 20, MSG_PLUS_HASH: 87}


@pytest.mark.parametrize("mode", sorted(ROUTE_BUILDS_6H_2X))
def test_route_builds_of_a_failure_cell(monkeypatch, mode):
    builds = []
    plan_copies = sphere_module.plan_copies

    def counting(*args):
        builds.append(None)
        return plan_copies(*args)

    monkeypatch.setattr(sphere_module, "plan_copies", counting)
    setup = ScaledSetup(virtual_processes=8, steps=5)
    config = dataclasses.replace(setup.job_config(), mode=mode)
    (cell,) = run_redundancy_sweep(
        config, node_mtbfs=[setup.mtbf_to_sim(6.0)], degrees=[2.0], workers=1
    )
    assert cell.report.attempts == 1 and cell.report.failures_injected == 3
    assert len(builds) == ROUTE_BUILDS_6H_2X[mode]
