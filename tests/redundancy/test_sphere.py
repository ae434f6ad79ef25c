"""Tests for sphere liveness tracking."""

import pytest

from repro.errors import RedundancyError
from repro.redundancy import ReplicaMap, SphereTracker


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
        assert tracker.is_dead(0)
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
        tracker.notice_death(4)
        assert tracker.is_dead(4)
        assert not tracker.is_dead(0)


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
