"""Tests for the replica map (Eqs. 5-8 realised as rank layout)."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import RedundancyError
from repro.redundancy import ReplicaMap


class TestIntegerDegrees:
    def test_r1_identity(self):
        rmap = ReplicaMap(4, 1.0)
        assert rmap.total_physical == 4
        assert all(rmap.replicas_of(v) == [v] for v in range(4))

    def test_r2_layout(self):
        rmap = ReplicaMap(3, 2.0)
        assert rmap.total_physical == 6
        assert rmap.replicas_of(0) == [0, 3]
        assert rmap.replicas_of(1) == [1, 4]
        assert rmap.replicas_of(2) == [2, 5]

    def test_r3(self):
        rmap = ReplicaMap(2, 3.0)
        assert rmap.total_physical == 6
        assert len(rmap.replicas_of(0)) == 3

    def test_primary_rank_equals_virtual(self):
        rmap = ReplicaMap(5, 2.0)
        for virtual in range(5):
            assert rmap.replicas_of(virtual)[0] == virtual


class TestPartialDegrees:
    def test_1_5x_interleaved_replicates_even_ranks(self):
        # The paper: "1.5x means every other process (every even
        # process) has a replica".
        rmap = ReplicaMap(4, 1.5)
        assert [len(rmap.replicas_of(v)) for v in range(4)] == [2, 1, 2, 1]
        assert rmap.total_physical == 6

    def test_2_5x(self):
        rmap = ReplicaMap(4, 2.5)
        levels = sorted(len(rmap.replicas_of(v)) for v in range(4))
        assert levels == [2, 2, 3, 3]
        assert rmap.total_physical == 10

    def test_virtual_of_inverts_replicas_of(self):
        rmap = ReplicaMap(5, 1.75)
        for virtual in range(5):
            for physical in rmap.replicas_of(virtual):
                assert rmap.virtual_of(physical) == virtual

    def test_replica_index(self):
        rmap = ReplicaMap(4, 2.0)
        for virtual in range(4):
            replicas = rmap.replicas_of(virtual)
            assert rmap.replica_index(replicas[0]) == 0
            assert rmap.replica_index(replicas[1]) == 1

    def test_unknown_physical_rank(self):
        rmap = ReplicaMap(2, 1.0)
        with pytest.raises(RedundancyError):
            rmap.virtual_of(5)

    def test_spheres(self):
        rmap = ReplicaMap(3, 2.0)
        spheres = rmap.spheres()
        assert len(spheres) == 3
        assert spheres[0] == rmap.replicas_of(0)


class TestInvariants:
    @given(
        st.integers(min_value=1, max_value=64),
        st.floats(min_value=1.0, max_value=3.0, allow_nan=False),
    )
    def test_partition_counts_match_model(self, n, r):
        rmap = ReplicaMap(n, r)
        part = rmap.partition
        # Physical total matches Eq. 8.
        assert rmap.total_physical == part.total_processes
        # Every physical rank mapped exactly once.
        seen = set()
        for virtual in range(n):
            for physical in rmap.replicas_of(virtual):
                assert physical not in seen
                seen.add(physical)
        assert seen == set(range(rmap.total_physical))
        # Level histogram matches the Eq. 6-7 partition.
        levels = [len(rmap.replicas_of(v)) for v in range(n)]
        assert levels.count(part.ceil_level) >= part.ceil_count or (
            part.floor_level == part.ceil_level
        )
        assert rmap.total_physical <= math.ceil(n * r)

    @given(st.integers(min_value=2, max_value=40))
    def test_interleave_spreads_evenly(self, n):
        rmap = ReplicaMap(n, 1.5)
        upgraded = [v for v in range(n) if len(rmap.replicas_of(v)) == 2]
        # No two adjacent upgrades when exactly half are upgraded and n even.
        if n % 2 == 0:
            assert upgraded == list(range(0, n, 2))
