"""Tests for the per-message network cost model."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.netsim import CPU_OVERHEAD, EAGER_THRESHOLD, LOOPBACK_FACTOR, Network

NETWORK = Network(latency=1e-6, bandwidth=1e9)


class TestSenderBusyTime:
    @pytest.mark.parametrize("same_node", [False, True])
    def test_eager_cost_is_overhead_plus_serialisation(self, same_node):
        assert NETWORK.sender_busy_time(1000, same_node) == CPU_OVERHEAD + 1000 / 1e9

    @pytest.mark.parametrize("same_node", [False, True])
    def test_sender_busy_includes_cpu_overhead(self, same_node):
        assert NETWORK.sender_busy_time(0, same_node) == CPU_OVERHEAD

    def test_rendezvous_adds_two_latencies_off_node(self):
        eager = NETWORK.sender_busy_time(EAGER_THRESHOLD, same_node=False)
        rendezvous = NETWORK.sender_busy_time(EAGER_THRESHOLD + 1, same_node=False)
        assert rendezvous == CPU_OVERHEAD + (EAGER_THRESHOLD + 1) / 1e9 + 2.0 * 1e-6
        assert rendezvous - eager == pytest.approx(2e-6 + 1 / 1e9)

    def test_same_node_skips_rendezvous(self):
        big = 10 * EAGER_THRESHOLD
        assert NETWORK.sender_busy_time(big, same_node=True) == CPU_OVERHEAD + big / 1e9
        assert NETWORK.sender_busy_time(big, same_node=True) < NETWORK.sender_busy_time(
            big, same_node=False
        )

    @pytest.mark.parametrize("nbytes", [4096, 4 * EAGER_THRESHOLD])
    def test_k_messages_cost_k_times_one(self, nbytes):
        # The Eq. 1 mechanism: r sends on one NIC cost r times one send.
        one = NETWORK.sender_busy_time(nbytes, same_node=False)
        for k in (1, 2, 3, 5):
            total = sum(NETWORK.sender_busy_time(nbytes, same_node=False) for _ in range(k))
            assert total == pytest.approx(k * one)

    @given(st.integers(min_value=0, max_value=10**12), st.booleans())
    def test_monotone_in_size(self, nbytes, same_node):
        network = Network()
        assert network.sender_busy_time(nbytes + 1, same_node) >= network.sender_busy_time(
            nbytes, same_node
        )


class TestWireLatency:
    def test_off_node_wire_is_latency(self):
        assert NETWORK.wire_latency(same_node=False) == 1e-6

    def test_loopback_wire_is_tenth_of_latency(self):
        assert LOOPBACK_FACTOR == 0.1
        assert NETWORK.wire_latency(same_node=True) == 1e-6 * 0.1

    def test_loopback_cheaper(self):
        assert NETWORK.wire_latency(same_node=True) < NETWORK.wire_latency(same_node=False)


class TestValidation:
    def test_rejects_negative_latency(self):
        with pytest.raises(ConfigurationError):
            Network(latency=-1.0)

    def test_rejects_zero_bandwidth(self):
        with pytest.raises(ConfigurationError):
            Network(bandwidth=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, value):
        with pytest.raises(ConfigurationError):
            Network(latency=value)
        with pytest.raises(ConfigurationError):
            Network(bandwidth=value)

    def test_zero_latency_allowed(self):
        assert Network(latency=0.0).wire_latency(same_node=False) == 0.0
