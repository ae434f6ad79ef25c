"""Tests for Eqs. 2-4 (node and sphere reliability)."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.models import node_failure_probability, node_reliability, sphere_reliability
from repro.models.grid import check_domain

positive_time = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)
mtbf = st.floats(min_value=1e-3, max_value=1e12, allow_nan=False)


class TestNodeFailureProbability:
    def test_linearised_form(self):
        assert node_failure_probability(1.0, 10.0) == pytest.approx(0.1)

    def test_exact_form(self):
        expected = 1.0 - math.exp(-0.1)
        assert node_failure_probability(1.0, 10.0, exact=True) == pytest.approx(expected)

    def test_linearised_clamped_at_one(self):
        assert node_failure_probability(100.0, 1.0) == 1.0

    def test_exact_below_one_for_moderate_exposure(self):
        assert node_failure_probability(5.0, 1.0, exact=True) < 1.0

    def test_zero_exposure(self):
        assert node_failure_probability(0.0, 5.0) == 0.0
        assert node_failure_probability(0.0, 5.0, exact=True) == 0.0

    def test_linearisation_accurate_for_large_theta(self):
        linear = node_failure_probability(1.0, 1e6)
        exact = node_failure_probability(1.0, 1e6, exact=True)
        assert linear == pytest.approx(exact, rel=1e-5)

    @given(positive_time, mtbf)
    def test_probability_in_unit_interval(self, t, theta):
        for exact in (False, True):
            p = node_failure_probability(t, theta, exact=exact)
            assert 0.0 <= p <= 1.0

    @given(positive_time, mtbf)
    def test_linearised_upper_bounds_exact(self, t, theta):
        # 1 - e^-x <= x: the linearisation is pessimistic.
        assert node_failure_probability(t, theta) >= node_failure_probability(
            t, theta, exact=True
        ) - 1e-12

    def test_validation(self):
        # Eqs. 2-3 do not validate; a negative exposure (base time) or a
        # non-positive MTBF is rejected once, by the model's domain.
        with pytest.raises(ConfigurationError):
            check_domain("daly", base_time=-1.0)
        with pytest.raises(ConfigurationError):
            check_domain("daly", node_mtbf=0.0)


class TestNodeReliability:
    @given(positive_time, mtbf)
    def test_complementarity(self, t, theta):
        assert node_reliability(t, theta) + node_failure_probability(
            t, theta
        ) == pytest.approx(1.0)

    def test_decreasing_in_time(self):
        assert node_reliability(1.0, 10.0) > node_reliability(5.0, 10.0)


class TestSphereReliability:
    def test_eq4_formula(self):
        # R = 1 - (t/theta)^k
        assert sphere_reliability(1.0, 10.0, k=2) == pytest.approx(1 - 0.01)

    def test_k1_matches_node(self):
        assert sphere_reliability(2.0, 10.0, k=1) == node_reliability(2.0, 10.0)

    @given(
        positive_time,
        mtbf,
        st.integers(min_value=1, max_value=5),
    )
    def test_monotone_in_k(self, t, theta, k):
        assert (
            sphere_reliability(t, theta, k + 1)
            >= sphere_reliability(t, theta, k) - 1e-12
        )

    def test_rejects_bad_k(self):
        with pytest.raises(ConfigurationError):
            sphere_reliability(1.0, 10.0, k=0)
        with pytest.raises(ConfigurationError):
            sphere_reliability(1.0, 10.0, k=1.5)
