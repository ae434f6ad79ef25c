"""Tests for Eq. 1 and Eqs. 5-10 (redundant time, partition, system)."""

import math

import pytest
from hypothesis import given, strategies as st

from repro import units
from repro.errors import ConfigurationError
from repro.models import (
    birthday_collision_probability,
    partition_processes,
    redundant_time,
    system_failure_rate,
    system_mtbf,
    system_reliability,
)
from repro.models.grid import check_domain
from repro.models.redundancy import shadow_hit_probability

degrees = st.floats(min_value=1.0, max_value=4.0, allow_nan=False)
process_counts = st.integers(min_value=1, max_value=10**6)


class TestRedundantTime:
    def test_eq1(self):
        # t_Red = (1 - a) t + a t r
        assert redundant_time(100.0, 0.2, 2.0) == pytest.approx(80.0 + 40.0)

    def test_r1_identity(self):
        assert redundant_time(100.0, 0.3, 1.0) == 100.0

    def test_alpha_zero_immune_to_r(self):
        assert redundant_time(100.0, 0.0, 3.0) == 100.0

    def test_alpha_one_scales_fully(self):
        assert redundant_time(100.0, 1.0, 3.0) == 300.0

    def test_paper_cg_numbers(self):
        # 46 min, alpha 0.2, 3x -> 64.4 min (paper's expected-linear row).
        expected = units.minutes(64.4)
        assert redundant_time(units.minutes(46), 0.2, 3.0) == pytest.approx(expected)

    @given(degrees)
    def test_monotone_in_r(self, r):
        assert redundant_time(10.0, 0.5, r + 0.1) > redundant_time(10.0, 0.5, r)

    def test_validation(self):
        # Eq. 1 itself does not validate; its inputs are checked once,
        # against the model's domain.
        for field in ({"base_time": -1.0}, {"alpha": 1.5}, {"redundancy": 0.5}):
            with pytest.raises(ConfigurationError):
                check_domain("daly", **field)


class TestPartition:
    def test_integer_r_homogeneous(self):
        part = partition_processes(10, 2.0)
        assert part.floor_count == 0
        assert part.ceil_count == 10
        assert part.total_processes == 20

    def test_eq6_eq7_fractional(self):
        part = partition_processes(4, 1.5)
        # N_floor = floor((2 - 1.5) * 4) = 2; N_ceil = 2.
        assert part.floor_count == 2
        assert part.ceil_count == 2
        assert part.total_processes == 2 * 1 + 2 * 2

    def test_paper_grid_25x_over_128(self):
        part = partition_processes(128, 2.5)
        assert part.floor_count == 64 and part.ceil_count == 64
        assert part.total_processes == 64 * 2 + 64 * 3

    @given(process_counts, degrees)
    def test_invariants(self, n, r):
        part = partition_processes(n, r)
        # Eq. 5: the two sets cover N.
        assert part.floor_count + part.ceil_count == n
        # Eq. 8: N_total <= N * r (fraction of a process is nonexistent).
        assert part.total_processes <= math.ceil(n * r)
        assert part.total_processes >= n
        # Levels are floor/ceil of r.
        assert part.floor_level == math.floor(r)
        assert part.ceil_level == math.ceil(r)

    @given(process_counts, st.integers(min_value=1, max_value=3))
    def test_integer_special_case(self, n, r):
        part = partition_processes(n, float(r))
        assert part.floor_count == 0
        assert part.total_processes == n * r


class TestSystemReliability:
    def test_eq9_small_case_by_hand(self):
        # N=2, r=2, p = t/theta = 0.1: R = (1 - 0.01)^2.
        r_sys = system_reliability(2, 2.0, exposure_time=1.0, node_mtbf=10.0)
        assert r_sys == pytest.approx(0.99**2)

    def test_partial_by_hand(self):
        # N=2, r=1.5: one rank at 1 replica, one at 2; p=0.1.
        r_sys = system_reliability(2, 1.5, exposure_time=1.0, node_mtbf=10.0)
        assert r_sys == pytest.approx(0.9 * 0.99)

    def test_no_underflow_at_scale(self):
        r_sys = system_reliability(
            1_000_000, 1.0, exposure_time=units.hours(128),
            node_mtbf=units.years(5),
        )
        assert r_sys >= 0.0  # must not raise / NaN

    @given(
        st.integers(min_value=1, max_value=1000),
        degrees,
    )
    def test_bounded_and_monotone_in_integer_r(self, n, r):
        t, theta = 1.0, 100.0
        value = system_reliability(n, r, t, theta)
        assert 0.0 <= value <= 1.0
        assert system_reliability(n, 2.0, t, theta) >= system_reliability(
            n, 1.0, t, theta
        )

    def test_exact_flag(self):
        linear = system_reliability(10, 2.0, 5.0, 10.0)
        exact = system_reliability(10, 2.0, 5.0, 10.0, exact=True)
        assert linear != exact


class TestSystemRates:
    def test_failure_rate_r1_linear_limit(self):
        # For r=1 linearised, lambda ~= N/theta for small t/theta.
        rate = system_failure_rate(100, 1.0, 1.0, 1e6)
        assert rate == pytest.approx(100 / 1e6, rel=1e-3)

    def test_mtbf_is_reciprocal(self):
        rate = system_failure_rate(10, 2.0, 1.0, 100.0)
        theta = system_mtbf(10, 2.0, 1.0, 100.0)
        assert theta == pytest.approx(1.0 / rate)

    def test_divergence_returns_inf(self):
        rate = system_failure_rate(10, 1.0, exposure_time=50.0, node_mtbf=10.0)
        assert math.isinf(rate)
        assert system_mtbf(10, 1.0, 50.0, 10.0) == 0.0

    def test_redundancy_extends_mtbf(self):
        theta_1x = system_mtbf(1000, 1.0, 10.0, 1e5)
        theta_2x = system_mtbf(1000, 2.0, 10.0, 1e5)
        assert theta_2x > theta_1x * 10

    def test_exposure_validation(self):
        # The exposure is t_Red, which is positive iff the base time is.
        with pytest.raises(ConfigurationError):
            check_domain("daly", base_time=0.0)


class TestBirthday:
    def test_printed_formula_value(self):
        # Hand-check at n=4: 1 - (2/4)^6 = 1 - 1/64.
        assert birthday_collision_probability(4) == pytest.approx(1 - 0.5**6)

    def test_printed_formula_tends_to_one(self):
        # The printed expression is a some-collision probability; it
        # grows toward 1 (see the docstring for the discrepancy note).
        assert birthday_collision_probability(10**6) > birthday_collision_probability(10)

    def test_shadow_hit_vanishes(self):
        # The quantity the paper's argument actually needs: hitting one
        # specific shadow among n-1 nodes becomes ever less likely.
        assert shadow_hit_probability(10**6) < shadow_hit_probability(100) < 0.02
        assert shadow_hit_probability(10**6) == pytest.approx(1e-6, rel=1e-3)

    def test_shadow_hit_nonzero(self):
        # ... yet never zero: checkpointing stays necessary (Sec. 4.3).
        assert shadow_hit_probability(10**9) > 0.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            birthday_collision_probability(2)
        with pytest.raises(ConfigurationError):
            shadow_hit_probability(1)
