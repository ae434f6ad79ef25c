"""Tests for Eqs. 12-15 (lost work, restart+rework, total time, Daly)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import units
from repro.errors import ConfigurationError, ModelDivergence
from repro.models import (
    CombinedModel,
    daly_interval,
    expected_lost_work,
    expected_restart_rework,
    segment_failure_pdf,
    total_time,
    young_interval,
)

intervals = st.floats(min_value=1e-2, max_value=1e5, allow_nan=False)
costs = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)
mtbfs = st.floats(min_value=1e-1, max_value=1e8, allow_nan=False)


def simpson(f, a, b, intervals=1000):
    """Composite Simpson's rule for ``f`` over ``[a, b]`` (``intervals`` even)."""
    x = np.linspace(a, b, intervals + 1)
    weights = np.full(intervals + 1, 2.0)
    weights[1::2] = 4.0
    weights[0] = weights[-1] = 1.0
    values = np.array([f(t) for t in x])
    return float(weights @ values) * (b - a) / (3 * intervals)


class TestSegmentPdf:
    def test_integrates_to_one(self):
        delta, c, theta = 3.0, 0.5, 10.0
        value = simpson(lambda t: segment_failure_pdf(t, delta, c, theta), 0.0, delta + c)
        assert value == pytest.approx(1.0, rel=1e-6)

    def test_decreasing_density(self):
        assert segment_failure_pdf(0.0, 3.0, 0.5, 10.0) > segment_failure_pdf(
            3.0, 3.0, 0.5, 10.0
        )

    def test_out_of_segment_rejected(self):
        with pytest.raises(ConfigurationError):
            segment_failure_pdf(5.0, 3.0, 0.5, 10.0)


class TestLostWork:
    def test_matches_numeric_integral(self):
        delta, c, theta = 4.0, 1.0, 7.0
        work_part = simpson(
            lambda t: t * segment_failure_pdf(t, delta, c, theta), 0.0, delta
        )
        checkpoint_part = simpson(
            lambda t: delta * segment_failure_pdf(t, delta, c, theta),
            delta,
            delta + c,
        )
        assert expected_lost_work(delta, c, theta) == pytest.approx(
            work_part + checkpoint_part, rel=1e-6
        )

    @given(intervals, costs, mtbfs)
    @settings(max_examples=150)
    def test_bounded_by_interval(self, delta, c, theta):
        lost = expected_lost_work(delta, c, theta)
        assert 0.0 <= lost <= delta + 1e-9

    def test_large_mtbf_limit_half_interval(self):
        # theta >> delta: failures uniform in the work phase, plus the
        # checkpoint phase contributing full-delta losses.
        delta, c = 10.0, 0.0
        assert expected_lost_work(delta, c, 1e9) == pytest.approx(delta / 2, rel=1e-3)

    def test_small_mtbf_loses_little(self):
        # Failures arrive almost immediately: little work to lose.
        assert expected_lost_work(10.0, 1.0, 0.01) < 0.1


class TestRestartRework:
    @given(costs, costs, mtbfs)
    @settings(max_examples=150)
    def test_bounded_by_phase_length(self, lost, restart, theta):
        value = expected_restart_rework(lost, restart, theta)
        assert 0.0 <= value <= lost + restart + 1e-9

    def test_zero_phase(self):
        assert expected_restart_rework(0.0, 0.0, 5.0) == 0.0

    def test_reliable_system_pays_full_phase(self):
        assert expected_restart_rework(3.0, 2.0, 1e9) == pytest.approx(5.0, rel=1e-6)

    def test_eq13_hand_check(self):
        # x = 1, theta = 1: t_RR = (1-e^-1)(1 - 2 e^-1) + e^-1.
        x, theta = 1.0, 1.0
        expected = (1 - math.exp(-1)) * (theta - math.exp(-1) * (x + theta)) + math.exp(
            -1
        ) * x
        assert expected_restart_rework(0.5, 0.5, theta) == pytest.approx(expected)


class TestTotalTime:
    def test_failure_free(self):
        assert total_time(100.0, 10.0, 1.0, 0.0, 5.0) == pytest.approx(110.0)

    def test_eq14_fixed_point(self):
        t, delta, c, rate, restart = 100.0, 10.0, 1.0, 1e-3, 5.0
        theta = 1.0 / rate
        t_lw = expected_lost_work(delta, c, theta)
        t_rr = expected_restart_rework(t_lw, restart, theta)
        expected = (t + t * c / delta) / (1 - rate * t_rr)
        assert total_time(t, delta, c, rate, restart) == pytest.approx(expected)

    def test_divergence_raises(self):
        with pytest.raises(ModelDivergence):
            total_time(100.0, 10.0, 1.0, 1.0, 100.0)

    def test_infinite_rate_raises(self):
        with pytest.raises(ModelDivergence):
            total_time(100.0, 10.0, 1.0, math.inf, 5.0)

    @given(
        st.floats(min_value=1.0, max_value=1e6),
        intervals,
        st.floats(min_value=0.0, max_value=10.0),
    )
    @settings(max_examples=100)
    def test_at_least_base_plus_checkpoints(self, t, delta, c):
        value = total_time(t, delta, c, 0.0, 0.0)
        assert value >= t

    def test_monotone_in_failure_rate(self):
        low = total_time(100.0, 10.0, 1.0, 1e-4, 5.0)
        high = total_time(100.0, 10.0, 1.0, 1e-3, 5.0)
        assert high > low


class TestIntervals:
    def test_young_formula(self):
        assert young_interval(2.0, 100.0) == pytest.approx(math.sqrt(400.0))

    def test_daly_eq15_hand_check(self):
        c, theta = 2.0, 100.0
        ratio = c / (2 * theta)
        expected = math.sqrt(2 * c * theta) * (
            1 + math.sqrt(ratio) / 3 + ratio / 9
        ) - c
        assert daly_interval(c, theta) == pytest.approx(expected)

    def test_daly_guard_for_costly_checkpoints(self):
        assert daly_interval(300.0, 100.0) == 100.0

    def test_daly_close_to_young_for_cheap_checkpoints(self):
        c, theta = 1e-3, 1e6
        assert daly_interval(c, theta) == pytest.approx(
            young_interval(c, theta), rel=1e-2
        )

    def test_paper_sqrt10_magnification(self):
        # Figure 4 vs 6: c differing by 10x scales delta by ~sqrt(10).
        theta = units.hours(1)
        ratio = daly_interval(units.minutes(10), theta) / daly_interval(
            units.minutes(1), theta
        )
        assert ratio == pytest.approx(math.sqrt(10), rel=0.2)

    @given(
        st.floats(min_value=1e-9, max_value=1e4, allow_nan=False),
        mtbfs,
    )
    @settings(max_examples=150)
    def test_daly_positive(self, c, theta):
        assert daly_interval(c, theta) > 0.0

    def test_daly_near_numeric_optimum(self):
        # Eq. 15 should sit near the argmin of Eq. 14 over delta.
        c, theta, restart = 1.0, 500.0, 5.0
        rate = 1.0 / theta
        daly = daly_interval(c, theta)
        t_daly = total_time(1000.0, daly, c, rate, restart)
        for factor in (0.25, 0.5, 2.0, 4.0):
            assert t_daly <= total_time(1000.0, daly * factor, c, rate, restart) * 1.001


def breakdown(node_mtbf):
    """One cell with ``t_Red = 100``, ``delta = 10``, ``c = 1``, ``R = 5``;
    a single process, so ``node_mtbf`` sets the failure rate."""
    return CombinedModel(
        virtual_processes=1,
        redundancy=1.0,
        node_mtbf=node_mtbf,
        alpha=0.0,
        base_time=100.0,
        checkpoint_cost=1.0,
        restart_cost=5.0,
        checkpoint_interval=10.0,
    ).evaluate()


class TestBreakdown:
    """The Tables 2-3 shares of ``evaluate()``, derived from Eq. 14's terms."""

    def test_shares_sum_to_one(self):
        result = breakdown(node_mtbf=1e3)
        assert result.failure_rate == pytest.approx(1e-3, rel=0.1)
        total = (
            result.work_share
            + result.checkpoint_share
            + result.recompute_share
            + result.restart_share
        )
        assert total == pytest.approx(1.0)

    def test_failure_free_shares(self):
        result = breakdown(node_mtbf=1e300)
        assert result.failure_rate == 0.0
        assert result.work_share == pytest.approx(100.0 / 110.0)
        assert result.checkpoint_share == pytest.approx(10.0 / 110.0)
        assert result.restart_share == 0.0
        assert result.recompute_share == 0.0
        assert math.copysign(1.0, result.expected_failures) == 1.0
        assert result.expected_failures == 0.0

    def test_checkpoint_count(self):
        assert breakdown(node_mtbf=1e300).expected_checkpoints == pytest.approx(10.0)

    def test_higher_rate_lower_work_share(self):
        quiet = breakdown(node_mtbf=1e4)
        noisy = breakdown(node_mtbf=2e2)
        assert noisy.failure_rate > quiet.failure_rate
        assert noisy.work_share < quiet.work_share
        assert noisy.restart_share > quiet.restart_share
        assert noisy.recompute_share > quiet.recompute_share
