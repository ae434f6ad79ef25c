"""Tests for the combined pipeline (Section 4.3)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro import units
from repro.errors import ConfigurationError, ModelDivergence
from repro.models import CombinedModel
from repro.models.grid import MAX_REDUNDANCY
from repro.models.redundancy import (
    system_failure_rate,
    system_mtbf,
    system_reliability,
)


def paper_model(**overrides):
    params = dict(
        virtual_processes=50_000,
        redundancy=2.0,
        node_mtbf=units.years(5),
        alpha=0.2,
        base_time=units.hours(128),
        checkpoint_cost=units.minutes(10),
        restart_cost=units.minutes(15),
    )
    params.update(overrides)
    return CombinedModel(**params)


class TestRedundancyBound:
    # Degrees above the bound are OUT_OF_DOMAIN cases in test_grid.py.
    def test_degree_at_the_bound_evaluates(self):
        result = paper_model(redundancy=float(MAX_REDUNDANCY)).evaluate()
        assert result.total_processes == 50_000 * MAX_REDUNDANCY


class TestPipeline:
    def test_result_fields_consistent(self):
        result = paper_model().evaluate()
        assert result.redundant_time == pytest.approx(
            0.8 * units.hours(128) + 0.2 * units.hours(128) * 2
        )
        assert result.system_mtbf == pytest.approx(1.0 / result.failure_rate)
        assert result.total_time >= result.redundant_time
        assert result.total_processes == 100_000
        assert result.node_seconds == result.total_processes * result.total_time

    def test_expected_counts(self):
        result = paper_model().evaluate()
        assert result.expected_checkpoints == pytest.approx(
            result.redundant_time / result.checkpoint_interval
        )
        assert result.expected_failures == pytest.approx(
            result.total_time * result.failure_rate
        )

    def test_r2_beats_r1_at_scale(self):
        t1 = paper_model(redundancy=1.0).evaluate().total_time
        t2 = paper_model(redundancy=2.0).evaluate().total_time
        assert t2 < t1

    def test_r1_wins_at_small_scale(self):
        t1 = paper_model(virtual_processes=100, redundancy=1.0).evaluate().total_time
        t2 = paper_model(virtual_processes=100, redundancy=2.0).evaluate().total_time
        assert t1 < t2

    def test_failure_free_rate_is_positive_zero(self):
        result = paper_model(virtual_processes=1, node_mtbf=1e300).evaluate()
        assert result.failure_rate == 0.0
        assert math.copysign(1, result.failure_rate) == 1
        assert math.copysign(1, result.expected_failures) == 1
        assert result.system_mtbf == math.inf

    def test_interval_override(self):
        fixed = paper_model(checkpoint_interval=units.hours(1.0)).evaluate()
        assert fixed.checkpoint_interval == units.hours(1.0)

    def test_young_rule(self):
        daly = paper_model().evaluate()
        young = paper_model(interval_rule="young").evaluate()
        assert daly.checkpoint_interval != young.checkpoint_interval

    def test_exact_reliability_flag(self):
        linear = paper_model().evaluate()
        exact = paper_model(exact_reliability=True).evaluate()
        assert linear.failure_rate != exact.failure_rate

    def test_divergence_raises(self):
        doomed = paper_model(
            virtual_processes=5_000_000, redundancy=1.0, node_mtbf=units.days(30)
        )
        with pytest.raises(ModelDivergence):
            doomed.evaluate()

    def test_total_time_or_inf(self):
        doomed = paper_model(
            virtual_processes=5_000_000, redundancy=1.0, node_mtbf=units.days(30)
        )
        assert math.isinf(doomed.total_time_or_inf())
        assert paper_model().total_time_or_inf() > 0


class TestBuilders:
    def test_with_redundancy(self):
        derived = paper_model().with_redundancy(3.0)
        assert derived.redundancy == 3.0
        assert derived.virtual_processes == 50_000

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            paper_model(interval_rule="guess")
        with pytest.raises(ConfigurationError):
            paper_model(checkpoint_interval=0.0)


class TestProperties:
    @given(
        st.integers(min_value=10, max_value=50_000),
        st.sampled_from([1.0, 1.5, 2.0, 2.5, 3.0]),
    )
    @settings(max_examples=60)
    def test_total_time_finite_or_divergence(self, n, r):
        model = paper_model(virtual_processes=n, redundancy=r)
        value = model.total_time_or_inf()
        assert value > 0

    @given(st.sampled_from([1.0, 1.5, 2.0, 2.5, 3.0]))
    def test_reliability_increases_with_redundancy(self, r):
        low = paper_model(redundancy=1.0).evaluate().system_reliability
        high = paper_model(redundancy=r).evaluate().system_reliability
        assert high >= low - 1e-12


class TestReliabilityUnderflow:
    """Eq. 10 takes its rate from ``ln R_sys`` where ``R_sys`` underflows."""

    @staticmethod
    def table3_cell(hours):
        return CombinedModel(
            virtual_processes=100_000,
            redundancy=1.0,
            node_mtbf=units.years(5),
            alpha=0.0,
            base_time=units.hours(hours),
            checkpoint_cost=units.minutes(10),
            restart_cost=units.minutes(12),
        )

    def test_rate_stays_finite_past_underflow(self):
        short = self.table3_cell(168).evaluate()
        long = self.table3_cell(700).evaluate()
        assert short.system_reliability > 0.0
        assert long.system_reliability == 0.0
        assert math.isfinite(long.failure_rate)
        assert long.failure_rate == pytest.approx(short.failure_rate, rel=0.01)
        assert math.isfinite(long.total_time)

    def test_standalone_rate_and_mtbf_agree_with_the_kernel(self):
        long = self.table3_cell(700).evaluate()
        args = (100_000, 1.0, units.hours(700), units.years(5))
        assert system_reliability(*args) == 0.0
        assert system_failure_rate(*args) == long.failure_rate
        assert system_mtbf(*args) == long.system_mtbf

    def test_linearised_certain_failure_still_diverges(self):
        # t_Red = 153.6 h >= theta: every node fails for certain.
        doomed = paper_model(node_mtbf=units.hours(100))
        with pytest.raises(ModelDivergence, match="failure rate diverged"):
            doomed.evaluate()
        assert math.isinf(doomed.total_time_or_inf())
