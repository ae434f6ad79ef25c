"""Tests for the Section 6 simplified model."""

import pytest

from repro import units
from repro.errors import ConfigurationError, ModelDivergence
from repro.models import simplified_total_time


def evaluate(**overrides):
    params = dict(
        virtual_processes=128,
        redundancy=2.0,
        node_mtbf=units.hours(18),
        alpha=0.2,
        base_time=units.minutes(46),
        checkpoint_cost=120.0,
        restart_cost=500.0,
    )
    params.update(overrides)
    return simplified_total_time(**params)


class TestStructure:
    def test_failure_free_limit(self):
        # Enormous MTBF: only t_Red plus a vanishing checkpoint term.
        value = evaluate(node_mtbf=units.years(10_000))
        t_red = 0.8 * units.minutes(46) + 0.2 * units.minutes(46) * 2
        assert value == pytest.approx(t_red, rel=0.02)

    def test_three_terms_decompose(self):
        from repro.models.checkpointing import young_interval
        from repro.models.redundancy import redundant_time, system_failure_rate

        t_red = redundant_time(units.minutes(46), 0.2, 2.0)
        rate = system_failure_rate(128, 2.0, t_red, units.hours(18))
        delta = young_interval(120.0, 1.0 / rate)
        expected = t_red + (t_red / delta) * 120.0 + t_red * rate * 500.0
        assert evaluate() == pytest.approx(expected)

    def test_worse_mtbf_costs_more(self):
        assert evaluate(node_mtbf=units.hours(6)) > evaluate(node_mtbf=units.hours(30))

    def test_paper_fig11_shape_min_at_high_r_for_low_mtbf(self):
        times = {
            r: evaluate(node_mtbf=units.hours(6), redundancy=r)
            for r in (1.0, 2.0, 3.0)
        }
        assert times[3.0] < times[2.0] < times[1.0]

    def test_paper_fig11_shape_min_at_2x_for_high_mtbf(self):
        times = {
            r: evaluate(node_mtbf=units.hours(30), redundancy=r)
            for r in (1.0, 2.0, 3.0)
        }
        assert times[2.0] < times[1.0]
        assert times[2.0] < times[3.0]

    def test_daly_rule_option(self):
        assert evaluate(interval_rule="daly") != evaluate(interval_rule="young")

    def test_literal_printed_form_larger(self):
        # The literal sqrt(2cTheta) term multiplies t_Red by a time, so
        # it dwarfs the intended count-times-cost form.
        assert evaluate(literal=True) > evaluate()

    def test_exact_reliability_flag(self):
        assert evaluate(exact_reliability=True) != evaluate()

    def test_bad_rule_rejected(self):
        with pytest.raises(ConfigurationError):
            evaluate(interval_rule="magic")

    def test_divergence_for_hopeless_scale(self):
        with pytest.raises(ModelDivergence):
            evaluate(
                virtual_processes=10_000_000,
                redundancy=1.0,
                node_mtbf=units.hours(1),
                base_time=units.hours(128),
            )
