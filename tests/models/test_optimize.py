"""Tests for sweeps, optimal degrees, crossovers and break-evens."""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro import units
from repro.errors import ConfigurationError, ModelDivergence
from repro.models import (
    CombinedModel,
    PAPER_REDUNDANCY_GRID,
    clear_model_cache,
    find_crossover,
    model_cache_info,
    optimal_interval,
    optimal_redundancy,
    sweep_redundancy,
    throughput_break_even,
)
from repro.models.grid import evaluate_grid


def model(**overrides):
    params = dict(
        virtual_processes=50_000,
        redundancy=1.0,
        node_mtbf=units.years(5),
        alpha=0.2,
        base_time=units.hours(128),
        checkpoint_cost=units.minutes(8),
        restart_cost=units.minutes(12),
    )
    params.update(overrides)
    return CombinedModel(**params)


class TestSweeps:
    def test_paper_grid_has_nine_degrees(self):
        assert PAPER_REDUNDANCY_GRID == (1.0, 1.25, 1.5, 1.75, 2.0, 2.25, 2.5, 2.75, 3.0)

    def test_sweep_covers_grid(self):
        points = sweep_redundancy(model())
        assert [p.redundancy for p in points] == list(PAPER_REDUNDANCY_GRID)

    def test_divergent_points_marked(self):
        doomed = model(virtual_processes=1_000_000, node_mtbf=units.days(120))
        points = sweep_redundancy(doomed, grid=[1.0, 3.0])
        assert points[0].diverged
        assert math.isinf(points[0].total_time)
        assert not points[1].diverged

    def test_optimal_redundancy_is_min(self):
        best = optimal_redundancy(model())
        points = sweep_redundancy(model())
        assert best.total_time == min(p.total_time for p in points)

    def test_optimal_at_scale_is_2x(self):
        assert optimal_redundancy(model()).redundancy == 2.0

    def test_all_divergent_raises(self):
        doomed = model(virtual_processes=10_000_000, node_mtbf=units.hours(5))
        with pytest.raises(ModelDivergence):
            optimal_redundancy(doomed, grid=[1.0])


class TestOptimalInterval:
    def test_daly_near_numeric_optimum(self):
        configuration = model(redundancy=2.0)
        daly = configuration.evaluate().checkpoint_interval
        numeric = optimal_interval(configuration)
        assert numeric == pytest.approx(daly, rel=0.25)

    def test_bad_bracket(self):
        with pytest.raises(ConfigurationError):
            optimal_interval(model(), bracket_factor=1.0)

    def test_no_worse_than_daly_where_eq14_has_two_dips(self):
        """At r=1 Eq. 14 falls again toward the bracket's right edge; a
        local search stopping there ends ~28% above Daly's time."""
        configuration = model(redundancy=1.0)
        daly_time = configuration.evaluate().total_time
        numeric = optimal_interval(configuration)
        numeric_time = replace(configuration, checkpoint_interval=numeric).evaluate()
        assert numeric_time.total_time <= daly_time
        assert numeric == pytest.approx(2137.0, rel=0.01)

    @pytest.mark.parametrize("redundancy", [1.5, 2.0, 3.0])
    def test_is_the_minimum_of_a_fine_scan(self, redundancy):
        configuration = model(redundancy=redundancy)
        daly = configuration.evaluate().checkpoint_interval
        deltas = np.geomspace(daly / 50, daly * 50, 20_001)
        times = evaluate_grid(configuration, checkpoint_interval=deltas).total_time
        numeric = optimal_interval(configuration)
        best = replace(configuration, checkpoint_interval=numeric).evaluate()
        assert best.total_time <= times.min() * (1 + 1e-9)


class TestCrossovers:
    def test_fig13_crossover_ordering(self):
        cross_2x = find_crossover(model(), 1.0, 2.0)
        cross_3x = find_crossover(model(), 1.0, 3.0)
        assert cross_2x.processes < cross_3x.processes

    def test_fig13_crossover_band(self):
        # Paper: 4,351 and 12,551; ours must land in the same bands.
        cross_2x = find_crossover(model(), 1.0, 2.0)
        cross_3x = find_crossover(model(), 1.0, 3.0)
        assert 1_000 < cross_2x.processes < 20_000
        assert 5_000 < cross_3x.processes < 50_000

    def test_crossover_is_tight(self):
        cross = find_crossover(model(), 1.0, 2.0)
        below = model(virtual_processes=cross.processes - 1)
        at = model(virtual_processes=cross.processes)
        assert below.with_redundancy(2.0).total_time_or_inf() > (
            below.with_redundancy(1.0).total_time_or_inf()
        )
        assert at.with_redundancy(2.0).total_time_or_inf() <= (
            at.with_redundancy(1.0).total_time_or_inf()
        )

    def test_never_crossing_raises(self):
        # 2.5x never beats 2x at these settings within the cap.
        with pytest.raises(ModelDivergence):
            find_crossover(model(), 2.0, 2.5, max_processes=100_000)

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            find_crossover(model(), 1.0, 2.0, max_processes=10, min_processes=10)

    def test_min_processes_boundary_hit_exactly(self):
        # When the high degree already wins at the search floor, the
        # floor itself is reported — no probe below it.
        cross = find_crossover(model(), 1.0, 2.0)
        floor = cross.processes + 1_000
        clamped = find_crossover(model(), 1.0, 2.0, min_processes=floor)
        assert clamped.processes == floor

    def test_crossover_found_at_max_processes_itself(self):
        # Capping the search exactly at the true crossover still finds it.
        cross = find_crossover(model(), 1.0, 2.0)
        capped = find_crossover(
            model(), 1.0, 2.0, max_processes=cross.processes
        )
        assert capped.processes == cross.processes
        assert capped.high_time <= capped.low_time

    def test_cap_one_below_crossover_raises(self):
        cross = find_crossover(model(), 1.0, 2.0)
        with pytest.raises(ModelDivergence):
            find_crossover(
                model(), 1.0, 2.0, max_processes=cross.processes - 1
            )

    def test_high_degree_never_winning_raises(self):
        # Partial 2.5x pays 2.5x communication but only ceil-level spheres
        # protect; it never beats plain 2x within the cap.
        with pytest.raises(ModelDivergence) as excinfo:
            find_crossover(model(), 2.0, 2.5, max_processes=50_000)
        assert "never beats" in str(excinfo.value)


class TestEvaluationCache:
    def test_cache_hits_accumulate(self):
        clear_model_cache()
        find_crossover(model(), 1.0, 2.0)
        first = model_cache_info()
        find_crossover(model(), 1.0, 2.0)
        second = model_cache_info()
        # Re-running the same search answers entirely from the memo.
        assert second.hits > first.hits
        assert second.misses == first.misses

    def test_memoised_search_equals_cold(self):
        clear_model_cache()
        cold = find_crossover(model(), 1.0, 2.0)
        warm = find_crossover(model(), 1.0, 2.0)
        assert model_cache_info().hits > 0
        assert warm == cold

    def test_cached_values_match_direct_evaluation(self):
        clear_model_cache()
        cross = find_crossover(model(), 1.0, 2.0)
        direct = replace(
            model(), virtual_processes=cross.processes, redundancy=2.0
        ).total_time_or_inf()
        assert cross.high_time == direct

    def test_clear_resets_statistics(self):
        find_crossover(model(), 1.0, 2.0)
        clear_model_cache()
        info = model_cache_info()
        assert info.hits == 0 and info.misses == 0 and info.currsize == 0


class TestThroughputBreakEven:
    def test_fig14_band(self):
        point = throughput_break_even(model(), redundancy=2.0, jobs=2)
        # Paper: 78,536; same order of magnitude required.
        assert 20_000 < point.processes < 300_000

    def test_two_jobs_fit(self):
        point = throughput_break_even(model(), redundancy=2.0, jobs=2)
        plain = replace(model(), virtual_processes=point.processes).total_time_or_inf()
        redundant = replace(
            model(), virtual_processes=point.processes, redundancy=2.0
        ).total_time_or_inf()
        assert 2 * redundant <= plain

    def test_more_jobs_need_more_processes(self):
        two = throughput_break_even(model(), jobs=2)
        three = throughput_break_even(model(), jobs=3)
        assert three.processes > two.processes

    def test_jobs_validation(self):
        with pytest.raises(ConfigurationError):
            throughput_break_even(model(), jobs=0)

    def test_never_fitting_raises(self):
        # 50 back-to-back 2x jobs can't fit in one 1x job at small scale.
        with pytest.raises(ModelDivergence):
            throughput_break_even(model(), jobs=50, max_processes=10_000)
