"""Acceptance tests for the pure-model experiments (fast to run).

Each test asserts the *shape* criteria DESIGN.md defines for the
corresponding paper artifact — who wins, monotonicity, where
crossovers fall — not absolute numbers.
"""

import pytest

from repro.experiments import run_experiment


class TestTable1:
    def test_implied_node_mtbfs_in_years_range(self):
        result = run_experiment("table1")
        implied = [row[3] for row in result.rows]
        # Most systems land in single-digit years (BG/L's optimistic
        # estimate is the documented outlier).
        assert sum(1 for value in implied if value < 40) >= 4


class TestTable2:
    def test_work_share_decays_with_scale(self):
        result = run_experiment("table2")
        assert result.findings["work_share_monotone_decreasing"]

    def test_100k_row_matches_paper_regime(self):
        result = run_experiment("table2")
        last_row = result.rows[-1]
        work_share = float(last_row[1].rstrip("%")) / 100.0
        assert 0.25 <= work_share <= 0.45  # paper: 35%

    def test_small_machine_mostly_working(self):
        result = run_experiment("table2")
        first_row = result.rows[0]
        assert float(first_row[1].rstrip("%")) >= 90.0


class TestTable3:
    def test_one_year_mtbf_work_vanishes(self):
        result = run_experiment("table3")
        assert result.findings["one_year_mtbf_work_share"] < 0.10

    def test_five_year_row_matches_table2(self):
        result = run_experiment("table3")
        assert result.findings["five_year_mtbf_work_share"] == pytest.approx(
            0.35, abs=0.10
        )


class TestFig2:
    def test_monotone_and_ordering(self):
        result = run_experiment("fig2")
        assert result.findings["monotone_at_integer_degrees"]
        assert result.findings["lower_mtbf_needs_more_redundancy"]

    def test_dual_redundancy_restores_reliability(self):
        result = run_experiment("fig2")
        # At 100k nodes / 5 y MTBF, r=1 survival is ~1e-127; r=2 lifts
        # it to a usable fraction — yet below 1, which is exactly why
        # the paper still checkpoints (Section 4.3).
        r2 = result.findings["r2_reliability_theta5"]
        assert 0.1 < r2 < 1.0
        r1 = result.rows[0][1]  # first row is r=1.0, first config column
        assert r2 > r1 * 1e50


class TestFigs4to6:
    def test_r2_minimises_all_configurations(self):
        result = run_experiment("figs4to6")
        for name in ("config1", "config2", "config3"):
            assert result.findings[f"{name}/r_at_min"] == 2.0

    def test_partial_steps_above_integers_are_worse(self):
        result = run_experiment("figs4to6")
        for row_125, row_100 in [(1, 0), (5, 4)]:  # 1.25 vs 1.0, 2.25 vs 2.0
            for column in (1, 2, 3):
                assert result.rows[row_125][column] > 0

    def test_daly_sqrt10_scaling(self):
        result = run_experiment("figs4to6")
        ratio = result.findings["delta_ratio_config1_over_config3"]
        assert 2.0 < ratio < 3.5  # "roughly magnified by sqrt(10)"

    def test_worse_mtbf_worse_times(self):
        result = run_experiment("figs4to6")
        t1 = result.findings["config1/T_r1_hours"]
        t2 = result.findings["config2/T_r1_hours"]
        assert t2 > t1  # config2 has theta=2.5y vs 5y


class TestFig11:
    def test_argmin_shifts_with_mtbf(self):
        result = run_experiment("fig11")
        minima = result.findings["argmin_degree_per_mtbf"]
        # Paper: 3x at 6h, 2x at 18-30h (12h sits on the boundary).
        assert minima["6h"] >= 2.5
        assert minima["18h"] == 2.0
        assert minima["24h"] == 2.0
        assert minima["30h"] == 2.0

    def test_higher_mtbf_faster_everywhere(self):
        result = run_experiment("fig11")
        first = [float(x) for x in result.rows[0][1:]]
        last = [float(x) for x in result.rows[-1][1:]]
        assert all(low <= high for low, high in zip(last, first))

    def test_r1_cell_magnitude_reasonable(self):
        result = run_experiment("fig11")
        # Paper's 6h/1x cell: 275 min measured, ~220 modeled here.
        six_hour_r1 = float(result.rows[0][1])
        assert 100 < six_hour_r1 < 500


class TestFig13:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("fig13", {"samples": 8})

    def test_crossover_ordering(self, result):
        c2 = result.findings["crossover_1x_to_2x_processes"]
        c3 = result.findings["crossover_1x_to_3x_processes"]
        assert c2 is not None and c3 is not None
        assert c2 < c3

    def test_crossover_bands_match_paper(self, result):
        c2 = result.findings["crossover_1x_to_2x_processes"]
        c3 = result.findings["crossover_1x_to_3x_processes"]
        # Paper: 4,351 and 12,551 — require the same decade.
        assert 1_000 <= c2 <= 20_000
        assert 5_000 <= c3 <= 50_000

    def test_partial_never_optimal(self, result):
        assert result.findings["partial_redundancy_never_optimal"]

    def test_small_scale_prefers_1x(self, result):
        first = result.rows[0]
        assert first[1] == min(first[1:])


class TestFig14:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("fig14", {"samples": 10})

    def test_throughput_break_even_band(self, result):
        point = result.findings["two_2x_jobs_fit_in_one_1x_job_at"]
        # Paper: 78,536 — require the same decade.
        assert 20_000 <= point <= 300_000

    def test_3x_takes_over_eventually(self, result):
        takeover = result.findings["3x_beats_2x_beyond"]
        assert takeover is not None
        assert takeover > 100_000  # paper: 771,251

    def test_1x_blowup_past_ten_thousands(self, result):
        blowup = result.findings["1x_blowup_processes"]
        assert blowup is None or blowup >= 30_000

    def test_2x_stays_flat(self, result):
        # Weak scaling: 2x's time at 200k procs is within 25% of small scale.
        first = float(result.rows[0][3])
        last = float(result.rows[-1][3])
        assert last < first * 1.4
