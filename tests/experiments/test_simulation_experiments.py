"""Smoke tests for the simulation-backed experiments at tiny scale.

The full campaigns live in ``benchmarks/``; these tests run
miniaturised grids so the simulation experiment plumbing (scaling,
pivoting, findings, plots) stays covered by the fast suite.
"""

import pytest

from repro.experiments import run_experiment
from repro.experiments.table4 import ScaledSetup
from repro.orchestration import run_failure_free_sweep


@pytest.fixture(scope="module")
def tiny_setup():
    return ScaledSetup(
        virtual_processes=4,
        steps=30,
        compute_seconds=0.03,
        message_bytes=32 * 1024,
        expected_base_time=1.2,
    )


class TestTable4Tiny:
    @pytest.fixture(scope="class")
    def result(self, tiny_setup):
        return run_experiment(
            "table4",
            {
                "setup": tiny_setup,
                "mtbf_hours": (6.0, 30.0),
                "degrees": (1.0, 2.0, 3.0),
            },
        )

    def test_grid_shape(self, result):
        assert len(result.rows) == 2
        assert result.headers == ["MTBF", "1.0x", "2.0x", "3.0x"]

    def test_cells_are_positive_minutes(self, result):
        for row in result.rows:
            for cell in row[1:]:
                assert float(cell) > 0

    def test_findings_present(self, result):
        assert set(result.findings["argmin_degree_per_mtbf"]) == {"6h", "30h"}

    def test_plot_attached(self, result):
        assert "Fig. 8" in result.plot and "Fig. 9" in result.plot

    def test_redundancy_beats_plain_at_6h(self, result):
        row = result.rows[0]
        assert min(float(row[2]), float(row[3])) < float(row[1])


class TestTable5Tiny:
    @pytest.fixture(scope="class")
    def result(self, tiny_setup):
        return run_experiment(
            "table5", {"setup": tiny_setup, "degrees": (1.0, 1.25, 2.0, 3.0)}
        )

    def test_two_series(self, result):
        assert [row[0] for row in result.rows] == ["observed", "expected linear"]

    def test_observed_monotone(self, result):
        observed = [float(x) for x in result.rows[0][1:]]
        assert observed == sorted(observed)

    def test_first_jump_positive(self, result):
        assert result.findings["first_step_relative_jump"] > 0


class TestPinnedInputs:
    """``ScaledSetup``'s hand-pinned model inputs match its own workload.

    ``expected_base_time`` and ``alpha_estimate`` set the Daly interval
    and so every Table 4 golden; they stay pinned, and the failure-free
    1x and 2x cells must still measure them to the pinned precision.
    """

    def test_failure_free_cells_match_pinned_inputs(self):
        setup = ScaledSetup()
        t1, t2 = (
            cell.report.total_time
            for cell in run_failure_free_sweep(setup.job_config(), [1.0, 2.0])
        )
        assert t1 == pytest.approx(setup.expected_base_time, abs=0.005)
        assert t2 / t1 - 1.0 == pytest.approx(setup.alpha_estimate, abs=0.005)


class TestFig12Tiny:
    def test_fit_statistics_produced(self, tiny_setup):
        result = run_experiment(
            "fig12",
            {
                "setup": tiny_setup,
                "mtbf_hours": (6.0, 30.0),
                "degrees": (1.0, 2.0, 3.0),
            },
        )
        assert -1.0 <= result.findings["pearson_correlation"] <= 1.0
        assert result.findings["mean_abs_pct_error"] >= 0.0
        assert len(result.rows) == 6


class TestQuickMode:
    def test_table4_quick_flag(self, tiny_setup):
        result = run_experiment("table4", {"setup": tiny_setup, "quick": True})
        assert len(result.rows) == 3  # 3 MTBFs
        assert len(result.rows[0]) == 6  # label + 5 degrees


class _CellRan(Exception):
    """Raised by the stubbed executor: a sweep got as far as running."""


@pytest.fixture()
def no_cells(monkeypatch):
    """Stub the executor so any attempt to run cells is recorded and stops."""
    from repro.orchestration import CampaignExecutor

    submitted = []

    def refuse(self, configs, progress=None):
        submitted.append(list(configs))
        raise _CellRan()

    monkeypatch.setattr(CampaignExecutor, "run", refuse)
    return submitted


class TestGridValidation:
    @pytest.mark.parametrize("degrees", [(1.0,), (1.5, 2.0), (1.0, 1.0)])
    def test_table5_rejects_grid_before_any_cell(self, no_cells, degrees):
        from repro.errors import ConfigurationError
        from repro.experiments import table5

        with pytest.raises(ConfigurationError, match="degree 1.0"):
            table5.run(degrees=degrees)
        assert no_cells == []

    def test_table5_bad_grid_is_cli_exit_2(self, no_cells, capsys):
        from repro.cli import main

        assert main(["campaign", "--failure-free", "degrees=(1.0,)"]) == 2
        assert "degree 1.0" in capsys.readouterr().err
        assert no_cells == []

    def test_table4_explicit_grid_wins_over_quick(self, no_cells):
        from repro.experiments import table4

        with pytest.raises(_CellRan):
            table4.run(quick=True, mtbf_hours=(6.0,), degrees=(1.0,))
        (configs,) = no_cells
        assert [(c.node_mtbf, c.redundancy) for c in configs] == [
            (ScaledSetup().mtbf_to_sim(6.0), 1.0)
        ]

    def test_table4_quick_fills_only_the_missing_axis(self, no_cells):
        from repro.experiments import table4

        with pytest.raises(_CellRan):
            table4.run(quick=True, degrees=(2.0,))
        (configs,) = no_cells
        assert len(configs) == len(table4.QUICK_MTBF_HOURS)
        assert {c.redundancy for c in configs} == {2.0}

    def test_chaos_explicit_probs_win_over_quick(self, no_cells):
        from repro.errors import ReproError
        from repro.experiments import chaos

        with pytest.raises(ReproError, match="probabilities"):
            chaos.run(quick=True, probs=(0.0, 1.5))
        with pytest.raises(_CellRan):
            chaos.run(quick=True, probs=(0.0, 0.2))
        (configs,) = no_cells
        faults = [c.storage_faults for c in configs]
        assert faults[0] is None  # the shared p=0 baseline
        assert {(f.write_fail_prob, f.corrupt_prob) for f in faults[1:]} == {
            (0.2, 0.0),
            (0.0, 0.2),
        }
