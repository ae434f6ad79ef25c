"""Tests for the chaos experiment (storage-fault probability sweep)."""

import pytest

from repro.errors import ReproError
from repro.experiments import run_experiment
from repro.experiments.chaos import ChaosSetup, _predict, run


@pytest.fixture(scope="module")
def quick_result():
    """One shared quick sweep (a few seconds of simulation)."""
    return run(quick=True)


class TestSweep:
    def test_registered_and_renders(self, quick_result):
        assert quick_result.experiment == "chaos"
        rendered = quick_result.render()
        assert "write-fail" in rendered and "corrupt" in rendered

    def test_rows_cover_both_modes_and_all_probs(self, quick_result):
        modes = {row[0] for row in quick_result.rows}
        assert modes == {"write-fail", "corrupt"}
        probs = sorted({row[1] for row in quick_result.rows})
        assert probs == [0.0, 0.1, 0.3]

    def test_fault_free_row_is_strict_noop(self, quick_result):
        assert quick_result.findings["fault_free_is_noop"] is True
        zero_rows = [row for row in quick_result.rows if row[1] == 0.0]
        for row in zero_rows:
            assert row[2] == quick_result.findings["baseline_total_time_s"]

    def test_corruption_exercises_recovery_fallback(self, quick_result):
        """Acceptance: corruption > 0 falls back past the newest recovery
        line (depth > 1) without raising."""
        assert quick_result.findings["max_rollback_depth_observed"] > 1
        corrupt_rows = [
            row for row in quick_result.rows if row[0] == "corrupt" and row[1] > 0
        ]
        assert any(row[8] > 0 for row in corrupt_rows)  # lines skipped

    def test_corruption_slows_the_job_down(self, quick_result):
        by_prob = {
            row[1]: row[2] for row in quick_result.rows if row[0] == "corrupt"
        }
        assert by_prob[0.3] > by_prob[0.1] > by_prob[0.0]

    def test_write_failures_surface_as_retries(self, quick_result):
        rows = [
            row for row in quick_result.rows if row[0] == "write-fail" and row[1] > 0
        ]
        assert any(row[6] > 0 for row in rows)  # retries

    def test_run_experiment_dispatch(self):
        result = run_experiment("chaos", {"probs": (0.0, 0.2)})
        assert result.experiment == "chaos"

    def test_invalid_probability_rejected(self):
        with pytest.raises(ReproError):
            run(probs=(0.0, 1.5))


class TestPrediction:
    def test_zero_prob_matches_plain_model(self):
        setup = ChaosSetup()
        base = _predict(setup, 0.2, "write-fail", 0.0)
        assert _predict(setup, 0.2, "corrupt", 0.0) == base
        assert base > setup.expected_base_time

    def test_faults_only_increase_the_prediction(self):
        setup = ChaosSetup()
        base = _predict(setup, 0.2, "corrupt", 0.0)
        assert _predict(setup, 0.2, "corrupt", 0.2) > base
        assert _predict(setup, 0.2, "write-fail", 0.9) > base

    def test_certain_write_failure_diverges(self):
        setup = ChaosSetup()
        assert _predict(setup, 0.2, "write-fail", 1.0) == float("inf")
