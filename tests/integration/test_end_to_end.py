"""End-to-end integration: every substrate working together.

These are the repository's "does the whole thing hold up" tests: real
workloads, transparent redundancy, coordinated checkpointing, injected
failures, rollbacks — asserting both survival *and* numerical
correctness of the final answers.
"""

import pytest

from repro.orchestration import JobConfig, ResilientJob
from repro.redundancy import MSG_PLUS_HASH
from repro.workloads import ConjugateGradientWorkload, SyntheticWorkload


def cg_factory():
    return ConjugateGradientWorkload(
        grid=8, total_steps=30, cycle_length=25, flops_per_second=2e4
    )


class TestCGUnderTheFullStack:
    @pytest.fixture(scope="class")
    def clean_result(self):
        report = ResilientJob(
            JobConfig(
                workload_factory=cg_factory, virtual_processes=4, checkpointing=False
            )
        ).run()
        return report.result

    @pytest.mark.parametrize("redundancy", [1.0, 1.5, 2.0, 3.0])
    def test_faulty_run_matches_clean_numerics(self, clean_result, redundancy):
        report = ResilientJob(
            JobConfig(
                workload_factory=cg_factory,
                virtual_processes=4,
                redundancy=redundancy,
                node_mtbf=15.0,
                checkpoint_interval=0.8,
                checkpoint_cost=0.05,
                restart_cost=0.2,
                seed=int(redundancy * 100),
            )
        ).run()
        assert report.completed
        assert report.result["checksum"] == pytest.approx(
            clean_result["checksum"], abs=1e-9
        )
        assert report.result["residual"] == pytest.approx(
            clean_result["residual"], rel=1e-9
        )

    def test_msg_plus_hash_mode_full_stack(self, clean_result):
        report = ResilientJob(
            JobConfig(
                workload_factory=cg_factory,
                virtual_processes=4,
                redundancy=2.0,
                mode=MSG_PLUS_HASH,
                node_mtbf=15.0,
                checkpoint_interval=0.8,
                checkpoint_cost=0.05,
                restart_cost=0.2,
                seed=77,
            )
        ).run()
        assert report.completed
        assert report.result["checksum"] == pytest.approx(
            clean_result["checksum"], abs=1e-9
        )


class TestSuppressionSemantics:
    def test_unsuppressed_runs_longer_or_equal(self):
        def config(suppress):
            return JobConfig(
                workload_factory=lambda: SyntheticWorkload(
                    total_steps=50, compute_seconds=0.05, message_bytes=2048
                ),
                virtual_processes=4,
                redundancy=1.0,
                node_mtbf=6.0,
                checkpoint_interval=0.4,
                checkpoint_cost=0.1,
                restart_cost=0.3,
                suppress_failures_during_cr=suppress,
                seed=11,
            )

        suppressed = ResilientJob(config(True)).run()
        unsuppressed = ResilientJob(config(False)).run()
        assert suppressed.completed and unsuppressed.completed
        # With failures allowed inside C/R windows, at least as many
        # failures land and the run cannot be faster in expectation;
        # with a fixed seed we assert the count ordering.
        assert unsuppressed.failures_injected >= suppressed.failures_injected
