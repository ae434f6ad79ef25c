"""Tests for ResilientJob: the full fault-tolerance stack."""

import gc
import weakref

import pytest

from repro.errors import ConfigurationError
from repro.experiments.table4 import ScaledSetup
from repro.mpi import SimMPI
from repro.obs import Tracer
from repro.orchestration import JobConfig, ResilientJob
from repro.orchestration import job as job_module
from repro.orchestration.campaign import failure_free_sweep_configs, redundancy_sweep_configs
from repro.redundancy import RecvSet, RedComm, SendSet
from repro.simkit import Environment
from repro.workloads import ConjugateGradientWorkload, SyntheticWorkload


def synthetic_config(**overrides):
    params = dict(
        workload_factory=lambda: SyntheticWorkload(
            total_steps=40, compute_seconds=0.02, message_bytes=2048
        ),
        virtual_processes=4,
        checkpointing=False,
    )
    params.update(overrides)
    return JobConfig(**params)


class TestFailureFree:
    def test_completes_without_faults(self):
        report = ResilientJob(synthetic_config()).run()
        assert report.completed
        assert report.attempts == 1
        assert report.failures_injected == 0
        assert report.rollbacks == report.attempts - 1 == 0
        assert report.result["iterations"] == 40

    def test_redundancy_overhead_monotone(self):
        times = {
            r: ResilientJob(synthetic_config(redundancy=r)).run().total_time
            for r in (1.0, 2.0, 3.0)
        }
        assert times[1.0] < times[2.0] < times[3.0]

    def test_redundancy_preserves_answer(self):
        plain = ResilientJob(synthetic_config(redundancy=1.0)).run()
        redundant = ResilientJob(synthetic_config(redundancy=2.5)).run()
        assert plain.result == redundant.result

    def test_physical_process_count(self):
        report = ResilientJob(synthetic_config(redundancy=2.5)).run()
        assert report.physical_processes == 10

    def test_report_minutes(self):
        report = ResilientJob(synthetic_config()).run()
        assert report.total_minutes == pytest.approx(report.total_time / 60.0)


class TestCheckpointingAndFaults:
    def fault_config(self, **overrides):
        params = dict(
            workload_factory=lambda: SyntheticWorkload(
                total_steps=60, compute_seconds=0.05, message_bytes=2048
            ),
            virtual_processes=4,
            node_mtbf=8.0,
            checkpoint_interval=0.4,
            checkpoint_cost=0.04,
            restart_cost=0.2,
            seed=3,
        )
        params.update(overrides)
        return JobConfig(**params)

    def test_completes_under_failures(self):
        report = ResilientJob(self.fault_config()).run()
        assert report.completed
        assert report.failures_injected > 0
        assert report.result["iterations"] == 60

    def test_result_identical_to_failure_free(self):
        faulty = ResilientJob(self.fault_config()).run()
        clean = ResilientJob(synthetic_config(
            workload_factory=self.fault_config().workload_factory
        )).run()
        assert faulty.result == clean.result

    def test_rollbacks_counted_for_unreplicated(self):
        report = ResilientJob(self.fault_config(redundancy=1.0)).run()
        # r=1: every injected failure that lands mid-attempt kills the job.
        assert report.rollbacks > 0
        assert report.rollbacks == report.attempts - 1

    def test_redundancy_reduces_rollbacks(self):
        plain = ResilientJob(self.fault_config(redundancy=1.0)).run()
        dual = ResilientJob(self.fault_config(redundancy=2.0)).run()
        assert dual.rollbacks < plain.rollbacks

    def test_checkpoints_committed(self):
        report = ResilientJob(self.fault_config()).run()
        assert report.checkpoints_committed > 0
        assert report.checkpoint_union_time > 0

    def test_deterministic_given_seed(self):
        first = ResilientJob(self.fault_config(seed=9)).run()
        second = ResilientJob(self.fault_config(seed=9)).run()
        assert first.total_time == second.total_time
        assert first.failures_injected == second.failures_injected

    def test_seed_changes_failure_trace(self):
        first = ResilientJob(self.fault_config(seed=1)).run()
        second = ResilientJob(self.fault_config(seed=2)).run()
        assert (
            first.total_time != second.total_time
            or first.failures_injected != second.failures_injected
        )

    def test_max_restarts_bounds_attempts(self, monkeypatch):
        monkeypatch.setattr(job_module, "MAX_RESTARTS", 3)
        # A failure every ~12 ms against 0.4 s between checkpoints: no
        # attempt lives long enough to commit one, let alone finish.
        report = ResilientJob(self.fault_config(node_mtbf=0.05)).run()
        assert not report.completed
        assert report.attempts == 4
        assert report.rollbacks == report.attempts - 1 == 3

    def test_derived_daly_interval(self):
        config = self.fault_config(
            checkpoint_interval=None,
            expected_base_time=3.0,
            alpha_estimate=0.2,
        )
        report = ResilientJob(config).run()
        assert report.checkpoint_interval is not None
        assert report.checkpoint_interval > 0

    def test_cg_recovers_bit_exact_numerics(self):
        def factory():
            return ConjugateGradientWorkload(
                grid=8, total_steps=30, cycle_length=25, flops_per_second=2e4
            )

        faulty = ResilientJob(
            JobConfig(
                workload_factory=factory,
                virtual_processes=4,
                redundancy=1.5,
                node_mtbf=20.0,
                checkpoint_interval=1.0,
                checkpoint_cost=0.05,
                restart_cost=0.2,
                seed=5,
            )
        ).run()
        clean = ResilientJob(
            JobConfig(
                workload_factory=factory, virtual_processes=4, checkpointing=False
            )
        ).run()
        assert faulty.completed
        assert faulty.result["checksum"] == pytest.approx(
            clean.result["checksum"], abs=1e-12
        )


def traced_events(config):
    """Run ``config`` traced; return its report and its event records."""
    tracer = Tracer()
    report = ResilientJob(config, tracer=tracer).run()
    events = [record for record in tracer.records if record["type"] == "event"]
    return report, events


class TestTimeline:
    """The job's event log is its trace's ``event`` records."""

    def fault_config(self, **overrides):
        params = dict(
            workload_factory=lambda: SyntheticWorkload(
                total_steps=50, compute_seconds=0.05, message_bytes=2048
            ),
            virtual_processes=4,
            node_mtbf=6.0,
            checkpoint_interval=0.4,
            checkpoint_cost=0.04,
            restart_cost=0.2,
            seed=3,
        )
        params.update(overrides)
        return JobConfig(**params)

    def test_timeline_is_time_ordered(self):
        _, events = traced_events(self.fault_config())
        times = [event["t"] for event in events]
        assert times == sorted(times)

    def test_timeline_event_counts_match_report(self):
        report, events = traced_events(self.fault_config())
        kinds = [event["name"] for event in events]
        assert report.failures_injected > 0
        assert kinds.count("failure") == report.failures_injected
        assert kinds.count("rollback") == report.rollbacks
        assert kinds.count("checkpoint_commit") == report.checkpoints_committed
        assert kinds.count("attempt_start") == report.attempts
        assert report.rollbacks == report.attempts - 1
        assert kinds.count("completed") == (1 if report.completed else 0)

    def test_rollback_follows_failure(self):
        _, events = traced_events(self.fault_config(redundancy=1.0))
        kinds = [event["name"] for event in events]
        assert "rollback" in kinds
        first_rollback = kinds.index("rollback")
        assert "failure" in kinds[:first_rollback]

    def test_failure_free_timeline_minimal(self):
        _, events = traced_events(
            self.fault_config(node_mtbf=None, checkpointing=False,
                              checkpoint_interval=None)
        )
        kinds = {event["name"] for event in events}
        assert kinds == {"attempt_start", "completed"}


class TestConfigValidation:
    def test_bad_processes(self):
        with pytest.raises(ConfigurationError):
            synthetic_config(virtual_processes=0)

    def test_bad_redundancy(self):
        with pytest.raises(ConfigurationError):
            synthetic_config(redundancy=0.5)

    def test_bad_mode(self):
        with pytest.raises(ConfigurationError):
            synthetic_config(mode="psychic")

    def test_bad_mtbf(self):
        with pytest.raises(ConfigurationError):
            synthetic_config(node_mtbf=0.0)

    def test_daly_needs_estimates(self):
        config = synthetic_config(
            checkpointing=True, node_mtbf=10.0, checkpoint_cost=1.0
        )
        with pytest.raises(ConfigurationError):
            config.resolve_interval()

    def test_no_checkpointing_no_interval(self):
        assert synthetic_config().resolve_interval() is None

    def test_bad_failure_distribution(self):
        with pytest.raises(ConfigurationError):
            synthetic_config(failure_distribution="uniform")

    @pytest.mark.parametrize(
        "costs",
        [
            {"checkpointing": True, "checkpoint_interval": 1.0},
            {"checkpointing": True, "checkpoint_interval": 1.0, "checkpoint_cost": -1.0},
            {"checkpointing": True, "checkpoint_interval": 1.0,
             "checkpoint_cost": float("nan")},
            {"restart_cost": None},
            {"restart_cost": -1.0},
            {"restart_cost": float("nan")},
            {"redundancy": float("nan")},
            {"redundancy": float("inf")},
            {"node_mtbf": float("nan")},
            {"node_mtbf": float("inf")},
            {"checkpointing": True, "checkpoint_cost": 1.0,
             "checkpoint_interval": float("nan")},
            {"checkpointing": True, "checkpoint_cost": 1.0,
             "checkpoint_interval": 0.0},
            {"expected_base_time": 0.0},
            {"expected_base_time": -1.0},
            {"expected_base_time": float("nan")},
        ],
    )
    def test_missing_or_bad_cost_rejected_at_construction(self, costs):
        with pytest.raises(ConfigurationError):
            synthetic_config(**costs)

    def test_zero_costs_accepted(self):
        config = synthetic_config(
            checkpointing=True,
            checkpoint_interval=1.0,
            checkpoint_cost=0.0,
            restart_cost=0.0,
        )
        assert config.resolve_interval() == 1.0

    @pytest.mark.parametrize(
        "network",
        [
            {"network_bandwidth": float("nan")},
            {"network_bandwidth": float("inf")},
            {"network_bandwidth": 0.0},
            {"network_latency": float("nan")},
            {"network_latency": float("inf")},
            {"network_latency": -1e-6},
        ],
    )
    def test_bad_network_rejected_at_construction(self, network):
        with pytest.raises(ConfigurationError):
            synthetic_config(**network)


class TestFailureDistributions:
    @pytest.mark.parametrize("distribution", ["exponential", "weibull", "lognormal"])
    def test_runs_complete_under_any_distribution(self, distribution):
        config = JobConfig(
            workload_factory=lambda: SyntheticWorkload(
                total_steps=40, compute_seconds=0.03, message_bytes=2048
            ),
            virtual_processes=4,
            redundancy=2.0,
            node_mtbf=5.0,
            checkpoint_interval=0.3,
            checkpoint_cost=0.03,
            restart_cost=0.15,
            failure_distribution=distribution,
            seed=17,
        )
        report = ResilientJob(config).run()
        assert report.completed
        assert report.result["iterations"] == 40


def _table_cell(mtbf_hours):
    """A shortened Table 4/5 cell at 1.5x: failure-free, or at an MTBF."""
    setup = ScaledSetup(virtual_processes=8, steps=5)
    if mtbf_hours is None:
        (config,) = failure_free_sweep_configs(setup.job_config(), [1.5])
    else:
        (config,) = redundancy_sweep_configs(
            setup.job_config(), [setup.mtbf_to_sim(mtbf_hours)], [1.5]
        )
    return config


class TestWorldRelease:
    @pytest.mark.parametrize("mtbf_hours", [None, 6.0], ids=["failure-free", "6h-mtbf"])
    def test_finished_worlds_are_freed_by_refcount(self, mtbf_hours):
        """No simulated world outlives its job without a cyclic collection."""
        config = _table_cell(mtbf_hours)
        gc.collect()
        gc.disable()
        try:
            report = ResilientJob(config).run()
            left = [
                type(obj).__name__
                for obj in gc.get_objects()
                if isinstance(obj, (SimMPI, RedComm, RecvSet, SendSet))
            ]
        finally:
            gc.enable()
        assert report.completed
        if mtbf_hours is not None:
            assert report.rollbacks > 0  # failed attempts were torn down too
        assert left == []

    @staticmethod
    def _environments_alive_after_run(monkeypatch, mtbf_hours):
        """Run a table cell with the collector off; which Environments live on?"""
        environments = []

        class TrackedEnvironment(Environment):
            def __init__(self):
                super().__init__()
                environments.append(weakref.ref(self))

        monkeypatch.setattr(job_module, "Environment", TrackedEnvironment)
        config = _table_cell(mtbf_hours)
        gc.collect()
        gc.disable()
        try:
            report = ResilientJob(config).run()
            alive = [ref() is not None for ref in environments]
        finally:
            gc.enable()
        assert report.completed
        return report, alive

    def test_failure_free_environment_is_freed_by_refcount(self, monkeypatch):
        """The attempt's ``AnyOf`` lets go of the never-fired failure
        event, so no cycle keeps the event graph and its Environment."""
        _report, alive = self._environments_alive_after_run(monkeypatch, None)
        assert alive == [False]

    def test_failure_injected_environment_is_freed_by_refcount(self, monkeypatch):
        """Stopping the failure injector queues no kick event and takes
        its daemon's pending timer off the queue, so nothing left there
        holds the Environment in a cycle."""
        report, alive = self._environments_alive_after_run(monkeypatch, 6.0)
        assert report.failures_injected > 0
        assert alive == [False]
