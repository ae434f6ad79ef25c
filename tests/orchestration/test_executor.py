"""Tests for the parallel campaign executor.

Covers the checks on the ``workers`` and ``cell_timeout`` arguments,
ordered result collection, progress marshalling, per-cell error capture,
the in-parent fallback when a cell's process cannot start, per-cell
crash and timeout recovery, and the determinism regression: a campaign
run one process per cell is bit-identical to a serial one.
"""

import math
import multiprocessing
import os
import signal
import time
from functools import partial
from types import SimpleNamespace

import pytest

from repro.errors import ConfigurationError
from repro.experiments.table4 import QUICK_DEGREES, QUICK_MTBF_HOURS, ScaledSetup
from repro.faults import StorageFaultConfig
from repro.obs import ObsSession
from repro.orchestration import campaign as campaign_module
from repro.orchestration import executor as executor_module
from repro.orchestration import (
    CampaignExecutionError,
    CampaignExecutor,
    JobConfig,
    run_failure_free_sweep,
    run_redundancy_sweep,
)
from repro.orchestration.campaign import redundancy_sweep_configs
from repro.workloads import SyntheticWorkload


#: PID of the pytest process: the suicide workloads below must never
#: fire in the parent (e.g. on the serial-fallback path) — only in a
#: forked cell process, whose PID differs.
_PARENT_PID = os.getpid()


def _kill_current_worker(delay):
    if os.getpid() == _PARENT_PID:
        raise RuntimeError("refusing to kill the test process itself")
    if delay:
        time.sleep(delay)
    os.kill(os.getpid(), signal.SIGKILL)


class KamikazeWorkload(SyntheticWorkload):
    """Kills its host cell process once; a sentinel file marks it done.

    The delay lets sibling cells finish first, so the crash happens
    mid-campaign.
    """

    def __init__(self, sentinel, delay=0.0, **kwargs):
        super().__init__(**kwargs)
        self._sentinel = sentinel
        self._delay = delay

    def configure(self, rank, size):
        if not os.path.exists(self._sentinel):
            with open(self._sentinel, "w"):
                pass
            _kill_current_worker(self._delay)
        return super().configure(rank, size)


class PoisonWorkload(SyntheticWorkload):
    """Kills its host cell process every single time (retry exhaustion)."""

    def __init__(self, delay=0.0, **kwargs):
        super().__init__(**kwargs)
        self._delay = delay

    def configure(self, rank, size):
        _kill_current_worker(self._delay)
        return super().configure(rank, size)


class GlacialWorkload(SyntheticWorkload):
    """Burns ``sleep_seconds`` of wall-clock time once per cell, in rank
    0's ``configure`` (for the timeout and crash-timeline tests)."""

    def __init__(self, sleep_seconds, **kwargs):
        super().__init__(**kwargs)
        self._sleep_seconds = sleep_seconds

    def configure(self, rank, size):
        if rank == 0:
            time.sleep(self._sleep_seconds)
        return super().configure(rank, size)


def special_config(factory_cls, **factory_kwargs):
    """A picklable config around one of the wall-clock test workloads."""
    return picklable_config(
        workload_factory=partial(
            factory_cls,
            total_steps=12,
            compute_seconds=0.02,
            message_bytes=2048,
            **factory_kwargs,
        )
    )


def picklable_config(**overrides):
    """A small, picklable job config (factory is a partial, not a lambda)."""
    params = dict(
        workload_factory=partial(
            SyntheticWorkload,
            total_steps=12,
            compute_seconds=0.02,
            message_bytes=2048,
        ),
        virtual_processes=4,
        checkpoint_interval=0.3,
        checkpoint_cost=0.02,
        restart_cost=0.1,
        seed=7,
    )
    params.update(overrides)
    return JobConfig(**params)


def lambda_config(**overrides):
    """Same job, but with an unpicklable (closure) factory."""
    params = dict(
        workload_factory=lambda: SyntheticWorkload(
            total_steps=12, compute_seconds=0.02, message_bytes=2048
        ),
        virtual_processes=4,
        checkpoint_interval=0.3,
        checkpoint_cost=0.02,
        restart_cost=0.1,
        seed=7,
    )
    params.update(overrides)
    return JobConfig(**params)


def broken_config():
    """Passes __post_init__ but raises at run time (derive-Daly w/o MTBF)."""
    return picklable_config(
        node_mtbf=None, checkpointing=True, checkpoint_interval=None
    )


def report_signature(report):
    """The bit-exact comparable core of a JobReport."""
    return (
        report.completed,
        report.total_time,
        report.attempts,
        report.failures_injected,
        report.rollbacks,
        report.checkpoints_committed,
        report.checkpoint_union_time,
        tuple(sorted(report.counters.items())),
        report.checkpoint_interval,
        report.physical_processes,
    )


class TestResolveWorkers:
    def test_default_is_serial(self):
        assert CampaignExecutor().workers == 1

    def test_explicit_wins(self):
        assert CampaignExecutor(workers=3).workers == 3

    def test_nonpositive_clamped_to_serial(self):
        assert CampaignExecutor(workers=0).workers == 1
        assert CampaignExecutor(workers=-4).workers == 1


class TestSerialExecution:
    def test_ordered_outcomes(self):
        configs = redundancy_sweep_configs(
            picklable_config(), node_mtbfs=[5.0, 10.0], degrees=[1.0, 2.0]
        )
        executor = CampaignExecutor(workers=1)
        outcomes = executor.run(configs)
        assert executor.last_mode == "serial"
        assert [(o.node_mtbf, o.redundancy) for o in outcomes] == [
            (5.0, 1.0), (5.0, 2.0), (10.0, 1.0), (10.0, 2.0),
        ]
        assert all(o.ok for o in outcomes)

    def test_progress_callback_per_cell(self):
        configs = redundancy_sweep_configs(
            picklable_config(), node_mtbfs=[5.0], degrees=[1.0, 2.0]
        )
        seen = []
        CampaignExecutor(workers=1).run(configs, progress=seen.append)
        assert len(seen) == 2
        assert all(o.ok for o in seen)

    def test_error_captured_not_raised(self):
        configs = [broken_config(), picklable_config(redundancy=2.0)]
        outcomes = CampaignExecutor(workers=1).run(configs)
        assert not outcomes[0].ok
        assert outcomes[0].error_type == "ConfigurationError"
        assert "node_mtbf" in outcomes[0].error
        assert outcomes[1].ok  # the campaign survived the broken cell


class TestPoolExecution:
    def test_pool_matches_serial_bit_identical(self):
        """Determinism regression: workers=4 == workers=1, bit for bit."""
        base = picklable_config(node_mtbf=2.0)  # failures + rollbacks active
        kwargs = dict(node_mtbfs=[2.0, 4.0], degrees=[1.0, 2.0])
        serial = run_redundancy_sweep(base, workers=1, **kwargs)
        pooled = run_redundancy_sweep(base, workers=4, **kwargs)
        assert len(serial) == len(pooled) == 4
        for left, right in zip(serial, pooled):
            assert left.node_mtbf == right.node_mtbf
            assert left.redundancy == right.redundancy
            assert report_signature(left.report) == report_signature(right.report)

    def test_quick_table4_grid_pool_matches_serial(self):
        """The quick Table 4 grid (3 MTBFs x 5 degrees): workers=4 == serial."""
        setup = ScaledSetup(
            virtual_processes=4, steps=30, compute_seconds=0.03,
            message_bytes=32 * 1024, expected_base_time=1.2,
        )
        mtbfs = [setup.mtbf_to_sim(hours) for hours in QUICK_MTBF_HOURS]
        serial = run_redundancy_sweep(setup.job_config(), mtbfs, QUICK_DEGREES)
        pooled = run_redundancy_sweep(
            setup.job_config(), mtbfs, QUICK_DEGREES, workers=4
        )
        assert len(serial) == len(pooled) == 15
        assert [report_signature(c.report) for c in serial] == [
            report_signature(c.report) for c in pooled
        ]
        assert any(c.report.rollbacks for c in serial)

    def test_pool_error_capture_keeps_campaign_alive(self):
        configs = [
            picklable_config(),
            broken_config(),
            picklable_config(redundancy=2.0),
        ]
        executor = CampaignExecutor(workers=2)
        outcomes = executor.run(configs)
        assert [o.ok for o in outcomes] == [True, False, True]
        assert outcomes[1].error_type == "ConfigurationError"

    def test_unpicklable_config_runs_in_processes(self):
        """A forked cell inherits its config, so a closure factory is fine."""
        configs = redundancy_sweep_configs(
            lambda_config(), node_mtbfs=[5.0], degrees=[1.0, 2.0]
        )
        executor = CampaignExecutor(workers=2)
        outcomes = executor.run(configs)
        assert executor.last_mode == "process"
        assert all(o.ok for o in outcomes)

    def test_unpicklable_result_is_that_cells_error(self, monkeypatch):
        """A child whose result does not pickle sends the error instead."""
        def unpicklable(config, traced):
            return None, lambda: None, "Odd", ""

        monkeypatch.setattr(executor_module, "_execute_cell", unpicklable)
        configs = redundancy_sweep_configs(
            picklable_config(), node_mtbfs=[5.0], degrees=[1.0, 2.0]
        )
        executor = CampaignExecutor(workers=2)
        outcomes = executor.run(configs)
        assert executor.last_mode == "process"
        assert executor.worker_crashes == 0
        assert all(not o.ok and o.error_type not in (None, "Odd") for o in outcomes)

    def test_process_start_failure_runs_cells_in_parent(self, monkeypatch):
        def refuse(process):
            raise OSError("no processes left")

        fork_process = multiprocessing.get_context("fork").Process
        monkeypatch.setattr(fork_process, "start", refuse)
        base = picklable_config(node_mtbf=2.0)
        configs = redundancy_sweep_configs(base, node_mtbfs=[2.0], degrees=[1.0, 2.0])
        serial = CampaignExecutor(workers=1).run(configs)
        executor = CampaignExecutor(workers=2)
        outcomes = executor.run(configs)
        assert all(o.ok for o in outcomes)
        assert executor.last_mode == "serial-fallback"
        assert [report_signature(o.report) for o in outcomes] == [
            report_signature(o.report) for o in serial
        ]

    def test_utilization_counts_only_lanes_that_ran(self, monkeypatch):
        """Two equal cells at workers=8 keep at most two lanes busy.

        A fake clock and fixed CPU seconds keep host load out of the
        gauge: the run lasts 1 s, each cell reports 0.75 CPU seconds and
        two lanes ran, so it reads 0.75 (0.1875 over all eight workers).
        """
        ticks = iter([0.0])
        fake_time = SimpleNamespace(
            monotonic=lambda: next(ticks, 1.0), process_time=lambda: 0.75
        )
        # Forked cells inherit the module's fake clock.
        monkeypatch.setattr(executor_module, "time", fake_time)
        monkeypatch.setattr(executor_module, "_usable_cpus", lambda: 8)
        configs = redundancy_sweep_configs(
            picklable_config(), node_mtbfs=[5.0], degrees=[1.0, 1.0]
        )
        obs = ObsSession(metrics=True)
        executor = CampaignExecutor(workers=8, obs=obs)
        executor.run(configs)
        assert executor.last_mode == "process"
        assert obs.metrics.gauge("campaign.utilization").value == 0.75

    def test_utilization_counts_cpu_time_not_wall_time(self):
        """Cells whose ranks sleep hold their lanes but use no CPU."""
        configs = [special_config(GlacialWorkload, sleep_seconds=0.4)] * 2
        obs = ObsSession(metrics=True)
        outcomes = CampaignExecutor(workers=2, obs=obs).run(configs)
        assert all(o.ok for o in outcomes)
        assert obs.metrics.gauge("campaign.utilization").value < 0.5

    def test_single_cell_stays_serial(self):
        configs = redundancy_sweep_configs(
            picklable_config(), node_mtbfs=[5.0], degrees=[1.0]
        )
        executor = CampaignExecutor(workers=4)
        outcomes = executor.run(configs)
        assert executor.last_mode == "serial"
        assert outcomes[0].ok


class TestSweepErrorPolicy:
    def broken_sweep_config(self):
        # Derive-Daly checkpointing without expected_base_time: passes
        # construction, raises once the sweep fills in node_mtbf and runs.
        return picklable_config(checkpoint_interval=None, expected_base_time=None)

    def test_strict_raises_aggregate_error(self):
        with pytest.raises(CampaignExecutionError) as excinfo:
            run_redundancy_sweep(
                self.broken_sweep_config(), node_mtbfs=[5.0], degrees=[1.0, 2.0]
            )
        assert len(excinfo.value.failures) == 2

    def test_sweep_forwards_workers(self, monkeypatch):
        built = []

        class Recording(CampaignExecutor):
            def __init__(self, **execution):
                super().__init__(**execution)
                built.append(self)

        monkeypatch.setattr(campaign_module, "CampaignExecutor", Recording)
        cells = run_failure_free_sweep(
            picklable_config(), degrees=[1.0, 2.0], workers=2
        )
        assert len(cells) == 2
        assert all(cell.report.completed for cell in cells)
        assert [executor.workers for executor in built] == [2]


class TestResolveHardeningKnobs:
    def test_timeout_default_is_unlimited(self):
        assert CampaignExecutor().cell_timeout is None

    def test_timeout_explicit_wins(self):
        assert CampaignExecutor(cell_timeout=3.0).cell_timeout == 3.0
        timeout = CampaignExecutor(cell_timeout=3).cell_timeout
        assert timeout == 3.0 and isinstance(timeout, float)

    def test_timeout_invalid_rejected(self):
        # Non-finite values: inf overflows wait(), nan never fires.
        for value in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ConfigurationError):
                CampaignExecutor(cell_timeout=value)

    @pytest.mark.parametrize("value", ["soon", "7.5", True, [1.0]])
    def test_timeout_non_number_rejected(self, value):
        with pytest.raises(ConfigurationError):
            CampaignExecutor(cell_timeout=value)

    @pytest.mark.parametrize("value", ["two", "2", 2.5, 2.0, True, None])
    def test_workers_non_integer_rejected(self, value):
        with pytest.raises(ConfigurationError):
            CampaignExecutor(workers=value)


class TestChaosNoOp:
    def test_zero_prob_fault_model_bit_identical(self):
        """Acceptance: an all-zero chaos config must not perturb output."""
        plain = picklable_config(node_mtbf=2.0)
        disarmed = picklable_config(
            node_mtbf=2.0, storage_faults=StorageFaultConfig()
        )
        kwargs = dict(node_mtbfs=[2.0, 4.0], degrees=[1.0, 2.0])
        baseline = run_redundancy_sweep(plain, workers=1, **kwargs)
        chaos = run_redundancy_sweep(disarmed, workers=1, **kwargs)
        for left, right in zip(baseline, chaos):
            assert report_signature(left.report) == report_signature(right.report)
        assert all(c.report.storage_fault_counts == {} for c in baseline)


class TestSelfHealing:
    def test_killed_worker_loses_zero_cells(self, tmp_path):
        """Acceptance: a SIGKILLed pool worker mid-campaign loses nothing."""
        sentinel = str(tmp_path / "killed-once")
        configs = [
            picklable_config(),
            special_config(KamikazeWorkload, sentinel=sentinel, delay=1.0),
            picklable_config(redundancy=2.0),
        ]
        executor = CampaignExecutor(workers=2)
        outcomes = executor.run(configs)
        assert len(outcomes) == len(configs)
        assert all(o.ok for o in outcomes), [
            (o.error_type, o.error) for o in outcomes if not o.ok
        ]
        assert executor.worker_crashes == 1
        assert os.path.exists(sentinel)

    def test_poison_cell_synthesized_after_retries(self, monkeypatch):
        """A cell that kills its process every time is eventually declared
        lost instead of being rerun forever — and the healthy cells
        still all complete."""
        configs = [
            picklable_config(),
            special_config(PoisonWorkload, delay=0.3),
            picklable_config(redundancy=2.0),
        ]
        monkeypatch.setattr(executor_module, "CELL_RETRIES", 1)
        executor = CampaignExecutor(workers=2)
        outcomes = executor.run(configs)
        assert len(outcomes) == len(configs)
        statuses = [o.ok for o in outcomes]
        # The poison cell must come back as a synthesized failure (process
        # path) or a captured error (serial fallback); never dropped.
        assert statuses[0] and statuses[2]
        assert not statuses[1]
        assert outcomes[1].error_type is not None

    def test_poison_cell_spares_queued_cells(self):
        """A crash charges only the cell whose process died: the healthy
        cell that ran beside the poison cell and the cells queued behind
        it all complete, and only the poison cell is ever resubmitted."""
        # Two lanes.  The plain cell ends at ~0.1 s and the first slow
        # cell takes its lane until ~1.1 s, so it is mid-run when the
        # poison cell first dies, at 0.4 s.  The reruns wait behind the
        # slow cells, which take ~1 s each.
        poison = special_config(PoisonWorkload, delay=0.4)
        slow = [special_config(GlacialWorkload, sleep_seconds=1.0)] * 4
        configs = [picklable_config(), poison, *slow]
        executor = CampaignExecutor(workers=2)
        outcomes = executor.run(configs)
        assert len(outcomes) == len(configs)
        ok = [o.ok for o in outcomes]
        assert not ok[1]
        assert ok[0] and ok[2] and ok[3] and ok[4] and ok[5], [
            (o.error_type, o.error) for o in outcomes
        ]
        assert executor.cells_resubmitted == executor_module.CELL_RETRIES

    def test_two_poison_cells_spare_the_rest(self):
        """Two adjacent poison cells each crash their own process on every
        attempt and are lost after ``CELL_RETRIES`` reruns; the slow
        cells around them still run and complete."""
        # Each poison cell dies 0.4 s after it starts, both first runs
        # beside the first slow cell (~0.4 s and ~0.8 s into its ~1 s).
        # Their reruns wait behind the other slow cells.
        poison = [special_config(PoisonWorkload, delay=0.4)] * 2
        slow = special_config(GlacialWorkload, sleep_seconds=1.0)
        configs = [slow, *poison, slow, slow, slow]
        executor = CampaignExecutor(workers=2)
        outcomes = executor.run(configs)
        assert len(outcomes) == len(configs)
        ok = [o.ok for o in outcomes]
        assert not ok[1] and not ok[2]
        assert ok[0] and all(ok[3:]), [(o.error_type, o.error) for o in outcomes]
        assert executor.last_mode == "process"
        retries = executor_module.CELL_RETRIES
        for lost in outcomes[1:3]:
            assert f"after {retries + 1} attempt(s)" in lost.error
        # Only the poison cells were ever charged: a crash charged to the
        # slow neighbour too would rerun it, and it would still complete.
        assert executor.cells_resubmitted == 2 * retries

    def test_cell_timeout_fails_slow_cell_only(self):
        # The plain cell ends at ~0.1 s; the sleeper is killed at 1 s.
        configs = [
            picklable_config(),
            special_config(GlacialWorkload, sleep_seconds=30.0),
        ]
        executor = CampaignExecutor(workers=2, cell_timeout=1.0)
        start = time.monotonic()
        outcomes = executor.run(configs)
        elapsed = time.monotonic() - start
        assert elapsed < 15.0  # the 30 s sleeper was reclaimed, not awaited
        assert len(outcomes) == 2
        assert outcomes[0].ok
        assert not outcomes[1].ok
        assert outcomes[1].error_type == "CellTimeout"
        assert executor.cells_timed_out == 1

    def test_timeout_survivors_move_to_fresh_pool(self):
        # The three plain cells take the other lane in turn and end by
        # ~0.3 s; the sleeper is killed at 1 s.
        configs = [
            special_config(GlacialWorkload, sleep_seconds=30.0),
            picklable_config(redundancy=1.5),
            picklable_config(redundancy=2.0),
            picklable_config(redundancy=2.5),
        ]
        executor = CampaignExecutor(workers=2, cell_timeout=1.0)
        outcomes = executor.run(configs)
        assert len(outcomes) == 4
        assert [o.ok for o in outcomes] == [False, True, True, True]
        assert outcomes[0].error_type == "CellTimeout"

    def test_timeout_spares_running_neighbour(self):
        """The third cell is mid-run when the first one's deadline fires;
        only the overdue cell's process is killed, so the neighbour
        finishes without a restart."""
        # Timeline: the first cell sleeps past its 1.5 s deadline; the
        # second runs 0 -> ~1 s and the third ~1 -> ~2 s, so that deadline
        # falls ~0.5 s into the third cell's run and ~0.5 s before its
        # end, and the third cell ends ~0.5 s before its own deadline.
        configs = [
            special_config(GlacialWorkload, sleep_seconds=seconds)
            for seconds in (30.0, 1.0, 1.0)
        ]
        executor = CampaignExecutor(workers=2, cell_timeout=1.5)
        outcomes = executor.run(configs)
        assert [o.ok for o in outcomes] == [False, True, True]
        assert executor.cells_timed_out == 1
        assert executor.cells_resubmitted == 0

    def test_no_timeout_means_no_deadline_bookkeeping(self):
        configs = redundancy_sweep_configs(
            picklable_config(), node_mtbfs=[5.0], degrees=[1.0, 2.0]
        )
        executor = CampaignExecutor(workers=2, cell_timeout=None)
        outcomes = executor.run(configs)
        assert all(o.ok for o in outcomes)
        assert executor.cells_timed_out == 0
