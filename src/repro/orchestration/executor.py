"""Parallel campaign execution over independent grid cells.

Campaign grids (Table 4/5, Figures 8-10) are embarrassingly parallel:
every cell is one self-contained :class:`~repro.orchestration.job.ResilientJob`
whose outcome depends only on its :class:`~repro.orchestration.job.JobConfig`
(including the seed).  :class:`CampaignExecutor` runs each in-flight
cell in a process of its own, forked for that cell and gone when it
ends, at most ``workers`` at a time, while preserving exactly the
serial semantics:

* **determinism** — seeds are derived *before* submission, so a parallel
  run is bit-identical to a serial run of the same configs;
* **ordered results** — outcomes come back in config order regardless of
  completion order;
* **progress** — an optional callback fires in the *parent* process as
  cells complete (completion order, which may differ from config order);
* **error capture** — one diverged/broken cell is recorded as a failed
  :class:`CellOutcome`; the rest of the campaign keeps running;
* **serial paths** — ``workers <= 1`` and a single cell run in-process;
  a cell whose process cannot be started runs in the parent instead.

A cell is its ``JobConfig``: the config carries the cell's grid
coordinates, and its :class:`CellOutcome` reads them back off it.  A
forked child inherits its config, so configs are never pickled; only
the child's result travels back, through a one-shot pipe: its
``(report, error, error_type)``, its job's trace records as JSONL text
when the run is traced, and the CPU seconds the cell used.  The serial
paths return the same result directly.  A failure costs only the cell
it hits, as in the paper's redundancy and rollback:

* **completeness** — every config produces exactly one outcome, always;
  a cell lost to crashes is synthesized as a failed outcome, never
  silently dropped;
* **per-cell crashes** — a pipe that reaches end-of-file with no result
  means that cell's process died.  Only that cell is charged: it is
  run again in a fresh process up to ``CELL_RETRIES`` times, then
  declared lost (``WorkerCrash``).  Its neighbours never notice;
* **per-cell wall-clock timeouts** — ``cell_timeout`` bounds how long
  one cell may run in its process; an overdue cell's process alone is
  killed and the cell is recorded as a failed outcome.  Timeouts apply
  only to cells run in a process (the serial path cannot preempt).

One execution context:

A :class:`CampaignExecutor` is the one object that carries the
execution options — ``workers``, ``cell_timeout``, ``obs`` and
``store`` — and its constructor is the only place they are named and
checked.  The CLI's ``campaign``/``chaos`` flags build one executor;
the ``table4``/``table5``/``chaos`` experiments and
:func:`~repro.orchestration.campaign.run_cells` take it as their
``executor`` argument and run every cell on it.  No environment
variable changes the options: the defaults are serial and no
timeout.  ``obs`` (an :class:`~repro.obs.ObsSession`) replaces
separate tracer/metrics handles: the executor takes its tracer and
registry from it, traces every cell's job when the session traces, and
hands each cell's records to the session; whoever built the session
stamps its manifest before the run and finalizes it after.
"""

from __future__ import annotations

import math
import multiprocessing
import numbers
import os
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError, ReproError
from ..obs import NULL_TRACER, ObsSession, Tracer, to_jsonl
from .job import JobConfig, JobReport, ResilientJob, trace_label

#: Times a cell whose process crashed is run again; one more crash and
#: it is synthesized as a failed (lost) outcome.
CELL_RETRIES = 2


class CampaignExecutionError(ReproError):
    """One or more campaign cells failed (strict mode).

    Carries the failed :class:`CellOutcome` records in ``failures``.
    """

    def __init__(self, failures: Sequence["CellOutcome"]) -> None:
        summary = "; ".join(
            f"(mtbf={o.node_mtbf}, r={o.redundancy}): "
            f"{o.error_type}: {o.error}"
            for o in failures
        )
        super().__init__(f"{len(failures)} campaign cell(s) failed: {summary}")
        self.failures = list(failures)


@dataclass(frozen=True)
class CellOutcome:
    """What one cell produced: a report, or a captured error."""

    config: JobConfig
    report: Optional[JobReport] = None
    error: Optional[str] = None
    error_type: Optional[str] = None
    #: True when the report was restored from the results store rather
    #: than executed (resumed campaigns).
    cached: bool = False

    @property
    def ok(self) -> bool:
        """True when the cell ran to a report (even an incomplete job)."""
        return self.report is not None

    @property
    def node_mtbf(self) -> Optional[float]:
        """The cell's grid row (``None`` for a failure-free cell)."""
        return self.config.node_mtbf

    @property
    def redundancy(self) -> float:
        """The cell's grid column."""
        return self.config.redundancy

    @property
    def minutes(self) -> float:
        """Completion time in minutes (the paper's Table 4 unit)."""
        return self.report.total_minutes


#: What a cell sends home: its ``_execute_cell`` tuple, then the CPU
#: seconds it used.
_Sent = Tuple[Optional[JobReport], Optional[str], Optional[str], str, float]

#: A cell to run: its config and its store key (``None`` with no store).
_Cell = Tuple[JobConfig, Optional[str]]


def _execute_cell(
    config: JobConfig, traced: bool
) -> Tuple[Optional[JobReport], Optional[str], Optional[str], str]:
    """Run one cell, capturing any error as data.

    Returns ``(report, error_message, error_type, trace)`` rather than
    raising, so a broken cell is one failed outcome, in a child process
    or serially.  The first three are the fields of :class:`CellOutcome`
    after ``config``; ``trace`` is the job's records as JSONL text when
    ``traced``, and empty otherwise or when the cell raised.
    """
    tracer = Tracer(common={"job": trace_label(config)}) if traced else NULL_TRACER
    try:
        report = ResilientJob(config, tracer=tracer).run()
    except Exception as error:  # noqa: BLE001 - per-cell capture is the point
        return None, str(error), type(error).__name__, ""
    return report, None, None, to_jsonl(tracer.records)


def _run_here(config: JobConfig, traced: bool) -> _Sent:
    """Run one cell in this process; its CPU time is the delta around it."""
    started = time.process_time()
    result = _execute_cell(config, traced)
    return (*result, time.process_time() - started)


def _run_child(config: JobConfig, traced: bool, writer) -> None:
    """A forked cell process: run the cell, send its result back.

    The process exists for this one cell, so its whole CPU time is the
    cell's.  A report that does not pickle is sent as that cell's error
    instead.
    """
    result = _execute_cell(config, traced)
    try:
        writer.send((*result, time.process_time()))
    except Exception as error:  # noqa: BLE001 - the pickle failure is the result
        writer.send((None, str(error), type(error).__name__, "", time.process_time()))


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class CampaignExecutor:
    """Run cells serially or one forked process per running cell.

    A cell whose process crashes is charged alone and run again in a
    fresh process, up to ``CELL_RETRIES`` times; an overdue cell has
    only its own process killed.

    Parameters
    ----------
    workers:
        Cells to run at once, each in its own process; an integer (not
        a bool), and ``<= 1`` runs serially in-process.
    cell_timeout:
        Wall-clock seconds one cell may spend in its process before it
        is killed and declared failed: a number (not a bool), finite
        (``inf`` would overflow ``wait``, and ``nan`` would never fire)
        and > 0.  ``None`` means no timeout.  Process mode only.
    obs:
        Optional :class:`~repro.obs.ObsSession`.  Its tracer receives
        wall-clock cell spans and executor events (run timings,
        timeouts, crashes, resubmissions); its metrics registry receives
        cell counters, wall-time histograms and the final CPU
        utilization gauge; when it traces, every cell's job is traced
        too and the records each cell sends home are handed to it; and
        the number of cells that ran to a report is recorded in its
        campaign manifest.  Omitted (or disabled), nothing is
        collected.
    store:
        Optional :class:`~repro.store.ResultsStore`.  Before execution,
        every cell is looked up by its canonical config key: stored
        cells come back as ``cached=True`` outcomes (progress fires for
        them too, in config order) and are *not* re-run; every cell that
        does run to a report is persisted from the parent process as it
        completes.  This is what makes campaigns resumable — and a
        repeat of an identical campaign all cache hits, bit-identical
        to the original.  Hit/miss counters land in ``metrics`` as
        ``campaign.cache_hits``/``campaign.cache_misses``.
    """

    def __init__(
        self,
        workers: int = 1,
        cell_timeout: Optional[float] = None,
        obs: Optional[ObsSession] = None,
        store=None,
    ) -> None:
        if isinstance(workers, bool) or not isinstance(workers, numbers.Integral):
            raise ConfigurationError(f"workers must be an integer, got {workers!r}")
        if cell_timeout is not None:
            if isinstance(cell_timeout, bool) or not isinstance(
                cell_timeout, numbers.Real
            ):
                raise ConfigurationError(
                    f"cell timeout must be a number, got {cell_timeout!r}"
                )
            if not 0.0 < cell_timeout < math.inf:
                raise ConfigurationError(
                    f"cell timeout must be finite and > 0, got {cell_timeout}"
                )
            cell_timeout = float(cell_timeout)
        self.workers = max(1, int(workers))
        self.cell_timeout = cell_timeout
        self.obs = obs
        self.tracer = obs.tracer if obs is not None else NULL_TRACER
        self.metrics = obs.metrics if obs is not None else None
        self.store = store
        #: How the last :meth:`run` actually executed ("serial",
        #: "process", "serial-fallback" when a cell's process could not
        #: be started; "cached" when the store restored every cell).
        self.last_mode: Optional[str] = None
        #: Cell processes that died without a result during the last run.
        self.worker_crashes = 0
        #: Crashed cells run again in a fresh process during the last run.
        self.cells_resubmitted = 0
        #: Cells failed by the wall-clock timeout during the last run.
        self.cells_timed_out = 0
        #: Cells restored from the results store during the last run.
        self.cells_cached = 0
        #: Store writes that failed during the last run (best-effort).
        self.store_write_failures = 0
        #: Open per-cell spans + wall start stamps, keyed by cell index.
        self._cell_spans: Dict[int, tuple] = {}
        #: Summed CPU seconds of the cells that ran (utilization numerator).
        self._cpu_seconds = 0.0

    # -- public API ---------------------------------------------------------

    def run(
        self,
        configs: Sequence[JobConfig],
        progress: Optional[Callable[[CellOutcome], None]] = None,
    ) -> List[CellOutcome]:
        """Execute every cell; outcomes are returned in config order.

        Exactly one outcome per config, always — cells lost to crashes
        or timeouts come back as failed outcomes rather than
        disappearing.  ``progress`` is invoked in the calling process
        once per cell: first for store-restored cells (config order,
        ``cached=True``), then for executed cells as they complete
        (completion order in process mode).
        """
        self.last_mode = None
        self.worker_crashes = 0
        self.cells_resubmitted = 0
        self.cells_timed_out = 0
        self.cells_cached = 0
        self.store_write_failures = 0
        self._cell_spans = {}
        self._cpu_seconds = 0.0
        if not configs:
            return []
        started = time.monotonic()
        campaign_span = self.tracer.begin(
            "campaign", cells=len(configs), workers=self.workers
        )
        try:
            restored, remaining = self._restore_cached(configs, progress)
            live = [(configs[index], key) for index, key in remaining]
            if not live:
                self.last_mode = "cached"
                executed = []
            elif self.workers <= 1 or len(live) == 1:
                executed = self._run_serial(live, progress)
            else:
                executed = self._run_forked(live, progress)
            merged: List[Optional[CellOutcome]] = [None] * len(configs)
            for index, outcome in restored.items():
                merged[index] = outcome
            for (index, _), outcome in zip(remaining, executed):
                merged[index] = outcome
            outcomes = [outcome for outcome in merged if outcome is not None]
            assert len(outcomes) == len(configs)
        finally:
            # The cells' CPU seconds over what their lanes could give:
            # a sleeping cell uses none, and no more lanes run at once
            # than there are CPUs.
            elapsed = time.monotonic() - started
            lanes = 1
            if self.last_mode == "process":
                live_cells = len(configs) - self.cells_cached
                lanes = min(self.workers, live_cells, _usable_cpus())
            utilization = (
                self._cpu_seconds / (elapsed * lanes) if elapsed > 0.0 else 0.0
            )
            campaign_span.end(
                mode=self.last_mode,
                utilization=round(utilization, 4),
                worker_crashes=self.worker_crashes,
                cells_resubmitted=self.cells_resubmitted,
                cells_timed_out=self.cells_timed_out,
                cells_cached=self.cells_cached,
            )
            if self.metrics is not None:
                self.metrics.gauge("campaign.workers").set(self.workers)
                self.metrics.gauge("campaign.utilization").set(utilization)
                self.metrics.counter("campaign.worker_crashes").inc(
                    self.worker_crashes
                )
                self.metrics.counter("campaign.cells_resubmitted").inc(
                    self.cells_resubmitted
                )
                self.metrics.counter("campaign.cells_timed_out").inc(
                    self.cells_timed_out
                )
        if self.obs is not None and self.obs.manifest is not None:
            self.obs.manifest.finish(cells=sum(o.ok for o in outcomes))
        return outcomes

    # -- results store ------------------------------------------------------

    def _restore_cached(
        self,
        configs: Sequence[JobConfig],
        progress: Optional[Callable[[CellOutcome], None]],
    ) -> Tuple[Dict[int, CellOutcome], List[Tuple[int, Optional[str]]]]:
        """Look every cell up in the store; return (restored, to-run).

        Each cell's store key is computed here, once: a cell left to run
        comes back as ``(index, key)``, and the key goes with it to its
        write (``None`` with no store).  Restored outcomes fire
        ``progress`` immediately (config order) with ``cached=True`` so
        TTY progress and traces account for resumed cells instead of
        silently under-counting them.
        """
        if self.store is None:
            return {}, [(index, None) for index in range(len(configs))]
        restored: Dict[int, CellOutcome] = {}
        remaining: List[Tuple[int, Optional[str]]] = []
        for index, config in enumerate(configs):
            key = self.store.report_key(config)
            report = self.store.get_report(key)
            if report is None:
                remaining.append((index, key))
                continue
            outcome = CellOutcome(config, report, cached=True)
            restored[index] = outcome
            self.cells_cached += 1
            self.tracer.event(
                "cell_cached", index=index, mtbf=config.node_mtbf, r=config.redundancy
            )
            if self.metrics is not None:
                self.metrics.counter("campaign.cells").inc()
                self.metrics.counter("campaign.cache_hits").inc()
            if progress is not None:
                progress(outcome)
        if self.metrics is not None and remaining:
            self.metrics.counter("campaign.cache_misses").inc(len(remaining))
        return restored, remaining

    def _persist(self, key: Optional[str], outcome: CellOutcome) -> None:
        """Write one executed cell's report through to the store under ``key``.

        Best-effort: a store write failure (disk full, permissions)
        must never fail the campaign — the cell simply is not resumable
        and will recompute next time.
        """
        if (
            self.store is None
            or not outcome.ok
            or outcome.cached
        ):
            return
        try:
            self.store.put_report(key, outcome.report)
        except Exception as error:  # noqa: BLE001 - persistence is optional
            self.store_write_failures += 1
            self.tracer.event("store_write_failed", error=str(error))
            if self.metrics is not None:
                self.metrics.counter("campaign.store_write_failures").inc()

    # -- observability ------------------------------------------------------

    def _begin_cell(self, index: int, config: JobConfig) -> None:
        """Open the wall-clock span for one cell (at submit/run time)."""
        span = self.tracer.begin(
            "cell", index=index, mtbf=config.node_mtbf, r=config.redundancy
        )
        self._cell_spans[index] = (span, time.monotonic())

    def _finish_cell(
        self, index: int, outcome: Optional[CellOutcome], status: str = ""
    ) -> None:
        """Close a cell's span and fold its wall time into the metrics."""
        entry = self._cell_spans.pop(index, None)
        seconds = 0.0
        if entry is not None:
            span, cell_started = entry
            seconds = time.monotonic() - cell_started
            span.end(
                ok=outcome.ok if outcome is not None else False,
                status=status or outcome.error_type or "ok",
                seconds=round(seconds, 6),
            )
        if self.metrics is not None and outcome is not None:
            self.metrics.counter("campaign.cells").inc()
            if not outcome.ok:
                self.metrics.counter("campaign.cell_failures").inc()
            self.metrics.histogram("campaign.cell_wall_seconds").observe(seconds)

    def _settle(
        self,
        outcomes: List[Optional[CellOutcome]],
        index: int,
        outcome: CellOutcome,
        progress: Optional[Callable[[CellOutcome], None]],
        status: str = "",
        key: Optional[str] = None,
    ) -> None:
        """Record a cell's one outcome, close its span, store it, report progress."""
        outcomes[index] = outcome
        self._finish_cell(index, outcome, status)
        self._persist(key, outcome)
        if progress is not None:
            progress(outcome)

    def _complete(
        self,
        outcomes: List[Optional[CellOutcome]],
        index: int,
        cell: _Cell,
        sent: _Sent,
        progress: Optional[Callable[[CellOutcome], None]],
    ) -> None:
        """Settle a cell that sent a result; keep its records and CPU time."""
        config, key = cell
        report, error, error_type, trace, cpu_seconds = sent
        self._cpu_seconds += cpu_seconds
        if trace:
            self.obs.add_records(trace)
        outcome = CellOutcome(config, report, error, error_type)
        self._settle(outcomes, index, outcome, progress, key=key)

    # -- execution paths ----------------------------------------------------

    def _run_serial(
        self,
        cells: Sequence[_Cell],
        progress: Optional[Callable[[CellOutcome], None]],
    ) -> List[CellOutcome]:
        self.last_mode = "serial"
        outcomes: List[Optional[CellOutcome]] = [None] * len(cells)
        traced = self.tracer.enabled
        for index, cell in enumerate(cells):
            config = cell[0]
            self._begin_cell(index, config)
            sent = _run_here(config, traced)
            self._complete(outcomes, index, cell, sent, progress)
        return list(outcomes)

    def _run_forked(
        self,
        cells: Sequence[_Cell],
        progress: Optional[Callable[[CellOutcome], None]],
    ) -> List[CellOutcome]:
        """Run each in-flight cell in its own forked process.

        At most ``workers`` cells run at once, in config order; the parent
        waits on their result pipes.  A pipe that reaches end-of-file
        with no result is its cell's crash: that cell alone is charged
        and queued again, and lost after ``CELL_RETRIES`` reruns.  A
        cell past its deadline has its own process killed.  A cell
        whose process cannot be started runs here, in the parent.
        """
        self.last_mode = "process"
        traced = self.tracer.enabled
        context = multiprocessing.get_context("fork")
        outcomes: List[Optional[CellOutcome]] = [None] * len(cells)
        crashes = [0] * len(cells)
        queue = deque(range(len(cells)))
        #: Result pipe of each running cell -> (index, process, deadline).
        running: Dict[object, Tuple[int, object, float]] = {}
        try:
            while queue or running:
                while queue and len(running) < self.workers:
                    index = queue.popleft()
                    config = cells[index][0]
                    self._begin_cell(index, config)
                    try:
                        reader, process = self._start(context, config, traced)
                    except OSError as error:
                        self.last_mode = "serial-fallback"
                        self.tracer.event("serial_fallback", error=str(error))
                        sent = _run_here(config, traced)
                        self._complete(outcomes, index, cells[index], sent, progress)
                        continue
                    deadline = time.monotonic() + (self.cell_timeout or math.inf)
                    running[reader] = (index, process, deadline)
                if not running:
                    break
                soonest = min(entry[2] for entry in running.values())
                timeout = None
                if soonest < math.inf:
                    timeout = max(soonest - time.monotonic(), 0.0)
                for reader in wait(list(running), timeout):
                    index, process, _ = running.pop(reader)
                    try:
                        sent = reader.recv()
                    except EOFError:  # the process died before sending
                        sent = None
                    exitcode = self._reap(reader, process)
                    if sent is not None:
                        self._complete(outcomes, index, cells[index], sent, progress)
                        continue
                    crashes[index] += 1
                    lost = self._crashed(cells[index][0], index, crashes[index], exitcode)
                    if lost is None:
                        queue.append(index)
                    else:
                        self._settle(outcomes, index, lost, progress, status="lost")
                now = time.monotonic()
                for reader in [r for r, entry in running.items() if entry[2] <= now]:
                    index, process, _ = running.pop(reader)
                    self._reap(reader, process, kill=True)
                    self.cells_timed_out += 1
                    timed_out = CellOutcome(
                        cells[index][0],
                        error_type="CellTimeout",
                        error=(
                            f"cell exceeded the {self.cell_timeout}s "
                            "wall-clock timeout"
                        ),
                    )
                    self._settle(outcomes, index, timed_out, progress, status="timeout")
                    self.tracer.event(
                        "cell_timeout", index=index, limit=self.cell_timeout
                    )
        finally:
            for reader, (_, process, _) in running.items():
                self._reap(reader, process, kill=True)
        return list(outcomes)

    def _crashed(
        self, config: JobConfig, index: int, attempts: int, exitcode: Optional[int]
    ) -> Optional[CellOutcome]:
        """Charge a crash to its cell: None to run it again, else its loss."""
        self.worker_crashes += 1
        self.tracer.event("worker_crash", index=index, exitcode=exitcode)
        if attempts > CELL_RETRIES:
            return CellOutcome(
                config,
                error_type="WorkerCrash",
                error=(
                    f"cell lost to a worker crash after {attempts} attempt(s): "
                    f"exit code {exitcode}"
                ),
            )
        self._finish_cell(index, None, status="resubmitted")
        self.tracer.event("cell_resubmitted", index=index)
        self.cells_resubmitted += 1
        return None

    @staticmethod
    def _start(context, config: JobConfig, traced: bool):
        """Fork one cell's process; return its result pipe and process."""
        reader, writer = context.Pipe(duplex=False)
        process = context.Process(
            target=_run_child, args=(config, traced, writer), daemon=True
        )
        try:
            process.start()
        except OSError:
            reader.close()
            raise
        finally:
            # Only the child holds the write end, so its death is an EOF.
            writer.close()
        return reader, process

    @staticmethod
    def _reap(reader, process, kill: bool = False) -> Optional[int]:
        """Close a cell's pipe and process (killing it first if asked)."""
        if kill:
            process.kill()
        process.join()
        reader.close()
        exitcode = process.exitcode
        process.close()
        return exitcode
