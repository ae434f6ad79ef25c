"""Parallel campaign execution over independent grid cells.

Campaign grids (Table 4/5, Figures 8-10) are embarrassingly parallel:
every cell is one self-contained :class:`~repro.orchestration.job.ResilientJob`
whose outcome depends only on its :class:`~repro.orchestration.job.JobConfig`
(including the seed).  :class:`CampaignExecutor` fans cells out over a
``concurrent.futures.ProcessPoolExecutor`` while preserving exactly the
serial semantics:

* **determinism** — seeds are derived *before* submission, so a parallel
  run is bit-identical to a serial run of the same specs;
* **ordered results** — outcomes come back in spec order regardless of
  completion order;
* **progress** — an optional callback fires in the *parent* process as
  cells complete (completion order, which may differ from spec order);
* **error capture** — one diverged/broken cell is recorded as a failed
  :class:`CellOutcome`; the rest of the campaign keeps running;
* **graceful fallback** — anything that prevents pooling (``workers <= 1``,
  a single cell, unpicklable configs, a sandbox without process support)
  silently drops to the serial path.

Self-healing (the chaos-hardening layer):

* **completeness** — every spec produces exactly one outcome, always;
  a cell the pool lost is synthesized as a failed outcome, never
  silently dropped;
* **broken-pool recovery** — a worker dying mid-campaign
  (``BrokenProcessPool``) no longer kills the sweep: completed results
  are kept, not-yet-completed cells are resubmitted to a *fresh* pool
  (up to ``cell_retries`` times per cell and ``MAX_POOL_REBUILDS``
  rebuilds overall) before any cell is declared lost;
* **per-cell wall-clock timeouts** — ``cell_timeout`` (or the
  ``REPRO_CELL_TIMEOUT`` env var) bounds how long one cell may run in
  a worker; an overdue cell is recorded as a failed outcome, its
  worker is terminated and the survivors move to a fresh pool.
  Timeouts apply only under pooling (the serial path cannot preempt).

One execution context:

:class:`CampaignExecutor`'s keyword arguments — ``workers``,
``cell_timeout``, ``cell_retries``, ``obs`` and ``store`` — are the only
place the execution options are named and resolved.  Every layer above
(the campaign sweeps, the ``table4``/``table5``/``chaos`` experiments,
the CLI's ``run`` overrides) accepts them as one opaque ``**execution``
mapping and forwards it here untouched, exactly once.  Each option
resolves as: explicit argument, then its environment variable
(``REPRO_WORKERS``, ``REPRO_CELL_TIMEOUT``, ``REPRO_CELL_RETRIES``),
then the default (serial, no timeout, 2 retries).  ``obs`` (an
:class:`~repro.obs.ObsSession`) replaces separate tracer/metrics
handles: the executor takes its tracer and registry from it and stamps
its ``parts_dir`` onto every spec as ``trace_dir``; whoever built the
session stamps its manifest before the run and finalizes it after.
"""

from __future__ import annotations

import os
import pickle
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError, ReproError
from ..obs import NULL_TRACER, ObsSession
from .job import JobConfig, JobReport, ResilientJob

#: Environment variable consulted when no explicit worker count is given.
WORKERS_ENV = "REPRO_WORKERS"
#: Environment variable: per-cell wall-clock timeout in seconds.
CELL_TIMEOUT_ENV = "REPRO_CELL_TIMEOUT"
#: Environment variable: resubmissions allowed per cell lost to a
#: broken pool.
CELL_RETRIES_ENV = "REPRO_CELL_RETRIES"


class CampaignExecutionError(ReproError):
    """One or more campaign cells failed (strict mode).

    Carries the failed :class:`CellOutcome` records in ``failures``.
    """

    def __init__(self, failures: Sequence["CellOutcome"]) -> None:
        summary = "; ".join(
            f"(mtbf={o.spec.node_mtbf}, r={o.spec.redundancy}): "
            f"{o.error_type}: {o.error}"
            for o in failures
        )
        super().__init__(f"{len(failures)} campaign cell(s) failed: {summary}")
        self.failures = list(failures)


@dataclass(frozen=True)
class CellSpec:
    """One grid cell to execute: a fully-resolved config plus coordinates.

    The coordinates (``node_mtbf``, ``redundancy``) are carried alongside
    the config so results can be pivoted back into the campaign matrix
    without re-deriving them.
    """

    node_mtbf: Optional[float]
    redundancy: float
    config: JobConfig


@dataclass(frozen=True)
class CellOutcome:
    """What one cell produced: a report, or a captured error."""

    spec: CellSpec
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


def _env_value(value, env: str, parse, kind: str):
    """``value`` if given, else ``env`` parsed by ``parse``, else None."""
    if value is not None:
        return value
    raw = os.environ.get(env, "").strip()
    if not raw:
        return None
    try:
        return parse(raw)
    except ValueError as exc:
        raise ConfigurationError(f"{env} must be {kind}, got {raw!r}") from exc


def resolve_workers(workers: Optional[int] = None) -> int:
    """Resolve the worker count: argument > ``REPRO_WORKERS`` env > 1."""
    workers = _env_value(workers, WORKERS_ENV, int, "an integer")
    return 1 if workers is None else max(1, int(workers))


def resolve_cell_timeout(cell_timeout: Optional[float] = None) -> Optional[float]:
    """Resolve the per-cell timeout: argument > env > None (no timeout)."""
    cell_timeout = _env_value(cell_timeout, CELL_TIMEOUT_ENV, float, "a number")
    if cell_timeout is None:
        return None
    if cell_timeout <= 0:
        raise ConfigurationError(
            f"cell timeout must be > 0, got {cell_timeout}"
        )
    return float(cell_timeout)


def resolve_cell_retries(cell_retries: Optional[int] = None) -> int:
    """Resolve the lost-cell retry cap: argument > env > 2."""
    cell_retries = _env_value(cell_retries, CELL_RETRIES_ENV, int, "an integer")
    if cell_retries is None:
        return 2
    if cell_retries < 0:
        raise ConfigurationError(
            f"cell retries must be >= 0, got {cell_retries}"
        )
    return int(cell_retries)


def _execute_spec(spec: CellSpec) -> Tuple[Optional[JobReport], Optional[str], Optional[str]]:
    """Run one cell, capturing any error as data (worker-side).

    Returns ``(report, error_type, error_message)`` rather than raising
    so a broken cell never tears down the pool, and exceptions that do
    not pickle cleanly cannot poison the result channel.
    """
    try:
        return ResilientJob(spec.config).run(), None, None
    except Exception as error:  # noqa: BLE001 - per-cell capture is the point
        return None, type(error).__name__, str(error)


class CampaignExecutor:
    """Run cell specs serially or across a self-healing process pool.

    Parameters
    ----------
    workers:
        Worker processes to use.  ``None`` consults ``REPRO_WORKERS``;
        ``<= 1`` runs serially in-process.
    cell_timeout:
        Wall-clock seconds one cell may spend in a worker before it is
        declared failed.  ``None`` consults ``REPRO_CELL_TIMEOUT``;
        unset means no timeout.  Pool mode only.
    cell_retries:
        How many times a cell lost to a broken pool is resubmitted
        before being synthesized as a failed outcome.  ``None``
        consults ``REPRO_CELL_RETRIES``; default 2.
    obs:
        Optional :class:`~repro.obs.ObsSession`.  Its tracer receives
        wall-clock cell spans and pool events (queue/run timings,
        timeouts, rebuilds); its metrics registry receives cell
        counters, wall-time histograms and the final
        worker-utilization gauge; its ``parts_dir`` is stamped onto
        every spec's config as ``trace_dir`` so each cell's job writes
        a trace part; and the number of cells that ran to a report is
        recorded in its campaign manifest.  Omitted (or disabled),
        nothing is collected.
    store:
        Optional :class:`~repro.store.ResultsStore`.  Before execution,
        every spec is looked up by its canonical config key: stored
        cells come back as ``cached=True`` outcomes (progress fires for
        them too, in spec order) and are *not* re-run; every cell that
        does run to a report is persisted from the parent process as it
        completes.  This is what makes campaigns resumable — and a
        repeat of an identical campaign all cache hits, bit-identical
        to the original.  Hit/miss counters land in ``metrics`` as
        ``campaign.cache_hits``/``campaign.cache_misses``.
    """

    #: Fresh pools built after breakage before the remaining cells are
    #: declared lost (a poison cell would otherwise rebuild forever).
    MAX_POOL_REBUILDS = 3

    def __init__(
        self,
        workers: Optional[int] = None,
        cell_timeout: Optional[float] = None,
        cell_retries: Optional[int] = None,
        obs: Optional[ObsSession] = None,
        store=None,
    ) -> None:
        self.workers = resolve_workers(workers)
        self.cell_timeout = resolve_cell_timeout(cell_timeout)
        self.cell_retries = resolve_cell_retries(cell_retries)
        self.obs = obs
        self.tracer = obs.tracer if obs is not None else NULL_TRACER
        self.metrics = obs.metrics if obs is not None else None
        self.store = store
        #: How the last :meth:`run` actually executed ("serial"/
        #: "process"; "cached" when the store restored every cell).
        self.last_mode: Optional[str] = None
        #: Broken-pool events survived during the last :meth:`run`.
        self.pool_breakages = 0
        #: Cells resubmitted to a fresh pool during the last :meth:`run`.
        self.cells_resubmitted = 0
        #: Cells failed by the wall-clock timeout during the last run.
        self.cells_timed_out = 0
        #: Cells restored from the results store during the last run.
        self.cells_cached = 0
        #: Store writes that failed during the last run (best-effort).
        self.store_write_failures = 0
        #: Open per-cell spans + wall start stamps, keyed by spec index.
        self._cell_spans: Dict[int, tuple] = {}
        #: Summed per-cell wall time (utilization numerator).
        self._busy_seconds = 0.0

    # -- public API ---------------------------------------------------------

    def run(
        self,
        specs: Sequence[CellSpec],
        progress: Optional[Callable[[CellOutcome], None]] = None,
    ) -> List[CellOutcome]:
        """Execute every spec; outcomes are returned in spec order.

        Exactly one outcome per spec, always — cells the pool lost come
        back as failed outcomes rather than disappearing.  ``progress``
        is invoked in the calling process once per cell: first for
        store-restored cells (spec order, ``cached=True``), then for
        executed cells as they complete (completion order under
        pooling).
        """
        specs = self._stamp_trace_dir(specs)
        self.pool_breakages = 0
        self.cells_resubmitted = 0
        self.cells_timed_out = 0
        self.cells_cached = 0
        self.store_write_failures = 0
        self._cell_spans = {}
        self._busy_seconds = 0.0
        if not specs:
            return []
        started = time.monotonic()
        campaign_span = self.tracer.begin(
            "campaign", cells=len(specs), workers=self.workers
        )
        try:
            restored, remaining = self._restore_cached(specs, progress)
            live = [specs[i] for i in remaining]
            if not live:
                self.last_mode = "cached"
                executed = []
            elif self.workers <= 1 or len(live) == 1 or not self._poolable(live):
                executed = self._run_serial(live, progress)
            else:
                try:
                    executed = self._run_pool(live, progress)
                except (OSError, PermissionError, ImportError, BrokenProcessPool):
                    # Pool could not be created or broke beyond repair —
                    # BrokenProcessPool is a RuntimeError subclass, so it
                    # must be caught explicitly (a pool whose creation
                    # half-succeeds surfaces it here rather than
                    # OSError).  The cells themselves are untouched, so
                    # serial is equivalent.
                    self.last_mode = "serial-fallback"
                    self.tracer.event("serial_fallback")
                    executed = self._run_serial(live, progress)
            merged: List[Optional[CellOutcome]] = [None] * len(specs)
            for index, outcome in restored.items():
                merged[index] = outcome
            for index, outcome in zip(remaining, executed):
                merged[index] = outcome
            outcomes = [outcome for outcome in merged if outcome is not None]
            assert len(outcomes) == len(specs)
        finally:
            elapsed = time.monotonic() - started
            lanes = self.workers if self.last_mode == "process" else 1
            utilization = (
                self._busy_seconds / (elapsed * lanes) if elapsed > 0.0 else 0.0
            )
            campaign_span.end(
                mode=self.last_mode,
                utilization=round(utilization, 4),
                pool_breakages=self.pool_breakages,
                cells_resubmitted=self.cells_resubmitted,
                cells_timed_out=self.cells_timed_out,
                cells_cached=self.cells_cached,
            )
            if self.metrics is not None:
                self.metrics.gauge("campaign.workers").set(self.workers)
                self.metrics.gauge("campaign.utilization").set(utilization)
                self.metrics.counter("campaign.pool_breakages").inc(
                    self.pool_breakages
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

    def _stamp_trace_dir(self, specs: Sequence[CellSpec]) -> List[CellSpec]:
        """Point every cell's job at the session's trace-part directory."""
        parts_dir = self.obs.parts_dir if self.obs is not None else None
        if parts_dir is None:
            return list(specs)
        return [
            replace(spec, config=replace(spec.config, trace_dir=parts_dir))
            for spec in specs
        ]

    # -- results store ------------------------------------------------------

    def _restore_cached(
        self,
        specs: Sequence[CellSpec],
        progress: Optional[Callable[[CellOutcome], None]],
    ) -> Tuple[Dict[int, CellOutcome], List[int]]:
        """Look every spec up in the store; return (restored, to-run).

        Restored outcomes fire ``progress`` immediately (spec order)
        with ``cached=True`` so TTY progress and traces account for
        resumed cells instead of silently under-counting them.
        """
        if self.store is None:
            return {}, list(range(len(specs)))
        restored: Dict[int, CellOutcome] = {}
        remaining: List[int] = []
        for index, spec in enumerate(specs):
            report = self.store.get_report(spec.config)
            if report is None:
                remaining.append(index)
                continue
            outcome = CellOutcome(spec=spec, report=report, cached=True)
            restored[index] = outcome
            self.cells_cached += 1
            self.tracer.event(
                "cell_cached", index=index, mtbf=spec.node_mtbf, r=spec.redundancy
            )
            if self.metrics is not None:
                self.metrics.counter("campaign.cells").inc()
                self.metrics.counter("campaign.cache_hits").inc()
            if progress is not None:
                progress(outcome)
        if self.metrics is not None and remaining:
            self.metrics.counter("campaign.cache_misses").inc(len(remaining))
        return restored, remaining

    def _persist(self, outcome: CellOutcome) -> None:
        """Write one executed cell's report through to the store.

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
            self.store.put_report(outcome.spec.config, outcome.report)
        except Exception as error:  # noqa: BLE001 - persistence is optional
            self.store_write_failures += 1
            self.tracer.event("store_write_failed", error=str(error))
            if self.metrics is not None:
                self.metrics.counter("campaign.store_write_failures").inc()

    # -- observability ------------------------------------------------------

    def _begin_cell(self, index: int, spec: CellSpec) -> None:
        """Open the wall-clock span for one cell (at submit/run time)."""
        span = self.tracer.begin(
            "cell", index=index, mtbf=spec.node_mtbf, r=spec.redundancy
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
            if not status:
                if outcome is None:
                    status = "lost"
                else:
                    status = outcome.error_type or "ok"
            span.end(
                ok=outcome.ok if outcome is not None else False,
                status=status,
                seconds=round(seconds, 6),
            )
        self._busy_seconds += seconds
        if self.metrics is not None and outcome is not None:
            self.metrics.counter("campaign.cells").inc()
            if not outcome.ok:
                self.metrics.counter("campaign.cell_failures").inc()
            self.metrics.histogram("campaign.cell_wall_seconds").observe(seconds)
        if outcome is not None:
            self._persist(outcome)

    # -- execution paths ----------------------------------------------------

    @staticmethod
    def _poolable(specs: Sequence[CellSpec]) -> bool:
        """Whether the specs survive the trip to a worker process."""
        try:
            pickle.dumps(specs)
            return True
        except Exception:  # noqa: BLE001 - any pickling failure means serial
            return False

    def _run_serial(
        self,
        specs: Sequence[CellSpec],
        progress: Optional[Callable[[CellOutcome], None]],
    ) -> List[CellOutcome]:
        if self.last_mode != "serial-fallback":
            self.last_mode = "serial"
        outcomes = []
        for index, spec in enumerate(specs):
            self._begin_cell(index, spec)
            report, error_type, error = _execute_spec(spec)
            outcome = CellOutcome(
                spec=spec, report=report, error=error, error_type=error_type
            )
            self._finish_cell(index, outcome)
            outcomes.append(outcome)
            if progress is not None:
                progress(outcome)
        return outcomes

    def _run_pool(
        self,
        specs: Sequence[CellSpec],
        progress: Optional[Callable[[CellOutcome], None]],
    ) -> List[CellOutcome]:
        self.last_mode = "process"
        total = len(specs)
        outcomes: List[Optional[CellOutcome]] = [None] * total
        lost_counts = [0] * total
        todo = list(range(total))
        rebuilds = 0
        while todo:
            try:
                resubmit = self._drain_pool(specs, todo, outcomes, progress)
            except BrokenProcessPool as breakage:
                self.pool_breakages += 1
                rebuilds += 1
                self.tracer.event(
                    "pool_breakage", rebuilds=rebuilds, error=str(breakage)
                )
                if rebuilds == 1 and not any(outcomes):
                    # Nothing ever completed: the pool likely never
                    # worked at all (creation half-succeeded).  Let the
                    # caller fall back to the serial path wholesale.
                    raise
                survivors = []
                for index in todo:
                    if outcomes[index] is not None:
                        continue
                    lost_counts[index] += 1
                    exhausted = (
                        lost_counts[index] > self.cell_retries
                        or rebuilds > self.MAX_POOL_REBUILDS
                    )
                    if exhausted:
                        outcomes[index] = self._lost_outcome(
                            specs[index], breakage, lost_counts[index]
                        )
                        self._finish_cell(index, outcomes[index], status="lost")
                        if progress is not None:
                            progress(outcomes[index])
                    else:
                        self._finish_cell(index, None, status="resubmitted")
                        self.tracer.event("cell_resubmitted", index=index)
                        survivors.append(index)
                self.cells_resubmitted += len(survivors)
                todo = survivors
                continue
            # Timeout rebuild: overdue cells already have outcomes; the
            # rest move to a fresh pool (their workers were reclaimed).
            todo = resubmit
        # Completeness invariant: exactly one outcome per spec.  A None
        # here would mean a cell was silently dropped — synthesize a
        # failure loudly instead of truncating the result list.
        for index, outcome in enumerate(outcomes):
            if outcome is None:  # pragma: no cover - defensive backstop
                outcomes[index] = CellOutcome(
                    spec=specs[index],
                    error_type="LostCell",
                    error="cell produced no outcome (executor bug backstop)",
                )
        assert len(outcomes) == total
        return list(outcomes)

    def _drain_pool(
        self,
        specs: Sequence[CellSpec],
        indices: Sequence[int],
        outcomes: List[Optional[CellOutcome]],
        progress: Optional[Callable[[CellOutcome], None]],
    ) -> List[int]:
        """One pool round over ``indices``, filling ``outcomes`` in place.

        Cells are fed to the pool in a window of ``workers`` so every
        submitted future is actually running — which is what makes the
        wall-clock deadline per cell meaningful.  Returns indices that
        must be resubmitted to a fresh pool (after a timeout reclaimed
        this pool's workers); raises ``BrokenProcessPool`` when a worker
        died (the caller heals).
        """
        workers = min(self.workers, len(indices))
        queue = deque(indices)
        pending: Dict[object, int] = {}
        deadlines: Dict[object, float] = {}
        pool = ProcessPoolExecutor(max_workers=workers)
        abandoned = False
        try:
            def fill() -> None:
                while queue and len(pending) < workers:
                    index = queue.popleft()
                    # The submit window equals the worker count, so a
                    # submitted cell is running: its span measures run
                    # time, not queue time.
                    self._begin_cell(index, specs[index])
                    future = pool.submit(_execute_spec, specs[index])
                    pending[future] = index
                    if self.cell_timeout is not None:
                        deadlines[future] = time.monotonic() + self.cell_timeout

            fill()
            while pending:
                done, _ = wait(
                    pending,
                    timeout=self._wait_budget(deadlines),
                    return_when=FIRST_COMPLETED,
                )
                for future in done:
                    index = pending.pop(future)
                    deadlines.pop(future, None)
                    try:
                        report, error_type, error = future.result()
                    except BrokenProcessPool:
                        raise
                    except Exception as exc:  # result unpicklable etc.
                        report, error_type, error = None, type(exc).__name__, str(exc)
                    outcome = CellOutcome(
                        spec=specs[index],
                        report=report,
                        error=error,
                        error_type=error_type,
                    )
                    outcomes[index] = outcome
                    self._finish_cell(index, outcome)
                    if progress is not None:
                        progress(outcome)
                overdue = self._collect_overdue(pending, deadlines)
                if overdue:
                    for future in overdue:
                        index = pending.pop(future)
                        deadlines.pop(future, None)
                        future.cancel()
                        self.cells_timed_out += 1
                        outcomes[index] = CellOutcome(
                            spec=specs[index],
                            error_type="CellTimeout",
                            error=(
                                f"cell exceeded the {self.cell_timeout}s "
                                "wall-clock timeout"
                            ),
                        )
                        self._finish_cell(index, outcomes[index], status="timeout")
                        self.tracer.event(
                            "cell_timeout", index=index, limit=self.cell_timeout
                        )
                        if progress is not None:
                            progress(outcomes[index])
                    # The overdue cells' workers are still grinding;
                    # terminate them and hand the survivors to a fresh
                    # pool so the campaign keeps its full parallelism.
                    abandoned = True
                    self._terminate_workers(pool)
                    pool.shutdown(wait=False, cancel_futures=True)
                    # Survivors move to a fresh pool: close their spans
                    # (a new one opens when they are resubmitted).
                    for index in pending.values():
                        self._finish_cell(index, None, status="repooled")
                    return list(pending.values()) + list(queue)
                fill()
            return []
        finally:
            if not abandoned:
                pool.shutdown(wait=True)

    # -- helpers ------------------------------------------------------------

    def _wait_budget(self, deadlines: Dict[object, float]) -> Optional[float]:
        """Seconds ``wait`` may block before the next deadline check."""
        if not deadlines:
            return None
        budget = min(deadlines.values()) - time.monotonic()
        return max(budget, 0.01)

    @staticmethod
    def _collect_overdue(
        pending: Dict[object, int], deadlines: Dict[object, float]
    ) -> List[object]:
        if not deadlines:
            return []
        now = time.monotonic()
        return [
            future
            for future in pending
            if future in deadlines and deadlines[future] <= now
        ]

    @staticmethod
    def _terminate_workers(pool: ProcessPoolExecutor) -> None:
        """Hard-stop a pool's worker processes (timeout reclamation)."""
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except Exception:  # noqa: BLE001 - best-effort reclamation
                pass

    @staticmethod
    def _lost_outcome(
        spec: CellSpec, breakage: BaseException, attempts: int
    ) -> CellOutcome:
        return CellOutcome(
            spec=spec,
            error_type=type(breakage).__name__,
            error=(
                f"cell lost to a broken worker pool after {attempts} "
                f"attempt(s): {breakage}"
            ),
        )
