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
* **one recovery path** — a pool dies when a worker crashes
  (``BrokenProcessPool``) or when a timeout reclaims its workers;
  either way completed results are kept and every unfinished cell
  moves to a *fresh* pool.  Only a crash is charged, and only to the
  cells the dead pool was running: such a cell is declared lost once
  it has been running in more than ``CELL_RETRIES`` broken pools, and
  every unfinished cell is declared lost after ``MAX_POOL_REBUILDS``
  crashes.  Cells the dead pool never started move free.  A cell's
  last attempt runs alone in a one-worker pool, so a cell is lost
  only to its own crash, never to a neighbour's, and a crash in such a
  round does not count toward ``MAX_POOL_REBUILDS`` (``CELL_RETRIES``
  already bounds it);
* **per-cell wall-clock timeouts** — ``cell_timeout`` (or the
  ``REPRO_CELL_TIMEOUT`` env var) bounds how long one cell may run in
  a worker; an overdue cell is recorded as a failed outcome and its
  pool's workers are terminated.  Timeouts apply only under pooling
  (the serial path cannot preempt).

One execution context:

:class:`CampaignExecutor`'s keyword arguments — ``workers``,
``cell_timeout``, ``obs`` and ``store`` — are the only place the
execution options are named and resolved.  Every layer above
(the campaign sweeps, the ``table4``/``table5``/``chaos`` experiments,
the CLI's ``run`` overrides) accepts them as one opaque ``**execution``
mapping and forwards it here untouched, exactly once.  Each option
resolves as: explicit argument, then its environment variable
(``REPRO_WORKERS``, ``REPRO_CELL_TIMEOUT``), then the default (serial,
no timeout).  ``obs`` (an :class:`~repro.obs.ObsSession`) replaces
separate tracer/metrics handles: the executor takes its tracer and
registry from it and stamps its ``parts_dir`` onto every spec as
``trace_dir``; whoever built the session stamps its manifest before the
run and finalizes it after.
"""

from __future__ import annotations

import math
import numbers
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
#: Broken pools a cell may be running in and still be resubmitted; one
#: more and it is synthesized as a failed (lost) outcome.
CELL_RETRIES = 2


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
    """Resolve the worker count: argument > ``REPRO_WORKERS`` env > 1.

    A bool or a non-integer (``"two"``, ``2.5``) is rejected rather
    than coerced.
    """
    workers = _env_value(workers, WORKERS_ENV, int, "an integer")
    if workers is None:
        return 1
    if isinstance(workers, bool) or not isinstance(workers, numbers.Integral):
        raise ConfigurationError(f"workers must be an integer, got {workers!r}")
    return max(1, int(workers))


def resolve_cell_timeout(cell_timeout: Optional[float] = None) -> Optional[float]:
    """Resolve the per-cell timeout: argument > env > None (no timeout).

    The one validation point for the keyword, ``REPRO_CELL_TIMEOUT`` and
    ``--cell-timeout``: the value must be a number (not a bool), finite
    and > 0 (``inf`` would overflow ``wait``, and ``nan`` would never
    fire).
    """
    cell_timeout = _env_value(cell_timeout, CELL_TIMEOUT_ENV, float, "a number")
    if cell_timeout is None:
        return None
    if isinstance(cell_timeout, bool) or not isinstance(cell_timeout, numbers.Real):
        raise ConfigurationError(
            f"cell timeout must be a number, got {cell_timeout!r}"
        )
    if not 0.0 < cell_timeout < math.inf:
        raise ConfigurationError(
            f"cell timeout must be finite and > 0, got {cell_timeout}"
        )
    return float(cell_timeout)


def _execute_spec(spec: CellSpec) -> Tuple[Optional[JobReport], Optional[str], Optional[str]]:
    """Run one cell, capturing any error as data (worker-side).

    Returns ``(report, error_message, error_type)`` — the field order of
    :class:`CellOutcome` after ``spec`` — rather than raising, so a
    broken cell never tears down the pool, and exceptions that do not
    pickle cleanly cannot poison the result channel.
    """
    try:
        return ResilientJob(spec.config).run(), None, None
    except Exception as error:  # noqa: BLE001 - per-cell capture is the point
        return None, str(error), type(error).__name__


class CampaignExecutor:
    """Run cell specs serially or across a self-healing process pool.

    A pool that dies — a worker crashed, or a timeout reclaimed the
    workers — is replaced by a fresh one that takes every unfinished
    cell.  Only a crash is charged, and only to the cells the dead pool
    was running (see ``CELL_RETRIES`` and :attr:`MAX_POOL_REBUILDS`);
    a cell's last attempt runs alone.

    Parameters
    ----------
    workers:
        Worker processes to use.  ``None`` consults ``REPRO_WORKERS``;
        ``<= 1`` runs serially in-process.
    cell_timeout:
        Wall-clock seconds one cell may spend in a worker before it is
        declared failed.  ``None`` consults ``REPRO_CELL_TIMEOUT``;
        unset means no timeout.  Pool mode only.
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

    #: Fresh pools built after a shared pool's worker crashed before the
    #: remaining cells are declared lost (a pool that keeps dying would
    #: otherwise rebuild forever).  A one-cell last-attempt round does
    #: not count: ``CELL_RETRIES`` bounds it.
    MAX_POOL_REBUILDS = 3

    def __init__(
        self,
        workers: Optional[int] = None,
        cell_timeout: Optional[float] = None,
        obs: Optional[ObsSession] = None,
        store=None,
    ) -> None:
        self.workers = resolve_workers(workers)
        self.cell_timeout = resolve_cell_timeout(cell_timeout)
        self.obs = obs
        self.tracer = obs.tracer if obs is not None else NULL_TRACER
        self.metrics = obs.metrics if obs is not None else None
        self.store = store
        #: How the last :meth:`run` actually executed ("serial"/
        #: "process"; "cached" when the store restored every cell).
        self.last_mode: Optional[str] = None
        #: Broken-pool events survived during the last :meth:`run`.
        self.pool_breakages = 0
        #: Running cells moved to a fresh pool during the last :meth:`run`.
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
            span.end(
                ok=outcome.ok if outcome is not None else False,
                status=status or outcome.error_type or "ok",
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

    def _settle(
        self,
        outcomes: List[Optional[CellOutcome]],
        index: int,
        outcome: CellOutcome,
        progress: Optional[Callable[[CellOutcome], None]],
        status: str = "",
    ) -> None:
        """Record a cell's one outcome, close its span, report progress."""
        outcomes[index] = outcome
        self._finish_cell(index, outcome, status)
        if progress is not None:
            progress(outcome)

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
        outcomes: List[Optional[CellOutcome]] = [None] * len(specs)
        for index, spec in enumerate(specs):
            self._begin_cell(index, spec)
            outcome = CellOutcome(spec, *_execute_spec(spec))
            self._settle(outcomes, index, outcome, progress)
        return list(outcomes)

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
            # A cell's last attempt runs alone, so the crash that loses
            # it is its own; earlier attempts share the pool at full width.
            last_try = [i for i in todo if lost_counts[i] == CELL_RETRIES][:1]
            batch = last_try or todo
            held = set(todo).difference(batch)
            in_flight, queued, breakage = self._drain_pool(
                specs, batch, outcomes, progress
            )
            if breakage is not None:
                self.pool_breakages += 1
                if not last_try:
                    rebuilds += 1
                self.tracer.event(
                    "pool_breakage", rebuilds=rebuilds, error=str(breakage)
                )
                if rebuilds == 1 and all(o is None for o in outcomes):
                    # Nothing ever completed: the pool likely never
                    # worked at all (creation half-succeeded).  Let the
                    # caller fall back to the serial path wholesale.
                    for index in in_flight:
                        self._finish_cell(index, None, status="resubmitted")
                    raise breakage
                # A crash is charged only to the cells the pool was running.
                for index in in_flight:
                    lost_counts[index] += 1
            running = set(in_flight)
            todo = []
            for index in sorted(running.union(queued, held)):
                attempts = lost_counts[index]
                if attempts > CELL_RETRIES or rebuilds > self.MAX_POOL_REBUILDS:
                    lost = CellOutcome(
                        spec=specs[index],
                        error_type=type(breakage).__name__,
                        error=(
                            f"cell lost to a broken worker pool after "
                            f"{attempts} attempt(s): {breakage}"
                        ),
                    )
                    self._settle(outcomes, index, lost, progress, status="lost")
                    continue
                if index in running:
                    self._finish_cell(index, None, status="resubmitted")
                    self.tracer.event("cell_resubmitted", index=index)
                    self.cells_resubmitted += 1
                todo.append(index)
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
    ) -> Tuple[List[int], List[int], Optional[BrokenProcessPool]]:
        """One pool round over ``indices``, filling ``outcomes`` in place.

        Cells are fed to the pool in a window of ``workers`` so every
        submitted future is actually running — which is what makes the
        wall-clock deadline per cell meaningful.  The round ends when
        every cell has an outcome or when its pool dies: a worker
        crashed, or a timeout made the round terminate the workers.
        Returns ``(in_flight, queued, breakage)``: the cells the pool
        was running when it died, the cells it never submitted, and the
        ``BrokenProcessPool`` when a worker crashed (else None).
        """
        workers = min(self.workers, len(indices))
        queue = deque(indices)
        pending: Dict[object, int] = {}
        deadlines: Dict[object, float] = {}
        in_flight: List[int] = []
        overdue: List[object] = []
        breakage: Optional[BrokenProcessPool] = None
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            while True:
                try:
                    while queue and len(pending) < workers:
                        future = pool.submit(_execute_spec, specs[queue[0]])
                        index = queue.popleft()
                        # The submit window equals the worker count, so a
                        # submitted cell is running: its span measures run
                        # time, not queue time.
                        self._begin_cell(index, specs[index])
                        pending[future] = index
                        if self.cell_timeout is not None:
                            deadlines[future] = time.monotonic() + self.cell_timeout
                except BrokenProcessPool as error:
                    breakage = error
                if breakage is not None or not pending:
                    break
                done, _ = wait(
                    pending,
                    timeout=self._wait_budget(deadlines),
                    return_when=FIRST_COMPLETED,
                )
                for future in done:
                    index = pending.pop(future)
                    deadlines.pop(future, None)
                    try:
                        result = future.result()
                    except BrokenProcessPool as error:
                        breakage = error
                        in_flight.append(index)
                        continue
                    except Exception as exc:  # result unpicklable etc.
                        result = None, str(exc), type(exc).__name__
                    outcome = CellOutcome(specs[index], *result)
                    self._settle(outcomes, index, outcome, progress)
                if breakage is not None:
                    break
                overdue = self._collect_overdue(pending, deadlines)
                for future in overdue:
                    index = pending.pop(future)
                    future.cancel()
                    self.cells_timed_out += 1
                    timed_out = CellOutcome(
                        spec=specs[index],
                        error_type="CellTimeout",
                        error=(
                            f"cell exceeded the {self.cell_timeout}s "
                            "wall-clock timeout"
                        ),
                    )
                    self._settle(
                        outcomes, index, timed_out, progress, status="timeout"
                    )
                    self.tracer.event(
                        "cell_timeout", index=index, limit=self.cell_timeout
                    )
                if overdue:
                    # The overdue cells' workers are still grinding: the
                    # round ends and its workers are terminated.
                    break
            in_flight += pending.values()
            return in_flight, list(queue), breakage
        finally:
            died = breakage is not None or bool(overdue)
            if died:
                self._terminate_workers(pool)
            pool.shutdown(wait=not died, cancel_futures=True)

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
