"""Sweep campaigns: the grids behind Table 4/5 and Figures 8-10.

A campaign runs one :class:`~repro.orchestration.job.ResilientJob` per
(MTBF, redundancy) grid cell with common random numbers (same seed →
same failure-time draws per physical slot), exactly how the paper's
experiments sweep node MTBF 6-30 h against redundancy 1x-3x in 0.25x
steps.

Cells are independent, so both sweeps delegate to
:class:`~repro.orchestration.executor.CampaignExecutor`, forwarding
its keyword arguments as one ``**execution`` mapping: pass
``workers > 1`` (or set ``REPRO_WORKERS``) to run that many cells at
once, each in its own process.  Seeds are derived before submission,
so parallel runs are bit-identical to serial ones.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..errors import ConfigurationError
from .executor import (
    CampaignExecutionError,
    CampaignExecutor,
    CellOutcome,
    CellSpec,
)
from .job import JobConfig, JobReport


@dataclass(frozen=True)
class CampaignCell:
    """One grid cell's outcome."""

    node_mtbf: Optional[float]
    redundancy: float
    report: JobReport
    #: True when the report came from the results store (resumed run).
    cached: bool = False

    @property
    def minutes(self) -> float:
        """Completion time in minutes (the paper's Table 4 unit)."""
        return self.report.total_minutes


def _cell_from(outcome: CellOutcome) -> CampaignCell:
    return CampaignCell(
        node_mtbf=outcome.spec.node_mtbf,
        redundancy=outcome.spec.redundancy,
        report=outcome.report,
        cached=outcome.cached,
    )


def _run_specs(
    specs: Sequence[CellSpec],
    progress: Optional[Callable[[CampaignCell], None]],
    strict: bool,
    execution: Dict[str, Any],
) -> List[CampaignCell]:
    """Execute specs and convert outcomes, enforcing error policy.

    ``strict=True`` raises
    :class:`~repro.orchestration.executor.CampaignExecutionError` if any
    cell failed — after every other cell has finished; ``strict=False``
    silently drops failed cells from the result.  ``progress`` fires
    for every cell that ran to a report, store-restored ones included
    (``cached=True``).
    """

    def on_outcome(outcome: CellOutcome) -> None:
        if progress is not None and outcome.ok:
            progress(_cell_from(outcome))

    outcomes = CampaignExecutor(**execution).run(specs, progress=on_outcome)
    failures = [outcome for outcome in outcomes if not outcome.ok]
    if failures and strict:
        raise CampaignExecutionError(failures)
    return [_cell_from(outcome) for outcome in outcomes if outcome.ok]


def redundancy_sweep_specs(
    base: JobConfig,
    node_mtbfs: Sequence[float],
    degrees: Sequence[float],
    seed_offset: int = 0,
) -> List[CellSpec]:
    """The Table 4 grid as executable cell specs (row-major order).

    Seeds differ per MTBF row (the failure processes differ) but are
    shared across degrees in a row so degrees are compared under common
    random numbers.
    """
    if not node_mtbfs or not degrees:
        raise ConfigurationError("sweep needs at least one MTBF and one degree")
    specs = []
    for row, mtbf in enumerate(node_mtbfs):
        for degree in degrees:
            config = replace(
                base,
                node_mtbf=mtbf,
                redundancy=degree,
                seed=base.seed + seed_offset + 1000 * row,
            )
            specs.append(CellSpec(node_mtbf=mtbf, redundancy=degree, config=config))
    return specs


def run_redundancy_sweep(
    base: JobConfig,
    node_mtbfs: Sequence[float],
    degrees: Sequence[float],
    seed_offset: int = 0,
    progress: Optional[Callable[[CampaignCell], None]] = None,
    strict: bool = True,
    **execution: Any,
) -> List[CampaignCell]:
    """The Table 4 grid: completion time per (MTBF, redundancy) cell.

    Every cell reuses the base config with only ``node_mtbf``,
    ``redundancy`` and the seed changed.  ``execution`` is forwarded
    to :class:`~repro.orchestration.executor.CampaignExecutor`
    untouched (``workers``, ``store``, ...); results are identical and
    ordered however the cells execute.
    """
    specs = redundancy_sweep_specs(base, node_mtbfs, degrees, seed_offset)
    return _run_specs(specs, progress, strict, execution)


def failure_free_sweep_specs(
    base: JobConfig,
    degrees: Sequence[float],
) -> List[CellSpec]:
    """The Table 5 sweep as executable cell specs."""
    if not degrees:
        raise ConfigurationError("sweep needs at least one degree")
    specs = []
    for degree in degrees:
        config = replace(
            base,
            node_mtbf=None,
            redundancy=degree,
            checkpointing=False,
        )
        specs.append(CellSpec(node_mtbf=None, redundancy=degree, config=config))
    return specs


def run_failure_free_sweep(
    base: JobConfig,
    degrees: Sequence[float],
    progress: Optional[Callable[[CampaignCell], None]] = None,
    strict: bool = True,
    **execution: Any,
) -> List[CampaignCell]:
    """The Table 5 sweep: failure-free execution time vs redundancy.

    Failure injection and checkpointing are disabled; what remains is
    the pure redundancy overhead (Figure 10's super-linear curve).
    ``execution`` is forwarded as in :func:`run_redundancy_sweep`.
    """
    specs = failure_free_sweep_specs(base, degrees)
    return _run_specs(specs, progress, strict, execution)


def cells_to_matrix(
    cells: Sequence[CampaignCell],
) -> Dict[float, Dict[float, float]]:
    """Pivot cells into {mtbf: {degree: minutes}} for table rendering."""
    matrix: Dict[float, Dict[float, float]] = {}
    for cell in cells:
        row = matrix.setdefault(cell.node_mtbf, {})
        row[cell.redundancy] = cell.minutes
    return matrix
