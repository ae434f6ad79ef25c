"""Sweep campaigns: the grids behind Table 4/5 and Figures 8-10.

A campaign runs one :class:`~repro.orchestration.job.ResilientJob` per
(MTBF, redundancy) grid cell with common random numbers (same seed →
same failure-time draws per physical slot), exactly how the paper's
experiments sweep node MTBF 6-30 h against redundancy 1x-3x in 0.25x
steps.

Each cell is one :class:`~repro.orchestration.job.JobConfig` and comes
back as the :class:`~repro.orchestration.executor.CellOutcome` the
executor made of it; a sweep returns them all, or raises once every
cell has finished if any failed.
Cells are independent, so :func:`run_cells` hands them to one
:class:`~repro.orchestration.executor.CampaignExecutor`, the object
that carries every execution option (``workers``, ``cell_timeout``,
``obs``, ``store``); the experiments build their grids with
:func:`redundancy_sweep_configs` / :func:`failure_free_sweep_configs`
and pass the executor they were given.  Seeds are derived before
submission, so parallel runs are bit-identical to serial ones.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..errors import ConfigurationError
from .executor import CampaignExecutionError, CampaignExecutor, CellOutcome
from .job import JobConfig


def run_cells(
    configs: Sequence[JobConfig],
    executor: Optional[CampaignExecutor] = None,
    progress: Optional[Callable[[CellOutcome], None]] = None,
) -> List[CellOutcome]:
    """Run the cells on ``executor`` (default: serial); all must report.

    Raises :class:`~repro.orchestration.executor.CampaignExecutionError`
    if any cell failed — after every other cell has finished.
    ``progress`` fires for every cell that ran to a report,
    store-restored ones included (``cached=True``).
    """

    def on_outcome(outcome: CellOutcome) -> None:
        if progress is not None and outcome.ok:
            progress(outcome)

    executor = executor or CampaignExecutor()
    outcomes = executor.run(configs, progress=on_outcome)
    failures = [outcome for outcome in outcomes if not outcome.ok]
    if failures:
        raise CampaignExecutionError(failures)
    return outcomes


def redundancy_sweep_configs(
    base: JobConfig,
    node_mtbfs: Sequence[float],
    degrees: Sequence[float],
) -> List[JobConfig]:
    """The Table 4 grid as one job config per cell (row-major order).

    Seeds differ per MTBF row (the failure processes differ) but are
    shared across degrees in a row so degrees are compared under common
    random numbers.
    """
    if not node_mtbfs or not degrees:
        raise ConfigurationError("sweep needs at least one MTBF and one degree")
    return [
        replace(
            base,
            node_mtbf=mtbf,
            redundancy=degree,
            seed=base.seed + 1000 * row,
        )
        for row, mtbf in enumerate(node_mtbfs)
        for degree in degrees
    ]


def run_redundancy_sweep(
    base: JobConfig,
    node_mtbfs: Sequence[float],
    degrees: Sequence[float],
    progress: Optional[Callable[[CellOutcome], None]] = None,
    **execution: Any,
) -> List[CellOutcome]:
    """The Table 4 grid: completion time per (MTBF, redundancy) cell.

    Every cell reuses the base config with only ``node_mtbf``,
    ``redundancy`` and the seed changed.  ``execution`` holds the
    :class:`~repro.orchestration.executor.CampaignExecutor` keyword
    arguments (``workers``, ``store``, ...); results are identical and
    ordered however the cells execute.
    """
    configs = redundancy_sweep_configs(base, node_mtbfs, degrees)
    return run_cells(configs, CampaignExecutor(**execution), progress)


def failure_free_sweep_configs(
    base: JobConfig,
    degrees: Sequence[float],
) -> List[JobConfig]:
    """The Table 5 sweep as one job config per degree."""
    if not degrees:
        raise ConfigurationError("sweep needs at least one degree")
    return [
        replace(base, node_mtbf=None, redundancy=degree, checkpointing=False)
        for degree in degrees
    ]


def run_failure_free_sweep(
    base: JobConfig,
    degrees: Sequence[float],
    progress: Optional[Callable[[CellOutcome], None]] = None,
    **execution: Any,
) -> List[CellOutcome]:
    """The Table 5 sweep: failure-free execution time vs redundancy.

    Failure injection and checkpointing are disabled; what remains is
    the pure redundancy overhead (Figure 10's super-linear curve).
    ``execution`` is as in :func:`run_redundancy_sweep`.
    """
    configs = failure_free_sweep_configs(base, degrees)
    return run_cells(configs, CampaignExecutor(**execution), progress)


def cells_to_matrix(
    cells: Sequence[CellOutcome],
) -> Dict[float, Dict[float, float]]:
    """Pivot cells into {mtbf: {degree: minutes}} for table rendering."""
    matrix: Dict[float, Dict[float, float]] = {}
    for cell in cells:
        row = matrix.setdefault(cell.node_mtbf, {})
        row[cell.redundancy] = cell.minutes
    return matrix
