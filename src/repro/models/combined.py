"""End-to-end combined redundancy + checkpointing model (Section 4.3).

:class:`CombinedModel` wires together Eq. 1 (redundant time), Eqs. 5-10
(partial-redundancy system reliability and failure rate), Eq. 15 (Daly's
interval) and Eq. 14 (total completion time) exactly the way the paper's
Figures 4-6 and 13-14 are produced:

1. amplify the base time for redundant communication:
   ``t_Red = (1 - alpha) t + alpha t r``;
2. compute the system failure rate over the ``t_Red`` exposure from the
   partial-redundancy partition;
3. choose the checkpoint interval (Daly's Eq. 15 by default, Young's
   rule optionally) at the *system* MTBF;
4. evaluate the Eq. 14 fixed point with the redundant time as the work
   term.

The arithmetic is the kernel's: :meth:`CombinedModel.evaluate` is a
one-cell :func:`~repro.models.grid.evaluate_grid` call and its
:class:`CombinedResult` is that cell read into Python numbers.  A model
is checked against the input domain (:data:`~repro.models.grid.DOMAIN`)
once, when it is constructed; the kernel takes a built model as proof
that its fields are in the domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterator, Optional, Tuple

from ..errors import ModelDivergence
from .grid import DOMAIN, check_domain, evaluate_grid


@dataclass(frozen=True)
class CombinedResult:
    """Everything the combined model derives for one configuration.

    One cell of a :class:`~repro.models.grid.ModelGrid`, read into
    Python numbers: each field is the grid quantity of the same name
    (documented there), and no arithmetic happens here.
    """

    redundant_time: float
    total_processes: int
    system_reliability: float
    failure_rate: float
    system_mtbf: float
    checkpoint_interval: float
    total_time: float
    expected_checkpoints: float
    expected_failures: float
    node_seconds: float
    work_share: float
    checkpoint_share: float
    recompute_share: float
    restart_share: float

    @classmethod
    def of(cls, grid) -> "CombinedResult":
        """The cell of a one-cell kernel ``grid``, whose fields are NumPy
        scalars.  Raises :class:`ModelDivergence` as :meth:`read` does.
        """
        return cls.read([float(value) for value in _grid_columns(grid)])

    @classmethod
    def read(cls, cell) -> "CombinedResult":
        """A cell's values as Python numbers, in field order (see
        :func:`grid_cells`).  Raises :class:`ModelDivergence` when the
        cell has no finite completion time.
        """
        t_red, processes, reliability, rate, mtbf, delta, total, *derived = cell
        if total == math.inf:
            raise ModelDivergence(
                "system failure rate diverged (t_Red >= node MTBF under the "
                "linearised model); use exact_reliability=True or reduce scale"
                if rate == math.inf
                else "lambda * t_RR >= 1; no finite completion time"
            )
        return cls(
            t_red, int(processes), reliability, rate, mtbf, delta, total, *derived
        )


def grid_cells(grid) -> Iterator[Tuple[float, ...]]:
    """Each cell of a one-axis kernel ``grid`` as Python numbers, in
    :class:`CombinedResult`'s field order: each column is read once.
    """
    return zip(*[column.tolist() for column in _grid_columns(grid)])


def _grid_columns(grid) -> Tuple:
    """The kernel fields a :class:`CombinedResult` starts with, in order,
    then the grid's derived quantities.
    """
    return (
        grid.redundant_time,
        grid.total_processes,
        grid.system_reliability,
        grid.failure_rate,
        grid.system_mtbf,
        grid.checkpoint_interval,
        grid.total_time,
        *grid.derived.values(),
    )


@dataclass(frozen=True)
class CombinedModel:
    """Parameter set for one combined C/R + redundancy configuration.

    Parameters mirror Section 4's symbol table; all times in seconds.

    Attributes
    ----------
    virtual_processes:
        ``N`` — application (virtual) process count.
    redundancy:
        ``r`` — real-valued redundancy degree in ``[1, 64]``
        (:data:`~repro.models.grid.MAX_REDUNDANCY`).
    node_mtbf:
        ``theta`` — MTBF of one node.
    alpha:
        Communication/computation ratio of the application.
    base_time:
        ``t`` — failure-free, redundancy-free execution time.
    checkpoint_cost:
        ``c`` — wallclock cost of writing one coordinated checkpoint.
    restart_cost:
        ``R`` — cost of restarting from an image (read + respawn +
        coordination).
    interval_rule:
        ``"daly"`` (Eq. 15, default) or ``"young"``.
    checkpoint_interval:
        Optional explicit ``delta`` override; when set, the interval
        rule is ignored.
    exact_reliability:
        Use the exponential CDF instead of the paper's ``t/theta``
        linearisation in Eqs. 3-4-9.

    Raises
    ------
    ConfigurationError
        At construction, when a field lies outside
        :data:`~repro.models.grid.DOMAIN`.
    """

    virtual_processes: int
    redundancy: float
    node_mtbf: float
    alpha: float
    base_time: float
    checkpoint_cost: float
    restart_cost: float
    interval_rule: str = "daly"
    checkpoint_interval: Optional[float] = field(default=None)
    exact_reliability: bool = False

    def __post_init__(self) -> None:
        check_domain(
            self.interval_rule, **{name: getattr(self, name) for name in DOMAIN}
        )

    def with_redundancy(self, redundancy: float) -> "CombinedModel":
        """Copy of this configuration at a different redundancy degree."""
        return replace(self, redundancy=redundancy)

    def evaluate(self) -> CombinedResult:
        """Run the full Section 4.3 pipeline for this configuration.

        A one-cell :func:`~repro.models.grid.evaluate_grid` call, the
        same one the service makes for a lone request.

        Raises
        ------
        ModelDivergence
            When the configuration has no finite expected completion
            time (see :func:`repro.models.checkpointing.completion_time`).
        """
        return CombinedResult.of(evaluate_grid(self))

    def total_time_or_inf(self) -> float:
        """The one cell's total time: ``inf`` where ``evaluate()`` diverges.

        Convenience for sweeps and optimizers that want to treat
        impossible configurations as infinitely expensive rather than
        exceptional.
        """
        return float(evaluate_grid(self).total_time)
