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
one-cell :func:`~repro.models.grid.evaluate_model_grid` call, and a
model is checked against the input domain
(:data:`~repro.models.grid.DOMAIN`) when it is constructed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

from ..errors import ModelDivergence
from .checkpointing import TimeBreakdown
from .grid import DOMAIN, check_domain, evaluate_model_grid
from .redundancy import RedundancyPartition, partition_processes


@dataclass(frozen=True)
class CombinedResult:
    """Everything the combined model derives for one configuration."""

    #: Input configuration echo (useful in sweep records).
    model: "CombinedModel"
    #: Eq. 1 — execution time with redundant communication, no failures.
    redundant_time: float
    #: Eqs. 5-8 — how virtual processes map to replication levels.
    partition: RedundancyPartition
    #: Eq. 9 — probability the whole system survives one ``t_Red`` run.
    system_reliability: float
    #: Eq. 10 — system failure rate (failures per second).
    failure_rate: float
    #: Eq. 10 — system MTBF (seconds; ``inf`` if failure-free).
    system_mtbf: float
    #: Eq. 15 (or Young) — checkpoint interval used.
    checkpoint_interval: float
    #: Eq. 14 — expected total wallclock time.
    total_time: float
    #: Work/checkpoint/recompute/restart split of ``total_time``.
    breakdown: TimeBreakdown

    @classmethod
    def of(cls, model: "CombinedModel", grid, index=()) -> "CombinedResult":
        """Cell ``index`` of a kernel ``grid``, the cell ``model`` describes.

        Raises :class:`ModelDivergence` when the cell has no finite
        completion time.
        """
        rate = float(grid.failure_rate[index])
        if math.isinf(rate):
            raise ModelDivergence(
                "system failure rate diverged (t_Red >= node MTBF under the "
                "linearised model); use exact_reliability=True or reduce scale"
            )
        total = float(grid.total_time[index])
        if math.isinf(total):
            raise ModelDivergence("lambda * t_RR >= 1; no finite completion time")
        t_red = float(grid.redundant_time[index])
        delta = float(grid.checkpoint_interval[index])
        return cls(
            model=model,
            redundant_time=t_red,
            partition=partition_processes(model.virtual_processes, model.redundancy),
            system_reliability=float(grid.system_reliability[index]),
            failure_rate=rate,
            system_mtbf=float(grid.system_mtbf[index]),
            checkpoint_interval=delta,
            total_time=total,
            breakdown=TimeBreakdown.split(
                t_red, delta, model.checkpoint_cost, rate, model.restart_cost,
                (total, grid.lost_work[index], grid.restart_rework[index]),
            ),
        )

    @property
    def expected_checkpoints(self) -> float:
        """Expected number of checkpoints taken (``t_Red / delta``)."""
        return self.breakdown.checkpoints_taken

    @property
    def expected_failures(self) -> float:
        """Eq. 11 — ``T_total * lambda``."""
        return self.breakdown.expected_failures

    @property
    def total_processes(self) -> int:
        """Eq. 8 — physical processes (== nodes, assumption 2) consumed."""
        return self.partition.total_processes

    @property
    def node_seconds(self) -> float:
        """Resource usage: physical processes x wallclock time."""
        return self.total_processes * self.total_time


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

    def with_processes(self, virtual_processes: int) -> "CombinedModel":
        """Copy of this configuration at a different process count."""
        return replace(self, virtual_processes=virtual_processes)

    def evaluate(self) -> CombinedResult:
        """Run the full Section 4.3 pipeline for this configuration.

        A one-cell :func:`~repro.models.grid.evaluate_model_grid` call,
        the same one the service makes for a lone request.

        Raises
        ------
        ModelDivergence
            When the configuration has no finite expected completion
            time (see :func:`repro.models.checkpointing.completion_time`).
        """
        return CombinedResult.of(self, evaluate_model_grid(self))

    def total_time_or_inf(self) -> float:
        """``evaluate().total_time``, with divergence mapped to ``inf``.

        Convenience for sweeps and optimizers that want to treat
        impossible configurations as infinitely expensive rather than
        exceptional.
        """
        try:
            return self.evaluate().total_time
        except ModelDivergence:
            return math.inf
