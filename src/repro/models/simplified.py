"""The experiment-matched simplified model (Section 6, observation 5).

The paper's experimental harness differs from the full Section 4 model
in one way: failures are *not* injected while a checkpoint or a restart
is in progress.  The paper therefore simplifies the time function for
the model-vs-measurement comparison (Figures 11 and 12) to

``T_total = t_Red + (checkpoint count) * c + t_Red * lambda_sys * R``

i.e. redundant execution time, plus the cost of the checkpoints taken
over it, plus one restart per expected failure — with no compounding of
failures during recovery and no rework term (the injector rolls back to
the last checkpoint, and the lost-work rework is folded into the
measured restart cost ``R``).

The paper prints the middle term as ``t_Red * sqrt(2 c Theta)``, which
is dimensionally time-squared; read as intended, ``sqrt(2 c Theta)`` is
Young's *interval*, so the number of checkpoints is
``t_Red / sqrt(2 c Theta)`` and the middle term is that count times
``c``.  :func:`simplified_total_time` implements the intended form by
default and the literal printed form behind ``literal=True`` so the
difference can be examined.
"""

from __future__ import annotations

import math

from ..errors import ModelDivergence
from .checkpointing import young_interval
from .grid import INTERVALS, check_domain
from .redundancy import redundant_time, system_failure_rate


def simplified_total_time(
    virtual_processes: int,
    redundancy: float,
    node_mtbf: float,
    alpha: float,
    base_time: float,
    checkpoint_cost: float,
    restart_cost: float,
    interval_rule: str = "young",
    exact_reliability: bool = False,
    literal: bool = False,
) -> float:
    """Section 6's simplified completion-time estimate.

    Parameters mirror :class:`repro.models.CombinedModel`; the interval
    rule defaults to Young's ``sqrt(2 c Theta)`` because that is the
    term the paper's simplified formula embeds (``"daly"`` is accepted
    for the ablation).

    With ``literal=True`` the exact printed expression
    ``t_Red + t_Red sqrt(2 c Theta) + t_Red lambda R`` is evaluated
    instead (units are inconsistent; provided only for comparison).
    """
    check_domain(
        interval_rule, virtual_processes=virtual_processes, redundancy=redundancy,
        node_mtbf=node_mtbf, alpha=alpha, base_time=base_time,
        checkpoint_cost=checkpoint_cost, restart_cost=restart_cost,
    )
    t_red = redundant_time(base_time, alpha, redundancy)
    rate = system_failure_rate(
        virtual_processes, redundancy, t_red, node_mtbf, exact=exact_reliability
    )
    if math.isinf(rate):
        raise ModelDivergence("system failure rate diverged in simplified model")
    restart_term = t_red * rate * restart_cost
    if rate == 0.0:
        return float(t_red + restart_term)
    mtbf = 1.0 / rate
    if literal:
        return float(
            t_red + t_red * young_interval(checkpoint_cost, mtbf) + restart_term
        )
    delta = INTERVALS[interval_rule](checkpoint_cost, mtbf)
    checkpoint_term = (t_red / delta) * checkpoint_cost
    return float(t_red + checkpoint_term + restart_term)
