"""Analytic models from Section 4 of the paper.

This subpackage is the paper's primary contribution: a closed-form model
of the total wallclock time of a parallel job protected by *partial
process redundancy* combined with coordinated checkpoint/restart.

Quick tour
----------

>>> from repro.models import CombinedModel
>>> from repro import units
>>> model = CombinedModel(
...     virtual_processes=100_000,
...     redundancy=2.0,
...     node_mtbf=units.years(5),
...     alpha=0.2,
...     base_time=units.hours(128),
...     checkpoint_cost=units.minutes(5),
...     restart_cost=units.minutes(10),
... )
>>> result = model.evaluate()
>>> result.total_time > result.redundant_time
True

Module map
----------

``reliability``
    Per-node and per-sphere survival probabilities (Eqs. 2-4).
``redundancy``
    Redundant execution time (Eq. 1), the partial-redundancy partition
    (Eqs. 5-8), system reliability / failure rate / MTBF (Eqs. 9-10) and
    the birthday-problem approximation from Section 4.3.
``checkpointing``
    Expected lost work (Eq. 12), the restart+rework phase (Eq. 13), the
    total-time recurrence (Eq. 14), Daly's optimal interval (Eq. 15) and
    Young's first-order interval for comparison.
``grid``
    :func:`evaluate_grid`, the one kernel composing the above NumPy
    equations over a model with some fields replaced by arrays, and the
    model's input domain, checked once per input.
``combined``
    :class:`CombinedModel` — one configuration; ``evaluate()`` is a
    one-cell kernel call.
``simplified``
    The experiment-matched model of Section 6, observation (5).
``optimize``
    Optimal redundancy/interval search and crossover finding.
``cost``
    Node-hour accounting and weighted time/resource cost functions.
"""

from .reliability import (
    node_failure_probability,
    node_reliability,
    sphere_reliability,
)
from .redundancy import (
    RedundancyPartition,
    birthday_collision_probability,
    partition_processes,
    redundant_time,
    system_failure_rate,
    system_mtbf,
    system_reliability,
)
from .checkpointing import (
    daly_interval,
    expected_lost_work,
    expected_restart_rework,
    segment_failure_pdf,
    total_time,
    young_interval,
)
from .combined import CombinedModel, CombinedResult
from .grid import ModelGrid, evaluate_grid
from .simplified import simplified_total_time
from .optimize import (
    CrossoverPoint,
    RedundancySweepPoint,
    clear_model_cache,
    find_crossover,
    model_cache_info,
    optimal_interval,
    optimal_redundancy,
    sweep_redundancy,
    throughput_break_even,
)
from .redundancy import PAPER_REDUNDANCY_GRID, shadow_hit_probability
from .advisor import (
    Recommendation,
    clear_recommend_cache,
    recommend,
    recommend_cache_info,
)
from .cost import node_hours, weighted_cost

__all__ = [
    "PAPER_REDUNDANCY_GRID",
    "Recommendation",
    "recommend",
    "recommend_cache_info",
    "clear_recommend_cache",
    "CombinedModel",
    "ModelGrid",
    "clear_model_cache",
    "evaluate_grid",
    "model_cache_info",
    "optimal_interval",
    "CombinedResult",
    "CrossoverPoint",
    "RedundancyPartition",
    "RedundancySweepPoint",
    "birthday_collision_probability",
    "daly_interval",
    "expected_lost_work",
    "expected_restart_rework",
    "find_crossover",
    "node_failure_probability",
    "node_hours",
    "node_reliability",
    "optimal_redundancy",
    "partition_processes",
    "redundant_time",
    "segment_failure_pdf",
    "simplified_total_time",
    "shadow_hit_probability",
    "sphere_reliability",
    "sweep_redundancy",
    "system_failure_rate",
    "system_mtbf",
    "system_reliability",
    "throughput_break_even",
    "total_time",
    "weighted_cost",
    "young_interval",
]
