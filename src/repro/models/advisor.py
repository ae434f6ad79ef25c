"""The configuration advisor: the paper's conclusion as an API.

    "Using this model, HPC users can configure their application to
    select the right redundancy degree and checkpoint frequency to
    obtain the maximum performance for the available resources."
    — Section 8

:func:`recommend` turns that sentence into a function: given the
machine (process count, node MTBF, optionally a node budget), the
application (base time, communication share) and the C/R costs, it
returns the redundancy degree and Daly interval to run with, plus the
quantified alternatives so the user can see what the recommendation
buys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence

from ..errors import ConfigurationError, ModelDivergence
from .combined import CombinedModel, CombinedResult
from .cost import weighted_cost
from .optimize import RedundancySweepPoint, sweep_redundancy_grid
from .redundancy import PAPER_REDUNDANCY_GRID


@dataclass(frozen=True)
class Recommendation:
    """What the advisor tells the user to run."""

    #: Chosen redundancy degree.
    redundancy: float
    #: Daly-optimal checkpoint interval at that degree (seconds).
    checkpoint_interval: float
    #: Expected completion time (seconds).
    total_time: float
    #: Physical processes (== nodes under assumption 2) required.
    total_processes: int
    #: Speedup over running without redundancy (>= 1 when r=1 feasible;
    #: ``inf`` when plain execution diverges).
    speedup_vs_plain: float
    #: Full evaluation record of the chosen configuration.
    result: CombinedResult
    #: Every candidate considered (for the user's own judgement).
    candidates: List[RedundancySweepPoint]
    #: One-line human-readable rationale.
    rationale: str


def recommend(
    model: CombinedModel,
    grid: Sequence[float] = PAPER_REDUNDANCY_GRID,
    node_budget: Optional[int] = None,
    time_weight: float = 1.0,
    resource_weight: float = 0.0,
) -> Recommendation:
    """Select the redundancy degree and checkpoint interval to run with.

    Parameters
    ----------
    model:
        The machine/application/C-R parameter set (its ``redundancy``
        field is ignored; the grid is swept).
    grid:
        Candidate degrees (default: the paper's 1x..3x quarter steps).
    node_budget:
        If given, degrees whose Eq. 8 physical-process count exceeds
        the budget are excluded ("the least number of required
        resources" goal from Section 1).
    time_weight / resource_weight:
        The Section 1 cost-function weights.  The default (time only)
        recommends the fastest feasible configuration; adding resource
        weight trades wallclock for nodes.

    Raises
    ------
    ModelDivergence
        When no candidate in the (budget-filtered) grid has a finite
        expected completion time.
    ConfigurationError
        When the grid is empty or the budget excludes every candidate.

    Calls are memoized on the exact input tuple (the model is a frozen
    dataclass, so it hashes by value): the advisor is pure, and serving
    it interactively (see :mod:`repro.service`) hits the same few
    machine descriptions over and over.  See
    :func:`recommend_cache_info` / :func:`clear_recommend_cache`.
    """
    return _cached_recommend(
        model, tuple(float(d) for d in grid), node_budget,
        float(time_weight), float(resource_weight),
    )


def recommend_cache_info():
    """Hit/miss statistics of the :func:`recommend` memo cache."""
    return _cached_recommend.cache_info()


def clear_recommend_cache() -> None:
    """Drop every memoized :func:`recommend` result."""
    _cached_recommend.cache_clear()


@lru_cache(maxsize=4096)
def _cached_recommend(
    model: CombinedModel,
    grid: Sequence[float],
    node_budget: Optional[int],
    time_weight: float,
    resource_weight: float,
) -> Recommendation:
    if not grid:
        raise ConfigurationError("grid must hold at least one candidate degree")
    if node_budget is not None and node_budget < model.virtual_processes:
        raise ConfigurationError(
            f"node budget {node_budget} cannot host even r=1 "
            f"({model.virtual_processes} processes)"
        )
    cells, candidates = sweep_redundancy_grid(model, grid)
    feasible = candidates
    if node_budget is not None:
        fits = cells.total_processes <= node_budget
        feasible = [point for point, fit in zip(candidates, fits) if fit]
    if not feasible:
        raise ConfigurationError("node budget excludes every candidate degree")
    finite = [p for p in feasible if p.result is not None]
    if not finite:
        raise ModelDivergence(
            "no feasible redundancy degree yields a finite completion time"
        )
    plain = next((p for p in candidates if p.redundancy == 1.0), None)
    reference = plain.result if plain is not None and plain.result else finite[0].result

    def cost_of(point: RedundancySweepPoint) -> float:
        return weighted_cost(
            point.result, time_weight, resource_weight, reference=reference
        )

    best = min(finite, key=cost_of)
    plain_time = (
        plain.total_time if plain is not None else math.inf
    )
    speedup = (
        plain_time / best.total_time if not math.isinf(plain_time) else math.inf
    )
    rationale = _rationale(model, best, plain, node_budget, resource_weight)
    return Recommendation(
        redundancy=best.redundancy,
        checkpoint_interval=best.result.checkpoint_interval,
        total_time=best.total_time,
        total_processes=best.result.total_processes,
        speedup_vs_plain=speedup,
        result=best.result,
        candidates=candidates,
        rationale=rationale,
    )


def _rationale(
    model: CombinedModel,
    best: RedundancySweepPoint,
    plain: Optional[RedundancySweepPoint],
    node_budget: Optional[int],
    resource_weight: float,
) -> str:
    parts = []
    if best.redundancy == 1.0:
        parts.append(
            f"at N={model.virtual_processes:,} the failure rate is low "
            "enough that redundancy's communication overhead outweighs "
            "its reliability gain; run plain with Daly-interval C/R"
        )
    else:
        mtbf_gain = (
            best.result.system_mtbf
            / plain.result.system_mtbf
            if plain is not None and plain.result is not None
            else math.inf
        )
        parts.append(
            f"{best.redundancy}x redundancy multiplies the system MTBF "
            f"by {mtbf_gain:,.0f}x" if not math.isinf(mtbf_gain) else
            f"{best.redundancy}x redundancy makes an otherwise-divergent "
            "job finish"
        )
        parts.append(
            f"cutting expected failures to "
            f"{best.result.expected_failures:.1f} per run"
        )
    if node_budget is not None:
        parts.append(f"within the {node_budget:,}-node budget")
    if resource_weight > 0:
        parts.append("weighted for node usage per the user's cost function")
    return "; ".join(parts)
