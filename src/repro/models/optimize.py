"""Optimal-configuration search and crossover finding (Figs. 4-6, 13-14).

Three questions the paper answers with its model, made executable:

* *Which redundancy degree minimises wallclock time?* —
  :func:`sweep_redundancy` / :func:`optimal_redundancy` over the
  paper's 0.25-step grid (or any grid).
* *At what scale does degree r2 start beating degree r1?* —
  :func:`find_crossover` reproduces Fig. 13's 1x→2x crossover at 4,351
  processes and 1x→3x at 12,551.
* *When can two redundant jobs finish within one plain job?* —
  :func:`throughput_break_even` reproduces Fig. 14's 78,536-process
  point where ``T(r=1) >= 2 * T(r=2)``.

Also provides :func:`optimal_interval`, the true minimum of Eq. 14 over
the checkpoint interval found by scanning the one kernel
(:func:`~repro.models.grid.evaluate_grid`), against which Daly's closed
form (Eq. 15) is checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError, ModelDivergence
from .combined import CombinedModel, CombinedResult, grid_cells
from .grid import ModelGrid, evaluate_grid
from .redundancy import PAPER_REDUNDANCY_GRID

#: Intervals per scan in :func:`optimal_interval`: two scans of 512 find
#: the minimising ``delta`` to about 3e-5 relative over a 50x bracket.
INTERVAL_SCAN_POINTS = 512


@dataclass(frozen=True)
class RedundancySweepPoint:
    """One (redundancy, total time) sample from a sweep."""

    redundancy: float
    total_time: float
    #: Full evaluation record; ``None`` when the model diverged.
    result: Optional[CombinedResult]

    @property
    def diverged(self) -> bool:
        """True when Eq. 14 had no finite solution at this degree."""
        return self.result is None


def sweep_redundancy_grid(
    model: CombinedModel,
    grid: Sequence[float] = PAPER_REDUNDANCY_GRID,
) -> Tuple[ModelGrid, List[RedundancySweepPoint]]:
    """:func:`sweep_redundancy`'s points, with the kernel grid they are read off."""
    degrees = list(grid)
    cells = evaluate_grid(model, redundancy=np.asarray(degrees, dtype=np.float64))
    points = []
    for degree, cell in zip(degrees, grid_cells(cells)):
        try:
            result = CombinedResult.read(cell)
        except ModelDivergence:
            points.append(RedundancySweepPoint(degree, math.inf, None))
        else:
            points.append(RedundancySweepPoint(degree, result.total_time, result))
    return cells, points


def sweep_redundancy(
    model: CombinedModel,
    grid: Sequence[float] = PAPER_REDUNDANCY_GRID,
) -> List[RedundancySweepPoint]:
    """Evaluate ``model`` at every redundancy degree in ``grid``."""
    return sweep_redundancy_grid(model, grid)[1]


def optimal_redundancy(
    model: CombinedModel,
    grid: Sequence[float] = PAPER_REDUNDANCY_GRID,
) -> RedundancySweepPoint:
    """The sweep point with the smallest total time (ties: lower r)."""
    points = sweep_redundancy(model, grid)
    best = min(points, key=lambda p: (p.total_time, p.redundancy))
    if math.isinf(best.total_time):
        raise ModelDivergence("no redundancy degree in the grid yields a finite time")
    return best


def optimal_interval(
    model: CombinedModel,
    bracket_factor: float = 50.0,
) -> float:
    """Numerically optimal checkpoint interval for ``model``.

    Scans Eq. 14 over :data:`INTERVAL_SCAN_POINTS` geometrically spaced
    ``delta`` in ``[daly / bracket_factor, daly * bracket_factor]`` in
    one kernel call, then rescans the span between the best sample's
    two neighbours in a second.  Eq. 14 is not unimodal in ``delta``
    (at r=1 it falls again toward the bracket's right edge), so the
    whole bracket is searched, not a local descent.  Used by the
    ablation benchmark to compare Eq. 15 with the true minimum.
    """
    if bracket_factor <= 1.0:
        raise ConfigurationError("bracket_factor must be > 1")
    daly = model.evaluate().checkpoint_interval

    def scan(low: float, high: float) -> Tuple[np.ndarray, int]:
        deltas = np.geomspace(low, high, INTERVAL_SCAN_POINTS)
        times = evaluate_grid(model, checkpoint_interval=deltas).total_time
        return deltas, int(np.argmin(times))

    deltas, best = scan(daly / bracket_factor, daly * bracket_factor)
    # Rescan between the best sample's neighbours (clamped at the ends).
    last = INTERVAL_SCAN_POINTS - 1
    deltas, best = scan(deltas[max(best - 1, 0)], deltas[min(best + 1, last)])
    return float(deltas[best])


@dataclass(frozen=True)
class CrossoverPoint:
    """Smallest process count where one degree beats another."""

    low_redundancy: float
    high_redundancy: float
    processes: int
    low_time: float
    high_time: float


@lru_cache(maxsize=65536)
def _cached_total_time(
    model: CombinedModel, processes: int, redundancy: float
) -> float:
    return float(
        evaluate_grid(
            model, virtual_processes=processes, redundancy=redundancy
        ).total_time
    )


def clear_model_cache() -> None:
    """Drop the memoized ``(model, N, r)`` evaluations (for tests/benchmarks)."""
    _cached_total_time.cache_clear()


def model_cache_info():
    """Statistics of the memoized evaluation cache."""
    return _cached_total_time.cache_info()


def _first_win(
    model: CombinedModel,
    low_redundancy: float,
    high_redundancy: float,
    wins: Callable[[float, float], bool],
    min_processes: int,
    max_processes: int,
    never: str,
) -> CrossoverPoint:
    """Smallest ``N`` where ``wins(T(N, low), T(N, high))`` holds.

    An exponential scan from ``min_processes`` brackets the boundary,
    then bisection narrows it.  The probes revisit the *same*
    configurations over and over (the low degree at every ``N``), so
    every time comes from the LRU memo: ``CombinedModel`` is a frozen,
    hence hashable, dataclass, and the memo is exact.  Raises
    :class:`ModelDivergence` (``never`` up to ``max_processes``) when
    no ``N`` in range wins.
    """

    def times(processes: int) -> Tuple[float, float]:
        return (
            _cached_total_time(model, processes, low_redundancy),
            _cached_total_time(model, processes, high_redundancy),
        )

    def wins_at(processes: int) -> bool:
        return wins(*times(processes))

    lo = hi = min_processes
    while hi <= max_processes and not wins_at(hi):
        lo = hi
        hi *= 2
    if hi > max_processes:
        if not wins_at(max_processes):
            raise ModelDivergence(f"{never} up to N={max_processes}")
        hi = max_processes
    # Binary search for the boundary inside (lo, hi].
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if wins_at(mid):
            hi = mid
        else:
            lo = mid
    low_time, high_time = times(hi)
    return CrossoverPoint(
        low_redundancy=low_redundancy,
        high_redundancy=high_redundancy,
        processes=hi,
        low_time=low_time,
        high_time=high_time,
    )


def find_crossover(
    model: CombinedModel,
    low_redundancy: float,
    high_redundancy: float,
    max_processes: int = 10_000_000,
    min_processes: int = 2,
) -> CrossoverPoint:
    """Smallest ``N`` where ``high_redundancy`` completes no later.

    Exponential scan followed by binary search; reproduces the Fig. 13
    crossovers.  Raises :class:`ModelDivergence` if the high degree
    never wins within ``max_processes``.
    """
    if min_processes < 1 or max_processes <= min_processes:
        raise ConfigurationError("need 1 <= min_processes < max_processes")
    return _first_win(
        model,
        low_redundancy,
        high_redundancy,
        lambda low, high: high <= low,
        min_processes,
        max_processes,
        f"{high_redundancy}x never beats {low_redundancy}x",
    )


def throughput_break_even(
    model: CombinedModel,
    redundancy: float = 2.0,
    jobs: int = 2,
    max_processes: int = 10_000_000,
    min_processes: int = 2,
) -> CrossoverPoint:
    """Smallest ``N`` where ``jobs`` redundant runs fit in one plain run.

    Fig. 14's headline: at ~78,536 processes two back-to-back 2x jobs of
    128 h complete within the wallclock of a single 1x job, i.e.
    ``jobs * T(r) <= T(1)``.
    """
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    return _first_win(
        model,
        1.0,
        redundancy,
        lambda plain, redundant: math.isinf(plain) or jobs * redundant <= plain,
        min_processes,
        max_processes,
        f"{jobs} jobs at {redundancy}x never fit in one 1x job",
    )
