"""Redundant execution time and system reliability (Eqs. 1, 5-10).

This module covers everything the paper derives about the *redundancy*
side of the combined model:

* Eq. 1  — communication-amplified execution time ``t_Red``;
* Eqs. 5-8 — partitioning ``N`` virtual processes under a real-valued
  (partial) redundancy degree ``r`` into a ``floor(r)``-replicated set
  and a ``ceil(r)``-replicated set;
* Eq. 9  — system reliability ``R_sys`` (product of all sphere
  survival probabilities);
* Eq. 10 — derived system failure rate ``lambda_sys`` and MTBF
  ``Theta_sys``;
* Section 4.3's birthday-problem approximation for the probability of a
  primary and its shadow failing together.

:func:`partition_log_reliability`, :func:`rate_from_reliability` and
:func:`mtbf_from_rate` are the bare equations the
:func:`~repro.models.grid.evaluate_grid` kernel composes inside its one
``np.errstate`` block; :func:`system_reliability`,
:func:`system_failure_rate` and :func:`system_mtbf` are the standalone
entries, and enter ``np.errstate`` themselves.

Eq. 9 is computed in log space and ``ln R_sys`` is kept: at the paper's
scales ``R_sys`` itself underflows to 0 (beyond ~745 expected sphere
failures per ``t_Red``), and Eq. 10 then takes its rate from the log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from .reliability import node_failure_probability, select, sphere_failure_probability

#: Redundancy degrees the paper sweeps (1x .. 3x in 0.25 steps).
PAPER_REDUNDANCY_GRID = tuple(1.0 + 0.25 * i for i in range(9))


def redundant_time(base_time, alpha, redundancy):
    """Execution time under ``r``-way redundancy (Eq. 1).

    ``t_Red = (1 - alpha) * t + alpha * t * r``

    Only the communication share ``alpha`` of the base time ``t`` is
    amplified: the interposition layer turns every point-to-point call
    into ``r`` point-to-point calls, while computation is unaffected
    because replicas run on *extra* nodes (model assumption 2).

    Parameters
    ----------
    base_time:
        Failure-free execution time ``t`` without redundancy (seconds).
    alpha:
        Communication-to-computation ratio in ``[0, 1]`` (CG: 0.2).
    redundancy:
        Real-valued redundancy degree ``r >= 1``.
    """
    return (1.0 - alpha) * base_time + alpha * base_time * redundancy


@dataclass(frozen=True)
class RedundancyPartition:
    """The Eq. 5-8 partition of ``N`` virtual processes under degree ``r``.

    Attributes
    ----------
    virtual_processes:
        ``N`` — the application's (virtual) process count.
    redundancy:
        The requested real-valued degree ``r``.
    floor_level / ceil_level:
        ``floor(r)`` and ``ceil(r)`` — the two integer replication
        levels present in the system.
    floor_count / ceil_count:
        ``N_{floor(r)}`` and ``N_{ceil(r)}`` — how many virtual
        processes run at each level (Eqs. 6-7).
    total_processes:
        ``N_total`` — physical processes consumed (Eq. 8).
    """

    virtual_processes: int
    redundancy: float
    floor_level: int
    ceil_level: int
    floor_count: int
    ceil_count: int
    total_processes: int


def partition_counts(virtual_processes, redundancy):
    """The Eqs. 5-8 partial-r partition, element-wise.

    Returns ``(floor_level, ceil_level, floor_count, ceil_count,
    total_processes)`` as floats: ``N_{floor(r)} = floor((ceil(r) - r)
    * N)`` (Eq. 6), ``N_{ceil(r)} = N - N_{floor(r)}`` (Eq. 7) and
    ``N_total`` (Eq. 8).  When ``r`` is an integer ``ceil(r) - r`` is
    zero, the floor set is empty and every process runs at level ``r``.
    """
    floor_level = np.floor(redundancy)
    ceil_level = np.ceil(redundancy)
    # Tiny epsilon guards against float artifacts like
    # (2 - 1.1) * 30 == 26.999999999999996 flooring to 26.
    floor_count = np.floor((ceil_level - redundancy) * virtual_processes + 1e-9)
    ceil_count = virtual_processes - floor_count
    total = ceil_count * ceil_level + floor_count * floor_level
    return floor_level, ceil_level, floor_count, ceil_count, total


def partition_processes(virtual_processes: int, redundancy: float) -> RedundancyPartition:
    """Split ``N`` virtual processes into the Eq. 5-8 partial-r partition.

    The scalar, integer-valued record of :func:`partition_counts`.
    """
    floor_level, ceil_level, floor_count, ceil_count, total = partition_counts(
        virtual_processes, redundancy
    )
    return RedundancyPartition(
        virtual_processes=virtual_processes,
        redundancy=redundancy,
        floor_level=int(floor_level),
        ceil_level=int(ceil_level),
        floor_count=int(floor_count),
        ceil_count=int(ceil_count),
        total_processes=int(total),
    )


def partition_log_reliability(partition, p):
    """Eq. 9 over a :func:`partition_counts` partition, as ``ln R_sys``.

    ``R_sys = [1 - p^floor(r)]^{N_floor} * [1 - p^ceil(r)]^{N_ceil}``

    where ``p`` is the node failure probability over the exposure.
    Computed in log space: at the paper's scales (``N`` up to 10^6) the
    direct product underflows.  A set whose spheres fail for certain
    (``p^k == 1``) contributes ``-inf``, so ``R_sys`` is exactly 0.
    """
    floor_level, ceil_level, floor_count, ceil_count, _total = partition
    floor_fail = sphere_failure_probability(p, floor_level)
    # ceil(r) is floor(r) or floor(r) + 1, and ``floor_fail * p`` is
    # exactly the ascending chain's next multiply: one chain, same bits.
    # An integral r has an empty floor set, masked below.
    ceil_fail = select(ceil_level > floor_level, floor_fail * p, floor_fail)
    log_r = 0.0
    for count, sphere_fail in ((floor_count, floor_fail), (ceil_count, ceil_fail)):
        log_r = log_r + select(count > 0, count * np.log1p(-sphere_fail), 0.0)
    return log_r


def _log_reliability(virtual_processes, redundancy, exposure_time, node_mtbf, exact):
    return partition_log_reliability(
        partition_counts(virtual_processes, redundancy),
        node_failure_probability(exposure_time, node_mtbf, exact=exact),
    )


@np.errstate(divide="ignore", invalid="ignore")
def system_reliability(
    virtual_processes, redundancy, exposure_time, node_mtbf, exact: bool = False
):
    """Probability that *every* virtual process survives (Eq. 9).

    ``exp`` of :func:`partition_log_reliability` over the Eqs. 5-8
    partition, with ``p = Pr(node failure before exposure_time)`` —
    linearised ``t_Red/theta`` by default, exact exponential CDF with
    ``exact=True``.
    """
    return np.exp(
        _log_reliability(virtual_processes, redundancy, exposure_time, node_mtbf, exact)
    )


def rate_from_reliability(reliability, log_reliability, exposure_time):
    """System failure rate ``lambda_sys = -ln(R_sys) / t_Red`` (Eq. 10).

    Takes ``R_sys`` and its log.  The rate comes from ``R_sys`` where
    that is > 0, so a system whose reliability rounds to 1 is
    failure-free, and from ``ln R_sys`` where ``R_sys`` underflows to 0.
    ``inf`` where ``ln R_sys`` is ``-inf``: the linearised model with
    ``t_Red >= theta``, where every node fails for certain.  A
    failure-free system gets ``+0.0``: ``0.0 - ln 1`` is ``+0.0`` where
    ``-ln 1`` would be ``-0.0``, and equals ``-ln R`` everywhere else.
    """
    hazard = select(reliability > 0.0, 0.0 - np.log(reliability), -log_reliability)
    return hazard / exposure_time


def mtbf_from_rate(rate):
    """System MTBF ``Theta_sys = 1 / lambda_sys`` (Eq. 10).

    ``inf`` for a failure-free system (``lambda_sys == 0``) and ``0.0``
    where the failure rate diverges.
    """
    return select(rate == 0.0, np.inf, np.divide(1.0, rate))


@np.errstate(divide="ignore", invalid="ignore")
def system_failure_rate(
    virtual_processes, redundancy, exposure_time, node_mtbf, exact: bool = False
):
    """Eq. 10's failure rate of the Eq. 9 system reliability."""
    log_r = _log_reliability(
        virtual_processes, redundancy, exposure_time, node_mtbf, exact
    )
    return rate_from_reliability(np.exp(log_r), log_r, exposure_time)


@np.errstate(divide="ignore", invalid="ignore")
def system_mtbf(
    virtual_processes, redundancy, exposure_time, node_mtbf, exact: bool = False
):
    """Eq. 10's system MTBF of the Eq. 9 system reliability."""
    args = (virtual_processes, redundancy, exposure_time, node_mtbf, exact)
    return mtbf_from_rate(system_failure_rate(*args))


def birthday_collision_probability(n: int) -> float:
    """Section 4.3's printed birthday-problem approximation.

    ``p(n) ~= 1 - ((n - 2) / n)^(n (n - 1) / 2)`` for ``n`` nodes —
    implemented exactly as printed.  Note the printed expression is the
    probability of *some* pairwise collision over many failures, which
    tends to **1** as ``n`` grows (``ln`` of the power behaves like
    ``-(n-1)``); the quantity the paper's surrounding text reasons
    about — a failure striking one *specific* shadow node out of the
    remaining ``n - 1`` — is :func:`shadow_hit_probability`, which does
    vanish, motivating why dual redundancy scales.  Both are provided;
    the discrepancy is documented in DESIGN.md.
    """
    if n < 3:
        raise ConfigurationError(f"birthday approximation needs n >= 3, got {n}")
    exponent = n * (n - 1) / 2.0
    return -math.expm1(exponent * math.log1p(-2.0 / n))


def shadow_hit_probability(n: int) -> float:
    """Probability that the next failure hits one specific shadow node.

    After a primary fails, only one of the remaining ``n - 1`` nodes is
    its shadow; a uniformly-arriving second failure hits it with
    probability ``1 / (n - 1)`` — the vanishing quantity behind "and
    choosing just that shadow node becomes less likely as the number of
    nodes increases" (Section 1).
    """
    if n < 2:
        raise ConfigurationError(f"need n >= 2 nodes, got {n}")
    return 1.0 / (n - 1)
