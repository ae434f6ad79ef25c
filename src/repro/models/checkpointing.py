"""Checkpoint/restart cost model (Eqs. 12-15 of the paper).

The application alternates work segments of length ``delta`` with
checkpoint phases of length ``c``.  Failures arrive with system rate
``lambda = 1/Theta`` and can strike at any point — including during a
checkpoint or a restart (model assumption 5).  The model yields:

* :func:`expected_lost_work` — Eq. 12, the expected work lost when a
  failure strikes somewhere in a ``delta + c`` segment;
* :func:`expected_restart_rework` — Eq. 13, the expected duration of the
  combined restart + rework phase (itself failure-prone);
* :func:`completion_time` — Eq. 14, the fixed point
  ``T_total = (t + t c / delta) / (1 - lambda * t_RR)`` together with
  the Eq. 12-13 terms it is built from, and :func:`total_time`, its
  total for callers that treat divergence as an error;
* :func:`daly_interval` — Eq. 15, Daly's higher-order optimum
  checkpoint interval, and :func:`young_interval` for the classic
  first-order rule.

The work / checkpoint / recompute / restart shares of the paper's
Tables 2 and 3 are derived from Eq. 14's terms on
:class:`~repro.models.grid.ModelGrid`.

Each equation is one NumPy function over floats or broadcastable
arrays, without input validation or ``np.errstate`` handling of its
own: the :func:`~repro.models.grid.evaluate_grid` kernel checks the
domain and enters ``np.errstate`` once for the whole pipeline, and the
standalone :func:`total_time` does the latter itself.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigurationError, ModelDivergence
from .reliability import select


def segment_failure_pdf(t: float, delta: float, checkpoint_cost: float, mtbf: float) -> float:
    """Density of the failure position within a work+checkpoint segment.

    The paper folds the global exponential failure density into one
    segment of length ``delta_c = delta + checkpoint_cost``:

    ``p(t) = exp(-t/Theta) / (Theta * (1 - exp(-delta_c/Theta)))``

    for ``0 <= t <= delta_c``.  Integrates to 1 over the segment.
    """
    delta_c = delta + checkpoint_cost
    if not 0.0 <= t <= delta_c:
        raise ConfigurationError(f"t must lie in [0, {delta_c}], got {t}")
    denominator = -math.expm1(-delta_c / mtbf)
    return math.exp(-t / mtbf) / (mtbf * denominator)


def expected_lost_work(delta, checkpoint_cost, mtbf):
    """Expected work lost to one failure, ``t_lw`` (Eq. 12).

    A failure at offset ``t <= delta`` into the segment loses ``t`` of
    work; a failure during the checkpoint phase loses the full
    ``delta``.  Integrating against :func:`segment_failure_pdf`:

    ``t_lw = [Theta - Theta e^(-delta/Theta) - delta e^(-delta_c/Theta)]
    / (1 - e^(-delta_c/Theta))``

    Always satisfies ``0 <= t_lw <= delta``.
    """
    delta_c = delta + checkpoint_cost
    denominator = -np.expm1(-delta_c / mtbf)
    numerator = -mtbf * np.expm1(-delta / mtbf) - delta * np.exp(-delta_c / mtbf)
    # Enforce the mathematical bound numerically: for delta << mtbf the
    # two terms of the numerator cancel to machine precision and can
    # leave a tiny negative residue, which Eq. 13 must never see.
    return np.minimum(np.maximum(numerator / denominator, 0.0), delta)


def expected_restart_rework(lost_work, restart_cost, mtbf):
    """Expected duration of the restart + rework phase, ``t_RR`` (Eq. 13).

    The phase nominally lasts ``x = R + t_lw`` but is itself exposed to
    failures.  The paper composes the phase duration as

    ``t_RR = (1 - e^(-x/Theta)) * [Theta - e^(-x/Theta) (x + Theta)]
    + e^(-x/Theta) * x``

    i.e. (probability of failing inside the phase) x (truncated expected
    failure time) + (probability of surviving the phase) x (full phase
    length).  We implement the formula exactly as printed — note it uses
    the *unconditional* truncated expectation, which slightly
    underweights early failures; this is the paper's model, and the
    model-vs-simulation benchmarks quantify the residual.

    Always satisfies ``0 <= t_RR <= R + t_lw`` (exactly 0 for ``x = 0``).
    """
    x = restart_cost + lost_work
    survive = np.exp(-x / mtbf)
    fail = -np.expm1(-x / mtbf)
    truncated_expectation = mtbf - survive * (x + mtbf)
    return fail * truncated_expectation + survive * x


def completion_time(
    base_time, delta, checkpoint_cost, failure_rate, restart_cost, mtbf
):
    """Eqs. 12-14 element-wise: ``(T_total, t_lw, t_RR)``.

    ``T_total = (t + t c / delta) / (1 - lambda t_RR)`` (Eq. 14), with
    ``t_lw`` (Eq. 12) and ``t_RR`` (Eq. 13) evaluated at the system MTBF
    ``mtbf``, ``Theta = 1/lambda`` (``inf`` where ``lambda == 0``).  A
    failure-free cell takes ``t + t c / delta`` and reports ``nan`` for
    ``t_lw``/``t_RR``, which are undefined without failures.  A cell
    where ``lambda * t_RR >= 1`` (the expected repair time per failure
    exceeds the time between failures) or ``lambda`` is infinite has no
    finite completion time and takes ``inf``.
    """
    lost_work = expected_lost_work(delta, checkpoint_cost, mtbf)
    rework = expected_restart_rework(lost_work, restart_cost, mtbf)
    useful = base_time + base_time * checkpoint_cost / delta
    loss = failure_rate * rework
    total = select(
        failure_rate == 0.0,
        useful,
        select(loss < 1.0, useful / (1.0 - loss), np.inf),
    )
    return total, lost_work, rework


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def total_time(base_time, delta, checkpoint_cost, failure_rate, restart_cost):
    """Total completion time ``T_total`` (Eq. 14).

    :func:`completion_time`'s total, for callers that treat divergence
    as an error.

    Raises
    ------
    ModelDivergence
        When ``lambda * t_RR >= 1`` anywhere: the expected repair time
        per failure exceeds the time between failures, so the job makes
        no expected forward progress.
    """
    mtbf = np.divide(1.0, failure_rate)
    total = completion_time(
        base_time, delta, checkpoint_cost, failure_rate, restart_cost, mtbf
    )[0]
    if np.any(np.isinf(total)):
        raise ModelDivergence(
            "lambda * t_RR >= 1 (or lambda infinite); no finite completion time"
        )
    return total


def young_interval(checkpoint_cost, mtbf):
    """Young's first-order optimum interval ``sqrt(2 c Theta)`` [Young 1974]."""
    return np.sqrt(2.0 * checkpoint_cost * mtbf)


def daly_interval(checkpoint_cost, mtbf):
    """Daly's higher-order optimum checkpoint interval (Eq. 15).

    ``delta_opt = sqrt(2 c Theta) [1 + (1/3) sqrt(c / 2Theta)
    + (1/9)(c / 2Theta)] - c``   for ``c < 2 Theta``,

    and ``delta_opt = Theta`` once the checkpoint cost reaches twice
    the MTBF (Daly 2006's guard for the regime where the expansion is
    invalid).
    """
    ratio = checkpoint_cost / (2.0 * mtbf)
    base = np.sqrt(2.0 * checkpoint_cost * mtbf)
    correction = 1.0 + np.sqrt(ratio) / 3.0 + ratio / 9.0
    return select(ratio >= 1.0, mtbf, base * correction - checkpoint_cost)
