"""Per-node and per-sphere reliability (Eqs. 2-4 of the paper).

The paper assumes fail-stop node failures arriving as a Poisson process,
i.e. exponentially distributed interarrival times with node MTBF
``theta``.  A node therefore survives an interval of length ``t`` with
probability ``R(t) = exp(-t/theta)`` (Eq. 2).

For large ``theta`` the paper linearises the failure probability as
``Pr(node failure) = t/theta`` (Eq. 3) and builds the rest of the
analysis on that form.  Both forms are provided here; every function
takes an ``exact`` flag (default ``False`` = the paper's linearisation)
so the ablation benchmark can quantify the linearisation error.

The linearised probability is clamped to ``[0, 1]`` — for very unreliable
configurations (``t > theta``) the raw linearisation exceeds 1 and would
otherwise produce negative reliabilities downstream in Eq. 9.

Like every equation of the model, each function here is written once,
in NumPy, and accepts floats or broadcastable arrays alike; the
vectorized :func:`~repro.models.grid.evaluate_grid` kernel is their
composition.  Inputs are not validated here.  The model's domain
(:data:`~repro.models.grid.DOMAIN`) is checked once per input: when a
:class:`~repro.models.combined.CombinedModel` is built, and for the
array axes that replace a model's fields, at the kernel's entry.

:func:`select` is the equations' ``np.where``: it keeps a one-cell
evaluation on NumPy's scalar paths.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError


def select(condition, x, y):
    """``np.where(condition, x, y)``, scalar for scalar operands.

    With no array among the operands the chosen operand is returned as an
    ``np.float64`` directly: the same bits ``np.where`` gives, without its
    microseconds of array dispatch, so a one-cell evaluation stays on
    NumPy's scalar fast paths.  A 0-d result is unwrapped to a scalar too.
    """
    if (
        isinstance(condition, np.ndarray)
        or isinstance(x, np.ndarray)
        or isinstance(y, np.ndarray)
    ):
        return np.where(condition, x, y)[()]
    return np.float64(x if condition else y)


def node_failure_probability(t, theta, exact: bool = False):
    """Probability that one node fails before time ``t``.

    Parameters
    ----------
    t:
        Exposure interval (seconds).
    theta:
        Node mean time between failures (seconds).
    exact:
        ``True`` uses the exponential CDF ``1 - exp(-t/theta)`` (Eq. 2);
        ``False`` (default) uses the paper's linearisation ``t/theta``
        (Eq. 3), clamped to ``[0, 1]``.
    """
    if exact:
        return -np.expm1(-t / theta)
    return np.minimum(1.0, t / theta)


def node_reliability(t, theta, exact: bool = False):
    """Probability that one node survives until time ``t`` (Eqs. 2-3)."""
    return 1.0 - node_failure_probability(t, theta, exact=exact)


def sphere_failure_probability(p, level):
    """``p ** level``: the chance that every replica of a sphere fails.

    ``level`` holds integer replication levels (a scalar or an array
    broadcasting against ``p``).  The power is one ascending multiply
    chain up to the largest level, each cell taking the partial product
    at its own level: a fixed chain of correctly rounded steps gives the
    same bits for a batch of one and a batch of a thousand, which
    ``np.power`` (whose array and scalar loops disagree in the last ULP)
    does not.  Levels on the model path are integers no larger than
    :data:`~repro.models.grid.MAX_REDUNDANCY`, so the chain is short.
    """
    top = level.max(initial=1) if isinstance(level, np.ndarray) else level
    result = power = p
    for k in range(2, int(top) + 1):
        power = power * p
        result = select(level >= k, power, result)
    return result


def sphere_reliability(t, theta, k: int, exact: bool = False):
    """Probability that a ``k``-way replicated virtual process survives.

    Eq. 4 of the paper: a sphere of ``k`` independent, identically
    distributed replicas fails only if *all* replicas fail, so

    ``R_red(t) = 1 - (Pr(node failure))^k``.

    Parameters
    ----------
    k:
        Positive integer redundancy level of this sphere (1 = no
        redundancy).  Partial redundancy is handled one level up, by
        partitioning processes into integer-``k`` sets (Eqs. 5-8).
    """
    if not isinstance(k, int) or k < 1:
        raise ConfigurationError(f"sphere redundancy k must be an int >= 1, got {k!r}")
    failure = node_failure_probability(t, theta, exact=exact)
    return 1.0 - sphere_failure_probability(failure, k)
