"""The combined model's one evaluation kernel, and its input domain.

:func:`evaluate_grid` runs the whole Section 4.3 pipeline — Eq. 1
(redundant time), Eqs. 5-8 (partition), Eq. 9 (reliability, kept as
``ln R_sys`` so that Eq. 10 stays finite where ``R_sys`` underflows to
0), Eq. 10 (failure rate and MTBF), Eq. 15/Young (interval) and Eqs.
12-14 (total time) — as the composition of the per-equation NumPy
functions in :mod:`~repro.models.redundancy` and
:mod:`~repro.models.checkpointing`, over broadcast parameter arrays.
It is the only evaluator:
``CombinedModel.evaluate()`` is a one-cell call, micro-batches and
sweeps are many-cell calls, and a cell's bits do not depend on the
batch it is evaluated in.

The input domain is stated once, in :data:`DOMAIN`, and enforced by
:func:`check_domain` once per input: a ``CombinedModel`` checks its
fields when it is built, so the kernel checks only the axes that
replace them; the per-equation functions check nothing.  The kernel
also enters ``np.errstate`` once per call for the whole pipeline, so
the equations it composes carry no error-state handling of their own.

:class:`ModelGrid` is also the one place an evaluation's quantities
are defined: beside the equations' outputs it derives the expected
checkpoint and failure counts, node-seconds and the Tables 2-3 work /
checkpoint / recompute / restart shares, and a
:class:`~repro.models.combined.CombinedResult` is one of its cells read
into Python numbers.  Divergent cells (where ``CombinedModel.evaluate()``
raises :class:`~repro.errors.ModelDivergence`) carry ``inf`` total time,
which is what ``CombinedModel.total_time_or_inf()`` returns for them.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict

import numpy as np

from ..errors import ConfigurationError
from .checkpointing import completion_time, daly_interval, young_interval
from .redundancy import (
    mtbf_from_rate,
    partition_counts,
    partition_log_reliability,
    rate_from_reliability,
    redundant_time,
)
from .reliability import node_failure_probability, select

if TYPE_CHECKING:
    from .combined import CombinedModel

__all__ = [
    "DOMAIN",
    "INTERVALS",
    "MAX_REDUNDANCY",
    "ModelGrid",
    "check_domain",
    "evaluate_grid",
]

#: Checkpoint-interval rules (Eq. 15, and Young's first-order rule).
INTERVALS = {"daly": daly_interval, "young": young_interval}


#: Largest redundancy degree the model accepts.  The paper sweeps 1x..3x;
#: Eq. 9's sphere power is a multiply chain of ``ceil(r)`` steps, so an
#: unbounded degree would let one request hold the process for as long
#: as it likes.
MAX_REDUNDANCY = 64


#: The model's input domain: field -> (test, what the test demands).
#: Every test is False for NaN and +-inf, so each field must be finite.
DOMAIN = {
    "virtual_processes": (
        lambda v: (v >= 1) & (v < math.inf) & (v % 1 == 0),
        "an integer >= 1",
    ),
    "redundancy": (
        lambda v: (v >= 1) & (v <= MAX_REDUNDANCY),
        f"in [1, {MAX_REDUNDANCY}]",
    ),
    "node_mtbf": (lambda v: (v > 0) & (v < math.inf), "> 0"),
    "alpha": (lambda v: (v >= 0) & (v <= 1), "in [0, 1]"),
    "base_time": (lambda v: (v > 0) & (v < math.inf), "> 0"),
    "checkpoint_cost": (lambda v: (v > 0) & (v < math.inf), "> 0"),
    "restart_cost": (lambda v: (v >= 0) & (v < math.inf), ">= 0"),
    "checkpoint_interval": (lambda v: (v > 0) & (v < math.inf), "> 0"),
}


def check_domain(interval_rule: str, **fields) -> None:
    """Raise :class:`ConfigurationError` unless the inputs are in domain.

    ``fields`` maps :data:`DOMAIN` names to scalars or arrays; a
    ``checkpoint_interval`` of ``None`` means "no override" and passes.
    """
    if interval_rule not in INTERVALS:
        raise ConfigurationError(
            f"interval_rule must be one of {tuple(INTERVALS)}, got {interval_rule!r}"
        )
    try:
        checks = [
            (name, value, DOMAIN[name][0](value))
            for name, value in fields.items()
            if value is not None or name != "checkpoint_interval"
        ]
    except TypeError:
        # A non-number (a string, say) has no order: name its field.
        for name, value in fields.items():
            try:
                DOMAIN[name][0](value)
            except TypeError:
                if value is not None or name != "checkpoint_interval":
                    raise ConfigurationError(
                        f"{name} must be a number, got {value!r}"
                    ) from None
        raise
    # One reduction for every field: Python numbers give a bool, numpy
    # inputs a np.bool_ or an array.
    inside = functools.reduce(operator.and_, (verdict for _n, _v, verdict in checks))
    if inside is True or (inside is not False and inside.all()):
        return
    for name, value, verdict in checks:
        if not np.all(verdict):
            bad = np.asarray(value)[~np.asarray(verdict)].flat[0]
            raise ConfigurationError(f"{name} must be {DOMAIN[name][1]}, got {bad}")


@dataclass(frozen=True)
class ModelGrid:
    """Array-valued results of one vectorized combined-model evaluation.

    The result fields share one broadcast shape; the two cost inputs
    that follow them broadcast against it.  Cells where the model
    diverges (no finite completion time) hold ``inf`` in ``total_time``;
    ``diverged`` masks them.  The derived quantities (expected counts,
    node-seconds and the Tables 2-3 shares) are computed on first use,
    once per grid.
    """

    #: Eq. 1 — execution time with redundant communication.
    redundant_time: np.ndarray
    #: Eq. 8 — physical processes consumed.
    total_processes: np.ndarray
    #: Eq. 9 — probability the system survives one ``t_Red`` run
    #: (0.0 where it underflows; the rate then comes from its log).
    system_reliability: np.ndarray
    #: Eq. 10 — system failure rate (failures per second).
    failure_rate: np.ndarray
    #: Eq. 10 — system MTBF (``inf`` when failure-free).
    system_mtbf: np.ndarray
    #: Eq. 15 (or Young / override) — checkpoint interval used.
    checkpoint_interval: np.ndarray
    #: Eq. 14 — expected total wallclock time (``inf`` where diverged).
    total_time: np.ndarray
    #: Eq. 12 — expected work lost per failure (``nan`` where
    #: failure-free or diverged).
    lost_work: np.ndarray
    #: Eq. 13 — expected restart + rework phase (``nan`` likewise).
    restart_rework: np.ndarray
    #: ``c`` and ``R``, the costs the cells were evaluated with, as given.
    checkpoint_cost: np.ndarray
    restart_cost: np.ndarray

    @property
    def diverged(self) -> np.ndarray:
        """Boolean mask of cells with no finite completion time."""
        return self.total_time == np.inf

    @functools.cached_property
    def derived(self) -> Dict[str, np.ndarray]:
        """The quantities derived from the fields, by name (the properties
        below), computed once per grid.

        In :class:`~repro.models.combined.CombinedResult`'s field order,
        which reads them positionally.
        """
        t_red, rate, total = self.redundant_time, self.failure_rate, self.total_time
        checkpointing = t_red * self.checkpoint_cost / self.checkpoint_interval
        # Eq. 13 folds recompute and restart into one phase of nominal
        # length R + t_lw and of share lambda t_RR; each gets the slice of
        # its input, or 0 unless R + t_lw > 0.  t_lw is nan where the cell
        # is failure-free, so the test fails there too; an inf phase
        # spares the division 0 / 0.
        phase = self.restart_cost + self.lost_work
        split = phase > 0.0
        phase = select(split, phase, np.inf)
        repair = rate * self.restart_rework
        recompute = select(split, repair * (self.lost_work / phase), 0.0)
        restart = select(split, repair * (self.restart_cost / phase), 0.0)
        return {
            "expected_checkpoints": select(
                self.diverged, np.inf, t_red / self.checkpoint_interval
            ),
            "expected_failures": total * rate,
            "node_seconds": self.total_processes * total,
            "work_share": t_red / total,
            "checkpoint_share": checkpointing / total,
            "recompute_share": recompute,
            "restart_share": restart,
        }

    @property
    def expected_checkpoints(self) -> np.ndarray:
        """Expected checkpoints taken, ``t_Red / delta``.

        Diverged cells report ``inf`` explicitly — the job restarts
        forever — rather than ``nan`` or a finite count of a run that
        never ends.
        """
        return self.derived["expected_checkpoints"]

    @property
    def expected_failures(self) -> np.ndarray:
        """Eq. 11 — ``T_total * lambda``; exactly 0 where failure-free."""
        return self.derived["expected_failures"]

    @property
    def node_seconds(self) -> np.ndarray:
        """Resource usage: physical processes x wallclock time."""
        return self.derived["node_seconds"]

    # The Tables 2-3 split of ``total_time``: the four shares sum to 1
    # (up to rounding) wherever the cell converges.

    @property
    def work_share(self) -> np.ndarray:
        """Share of ``total_time`` spent on the ``t_Red`` of work."""
        return self.derived["work_share"]

    @property
    def checkpoint_share(self) -> np.ndarray:
        """Share spent writing checkpoints, ``(t_Red c / delta) / T``."""
        return self.derived["checkpoint_share"]

    @property
    def recompute_share(self) -> np.ndarray:
        """Share spent redoing lost work: ``lambda t_RR t_lw / (R + t_lw)``."""
        return self.derived["recompute_share"]

    @property
    def restart_share(self) -> np.ndarray:
        """Share spent restarting from images: ``lambda t_RR R / (R + t_lw)``."""
        return self.derived["restart_share"]


#: A model's :data:`DOMAIN` fields, in order.
_domain_fields = operator.attrgetter(*DOMAIN)


def evaluate_grid(model: "CombinedModel", **axes) -> ModelGrid:
    """Evaluate ``model``, with some of its fields replaced by ``axes``.

    ``axes`` maps :data:`DOMAIN` names to scalars or arrays; arrays
    broadcast against each other with normal NumPy rules (e.g. a column
    of degrees against a row of process counts yields the full 2-D
    grid).  Every other input, ``interval_rule`` and
    ``exact_reliability`` included, is taken from ``model``.  A built
    model's fields are in the domain already, so only the axes are
    checked.  All-scalar inputs give ``np.float64`` fields, computed on
    NumPy's scalar paths with the bits an array of such cells would hold.
    """
    fields = dict(zip(DOMAIN, _domain_fields(model)))
    if axes:
        unknown = axes.keys() - fields.keys()
        if unknown:
            raise ConfigurationError(f"unknown model grid axes: {sorted(unknown)}")
        # A Python number is checked as it is (cheaper than as a 0-d
        # array); anything else becomes a float64 array.
        axes = {
            name: value if value is None or isinstance(value, (int, float))
            else np.asarray(value, dtype=np.float64)
            for name, value in axes.items()
        }
        check_domain(model.interval_rule, **axes)
        fields.update(axes)
    # DOMAIN lists the fields in the order unpacked here.  Numbers are
    # computed with as np.float64 scalars, which take NumPy's scalar paths.
    n, r, theta, a, t, c, rc, override = (
        value if value is None or isinstance(value, np.ndarray) else np.float64(value)
        for value in fields.values()
    )
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t_red = redundant_time(t, a, r)
        partition = partition_counts(n, r)
        p = node_failure_probability(t_red, theta, exact=model.exact_reliability)
        log_r = partition_log_reliability(partition, p)
        r_sys = np.exp(log_r)
        rate = rate_from_reliability(r_sys, log_r, t_red)
        mtbf = mtbf_from_rate(rate)
        if override is None:
            # Clamped to the nominal one-checkpoint run: the rule interval
            # grows without bound as rate -> 0 (inf at 0), so a
            # failure-free cell is the continuous limit of its neighbours.
            delta = np.minimum(INTERVALS[model.interval_rule](c, mtbf), t_red)
        else:
            delta = override
        delta = select(rate == np.inf, np.nan, delta)
        total, lost_work, rework = completion_time(t_red, delta, c, rate, rc, mtbf)

    cells = (
        t_red, partition[-1], r_sys, rate, mtbf, delta, total, lost_work, rework,
    )
    inputs = (n, r, theta, a, t, c, rc) + (() if override is None else (override,))
    shape = n.shape
    if any(value.shape != shape for value in inputs):
        shape = np.broadcast_shapes(*(value.shape for value in inputs))
        cells = (
            value if value.shape == shape else np.broadcast_to(value, shape)
            for value in cells
        )
    return ModelGrid(*cells, c, rc)
