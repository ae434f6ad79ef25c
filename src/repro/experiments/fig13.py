"""Figure 13 — modeled weak scaling of a 128-hour job to 30k processes.

The paper sweeps the full combined model over process counts under
weak scaling (constant per-process work, so the base time stays 128 h)
for degrees {1, 1.5, 2, 2.5, 3} and reads off two crossovers:

* 1x → 2x at 4,351 processes,
* 1x → 3x at 12,551 processes,

with partial degrees never winning at these settings.  The exact
crossover counts depend on the (unpublished) c and R; the defaults
below (c = 8 min, R = 12 min) put all four of the paper's reference
points — both crossovers, Fig. 14's 78,536-process throughput
break-even and its 771,251-process 3x takeover — within ~15% of the
published values, and the benchmark asserts the ordering and bands.
"""

from __future__ import annotations

import numpy as np

from .. import units
from ..errors import ModelDivergence
from ..models import CombinedModel, find_crossover
from ..models.grid import evaluate_grid
from ..util.plot import ascii_plot
from .runner import ExperimentResult

DEFAULT_DEGREES = (1.0, 1.5, 2.0, 2.5, 3.0)


def base_model(
    base_time_hours: float,
    node_mtbf_years: float,
    alpha: float,
    checkpoint_cost: float,
    restart_cost: float,
) -> CombinedModel:
    """The Fig. 13/14 parameter set (process count is swept)."""
    return CombinedModel(
        virtual_processes=1000,
        redundancy=1.0,
        node_mtbf=units.years(node_mtbf_years),
        alpha=alpha,
        base_time=units.hours(base_time_hours),
        checkpoint_cost=checkpoint_cost,
        restart_cost=restart_cost,
    )


def weak_scaling(model: CombinedModel, max_processes: int, samples: int, degrees):
    """T_total [h] per degree at ``samples`` log-spaced process counts.

    Returns the counts, the hours per degree, the table rows and the
    log-x plot.
    """
    counts = sorted(
        set(
            max(2, int(round(max_processes ** (i / (samples - 1)))))
            for i in range(samples)
        )
    )
    # One vectorized (degree x count) evaluation instead of a scalar
    # model call per cell; divergent cells come back as inf.
    times = evaluate_grid(
        model,
        virtual_processes=np.asarray(counts, dtype=float),
        redundancy=np.asarray(degrees, dtype=float)[:, None],
    ).total_time
    columns = {
        degree: [float(units.to_hours(t)) for t in times[i]]
        for i, degree in enumerate(degrees)
    }
    rows = [
        [counts[i]] + [round(columns[degree][i], 1) for degree in degrees]
        for i in range(len(counts))
    ]
    plot = ascii_plot(
        {f"{degree}x": (counts, columns[degree]) for degree in degrees},
        logx=True,
        title="T_total [h] vs processes (log x)",
    )
    return counts, columns, rows, plot


def run(
    max_processes: int = 30_000,
    samples: int = 16,
    degrees=DEFAULT_DEGREES,
    base_time_hours: float = 128.0,
    node_mtbf_years: float = 5.0,
    alpha: float = 0.2,
    checkpoint_cost: float = units.minutes(8),
    restart_cost: float = units.minutes(12),
) -> ExperimentResult:
    """Regenerate the wallclock-vs-processes series and crossovers."""
    model = base_model(
        base_time_hours, node_mtbf_years, alpha, checkpoint_cost, restart_cost
    )
    counts, columns, rows, plot = weak_scaling(model, max_processes, samples, degrees)
    findings = {}
    try:
        cross2 = find_crossover(model, 1.0, 2.0, max_processes=10_000_000)
        findings["crossover_1x_to_2x_processes"] = cross2.processes
    except ModelDivergence:
        findings["crossover_1x_to_2x_processes"] = None
    try:
        cross3 = find_crossover(model, 1.0, 3.0, max_processes=10_000_000)
        findings["crossover_1x_to_3x_processes"] = cross3.processes
    except ModelDivergence:
        findings["crossover_1x_to_3x_processes"] = None
    findings["paper_crossovers"] = {"1x->2x": 4351, "1x->3x": 12551}
    # Partial degrees never optimal across the sweep (paper's finding).
    partial_never_best = True
    for i in range(len(counts)):
        best = min(degrees, key=lambda d: columns[d][i])
        if best not in (1.0, 2.0, 3.0):
            partial_never_best = False
            break
    findings["partial_redundancy_never_optimal"] = partial_never_best
    return ExperimentResult(
        experiment="fig13",
        title="Fig. 13: modeled wallclock [h] of a 128 h job, weak scaling",
        headers=["processes"] + [f"{d}x" for d in degrees],
        rows=rows,
        plot=plot,
        findings=findings,
        notes=[
            "weak scaling: base time constant; only N grows",
            "crossover = smallest N where the higher degree completes no later",
        ],
    )
