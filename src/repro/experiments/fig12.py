"""Figure 12 — observed vs modeled performance, with a Q-Q fit check.

The paper overlays the measured curves (Figure 8 / Table 4) on the
simplified-model curves (Figure 11) for selected MTBFs and reports
that "the trend followed by the observed curves is very similar to the
modeled curves, and a Q-Q plot ... indicates a close fit".

We perform the same validation *at the simulator's own parameters*:
the simplified model is evaluated with the campaign's N, measured base
time, measured alpha, and the configured c and R — so model and
simulation are compared in identical units, exactly the comparison the
paper makes between its model and its cluster.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from ..errors import ModelDivergence
from ..models.simplified import simplified_total_time
from ..util.stats import mean_abs_pct_error, pearson, qq_points
from .runner import ExperimentResult, setup_or_default
from .table4 import QUICK_DEGREES, QUICK_MTBF_HOURS, ScaledSetup, sweep_cells


def run(
    setup: Optional[ScaledSetup] = None,
    mtbf_hours: Sequence[float] = QUICK_MTBF_HOURS,
    degrees: Sequence[float] = QUICK_DEGREES,
) -> ExperimentResult:
    """Overlay simulation vs simplified model and compute fit statistics."""
    setup = setup_or_default("fig12", setup, ScaledSetup)
    cells = sweep_cells(setup, mtbf_hours, degrees)
    observed = {}
    for cell in cells:
        observed[(cell.node_mtbf, cell.redundancy)] = cell.report.total_time

    rows = []
    observed_list = []
    modeled_list = []
    for hours in mtbf_hours:
        sim_mtbf = setup.mtbf_to_sim(hours)
        for degree in degrees:
            obs = observed[(sim_mtbf, degree)]
            try:
                mod = simplified_total_time(
                    virtual_processes=setup.virtual_processes,
                    redundancy=degree,
                    node_mtbf=sim_mtbf,
                    alpha=setup.alpha_estimate,
                    base_time=setup.expected_base_time,
                    checkpoint_cost=setup.checkpoint_cost_paper_minutes
                    * setup.time_scale,
                    restart_cost=setup.restart_cost_paper_minutes
                    * setup.time_scale,
                    exact_reliability=True,
                )
            except ModelDivergence:
                mod = math.inf
            rows.append(
                [
                    f"{hours:.0f} hrs",
                    degree,
                    round(setup.sim_to_paper_minutes(obs), 1),
                    round(setup.sim_to_paper_minutes(mod), 1),
                    round(obs / mod, 3) if mod not in (0.0, math.inf) else math.nan,
                ]
            )
            if not math.isinf(mod):
                observed_list.append(obs)
                modeled_list.append(mod)

    correlation = pearson(observed_list, modeled_list)
    error = mean_abs_pct_error(observed_list, modeled_list)
    qq = qq_points(observed_list, modeled_list)
    qq_max_ratio = max(
        max(o / m, m / o) for o, m in qq if o > 0 and m > 0
    )
    return ExperimentResult(
        experiment="fig12",
        title="Fig. 12: observed (simulation) vs modeled (simplified model) "
        "[paper-minutes equivalent]",
        headers=["MTBF", "r", "observed", "modeled", "obs/mod"],
        rows=rows,
        findings={
            "pearson_correlation": round(correlation, 4),
            "mean_abs_pct_error": round(error, 4),
            "qq_worst_quantile_ratio": round(qq_max_ratio, 3),
            "paper_verdict": "close fit (trends similar, Q-Q near diagonal)",
        },
        notes=[
            "model evaluated at the simulator's own parameters (same N, "
            "measured base time and alpha, configured c and R)",
            "observed cells are single stochastic runs, as in the paper",
        ],
    )
