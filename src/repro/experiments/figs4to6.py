"""Figures 4-6 — modeled total time vs redundancy, three configurations.

The paper evaluates the combined pipeline (Eqs. 1, 10, 14, 15) for a
128-hour job under three (MTBF, alpha, checkpoint-cost) configurations
and annotates T_min / T_max / T_{r=1}, the expected checkpoint count
and the failure rate.  Headline observations reproduced here:

* a redundancy level of 2 is the best choice in all three
  configurations;
* comparing configs 1 and 3 (c differing by 10x) shows Daly's interval
  scaling as sqrt(10) and the checkpoint-time contribution shrinking
  accordingly.
"""

from __future__ import annotations

import math

import numpy as np

from .. import units
from ..errors import ConfigurationError
from ..models import CombinedModel
from ..models.grid import evaluate_grid
from ..util.plot import ascii_plot
from .runner import ExperimentResult, check_rows

#: (name, node MTBF years, alpha, checkpoint cost s, restart cost s).
DEFAULT_CONFIGS = (
    ("config1", 5.0, 0.2, units.minutes(10), units.minutes(15)),
    ("config2", 2.5, 0.2, units.minutes(10), units.minutes(15)),
    ("config3", 5.0, 0.2, units.minutes(1), units.minutes(15)),
)


def sweep_configuration(
    virtual_processes: int,
    base_time: float,
    mtbf_years: float,
    alpha: float,
    checkpoint_cost: float,
    restart_cost: float,
    degrees,
):
    """One figure's sweep; returns (times in hours, annotations).

    The whole degree grid is evaluated in one vectorized
    :func:`~repro.models.grid.evaluate_grid` call; divergent
    degrees carry ``inf``.
    """
    model = CombinedModel(
        virtual_processes=virtual_processes,
        redundancy=1.0,
        node_mtbf=units.years(mtbf_years),
        alpha=alpha,
        base_time=base_time,
        checkpoint_cost=checkpoint_cost,
        restart_cost=restart_cost,
    )
    grid = evaluate_grid(model, redundancy=np.asarray(degrees, dtype=float))
    total = grid.total_time
    finite = np.isfinite(total)
    best_index = int(np.argmin(np.where(finite, total, np.inf)))
    worst_index = int(np.argmax(np.where(finite, total, -np.inf)))
    r1_index = list(degrees).index(1.0)
    r1_ok = bool(finite[r1_index])
    annotations = {
        "T_min_hours": units.to_hours(float(total[best_index])),
        "r_at_min": float(degrees[best_index]),
        "T_max_hours": units.to_hours(float(total[worst_index])),
        "T_r1_hours": units.to_hours(float(total[r1_index])) if r1_ok else math.inf,
        "chkpts_at_r1": (
            float(grid.expected_checkpoints[r1_index]) if r1_ok else math.nan
        ),
        "delta_at_r1_minutes": (
            units.to_minutes(float(grid.checkpoint_interval[r1_index]))
            if r1_ok
            else math.nan
        ),
        "lambda_at_min_per_hour": float(grid.failure_rate[best_index]) * 3600.0,
    }
    hours = [float(units.to_hours(t)) for t in total]
    return hours, annotations


def run(
    virtual_processes: int = 50_000,
    base_time_hours: float = 128.0,
    configs=DEFAULT_CONFIGS,
    degree_step: float = 0.25,
) -> ExperimentResult:
    """Regenerate the three T_total(r) curves with annotations.

    ``configs`` rows are shaped like :data:`DEFAULT_CONFIGS` and must
    include ``config1`` and ``config3``, whose intervals the findings
    compare.
    """
    check_rows("figs4to6", "configs", configs, DEFAULT_CONFIGS[0])
    names = [row[0] for row in configs]
    if not {"config1", "config3"} <= set(names):
        raise ConfigurationError(
            f"figs4to6: configs must be rows that include 'config1' and "
            f"'config3', got rows named {names!r}"
        )
    degrees = [1.0 + degree_step * i for i in range(int(round(2.0 / degree_step)) + 1)]
    base_time = units.hours(base_time_hours)
    columns = {}
    annotations = {}
    for name, mtbf_years, alpha, c, r_cost in configs:
        hours, notes = sweep_configuration(
            virtual_processes, base_time, mtbf_years, alpha, c, r_cost, degrees
        )
        columns[name] = hours
        annotations[name] = notes
    rows = [
        [round(degree, 2)] + [round(columns[name][i], 1) for name, *_ in configs]
        for i, degree in enumerate(degrees)
    ]
    findings = {}
    for name in columns:
        for key, value in annotations[name].items():
            findings[f"{name}/{key}"] = round(value, 3) if isinstance(value, float) else value
    # Daly sqrt(10) check between config1 (c) and config3 (c/10).
    ratio = (
        annotations["config1"]["delta_at_r1_minutes"]
        / annotations["config3"]["delta_at_r1_minutes"]
    )
    findings["delta_ratio_config1_over_config3"] = round(ratio, 3)
    findings["expected_sqrt10"] = round(math.sqrt(10.0), 3)
    plot = ascii_plot(
        {name: (degrees, columns[name]) for name, *_ in configs},
        title="T_total [h] vs redundancy degree",
    )
    return ExperimentResult(
        experiment="figs4to6",
        title=(
            f"Figs. 4-6: modeled total time [h] vs redundancy "
            f"(N={virtual_processes:,}, t={base_time_hours:.0f} h)"
        ),
        headers=["r"] + [name for name, *_ in configs],
        rows=rows,
        plot=plot,
        findings=findings,
        notes=[
            f"{name}: theta={mt}y alpha={a} c={c:.0f}s R={rc:.0f}s"
            for name, mt, a, c, rc in configs
        ],
    )
