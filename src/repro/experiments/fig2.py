"""Figure 2 — effect of the redundancy degree on system reliability.

Plots (as numeric series) ``R_sys(r)`` from Eq. 9 for the paper's
parameter families: node MTBF 2.5 vs 5 years, and two communication
ratios ``alpha``.  The expected features, which the benchmark asserts:

* reliability rises steeply with r and is monotone non-decreasing at
  the integer degrees;
* with the worse node MTBF (2.5 y) a given reliability target needs a
  higher degree ("node reliability alone demands triple redundancy");
* a larger alpha stretches t_Red and thus *lowers* the curve, leaving
  more room where partial redundancy pays.
"""

from __future__ import annotations

from .. import units
from ..models import redundant_time, system_reliability
from .runner import ExperimentResult, check_rows

#: (label, node MTBF years, alpha) — the dashed/solid families of Fig. 2.
DEFAULT_CONFIGS = (
    ("theta=5y, alpha=0.2", 5.0, 0.2),
    ("theta=2.5y, alpha=0.2", 2.5, 0.2),
    ("theta=5y, alpha=0.75", 5.0, 0.75),
    ("theta=2.5y, alpha=0.75", 2.5, 0.75),
)


def reliability_curve(
    virtual_processes: int,
    base_time: float,
    node_mtbf: float,
    alpha: float,
    degrees,
):
    """``R_sys`` at each degree, with the Eq. 1 exposure time."""
    values = []
    for degree in degrees:
        exposure = redundant_time(base_time, alpha, degree)
        values.append(
            system_reliability(virtual_processes, degree, exposure, node_mtbf)
        )
    return values


def run(
    virtual_processes: int = 100_000,
    base_time_hours: float = 128.0,
    configs=DEFAULT_CONFIGS,
    degree_step: float = 0.125,
) -> ExperimentResult:
    """Regenerate the reliability-vs-degree series.

    ``configs`` needs two rows at least: the second is compared with
    the first (a worse MTBF in the defaults).
    """
    check_rows("fig2", "configs", configs, DEFAULT_CONFIGS[0], minimum=2)
    degrees = [1.0 + degree_step * i for i in range(int(round(2.0 / degree_step)) + 1)]
    base_time = units.hours(base_time_hours)
    columns = {}
    for label, mtbf_years, alpha in configs:
        columns[label] = reliability_curve(
            virtual_processes, base_time, units.years(mtbf_years), alpha, degrees
        )
    rows = [
        [round(degree, 3)] + [columns[label][i] for label, *_ in configs]
        for i, degree in enumerate(degrees)
    ]
    # Acceptance checks.
    integer_indices = [i for i, d in enumerate(degrees) if abs(d - round(d)) < 1e-9]
    monotone_at_integers = all(
        all(
            columns[label][a] <= columns[label][b] + 1e-12
            for a, b in zip(integer_indices, integer_indices[1:])
        )
        for label, *_ in configs
    )
    worse_mtbf_lower = all(
        columns[configs[1][0]][i] <= columns[configs[0][0]][i] + 1e-12
        for i in range(len(degrees))
    )
    return ExperimentResult(
        experiment="fig2",
        title=(
            f"Fig. 2: system reliability vs redundancy "
            f"(N={virtual_processes:,}, t={base_time_hours:.0f} h)"
        ),
        headers=["r"] + [label for label, *_ in configs],
        rows=rows,
        findings={
            "monotone_at_integer_degrees": monotone_at_integers,
            "lower_mtbf_needs_more_redundancy": worse_mtbf_lower,
            "r2_reliability_theta5": columns[configs[0][0]][integer_indices[1]],
        },
        notes=[
            "R_sys from Eq. 9 with the linearised node-failure probability",
            "exposure time per degree is t_Red from Eq. 1",
        ],
    )
