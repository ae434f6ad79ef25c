"""Figure 14 — weak scaling to 200k processes: the throughput argument.

Extends Fig. 13's sweep and extracts the paper's headline economics:

* pure C/R (1x) blows up past ~80,000 processes ("exponential
  increases in execution time");
* at the *throughput break-even* point (paper: 78,536 processes) a
  dual-redundant job is at least 2x faster than the plain job — so two
  back-to-back 2x jobs finish within one 1x job's wallclock, and the
  doubled node count pays for itself in capacity computing;
* beyond a very large count (paper: 771,251) triple redundancy has the
  lowest cost of all degrees.
"""

from __future__ import annotations

from .. import units
from ..errors import ModelDivergence
from ..models import find_crossover, throughput_break_even
from .fig13 import DEFAULT_DEGREES, base_model, weak_scaling
from .runner import ExperimentResult


def run(
    max_processes: int = 200_000,
    samples: int = 18,
    degrees=DEFAULT_DEGREES,
    base_time_hours: float = 128.0,
    node_mtbf_years: float = 5.0,
    alpha: float = 0.2,
    checkpoint_cost: float = units.minutes(8),
    restart_cost: float = units.minutes(12),
) -> ExperimentResult:
    """Regenerate the extended sweep and the break-even findings."""
    model = base_model(
        base_time_hours, node_mtbf_years, alpha, checkpoint_cost, restart_cost
    )
    counts, columns, rows, plot = weak_scaling(model, max_processes, samples, degrees)
    findings = {}
    try:
        break_even = throughput_break_even(model, redundancy=2.0, jobs=2)
        findings["two_2x_jobs_fit_in_one_1x_job_at"] = break_even.processes
    except ModelDivergence:
        findings["two_2x_jobs_fit_in_one_1x_job_at"] = None
    try:
        cross23 = find_crossover(model, 2.0, 3.0, max_processes=5_000_000)
        findings["3x_beats_2x_beyond"] = cross23.processes
    except ModelDivergence:
        findings["3x_beats_2x_beyond"] = None
    # Where does 1x effectively blow up (first sampled count with
    # T > 4x the failure-free time, or divergence)?
    failure_free = units.to_hours(model.base_time)
    blowup = None
    for i, count in enumerate(counts):
        if columns[1.0][i] > 4.0 * failure_free:
            blowup = count
            break
    findings["1x_blowup_processes"] = blowup
    findings["paper_reference_points"] = {
        "throughput_break_even": 78_536,
        "3x_cheapest_beyond": 771_251,
        "1x_exponential_after": 80_000,
    }
    return ExperimentResult(
        experiment="fig14",
        title="Fig. 14: modeled wallclock [h] of a 128 h job, to 200k processes",
        headers=["processes"] + [f"{d}x" for d in degrees],
        rows=rows,
        plot=plot,
        findings=findings,
        notes=[
            "inf = Eq. 14 diverged (lambda t_RR >= 1): the job never finishes",
            "break-even: smallest N with 2*T(2x) <= T(1x)",
        ],
    )
