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

import numpy as np

from .. import units
from ..errors import ModelDivergence
from ..models import find_crossover, throughput_break_even
from ..models.grid import evaluate_grid
from ..util.plot import ascii_plot
from .fig13 import DEFAULT_DEGREES, base_model
from .runner import ExperimentResult


def run(
    max_processes: int = 200_000,
    samples: int = 18,
    degrees=DEFAULT_DEGREES,
    **model_params,
) -> ExperimentResult:
    """Regenerate the extended sweep and the break-even findings."""
    model = base_model(**model_params)
    counts = sorted(
        set(
            max(2, int(round(max_processes ** (i / (samples - 1)))))
            for i in range(samples)
        )
    )
    # One vectorized (degree x count) evaluation; inf marks divergence.
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
