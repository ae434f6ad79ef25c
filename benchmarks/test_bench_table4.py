"""Bench: regenerate Table 4 / Figures 8-9 — the simulation campaign.

This is the repository's flagship benchmark: the full (MTBF x degree)
grid of fault-injected, checkpointed, redundant simulation runs, with
execution times reported in paper-minute equivalents next to the
paper's own Table 4 values.

The full 5x9 grid takes a few minutes of wallclock; set
``REPRO_BENCH_QUICK=1`` to run the 3x5 sub-grid instead.
"""

import os

from repro.experiments import run_experiment
from repro.experiments.table4 import PAPER_MTBF_HOURS

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
MTBFS = (6.0, 18.0, 30.0) if QUICK else PAPER_MTBF_HOURS
DEGREES = (1.0, 1.5, 2.0, 2.5, 3.0) if QUICK else None


def test_bench_table4(once):
    kwargs = {"mtbf_hours": MTBFS}
    if DEGREES is not None:
        kwargs["degrees"] = DEGREES
    result = once(run_experiment, "table4", kwargs)
    print("\n" + result.render())
    minima = result.findings["argmin_degree_per_mtbf"]

    # Observation (1): low MTBF favours high redundancy degrees.
    assert minima["6h"] >= 2.0
    # Observation (2): high MTBF rows are best at (or near) 2x; extra
    # redundancy buys nothing once failures are rare.
    assert 2.0 <= minima["30h"] <= 3.0

    # 1x is never the winner anywhere on this grid (Fig. 8's gap).
    assert all(best > 1.0 for best in minima.values())

    # Row-wise: 1x is (close to) the worst choice at the lowest MTBF.
    first_row = [float(cell) for cell in result.rows[0][1:]]
    assert first_row[0] >= max(first_row) * 0.8
