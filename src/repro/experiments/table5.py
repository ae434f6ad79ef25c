"""Table 5 / Figure 10 — failure-free execution time vs redundancy.

The paper's separate experiment supporting observation (4): run the
application with *no* failures and *no* checkpointing at every degree
and compare against the Eq. 1 linear expectation
``t_Red = (1 - alpha) t + alpha t r`` with alpha = 0.2.  Their
observed times rise **super-linearly**, with the largest jump at the
very first step (1x → 1.25x): turning partial redundancy on at all
puts a replicated sphere on the critical path of every collective, so
the whole job immediately pays most of the next level's communication
amplification.  Our simulator reproduces that mechanism natively.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..errors import ConfigurationError
from ..models.redundancy import PAPER_REDUNDANCY_GRID, redundant_time
from ..orchestration import CampaignExecutor
from ..orchestration.campaign import failure_free_sweep_configs, run_cells
from .runner import ExperimentResult, setup_or_default
from .table4 import ScaledSetup

#: Paper Table 5 [minutes]: observed and expected-linear rows.
PAPER_OBSERVED = (46, 55, 59, 61, 63, 70, 76, 78, 82)
PAPER_EXPECTED = (46, 48, 51, 53, 55, 58, 60, 62, 64)


def run(
    setup: Optional[ScaledSetup] = None,
    degrees: Sequence[float] = PAPER_REDUNDANCY_GRID,
    alpha: float = 0.2,
    progress=None,
    executor: Optional[CampaignExecutor] = None,
) -> ExperimentResult:
    """Run the failure-free sweep and compare to the linear expectation.

    ``degrees`` needs 1.0 (the baseline every step is measured against)
    and at least one other degree; anything else is rejected before a
    cell runs.  The cells run on ``executor`` (default: serial);
    results equal the serial sweep's.
    """
    if 1.0 not in degrees or len(set(degrees)) < 2:
        raise ConfigurationError(
            "table5 needs degree 1.0 and at least one other degree, "
            f"got {tuple(degrees)}"
        )
    setup = setup_or_default("table5", setup, ScaledSetup)
    configs = failure_free_sweep_configs(setup.job_config(), list(degrees))
    cells = run_cells(configs, executor, progress)
    observed = {cell.redundancy: cell.report.total_time for cell in cells}
    base_time = observed[1.0]
    observed_minutes = [
        setup.sim_to_paper_minutes(observed[degree]) for degree in degrees
    ]
    expected_minutes = [
        setup.sim_to_paper_minutes(redundant_time(base_time, alpha, degree))
        for degree in degrees
    ]
    rows = [
        ["observed"] + [round(x, 1) for x in observed_minutes],
        ["expected linear"] + [round(x, 1) for x in expected_minutes],
    ]
    ordered = list(degrees)
    first_step_jump = (observed[ordered[1]] - observed[ordered[0]]) / observed[
        ordered[0]
    ]
    last_step_jump = (observed[ordered[-1]] - observed[ordered[-2]]) / observed[
        ordered[0]
    ]
    super_linear_somewhere = any(
        obs > exp * 1.001 for obs, exp in zip(observed_minutes, expected_minutes)
    )
    return ExperimentResult(
        experiment="table5",
        title="Table 5 / Fig. 10: failure-free execution time vs redundancy "
        "[paper-minutes equivalent]",
        headers=["series"] + [f"{d}x" for d in degrees],
        rows=rows,
        findings={
            "first_step_relative_jump": round(first_step_jump, 4),
            "last_step_relative_jump": round(last_step_jump, 4),
            "first_step_is_largest": first_step_jump >= last_step_jump,
            "observed_super_linear_somewhere": super_linear_somewhere,
            "paper_observed_minutes": list(PAPER_OBSERVED),
            "paper_expected_minutes": list(PAPER_EXPECTED),
        },
        notes=[
            "no failures, no checkpointing; pure redundancy overhead",
            "expected-linear row is Eq. 1 at alpha=0.2, as in the paper",
            "the 1x->1.25x jump exceeds later steps because one replicated "
            "sphere already gates every collective (critical-path effect)",
        ],
    )
