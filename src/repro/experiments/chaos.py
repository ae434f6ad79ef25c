"""Chaos sweep — completion time vs injected storage-fault probability.

Not a paper artifact: a robustness experiment over the chaos-hardened
checkpoint/restart pipeline.  Small seeded jobs run under an injected
Poisson failure process *and* a :class:`~repro.faults.StorageFaultConfig`
whose probabilities are swept, in two modes:

* ``write-fail`` — every per-rank checkpoint write fails with
  probability ``p``; the service retries with exponential backoff and
  skips the interval when a rank exhausts its retries;
* ``corrupt`` — every stored blob is silently bit-flipped with
  probability ``p``; restore detects the CRC mismatch and falls back
  line by line across the retained recovery sets.

Each measured point is compared against the analytic model (Eq. 14)
evaluated with chaos-adjusted parameters:

* write failures stretch the *effective* checkpoint interval: a set is
  skipped when any of the ``N`` ranks exhausts its ``m`` retries, so
  ``q = 1 - (1 - p^(m+1))^N`` and ``delta_eff = delta / (1 - q)`` (a
  skipped interval still pays the checkpoint cost, which the same
  stretch captures to first order);
* corruption stretches the *effective* restart cost: a retained line is
  unusable when any rank's blob is damaged, ``P_line = 1 - (1-p)^N``;
  each extra fallback line costs about one more interval of rework, the
  series truncates at the ``K`` retained lines, and falling off the end
  cold-starts (about half the base time redone on average):
  ``R_eff = R + delta * sum_{k=1..K-1} P_line^k
  + P_line^K * t_base / 2``.

The ``p = 0`` row doubles as the strict no-op check: with every
probability zero the chaos layer must not perturb the simulation at
all, so its completion time is the baseline the sweep is normalised
against.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Optional, Sequence

from ..checkpoint.service import WRITE_RETRIES
from ..checkpoint.storage import RECOVERY_LINES
from ..errors import ModelDivergence, ReproError
from ..faults import StorageFaultConfig
from ..models.checkpointing import total_time
from ..orchestration import CampaignExecutionError, CampaignExecutor, JobConfig
from ..util.plot import ascii_plot
from ..workloads import SyntheticWorkload
from .runner import ExperimentResult, setup_or_default

#: Fault probabilities swept in each mode (0 = baseline / no-op check).
DEFAULT_PROBS = (0.0, 0.02, 0.05, 0.1, 0.2, 0.3)
QUICK_PROBS = (0.0, 0.1, 0.3)


@dataclass(frozen=True)
class ChaosSetup:
    """A small, failure-prone job the fault sweep perturbs.

    Sized so one cell simulates in well under a second while still
    seeing several injected node failures (and therefore several
    restarts, which is what exercises the recovery-line fallback).
    """

    virtual_processes: int = 8
    steps: int = 60
    compute_seconds: float = 0.02
    message_bytes: int = 32 * 1024
    #: Per-node MTBF [s]; at r=1 the system rate is N/theta_node.
    node_mtbf: float = 4.0
    checkpoint_cost: float = 0.05
    restart_cost: float = 0.05
    expected_base_time: float = 1.6
    alpha_estimate: float = 0.2
    seed: int = 20120612

    def job_config(self) -> JobConfig:
        """The fault-free base config (the sweep adds ``storage_faults``).

        The workload factory is a picklable ``functools.partial`` so
        cells can fan out over worker processes.
        """
        factory = partial(
            SyntheticWorkload,
            total_steps=self.steps,
            compute_seconds=self.compute_seconds,
            message_bytes=self.message_bytes,
        )
        return JobConfig(
            workload_factory=factory,
            virtual_processes=self.virtual_processes,
            redundancy=1.0,
            node_mtbf=self.node_mtbf,
            seed=self.seed,
            checkpoint_cost=self.checkpoint_cost,
            restart_cost=self.restart_cost,
            expected_base_time=self.expected_base_time,
            alpha_estimate=self.alpha_estimate,
        )

    @property
    def failure_rate(self) -> float:
        """System failure rate at r=1 (any of N nodes down = restart)."""
        return self.virtual_processes / self.node_mtbf


def _fault_config(mode: str, prob: float) -> StorageFaultConfig:
    if mode == "write-fail":
        return StorageFaultConfig(write_fail_prob=prob)
    if mode == "corrupt":
        return StorageFaultConfig(corrupt_prob=prob)
    raise ReproError(f"unknown chaos mode {mode!r}")


def _predict(setup: ChaosSetup, delta: float, mode: str, prob: float) -> float:
    """Eq. 14 with chaos-adjusted delta / restart cost (see module doc).

    Returns ``inf`` when the adjusted model diverges (``lambda * t_RR
    >= 1``) — the simulator escapes that regime by cold-starting, the
    steady-state model cannot.
    """
    n = setup.virtual_processes
    delta_eff = delta
    restart_eff = setup.restart_cost
    if mode == "write-fail" and prob > 0.0:
        rank_exhausts = prob ** (WRITE_RETRIES + 1)
        set_skipped = 1.0 - (1.0 - rank_exhausts) ** n
        if set_skipped >= 1.0:
            return float("inf")
        delta_eff = delta / (1.0 - set_skipped)
    elif mode == "corrupt" and prob > 0.0:
        line_bad = 1.0 - (1.0 - prob) ** n
        fallback_rework = sum(line_bad ** k for k in range(1, RECOVERY_LINES))
        cold_start = line_bad ** RECOVERY_LINES
        restart_eff = (
            setup.restart_cost
            + delta * fallback_rework
            + cold_start * setup.expected_base_time / 2.0
        )
    try:
        return total_time(
            base_time=setup.expected_base_time,
            delta=delta_eff,
            checkpoint_cost=setup.checkpoint_cost,
            failure_rate=setup.failure_rate,
            restart_cost=restart_eff,
        )
    except ModelDivergence:
        return float("inf")


def run(
    setup: Optional[ChaosSetup] = None,
    probs: Optional[Sequence[float]] = None,
    quick: bool = False,
    progress=None,
    executor: Optional[CampaignExecutor] = None,
) -> ExperimentResult:
    """Sweep T_total vs storage-fault probability in both chaos modes.

    ``quick=True`` shrinks the default probability grid; an explicit
    ``probs`` wins over it.  ``progress`` receives each cell's
    :class:`~repro.orchestration.CellOutcome`, failed cells included.
    The cells run on ``executor`` (default: serial), the self-healing
    :class:`~repro.orchestration.CampaignExecutor`, which charges a
    crash or timeout only to the cell it hit.
    """
    setup = setup_or_default("chaos", setup, ChaosSetup)
    if probs is None:
        probs = QUICK_PROBS if quick else DEFAULT_PROBS
    probs = sorted(set(float(p) for p in probs))
    if any(p < 0.0 or p > 1.0 for p in probs):
        raise ReproError(f"probabilities must be in [0, 1], got {probs}")
    base = setup.job_config()

    # One cell per (mode, p) point with common random numbers: the seed
    # (and hence the injected node-failure timeline) is shared across
    # every point, so differences are purely the storage faults.  The
    # p=0 baseline is run once and shared by both modes.
    points = [("baseline", 0.0)]
    points += [("write-fail", p) for p in probs if p > 0.0]
    points += [("corrupt", p) for p in probs if p > 0.0]
    configs = [
        replace(
            base,
            storage_faults=_fault_config(mode, prob) if prob > 0.0 else None,
            # Chaos cells share seed/degree/MTBF, so the job's automatic
            # trace label would collide; name cells by (mode, p) instead.
            trace_label=f"{mode}-p{prob:g}",
        )
        for mode, prob in points
    ]

    executor = executor or CampaignExecutor()
    outcomes = executor.run(configs, progress=progress)
    failures = [o for o in outcomes if not o.ok]
    if failures:
        raise CampaignExecutionError(failures)

    reports = dict(zip(points, (o.report for o in outcomes)))
    baseline = reports[("baseline", 0.0)]
    delta = baseline.checkpoint_interval or setup.checkpoint_cost

    rows = []
    curves = {}
    max_depth_seen = 0
    for (mode, prob), report in reports.items():
        row_modes = ("write-fail", "corrupt") if mode == "baseline" else (mode,)
        for row_mode in row_modes:
            predicted = _predict(setup, delta, row_mode, prob)
            predicted_text = (
                "diverges" if predicted == float("inf") else round(predicted, 3)
            )
            rows.append(
                [
                    row_mode,
                    prob,
                    round(report.total_time, 3),
                    predicted_text,
                    round(report.total_time / baseline.total_time, 2),
                    report.checkpoints_skipped,
                    report.checkpoint_retries,
                    report.max_rollback_depth,
                    report.recovery_lines_skipped,
                    report.cold_starts,
                ]
            )
            xs, ys = curves.setdefault(row_mode, ([], []))
            xs.append(prob)
            ys.append(report.total_time)
        max_depth_seen = max(max_depth_seen, report.max_rollback_depth)
    rows.sort(key=lambda row: (row[0], row[1]))

    plot = ascii_plot(
        {mode: curve for mode, curve in sorted(curves.items())},
        title="Chaos sweep: T_total [s] vs storage-fault probability",
    )
    noop_ok = reports[("baseline", 0.0)].storage_fault_counts == {}
    return ExperimentResult(
        experiment="chaos",
        title="Chaos sweep: completion time under injected storage faults",
        headers=[
            "mode",
            "p",
            "T_total [s]",
            "predicted [s]",
            "slowdown",
            "ckpt skipped",
            "retries",
            "max depth",
            "lines skipped",
            "cold starts",
        ],
        rows=rows,
        plot=plot,
        findings={
            "baseline_total_time_s": round(baseline.total_time, 3),
            "checkpoint_interval_s": round(delta, 4),
            "max_rollback_depth_observed": max_depth_seen,
            "fault_free_is_noop": noop_ok,
            "executor_mode": executor.last_mode,
        },
        notes=[
            f"setup: N={setup.virtual_processes}, {setup.steps} steps, "
            f"node MTBF {setup.node_mtbf}s, c={setup.checkpoint_cost}s, "
            f"R={setup.restart_cost}s, keep {RECOVERY_LINES} "
            f"recovery lines, {WRITE_RETRIES} write retries",
            "prediction: Eq. 14 with delta/(1-q) for skipped sets and the "
            "depth-truncated fallback + cold-start stretch of R for "
            "corruption (first-order; single stochastic runs, expect noise; "
            "'diverges' marks lambda*t_RR >= 1, which the simulator escapes "
            "by cold-starting)",
            "the p=0 row is the strict no-op check: the chaos layer adds "
            "zero RNG draws and zero timeline events when disabled",
        ],
    )
