"""Post-mortem of a trace file: the per-phase time-breakdown table.

``repro-exp report <trace>`` loads a JSONL trace file and, for every
job in it, folds the phase spans into the same categories as the
model's Tables 2-3 shares on :class:`~repro.models.grid.ModelGrid`
(Eq. 14's predicted breakdown): work, checkpoint, restart — so a
simulated run and the analytic prediction can be compared side by side.  (Observed
"work" includes recomputed steps; the model splits those out as its
``recompute`` share.)

The spans carry an exactness contract the report *verifies* rather
than assumes: a job's clock only advances inside its ``attempt`` and
``restart`` spans, and checkpointing happens inside attempts, so

* ``sum(attempt) + sum(restart)`` must equal the job's reported
  ``total_time``, and
* ``sum(checkpoint)`` must equal the reported checkpoint union time.

Any job whose spans disagree with its own summary record beyond the
tolerance (default 1%) marks the report failed — a torn trace (records
lost or cut short, a trace file edited by hand) is detected instead of
silently mis-summing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..util.tables import render_table
from .trace import read_trace

__all__ = [
    "JobPhases",
    "TraceReport",
    "build_report",
    "render_report",
    "report_from_file",
]

#: Default reconciliation tolerance (relative).
DEFAULT_TOLERANCE = 0.01

#: The parent tracer's pseudo-job label (executor-side records).
PARENT_JOB = "__parent__"


def _span_seconds(record: Dict[str, Any]) -> float:
    t0, t1 = record.get("t0"), record.get("t1")
    if isinstance(t0, (int, float)) and isinstance(t1, (int, float)):
        return float(t1) - float(t0)
    return 0.0


@dataclass
class JobPhases:
    """Per-phase sim-time totals of one job, plus its own summary."""

    job: str
    attempts: float = 0.0
    checkpoint: float = 0.0
    restart: float = 0.0
    attempt_count: int = 0
    failures: int = 0
    #: From the job's summary record (None when the trace has no summary).
    reported_total: Optional[float] = None
    reported_checkpoint: Optional[float] = None
    completed: Optional[bool] = None

    @property
    def total(self) -> float:
        """Span-derived total: attempts plus restart windows."""
        return self.attempts + self.restart

    @property
    def work(self) -> float:
        """Attempt time minus the checkpoint union (includes rework)."""
        return self.attempts - self.checkpoint

    def discrepancy(self) -> float:
        """Worst relative disagreement between spans and the summary."""
        if self.reported_total is None:
            return 0.0
        scale = max(abs(self.reported_total), 1e-12)
        worst = abs(self.total - self.reported_total) / scale
        if self.reported_checkpoint is not None:
            worst = max(
                worst, abs(self.checkpoint - self.reported_checkpoint) / scale
            )
        return worst

    def fractions(self) -> Tuple[float, float, float]:
        """(work, checkpoint, restart) shares of the total."""
        total = self.total
        if total <= 0.0:
            return (0.0, 0.0, 0.0)
        return (self.work / total, self.checkpoint / total, self.restart / total)


@dataclass
class TraceReport:
    """Everything ``repro-exp report`` derives from one trace file."""

    jobs: List[JobPhases]
    tolerance: float = DEFAULT_TOLERANCE
    #: Campaign manifest record, when the trace head carries one.
    manifest: Optional[Dict[str, Any]] = None
    #: Executor-side (parent) counts: cells, timeouts, crashes.
    parent_events: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when every job reconciles within the tolerance."""
        return all(job.discrepancy() <= self.tolerance for job in self.jobs)

    @property
    def failed_jobs(self) -> List[JobPhases]:
        return [job for job in self.jobs if job.discrepancy() > self.tolerance]


def build_report(
    records: Iterable[Dict[str, Any]],
    tolerance: float = DEFAULT_TOLERANCE,
) -> TraceReport:
    """Fold trace records into per-job phase totals."""
    jobs: Dict[str, JobPhases] = {}
    manifest: Optional[Dict[str, Any]] = None
    parent_events: Dict[str, int] = {}

    def phases_of(label: str) -> JobPhases:
        phases = jobs.get(label)
        if phases is None:
            phases = jobs[label] = JobPhases(job=label)
        return phases

    for record in records:
        label = record.get("job", "")
        kind = record.get("type")
        if label == PARENT_JOB:
            name = record.get("name", kind or "?")
            parent_events[name] = parent_events.get(name, 0) + 1
            continue
        if kind == "manifest" and record.get("kind") == "campaign":
            manifest = record
            continue
        if not label:
            continue
        phases = phases_of(label)
        if kind == "span":
            name = record.get("name")
            seconds = _span_seconds(record)
            if name == "attempt":
                phases.attempts += seconds
                phases.attempt_count += 1
            elif name == "checkpoint":
                phases.checkpoint += seconds
            elif name == "restart":
                phases.restart += seconds
        elif kind == "event":
            if record.get("name") == "failure":
                phases.failures += 1
        elif kind == "summary":
            total = record.get("total_time")
            if isinstance(total, (int, float)):
                phases.reported_total = float(total)
            union = record.get("checkpoint_union_time")
            if isinstance(union, (int, float)):
                phases.reported_checkpoint = float(union)
            completed = record.get("completed")
            if isinstance(completed, bool):
                phases.completed = completed

    ordered = sorted(jobs.values(), key=lambda phases: phases.job)
    return TraceReport(
        jobs=ordered,
        tolerance=tolerance,
        manifest=manifest,
        parent_events=parent_events,
    )


def render_report(report: TraceReport) -> str:
    """The printable per-phase breakdown table plus the verdict."""
    rows: List[List[Any]] = []
    totals = JobPhases(job="TOTAL")
    for job in report.jobs:
        work_f, ckpt_f, restart_f = job.fractions()
        status = "ok" if job.discrepancy() <= report.tolerance else "MISMATCH"
        rows.append(
            [
                job.job,
                round(job.total, 4),
                round(job.work, 4),
                round(job.checkpoint, 4),
                round(job.restart, 4),
                f"{work_f:.3f}",
                f"{ckpt_f:.3f}",
                f"{restart_f:.3f}",
                job.attempt_count,
                job.failures,
                status,
            ]
        )
        totals.attempts += job.attempts
        totals.checkpoint += job.checkpoint
        totals.restart += job.restart
        totals.attempt_count += job.attempt_count
        totals.failures += job.failures
    if len(report.jobs) > 1:
        work_f, ckpt_f, restart_f = totals.fractions()
        rows.append(
            [
                totals.job,
                round(totals.total, 4),
                round(totals.work, 4),
                round(totals.checkpoint, 4),
                round(totals.restart, 4),
                f"{work_f:.3f}",
                f"{ckpt_f:.3f}",
                f"{restart_f:.3f}",
                totals.attempt_count,
                totals.failures,
                "",
            ]
        )
    table = render_table(
        [
            "job",
            "total [s]",
            "work [s]",
            "ckpt [s]",
            "restart [s]",
            "work%",
            "ckpt%",
            "restart%",
            "attempts",
            "failures",
            "spans",
        ],
        rows,
        title="Per-phase time breakdown (sim seconds; cf. Eq. 14 / Tables 2-3)",
    )
    lines = [table]
    if report.manifest is not None:
        label = report.manifest.get("label", "?")
        versions = report.manifest.get("versions", {})
        lines.append("")
        lines.append(
            f"  campaign: {label} "
            f"(repro {versions.get('repro', '?')}, "
            f"numpy {versions.get('numpy', '?')})"
        )
    if report.parent_events:
        pairs = ", ".join(
            f"{name}={count}" for name, count in sorted(report.parent_events.items())
        )
        lines.append(f"  executor: {pairs}")
    lines.append("")
    if report.ok:
        lines.append(
            f"  reconciliation: all {len(report.jobs)} job(s) within "
            f"{report.tolerance:.1%} of their summary records"
        )
    else:
        bad = report.failed_jobs
        worst = max(job.discrepancy() for job in bad)
        lines.append(
            f"  reconciliation FAILED: {len(bad)} job(s) off by up to "
            f"{worst:.2%} (tolerance {report.tolerance:.1%}) — the trace "
            "is torn or incomplete"
        )
    return "\n".join(lines)


def report_from_file(
    path: str, tolerance: float = DEFAULT_TOLERANCE
) -> TraceReport:
    """Load a trace file and build its report."""
    return build_report(read_trace(path), tolerance=tolerance)
