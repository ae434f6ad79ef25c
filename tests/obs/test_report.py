"""Tests for the trace report: phase folding and reconciliation."""

from repro.obs import (
    ObsSession,
    Tracer,
    build_report,
    read_trace,
    render_report,
    to_jsonl,
)


def job_records(label, attempts, restarts, checkpoints, failures=0):
    """Synthesize a consistent job trace: spans tile the clock."""
    records = []
    now = 0.0
    total_checkpoint = 0.0
    for index, (duration, ckpt) in enumerate(zip(attempts, checkpoints)):
        records.append({
            "job": label, "type": "span", "name": "attempt",
            "t0": now, "t1": now + duration, "wall0": now, "wall1": now,
            "attempt": index + 1,
        })
        records.append({
            "job": label, "type": "span", "name": "checkpoint",
            "t0": now, "t1": now + ckpt, "wall0": now, "wall1": now,
        })
        total_checkpoint += ckpt
        now += duration
        if index < len(restarts):
            records.append({
                "job": label, "type": "span", "name": "restart",
                "t0": now, "t1": now + restarts[index],
                "wall0": now, "wall1": now,
            })
            now += restarts[index]
    for _ in range(failures):
        records.append({
            "job": label, "type": "event", "name": "failure", "t": 1.0,
            "wall": 1.0,
        })
    records.append({
        "job": label, "type": "summary", "total_time": now,
        "checkpoint_union_time": total_checkpoint, "completed": True,
        "wall": now,
    })
    return records


class TestBuildReport:
    def test_phase_totals_and_reconciliation(self):
        records = job_records(
            "r1", attempts=[4.0, 6.0], restarts=[1.0],
            checkpoints=[0.5, 0.5], failures=2,
        )
        report = build_report(records)
        (job,) = report.jobs
        assert job.attempts == 10.0
        assert job.restart == 1.0
        assert job.checkpoint == 1.0
        assert job.total == 11.0
        assert job.work == 9.0
        assert job.attempt_count == 2
        assert job.failures == 2
        assert job.completed is True
        assert job.discrepancy() == 0.0
        assert report.ok

    def test_fractions_sum_to_one(self):
        report = build_report(
            job_records("r1", [4.0, 6.0], [1.0], [0.5, 0.5])
        )
        work, ckpt, restart = report.jobs[0].fractions()
        assert abs(work + ckpt + restart - 1.0) < 1e-12

    def test_torn_trace_is_detected(self):
        records = job_records("r1", [4.0, 6.0], [1.0], [0.5, 0.5])
        torn = [
            r for r in records
            if not (r.get("type") == "span" and r.get("name") == "restart")
        ]
        report = build_report(torn)
        assert not report.ok
        assert report.failed_jobs[0].job == "r1"
        assert "FAILED" in render_report(report)
        assert "torn" in render_report(report)

    def test_tolerance_is_respected(self):
        records = job_records("r1", [4.0, 6.0], [1.0], [0.5, 0.5])
        records[-1]["total_time"] = 11.05  # 0.45% off
        assert build_report(records, tolerance=0.01).ok
        assert not build_report(records, tolerance=0.001).ok

    def test_multiple_jobs_sorted_and_totalled(self):
        records = job_records("b", [2.0], [], [0.0]) + job_records(
            "a", [3.0], [], [0.0]
        )
        report = build_report(records)
        assert [job.job for job in report.jobs] == ["a", "b"]
        text = render_report(report)
        assert "TOTAL" in text

    def test_parent_records_become_executor_counts(self):
        records = [
            {"job": "__parent__", "type": "span", "name": "campaign",
             "wall0": 0.0, "wall1": 1.0},
            {"job": "__parent__", "type": "event", "name": "cell_timeout",
             "wall": 0.5},
        ]
        report = build_report(records)
        assert report.parent_events == {"campaign": 1, "cell_timeout": 1}
        assert report.jobs == []
        assert "executor: campaign=1, cell_timeout=1" in render_report(report)

    def test_campaign_manifest_is_surfaced(self):
        records = [{
            "type": "manifest", "kind": "campaign", "label": "table4",
            "versions": {"repro": "1.0.0", "numpy": "2.0.0"}, "job": "",
        }]
        report = build_report(records)
        assert report.manifest is not None
        assert "campaign: table4" in render_report(report)

    def test_open_spans_contribute_nothing(self):
        records = [{
            "job": "r1", "type": "span", "name": "attempt",
            "t0": 0.0, "t1": None, "wall0": 0.0, "wall1": None,
        }]
        job = build_report(records).jobs[0]
        assert job.attempts == 0.0
        assert job.attempt_count == 1


class TestObsSession:
    def test_disabled_session_is_inert(self):
        session = ObsSession()
        assert not session.enabled
        assert session.tracer.enabled is False
        assert session.trace_path is None
        assert session.stamp("table4") is None
        assert session.finalize(cells=0) == 0

    def test_metrics_only_session(self):
        session = ObsSession(metrics=True)
        assert session.enabled
        assert session.trace_path is None
        assert session.metrics is not None
        assert session.finalize(cells=1) == 0

    def test_traced_session_writes_manifest_head(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        session = ObsSession(trace_path=path)
        assert session.enabled and session.trace_path == path
        session.stamp("table4", params={"quick": True}, base_seed=1)
        session.tracer.event("cell_timeout")
        count = session.finalize(cells=15)
        assert count == 2
        records = read_trace(path)
        assert records[0]["type"] == "manifest"
        assert records[0]["outcome"] == {"cells": 15}
        assert records[1]["name"] == "cell_timeout"

    def test_finalize_merges_parent_and_cell_records(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        session = ObsSession(trace_path=path)
        session.tracer.event("worker_crash")
        cell = Tracer(common={"job": "r1-seed7"})
        cell.event("failure", sim_time=1.0)
        session.add_records(to_jsonl(cell.records))
        session.stamp("table4")
        count = session.finalize()
        assert count == 3
        records = read_trace(path)
        assert records[0]["kind"] == "campaign"
        assert [record["job"] for record in records[1:]] == ["__parent__", "r1-seed7"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.jsonl"]
