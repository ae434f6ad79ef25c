"""End-to-end observability: tracing must observe, never perturb.

Two contracts from the issue's acceptance criteria:

* with tracing **disabled** the simulation is bit-identical — same
  reports field for field — to a traced run of the same config (the
  tracer only reads ``env.now``, it never advances the clock);
* with tracing **enabled** across a multi-process campaign, the one
  JSONL trace reconciles: every job's span sums agree with its own
  summary record within the report's 1% tolerance (exactly, in fact —
  the job clock only advances inside attempt/restart spans).
"""

import dataclasses
from functools import partial

from repro.cli import main
from repro.obs import (
    ObsSession,
    Tracer,
    build_report,
    read_trace,
    report_from_file,
    to_jsonl,
)
from repro.obs.report import PARENT_JOB
from repro.orchestration import JobConfig, ResilientJob, run_redundancy_sweep
from repro.workloads import SyntheticWorkload


def faulty_config(**overrides):
    """A small failure-prone job; picklable for pool fan-out."""
    params = dict(
        workload_factory=partial(
            SyntheticWorkload,
            total_steps=40,
            compute_seconds=0.02,
            message_bytes=2048,
        ),
        virtual_processes=4,
        node_mtbf=2.0,
        checkpoint_interval=0.3,
        checkpoint_cost=0.03,
        restart_cost=0.15,
        seed=11,
    )
    params.update(overrides)
    return JobConfig(**params)


def write_lone_job_trace(path):
    """Trace one job outside any campaign and write it to ``path``."""
    obs = ObsSession(trace_path=path)
    tracer = Tracer(common={"job": "lone"})
    ResilientJob(faulty_config(), tracer=tracer).run()
    obs.add_records(to_jsonl(tracer.records))
    obs.finalize(cells=1)


class TestTracingNeverPerturbs:
    def test_traced_job_bit_identical_to_untraced(self):
        untraced = ResilientJob(faulty_config()).run()
        tracer = Tracer(common={"job": "lone"})
        traced = ResilientJob(faulty_config(), tracer=tracer).run()
        assert untraced.failures_injected > 0  # the run actually rolls back
        assert len(tracer) > 0
        assert dataclasses.asdict(traced) == dataclasses.asdict(untraced)

    def test_traced_sweep_bit_identical_to_untraced(self, tmp_path):
        kwargs = dict(node_mtbfs=[4.0, 12.0], degrees=[1.0, 2.0])
        untraced = run_redundancy_sweep(faulty_config(), **kwargs)
        obs = ObsSession(trace_path=str(tmp_path / "sweep.jsonl"))
        traced = run_redundancy_sweep(faulty_config(), obs=obs, **kwargs)
        assert obs.finalize() > 0
        for a, b in zip(untraced, traced):
            assert dataclasses.asdict(a.report) == dataclasses.asdict(b.report)


class TestTracedCampaignReconciles:
    def run_traced(self, tmp_path, workers):
        path = str(tmp_path / "campaign.jsonl")
        obs = ObsSession(trace_path=path, metrics=True)
        obs.stamp("sweep", base_seed=11)
        cells = run_redundancy_sweep(
            faulty_config(),
            node_mtbfs=[4.0, 12.0],
            degrees=[1.0, 2.0],
            workers=workers,
            obs=obs,
        )
        obs.finalize()
        return path, cells, obs

    def test_creates_no_path_but_its_trace_file(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        obs = ObsSession(trace_path=str(path))
        run_redundancy_sweep(
            faulty_config(), node_mtbfs=[4.0], degrees=[1.0, 2.0], workers=2, obs=obs
        )
        assert list(tmp_path.iterdir()) == []
        obs.finalize()
        assert list(tmp_path.iterdir()) == [path]

    def check(self, path, cells):
        report = report_from_file(path)
        assert report.ok, [
            (job.job, job.discrepancy()) for job in report.failed_jobs
        ]
        assert len(report.jobs) == len(cells)
        # Spans reconcile against the *reports* too, not just the trace's
        # own summary records: per-job totals match each cell exactly.
        by_total = sorted(job.reported_total for job in report.jobs)
        expected = sorted(cell.report.total_time for cell in cells)
        assert by_total == expected
        for job in report.jobs:
            assert job.discrepancy() <= 0.01
            assert job.completed is True

    def test_serial(self, tmp_path):
        path, cells, _ = self.run_traced(tmp_path, workers=1)
        self.check(path, cells)

    def test_workers_4_merged_trace(self, tmp_path):
        path, cells, obs = self.run_traced(tmp_path, workers=4)
        self.check(path, cells)
        # Per-job manifests came home with their cells' results.
        records = read_trace(path)
        manifests = [
            r for r in records
            if r["type"] == "manifest" and r.get("kind") == "job"
        ]
        assert len(manifests) == len(cells)
        assert records[0]["kind"] == "campaign"
        # Parent-side metrics saw every cell.
        assert obs.metrics.counter("campaign.cells").value == len(cells)

    def test_parallel_trace_reconciles_like_serial(self, tmp_path):
        serial_path, _, _ = self.run_traced(tmp_path / "serial", workers=1)
        pool_path, _, _ = self.run_traced(tmp_path / "pool", workers=4)

        def phase_totals(path):
            return {
                job.job: (job.attempts, job.checkpoint, job.restart)
                for job in build_report(read_trace(path)).jobs
            }

        assert phase_totals(serial_path) == phase_totals(pool_path)

        def events(path):
            """Each job's (name, sim_time, detail) event sequence."""
            sequences = {}
            for record in read_trace(path):
                if record["type"] == "event" and record.get("job") != PARENT_JOB:
                    sequences.setdefault(record["job"], []).append(
                        (record["name"], record["t"], record.get("detail"))
                    )
            return sequences

        serial_events = events(serial_path)
        assert len(serial_events) == 4
        assert serial_events == events(pool_path)


class TestReportCli:
    def test_report_command_ok(self, tmp_path, capsys):
        write_lone_job_trace(str(tmp_path / "t.jsonl"))
        assert main(["report", str(tmp_path / "t.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "reconciliation: all 1 job(s)" in out

    def test_report_command_flags_torn_trace(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        write_lone_job_trace(str(path))
        torn = [
            line for line in path.read_text().splitlines()
            if '"name": "restart"' not in line
        ]
        path.write_text("\n".join(torn) + "\n")
        assert main(["report", str(path)]) == 2
        assert "FAILED" in capsys.readouterr().out

    def test_report_command_missing_file(self, capsys):
        assert main(["report", "/nonexistent/trace.jsonl"]) == 2
        assert "error:" in capsys.readouterr().err
