"""Bench: observability overhead — tracing must be (near) free.

Two timings of the same small failure-prone campaign sweep:

* tracing **off** (the default ``NULL_TRACER`` path) — this is the
  production hot path, and the run must be bit-identical to a traced
  one (the acceptance box from the observability issue);
* tracing **on** (each cell's records sent home with its result, one
  JSONL file written at the end) — the overhead is printed and must stay within a loose envelope (traced
  <= 2x untraced wall-clock; in practice it is a few percent, but CI
  boxes are noisy and the envelope only guards against accidental
  hot-path work when tracing is off... which the bit-identity check
  catches first anyway).

``REPRO_BENCH_QUICK=1`` shrinks the sweep.
"""

import dataclasses
import os
import time
from functools import partial

from repro.obs import ObsSession, report_from_file
from repro.orchestration import JobConfig, run_redundancy_sweep
from repro.workloads import SyntheticWorkload

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

MTBFS = (2.0, 6.0)
DEGREES = (1.0, 2.0) if QUICK else (1.0, 1.5, 2.0)


def base_config():
    return JobConfig(
        workload_factory=partial(
            SyntheticWorkload,
            total_steps=30 if QUICK else 60,
            compute_seconds=0.02,
            message_bytes=2048,
        ),
        virtual_processes=4,
        checkpoint_interval=0.3,
        checkpoint_cost=0.03,
        restart_cost=0.15,
        seed=11,
    )


def signatures(cells):
    return [dataclasses.asdict(cell.report) for cell in cells]


def test_bench_tracing_overhead(once, tmp_path):
    untraced = once(run_redundancy_sweep, base_config(), MTBFS, DEGREES)
    start = time.perf_counter()
    untraced_again = run_redundancy_sweep(base_config(), MTBFS, DEGREES)
    untraced_seconds = time.perf_counter() - start

    trace_path = str(tmp_path / "bench.jsonl")
    obs = ObsSession(trace_path=trace_path)
    obs.stamp("bench-obs", base_seed=11)
    start = time.perf_counter()
    traced = run_redundancy_sweep(base_config(), MTBFS, DEGREES, obs=obs)
    records = obs.finalize()
    traced_seconds = time.perf_counter() - start

    overhead = (
        traced_seconds / untraced_seconds - 1.0 if untraced_seconds > 0 else 0.0
    )
    print(
        f"\ntracing overhead over {len(MTBFS) * len(DEGREES)} cells: "
        f"off {untraced_seconds * 1e3:.1f}ms, on {traced_seconds * 1e3:.1f}ms "
        f"({overhead:+.1%}, {records} records)"
    )

    # Tracing must observe, not perturb: identical simulation results.
    assert signatures(untraced) == signatures(traced)
    assert signatures(untraced) == signatures(untraced_again)

    # The trace is complete and internally consistent.
    report = report_from_file(trace_path)
    assert report.ok
    assert len(report.jobs) == len(traced)

    # Loose wall-clock envelope (see module docstring).
    assert traced_seconds <= 2.0 * untraced_seconds + 0.25
