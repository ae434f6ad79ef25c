"""Benchmark entry point.

    python3 perfbench/run.py --workload {table4|table5|serve} --seed N \
        --seconds S --trace {0|1}

Run from the root of a checkout.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (every end-to-end metric with ``--trace 0``, every
per-layer metric with ``--trace 1``).  The full record of the run,
including the work counts and golden-check details, is written to
``.perfbench_out/<workload>-seed<N>-trace<T>.json``.  When the program
cannot be run the script exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import signal
import sys

from common import (
    SRC,
    WORK,
    BenchError,
    compile_sources,
    e2e_metrics,
    env_summary,
    layer_metrics,
    require_program,
    write_result,
)

WORKLOADS = ("table4", "table5", "serve")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminated(signum, _frame):
    # Unwind through the workloads' finally blocks, which stop children.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = _parse(argv)
    signal.signal(signal.SIGTERM, _terminated)
    try:
        require_program()
        sys.path.insert(0, str(SRC))
        compile_sources()
        if args.workload == "serve":
            import serve as workload
        else:
            import tables as workload
        values, attempted, failed, record = workload.run(
            args.workload, args.seed, bool(args.trace), args.seconds
        )
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    correct = record.pop("correct")
    metrics = layer_metrics(values) if args.trace else e2e_metrics(values)
    infinite = [name for name, entry in metrics.items() if not math.isfinite(entry["value"])]
    if infinite:
        # A latency percentile is infinite when more requests failed
        # than lie beyond it; there is no number to report.
        print(f"perfbench: no finite value for {infinite}", file=sys.stderr)
        return 2
    record.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "host": env_summary(),
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }
    )
    path = write_result(f"{args.workload}-seed{args.seed}-trace{args.trace}", record)
    print(f"perfbench: full record in {path}")
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
