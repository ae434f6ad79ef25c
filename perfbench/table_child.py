"""Repeated passes over a shortened simulated table row, as its own process.

    python perfbench/table_child.py {table4|table5} {setup|run|profile} \
        --seed N [--seconds S] [--passes P] [--store-dir DIR] \
        [--profile-out FILE]

The process imports the sweep entry points, builds the benchmark's
shortened cell configuration and prints ``READY``: that line ends one
``setup_s`` sample.  In ``setup`` mode it exits there.

In ``run`` mode it makes one untimed warm-up pass over the workload's
degrees, then timed passes until ``--seconds`` have gone by (at least
``MIN_PASSES``) or exactly ``--passes`` of them when that is given.  A
pass calls, for each degree in a seeded order, ``run_redundancy_sweep``
(``table4``: the 6 h MTBF row with failures, checkpoints and restarts,
into a results store fresh for the pass) or ``run_failure_free_sweep``
(``table5``) with that one degree, and times the call and the
benchmark's reference loop (``common.reference_s``) before and after
it.  ``profile``
mode does the same under ``cProfile`` and dumps the stats.  The process
prints one JSON line with every call's time and exact outcome.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from common import reference_s, rng_for

#: The Table 4 row the ``table4`` workload runs: the 6 h per-node MTBF,
#: the row with the most failures, rollbacks and checkpoints.
TABLE4_MTBF_HOURS = 6.0

#: The shortened cell: half the quick grid's virtual processes and a
#: twentieth of its steps, so one call takes 0.04-0.3 s on a 2-core x86
#: VM and every degree is timed many times within one run.  At the 6 h
#: MTBF the 1x cell still fails, restarts and checkpoints.
CELL = {"virtual_processes": 8, "steps": 5}

DEGREES = {
    "table4": (1.0, 1.5, 2.0, 2.5, 3.0),
    "table5": (1.0, 1.25, 1.5, 1.75, 2.0, 2.25, 2.5, 2.75, 3.0),
}

MIN_PASSES = 5

def pass_orders(workload: str, seed: int, passes: int):
    """The degree order of each pass (pass 0 is the warm-up)."""
    rng = rng_for(workload, seed)
    orders = []
    for _ in range(passes):
        order = list(DEGREES[workload])
        rng.shuffle(order)
        orders.append(order)
    return orders


def _parse(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=tuple(DEGREES))
    parser.add_argument("mode", choices=("setup", "run", "profile"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--passes", type=int)
    parser.add_argument("--store-dir")
    parser.add_argument("--profile-out")
    return parser.parse_args(argv)


def _count_images(image_totals):
    """Wrap the checkpoint layer's image capture to count bytes."""
    import repro.checkpoint.service as service

    original = service.capture_image

    def capture_image(state):
        image = original(state)
        image_totals["images"] += 1
        image_totals["bytes"] += image.nbytes
        return image

    service.capture_image = capture_image


def main(argv=None) -> int:
    args = _parse(argv)
    from repro.experiments.table4 import ScaledSetup
    from repro.orchestration import run_failure_free_sweep, run_redundancy_sweep
    from repro.store import ResultsStore

    setup = ScaledSetup(**CELL)
    base = setup.job_config()
    node_mtbfs = [setup.mtbf_to_sim(TABLE4_MTBF_HOURS)]
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    def call(degree, store):
        if args.workload == "table4":
            return run_redundancy_sweep(
                base, node_mtbfs=node_mtbfs, degrees=[degree], workers=1, store=store
            )
        return run_failure_free_sweep(base, degrees=[degree], workers=1)

    image_totals = {"images": 0, "bytes": 0}
    profiler = None
    if args.mode == "profile":
        import cProfile

        _count_images(image_totals)
        profiler = cProfile.Profile()

    # Enough orders for any run; a run uses a prefix of them.
    orders = pass_orders(args.workload, args.seed, 1 + (args.passes or 400))
    units = []
    store_totals = None
    timed_started = None
    reference = reference_s()
    for index, order in enumerate(orders):
        if index == 1:
            timed_started = time.perf_counter()
        elif index > 1:
            elapsed = time.perf_counter() - timed_started
            if args.passes is not None:
                if index > args.passes:
                    break
            elif index > MIN_PASSES and elapsed >= args.seconds:
                break
        store = None
        if args.workload == "table4":
            store = ResultsStore(Path(args.store_dir) / f"pass{index}")
        for degree in order:
            if profiler is not None:
                profiler.enable()
            started = time.perf_counter()
            (cell,) = call(degree, store)
            wall = time.perf_counter() - started
            if profiler is not None:
                profiler.disable()
            reference_before, reference = reference, reference_s()
            report = cell.report
            units.append(
                {
                    "pass": index,
                    "redundancy": degree,
                    "wall_s": wall,
                    "reference_s": (reference_before + reference) / 2.0,
                    "total_time": report.total_time.hex(),
                    "attempts": report.attempts,
                    "failures_injected": report.failures_injected,
                    "checkpoints_committed": report.checkpoints_committed,
                    "counters": dict(report.counters),
                }
            )
        if store is not None:
            stats = store.stats()
            store_totals = store_totals or dict.fromkeys(("hits", "misses", "writes"), 0)
            for key in store_totals:
                store_totals[key] += stats[key]
    if profiler is not None:
        profiler.dump_stats(args.profile_out)
    print(
        json.dumps(
            {
                "units": units,
                "store": store_totals,
                "images": image_totals,
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
