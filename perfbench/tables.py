"""The ``table4`` and ``table5`` workloads: repeated simulated cells, golden-checked.

Each run starts ``table_child.py`` in fresh interpreters.  The timed
child makes one warm-up pass and then repeated passes over the
workload's degrees with a shortened cell (``table_child.CELL``):
``table4`` is the 6 h MTBF row of Table 4 with failures, Daly
checkpointing and restarts, written into a fresh results store;
``table5`` is the failure-free sweep over all nine degrees, where
checkpointing, faults, restarts and the store stay idle.

``op_ms`` is the time of one pass at a fixed reference pace.  On the
hosts this was written on, a core runs the same work up to 1.8x slower
for stretches of seconds to minutes (see README.md, "Noise").  So every
call is divided by the time of a fixed pure-Python loop run just
before and after it (``common.reference_s``): ``op_ms`` is the sum over
the degrees of the median call time rescaled to the reference pace.  The loop shares
no code with the program, so a faster program lowers ``op_ms`` as much
as it lowers its host time.

The seed permutes the degree order of every pass.  It does not change
the simulated work: ``table5`` is failure-free and deterministic, and
``table4`` keeps the row's own failure schedule, so every call of every
run is checked against the pinned outcomes below.
"""

from __future__ import annotations

import hashlib
import json
import sys
from typing import Dict, List, Tuple

import fold
from common import (
    BENCH_DIR,
    REFERENCE_ITERATIONS,
    SETUP_STARTS,
    BenchError,
    Child,
    fold_importtime,
    fresh_work_dir,
    median,
    pace,
    self_seconds,
)
from table_child import CELL, DEGREES, pass_orders

#: Exact outcome of every shortened cell by degree: simulated completion
#: time [s] as ``float.hex``, attempts, failures injected, checkpoints
#: committed.
GOLDEN = {
    "table4": {
        1.0: ("0x1.02f2511795fe3p+2", 5, 4, 1),
        1.5: ("0x1.1a2abd3ea9880p+1", 3, 3, 1),
        2.0: ("0x1.0c29b1aa31975p-2", 1, 3, 0),
        2.5: ("0x1.0209b80fa6663p-1", 1, 5, 1),
        3.0: ("0x1.36ec0a7fb5c2cp-2", 1, 5, 0),
    },
    "table5": {
        1.0: ("0x1.bf7b253a4c2b7p-3", 1, 0, 0),
        1.25: ("0x1.0a402a927ac17p-2", 1, 0, 0),
        1.5: ("0x1.0a4ea2fb422b4p-2", 1, 0, 0),
        1.75: ("0x1.0a62faa11b6e4p-2", 1, 0, 0),
        2.0: ("0x1.0a62faa11b6e4p-2", 1, 0, 0),
        2.25: ("0x1.34e592967019ap-2", 1, 0, 0),
        2.5: ("0x1.34f40aff37836p-2", 1, 0, 0),
        2.75: ("0x1.350862a510c66p-2", 1, 0, 0),
        3.0: ("0x1.350862a510c66p-2", 1, 0, 0),
    },
}

#: Passes of each child in the traced run.
TRACE_PASSES = 3

#: Profile rows read for per-layer counts.
_ROWS = (
    "simkit/env.py:step",
    "mpi/datatypes.py:payload_digest",
    "redundancy/voting.py:vote",
    "store/__init__.py:put_report",
    "store/__init__.py:get_report",
)

_CHILD = str(BENCH_DIR / "table_child.py")


def outcome(unit: Dict) -> Tuple:
    return (
        unit["total_time"],
        unit["attempts"],
        unit["failures_injected"],
        unit["checkpoints_committed"],
    )


def check(workload: str, units: List[Dict]) -> List[str]:
    """One error string per call whose outcome differs from the golden one."""
    golden = GOLDEN[workload]
    return [
        f"pass {u['pass']} {u['redundancy']}x: {outcome(u)} != {golden.get(u['redundancy'])}"
        for u in units
        if outcome(u) != golden.get(u["redundancy"])
    ]


def outcomes_digest(units: List[Dict]) -> str:
    """SHA-256 of the outcome per degree, to compare two commits."""
    by_degree = {str(u["redundancy"]): outcome(u) for u in units}
    return hashlib.sha256(json.dumps(by_degree, sort_keys=True).encode()).hexdigest()


def paced_ms(unit: Dict) -> float:
    """A call's host time [ms] rescaled to the reference pace."""
    return 1000.0 * unit["wall_s"] / pace(unit["reference_s"], REFERENCE_ITERATIONS)


def pass_ms(workload: str, units: List[Dict]) -> float:
    """``op_ms``: the sum over degrees of each degree's median paced call time."""
    timed = [u for u in units if u["pass"] > 0]
    return sum(
        median(paced_ms(u) for u in timed if u["redundancy"] == degree)
        for degree in DEGREES[workload]
    )


def _start(workload, mode, seed, work, tag, children, extra=(), python_flags=()) -> Child:
    argv = [sys.executable, *python_flags, _CHILD, workload, mode, "--seed", str(seed)]
    argv += ["--store-dir", str(work / f"store-{tag}"), *extra]
    child = Child(argv, work / f"{tag}.log")
    children.append(child)
    return child


def _setup_sample(workload, seed, work, tag, children) -> float:
    child = _start(workload, "setup", seed, work, tag, children)
    _line, elapsed = child.readline_until("READY")
    if child.wait() != 0:
        raise BenchError(f"set-up start failed: {child.log_tail()}")
    return elapsed


def _collect(workload, child) -> Tuple[float, Dict]:
    """Wait for a pass child; returns its set-up time and its result."""
    _line, elapsed = child.readline_until("READY")
    out = child.read_rest()
    if child.wait(timeout=170) != 0:
        raise BenchError(f"{workload} passes failed: {child.log_tail()}")
    lines = [line for line in out.splitlines() if line.startswith("{")]
    if not lines:
        raise BenchError(f"{workload} passes printed no result: {child.log_tail()}")
    return elapsed, json.loads(lines[-1])


def _counts(cells: List[Dict]) -> Dict[str, float]:
    """Work counts of the given calls, read from their JobReports."""

    def total(name):
        return sum(cell["counters"].get(name, 0.0) for cell in cells)

    sim_total = sum(float.fromhex(cell["total_time"]) for cell in cells)
    failure_free = sum(float.fromhex(GOLDEN["table5"][cell["redundancy"]][0]) for cell in cells)
    counts = {
        "mpi.p2p_messages": total("p2p_messages"),
        "mpi.p2p_bytes": total("p2p_bytes"),
        "redundancy.app_sends": total("app_sends"),
        "redundancy.dropped": total("p2p_dropped"),
        "faults.kills": sum(cell["failures_injected"] for cell in cells),
        "checkpoint.commits": sum(cell["checkpoints_committed"] for cell in cells),
        "orchestration.attempts": sum(cell["attempts"] for cell in cells),
        # Simulated time, not host time: failure-free time / total time.
        "orchestration.useful_fraction": failure_free / sim_total,
    }
    sends = counts["redundancy.app_sends"]
    counts["redundancy.amplification"] = counts["mpi.p2p_messages"] / sends if sends else 0.0
    return counts


def run(workload: str, seed: int, trace: bool, seconds: float):
    """Run one table workload; returns (metrics values, attempted, failed, record).

    The timed passes last ``seconds``; set-up starts and the warm-up
    pass come on top.
    """
    work = fresh_work_dir(workload)
    children: List[Child] = []
    record: Dict = {"cell": CELL, "first_orders": pass_orders(workload, seed, 3)}
    try:
        if trace:
            values, payloads = _traced(workload, seed, work, children, record)
        else:
            setups = [
                _setup_sample(workload, seed, work, f"setup{i}", children)
                for i in range(SETUP_STARTS - 1)
            ]
            child = _start(workload, "run", seed, work, "run", children, ("--seconds", str(seconds)))
            elapsed, payload = _collect(workload, child)
            setups.append(elapsed)
            values = {
                "setup_s": median(setups),
                "op_ms": pass_ms(workload, payload["units"]),
                "peak_rss_mb": child.peak_rss_mb,
            }
            walls = {}
            for unit in payload["units"]:
                if unit["pass"] > 0:
                    walls.setdefault(unit["redundancy"], []).append(unit["wall_s"])
            record.update(
                {
                    "setup_samples_s": setups,
                    "timed_passes": max(u["pass"] for u in payload["units"]),
                    "median_pass_host_ms": 1000.0 * sum(median(w) for w in walls.values()),
                    "median_reference_ms": 1000.0 * median(
                        u["reference_s"] for u in payload["units"] if u["pass"] > 0
                    ),
                    "call_walls_s": {str(d): w for d, w in walls.items()},
                    "call_paced_ms": {
                        str(d): [paced_ms(u) for u in payload["units"]
                                 if u["pass"] > 0 and u["redundancy"] == d]
                        for d in DEGREES[workload]
                    },
                    "counts_per_pass": _counts([u for u in payload["units"] if u["pass"] == 0]),
                }
            )
            payloads = [payload]
    finally:
        for child in children:
            child.kill()
    units = [unit for payload in payloads for unit in payload["units"]]
    errors = check(workload, units)
    record["outcomes_digest"] = outcomes_digest(units)
    record["errors"] = errors[:50]
    record["correct"] = not errors
    attempted = len(units) + (0 if trace else SETUP_STARTS)
    return values, attempted, len(errors), record


def _traced(workload, seed, work, children, record):
    """Plain passes, profiled passes and an import-time start.

    Every per-layer figure covers all calls of the profiled child: its
    warm-up pass and ``TRACE_PASSES`` more.  The two pass children run side by side, one per core;
    ``trace.overhead`` is the ratio of their timed-pass wall times.
    """
    passes = ("--passes", str(TRACE_PASSES))
    plain_child = _start(workload, "run", seed, work, "plain", children, passes)
    profile_out = work / "passes.prof"
    profile_child = _start(
        workload, "profile", seed, work, "profile", children,
        passes + ("--profile-out", str(profile_out)),
    )
    _elapsed, plain = _collect(workload, plain_child)
    _elapsed, payload = _collect(workload, profile_child)
    stats = fold.load(str(profile_out))
    totals = fold.fold(stats)
    rows = fold.function_rows(stats, _ROWS)
    importer = _start(
        workload, "setup", seed, work, "importtime", children, python_flags=("-X", "importtime")
    )
    importer.readline_until("READY")
    if importer.wait() != 0:
        raise BenchError(f"import-time start failed: {importer.log_tail()}")
    values = fold_importtime((work / "importtime.log").read_text())
    values.update(_counts(payload["units"]))
    values.update(
        self_seconds(
            totals,
            ("simkit", "mpi", "redundancy", "netsim", "workloads", "checkpoint",
             "faults", "orchestration", "store", "models", "service"),
        )
    )
    store = payload["store"]
    if store is not None:
        values.update(
            {
                "store.puts": store["writes"],
                "store.gets": store["hits"] + store["misses"],
                "store.hit_ratio": store["hits"] / max(1, store["hits"] + store["misses"]),
            }
        )
    events = rows["simkit/env.py:step"]["calls"]

    def timed_wall(result):
        return sum(u["wall_s"] for u in result["units"] if u["pass"] > 0)

    values.update(
        {
            "simkit.events": events,
            "simkit.us_per_event": totals.get("repro.simkit", 0.0) / events * 1e6 if events else 0.0,
            "mpi.digest_calls": rows["mpi/datatypes.py:payload_digest"]["calls"],
            "mpi.digest_s": rows["mpi/datatypes.py:payload_digest"]["cum_s"],
            "redundancy.votes": rows["redundancy/voting.py:vote"]["calls"],
            "checkpoint.images": payload["images"]["images"],
            "checkpoint.image_bytes": payload["images"]["bytes"],
            "store.put_ms": fold.per_call(rows["store/__init__.py:put_report"], 1000.0),
            "store.get_us": fold.per_call(rows["store/__init__.py:get_report"], 1e6),
            "runtime.c_self_s": totals.get("c_builtins", 0.0),
            "runtime.stdlib_self_s": totals.get("stdlib", 0.0),
            "runtime.numpy_self_s": totals.get("numpy", 0.0),
            "trace.overhead": timed_wall(payload) / timed_wall(plain),
            "trace.named_share": fold.named_share(totals),
        }
    )
    record["profile_buckets_s"] = totals
    record["profile_rows"] = rows
    record["plain_timed_wall_s"] = timed_wall(plain)
    record["profiled_timed_wall_s"] = timed_wall(payload)
    return values, [plain, payload]
