"""Helpers shared by the workloads: paths, child processes, statistics.

Everything the benchmark writes goes under the checkout: scratch state
in ``.perfbench_work/`` (removed after each run) and result files in
``.perfbench_out/``.  Both are listed in the root ``.gitignore``.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

#: Fresh-interpreter starts per run whose median is ``setup_s``.  A
#: single ~1 s start swung by 9-17% between otherwise identical runs.
SETUP_STARTS = 5

#: Samples a percentile must leave above it before it is reported as
#: supported (the choosing-metrics rule).
MIN_BEYOND = 10


class BenchError(Exception):
    """The benchmark cannot produce a result (missing program, dead child)."""


def require_program() -> None:
    """Fail fast when the checkout does not hold the program's source."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"program source not found under {SRC}")


def rng_for(workload: str, seed: int) -> random.Random:
    """The workload's input generator; string seeds hash stably."""
    return random.Random(f"{workload}:{seed}")


def child_env() -> Dict[str, str]:
    """Environment for every process the benchmark starts.

    ``REPRO_*`` knobs from the caller's shell are dropped so a stray
    ``REPRO_WORKERS`` or ``REPRO_STORE`` cannot change the work, and the
    hash seed is pinned so set/dict iteration order is the same in
    every run.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def compile_sources() -> None:
    """Write bytecode caches up front; users pay compilation only once."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC), str(BENCH_DIR)],
        check=True,
        env=child_env(),
        stdout=subprocess.DEVNULL,
        timeout=120,
    )


def fresh_work_dir(name: str) -> Path:
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# -- child processes ---------------------------------------------------------


class Child:
    """A started program process whose own rusage is collected on exit."""

    def __init__(self, argv: Sequence[str], log_path: Path) -> None:
        self.argv = list(argv)
        self.log_path = log_path
        self._log = open(log_path, "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            self.argv,
            cwd=str(ROOT),
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
        )
        self.rusage = None

    def readline_until(self, prefix: str, timeout: float = 60.0) -> Tuple[str, float]:
        """Read stdout until a line starts with ``prefix``.

        Returns the line and the seconds since spawn.  The read blocks,
        so the timeout is enforced by a watchdog signal.
        """

        def expired(_signum, _frame):
            raise BenchError(f"{self.argv} printed no {prefix!r} within {timeout:g}s")

        previous = signal.signal(signal.SIGALRM, expired)
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            while True:
                line = self.proc.stdout.readline()
                if not line:
                    raise BenchError(
                        f"{self.argv} exited before {prefix!r}: {self.log_tail()}"
                    )
                if line.startswith(prefix):
                    return line.rstrip("\n"), time.perf_counter() - self.started
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def read_rest(self) -> str:
        return self.proc.stdout.read()

    def wait(self, timeout: float = 60.0) -> int:
        """Reap the process with ``wait4`` so its own peak RSS is known."""
        deadline = time.monotonic() + timeout
        while True:
            pid, status, rusage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.kill()
                raise BenchError(f"{self.argv} did not exit within {timeout:g}s")
            time.sleep(0.005)
        self.rusage = rusage
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self._close()
        return self.proc.returncode

    def terminate(self) -> None:
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)

    def kill(self) -> None:
        """Stop the process for good and reap it (used on error paths)."""
        if self.proc.returncode is None:
            try:
                self.proc.kill()
            except ProcessLookupError:
                pass
            try:
                os.waitpid(self.proc.pid, 0)
            except ChildProcessError:
                pass
            self.proc.returncode = -9
        self._close()

    def _close(self) -> None:
        if self.proc.stdout is not None and not self.proc.stdout.closed:
            self.proc.stdout.close()
        if not self._log.closed:
            self._log.close()

    @property
    def peak_rss_mb(self) -> float:
        # Linux reports ru_maxrss in KiB.
        return self.rusage.ru_maxrss / 1024.0

    def log_tail(self, lines: int = 20) -> str:
        try:
            if not self._log.closed:
                self._log.flush()
            text = self.log_path.read_text(errors="replace")
        except OSError:
            return ""
        return "\n".join(text.splitlines()[-lines:])


def proc_cpu_s(pid: int) -> float:
    """CPU seconds a live process has used so far (``/proc/<pid>/stat``)."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


# -- statistics --------------------------------------------------------------


def nearest_rank(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100] of already sorted samples."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, math.ceil(len(sorted_values) * q / 100.0))
    return sorted_values[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank percentile."""
    return n - max(1, math.ceil(n * q / 100.0))


def percentile_supported(n: int, q: float) -> bool:
    """True when the percentile leaves at least ``MIN_BEYOND`` samples."""
    return samples_beyond(n, q) >= MIN_BEYOND


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


# -- host pace ---------------------------------------------------------------

#: Iterations of the reference loop timed around every table call.
REFERENCE_ITERATIONS = 150_000

#: Nominal time of one reference-loop iteration [s]: 13 ms for
#: ``REFERENCE_ITERATIONS`` at a fast pace on a 2-core x86 VM.  Times
#: "at the reference pace" are host times rescaled to this pace.
REFERENCE_S_PER_ITERATION = 13e-3 / REFERENCE_ITERATIONS


def reference_s(iterations: int = REFERENCE_ITERATIONS) -> float:
    """Time one fixed pure-Python loop that shares no code with the program.

    The loop measures the host's current pace: a core of a shared host
    can run the same work up to 1.8x slower for stretches of seconds to
    minutes (README.md, "Noise").
    """
    started = time.perf_counter()
    total = 0
    for i in range(iterations):
        total += i * i % 7
    return time.perf_counter() - started


def pace(seconds: float, iterations: int) -> float:
    """How many times slower than nominal a reference loop of ``seconds`` ran."""
    return seconds / (iterations * REFERENCE_S_PER_ITERATION)


# -- importtime fold ---------------------------------------------------------


def fold_importtime(stderr_text: str) -> Dict[str, float]:
    """Sum ``-X importtime`` self times [ms] of the program and of NumPy."""
    totals = {"import.repro_ms": 0.0, "import.numpy_ms": 0.0}
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3:
            continue
        try:
            self_us = float(parts[0])
        except ValueError:
            continue  # the header line
        name = parts[2].strip()
        top = name.split(".", 1)[0]
        if top == "repro":
            totals["import.repro_ms"] += self_us / 1000.0
        elif top == "numpy":
            totals["import.numpy_ms"] += self_us / 1000.0
    return totals


# -- output ------------------------------------------------------------------


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def write_result(name: str, payload: Dict[str, object]) -> Path:
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=True))
    return path


def env_summary() -> Dict[str, Optional[str]]:
    return {
        "python": sys.version.split()[0],
        "cpus": str(os.cpu_count()),
    }


# -- metric catalogue ---------------------------------------------------------

#: End-to-end metrics: name -> unit.  Every workload reports all of them
#: (see README.md for what ``op_ms`` times on each workload).
END_TO_END = {
    "setup_s": "s",
    "op_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics of the traced run: name -> unit.  A layer a
#: workload does not execute reports 0 there.
PER_LAYER = {
    "simkit.self_s": "s",
    "simkit.events": "count",
    "simkit.us_per_event": "us",
    "mpi.self_s": "s",
    "mpi.p2p_messages": "count",
    "mpi.p2p_bytes": "B",
    "mpi.digest_calls": "count",
    "mpi.digest_s": "s",
    "redundancy.self_s": "s",
    "redundancy.app_sends": "count",
    "redundancy.amplification": "ratio",
    "redundancy.votes": "count",
    "redundancy.dropped": "count",
    "netsim.self_s": "s",
    "workloads.self_s": "s",
    "runtime.c_self_s": "s",
    "runtime.stdlib_self_s": "s",
    "runtime.numpy_self_s": "s",
    "checkpoint.self_s": "s",
    "checkpoint.images": "count",
    "checkpoint.image_bytes": "B",
    "checkpoint.commits": "count",
    "faults.self_s": "s",
    "faults.kills": "count",
    "orchestration.self_s": "s",
    "orchestration.attempts": "count",
    "orchestration.useful_fraction": "ratio",
    "store.self_s": "s",
    "store.puts": "count",
    "store.put_ms": "ms",
    "store.gets": "count",
    "store.get_us": "us",
    "store.hit_ratio": "ratio",
    "service.self_s": "s",
    "service.server_cpu_ms_per_req": "ms",
    "service.batch_size_mean": "count",
    "service.queue_wait_p50_ms": "ms",
    "service.queue_wait_p99_ms": "ms",
    "service.parse_us": "us",
    "service.status_4xx": "count",
    "service.status_5xx": "count",
    "service.shed": "count",
    "models.self_s": "s",
    "models.grid_us_per_call": "us",
    "models.grid_calls": "count",
    "models.cells_per_call": "count",
    "models.recommend_ms": "ms",
    "models.recommend_cache_hit_ratio": "ratio",
    "stdlib.json_s": "s/req",
    "stdlib.asyncio_s": "s/req",
    "loadgen.rps": "1/s",
    "loadgen.lateness_p99_ms": "ms",
    "import.repro_ms": "ms",
    "import.numpy_ms": "ms",
    "trace.overhead": "ratio",
    "trace.named_share": "ratio",
}


def layer_metrics(values: Dict[str, float]) -> Dict[str, Dict[str, object]]:
    """Every per-layer metric, 0 where the workload has no such layer."""
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"unknown per-layer metrics: {sorted(unknown)}")
    return {
        name: metric(values.get(name, 0.0), unit) for name, unit in PER_LAYER.items()
    }


def e2e_metrics(values: Dict[str, float]) -> Dict[str, Dict[str, object]]:
    missing = set(END_TO_END) - set(values)
    if missing:
        raise KeyError(f"missing end-to-end metrics: {sorted(missing)}")
    return {name: metric(values[name], unit) for name, unit in END_TO_END.items()}


def self_seconds(totals: Dict[str, float], packages: Sequence[str]) -> Dict[str, float]:
    """``<package>.self_s`` from a profile fold, for the given packages."""
    return {f"{pkg}.self_s": totals.get(f"repro.{pkg}", 0.0) for pkg in packages}
