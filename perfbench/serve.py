"""The ``serve`` workload: a ``repro-exp serve`` process driven over HTTP.

The server runs as its own process (``python -m repro.cli serve --port 0
--store <fresh dir>``, default batching flags), so it has a core of its
own; this process is the one load generator, with 2 keep-alive
connections.  A run has three phases over one seeded request mix:

1. warm-up: ``WARMUP`` requests, closed loop, not timed;
2. closed loop: ``CLOSED_PER_SECOND * --seconds`` requests over the 2
   connections, each sent when the previous answer arrived -> the
   throughput, recorded as ``loadgen.rps``;
3. open loop: ``OPEN_RATE`` requests/s for ``OPEN_SHARE * --seconds``,
   each timed from when it was due -> ``op_ms``, the median latency
   (p95 and p99 are recorded but not gated; see README.md).

The mix is mostly distinct ``/evaluate`` bodies, a few ``/recommend``
bodies (half from a small popular pool, so store and LRU hits, half
new, so advisor sweeps) and a small share of malformed bodies: an
unknown field, or a NaN/Infinity numeric field.  Both must get 400.

After the load, a seeded sample of ``/evaluate`` answers and every
``/recommend`` answer are re-derived with ``CombinedModel.evaluate()``
and ``recommend()`` and compared bit for bit.
"""

from __future__ import annotations

import asyncio
import gc
import json
import math
import re
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import fold
from common import (
    BENCH_DIR,
    SETUP_STARTS,
    BenchError,
    Child,
    fold_importtime,
    fresh_work_dir,
    median,
    nearest_rank,
    percentile_supported,
    proc_cpu_s,
    rng_for,
    samples_beyond,
    self_seconds,
)

CONNECTIONS = 2
WARMUP = 100
CLOSED_PER_SECOND = 40
#: Open-loop arrival rate [requests/s], well under the 300-550 req/s
#: the closed loop reaches over 2 connections on a 2-core x86 host.
#: With a 15 s run it gives 1800 samples: 90 beyond p95, 18 beyond p99.
OPEN_RATE = 150.0
OPEN_SHARE = 0.8
RECOMMEND_SHARE = 0.02
MALFORMED_SHARE = 0.005
POPULAR_MODELS = 4
VERIFY_SAMPLE = 200
NONFINITE_FIELDS = ("redundancy", "node_mtbf", "checkpoint_cost", "base_time")

_READY = re.compile(r"serving on http://[^:]+:(\d+)")
_ROWS = (
    "models/grid.py:evaluate_grid",
    "models/advisor.py:recommend",
    "store/__init__.py:get_object",
    "store/__init__.py:put_object",
)


@dataclass
class Request:
    kind: str  # evaluate | recommend | unknown_field | nonfinite
    path: str
    body: bytes
    expect: int
    params: Optional[Dict]  # the model parameters of a well-formed body


@dataclass
class Outcome:
    request: Request
    status: int
    body: bytes
    latency_s: float


# -- inputs --------------------------------------------------------------------


def model_params(rng) -> Dict:
    """One well-formed, in-domain ``/evaluate`` body."""
    return {
        "virtual_processes": rng.randrange(1_000, 200_001),
        "redundancy": round(rng.uniform(1.0, 3.0), 3),
        "node_mtbf": round(rng.uniform(2e6, 5e7), 1),
        "alpha": round(rng.uniform(0.05, 0.5), 4),
        "base_time": round(rng.uniform(24.0, 256.0) * 3600.0, 1),
        "checkpoint_cost": round(rng.uniform(60.0, 900.0), 2),
        "restart_cost": round(rng.uniform(60.0, 1200.0), 2),
    }


def recommend_params(rng) -> Dict:
    """A ``/recommend`` model; node MTBFs of 2-20 months keep most solvable."""
    params = model_params(rng)
    params["node_mtbf"] = round(rng.uniform(5e6, 5e7), 1)
    return params


def make_requests(seed: int, stream: str, count: int) -> List[Request]:
    """``count`` requests of the seeded mix; ``stream`` names the phase."""
    rng = rng_for(f"serve:{stream}", seed)
    popular_rng = rng_for("serve:popular", seed)
    popular = [recommend_params(popular_rng) for _ in range(POPULAR_MODELS)]
    requests = []
    for _ in range(count):
        roll = rng.random()
        if roll < MALFORMED_SHARE:
            params = model_params(rng)
            if rng.random() < 0.5:
                params["nodes"] = 1
                kind = "unknown_field"
            else:
                params[rng.choice(NONFINITE_FIELDS)] = rng.choice((math.nan, math.inf))
                kind = "nonfinite"
            body = json.dumps(params).encode()
            requests.append(Request(kind, "/evaluate", body, 400, None))
        elif roll < MALFORMED_SHARE + RECOMMEND_SHARE:
            params = rng.choice(popular) if rng.random() < 0.5 else recommend_params(rng)
            body = json.dumps({"model": params}).encode()
            requests.append(Request("recommend", "/recommend", body, 200, params))
        else:
            params = model_params(rng)
            body = json.dumps(params).encode()
            requests.append(Request("evaluate", "/evaluate", body, 200, params))
    return requests


# -- HTTP client ---------------------------------------------------------------


class Connection:
    """One keep-alive HTTP/1.1 connection to the server."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.reader = self.writer = None

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection("127.0.0.1", self.port)

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except ConnectionError:
                pass
            self.writer = None

    async def call(self, method: str, path: str, body: bytes = b"") -> Tuple[int, bytes]:
        """One request; status 0 means the connection failed (reopened)."""
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        )
        try:
            self.writer.write(head.encode("latin-1") + body)
            await self.writer.drain()
            status_line = await self.reader.readline()
            status = int(status_line.split()[1])
            length = 0
            while True:
                line = await self.reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value.strip())
            payload = await self.reader.readexactly(length) if length else b""
            return status, payload
        except (ConnectionError, asyncio.IncompleteReadError, IndexError, ValueError):
            await self.close()
            await self.open()
            return 0, b""


async def _closed_loop(conns, requests) -> Tuple[List[Outcome], float]:
    outcomes: List[Optional[Outcome]] = [None] * len(requests)
    queue = iter(enumerate(requests))

    async def worker(conn):
        for index, request in queue:
            sent = time.perf_counter()
            status, body = await conn.call("POST", request.path, request.body)
            outcomes[index] = Outcome(request, status, body, time.perf_counter() - sent)

    started = time.perf_counter()
    await asyncio.gather(*(worker(conn) for conn in conns))
    return outcomes, time.perf_counter() - started


async def _open_loop(conns, requests, rate) -> Tuple[List[Outcome], List[float]]:
    """Send request i at ``start + i / rate``; latency counts from then."""
    free: asyncio.Queue = asyncio.Queue()
    for conn in conns:
        free.put_nowait(conn)
    outcomes: List[Optional[Outcome]] = [None] * len(requests)
    lateness: List[float] = []
    tasks = []

    async def send(index, request, due, conn):
        status, body = await conn.call("POST", request.path, request.body)
        outcomes[index] = Outcome(request, status, body, time.perf_counter() - due)
        free.put_nowait(conn)

    start = time.perf_counter() + 0.01
    for index, request in enumerate(requests):
        due = start + index / rate
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        lateness.append(time.perf_counter() - due)
        conn = await free.get()
        tasks.append(asyncio.create_task(send(index, request, due, conn)))
    await asyncio.gather(*tasks)
    return outcomes, lateness


async def _drive(port: int, pid: int, seed: int, seconds: float) -> Dict:
    conns = [Connection(port) for _ in range(CONNECTIONS)]
    for conn in conns:
        await conn.open()
    try:
        warm, _ = await _closed_loop(conns, make_requests(seed, "warmup", WARMUP))
        cpu_before = proc_cpu_s(pid)
        closed, closed_wall = await _closed_loop(
            conns, make_requests(seed, "closed", int(CLOSED_PER_SECOND * seconds))
        )
        count = int(OPEN_RATE * OPEN_SHARE * seconds)
        opened, lateness = await _open_loop(
            conns, make_requests(seed, "open", count), OPEN_RATE
        )
        cpu_after = proc_cpu_s(pid)
        status, body = await conns[0].call("GET", "/metrics")
        if status != 200:
            raise BenchError(f"GET /metrics answered {status}")
        server_metrics = json.loads(body)
    finally:
        for conn in conns:
            await conn.close()
    return {
        "warmup": warm,
        "closed": closed,
        "closed_wall_s": closed_wall,
        "open": opened,
        "lateness_s": lateness,
        "server_cpu_s": cpu_after - cpu_before,
        "server_metrics": server_metrics,
    }


# -- correctness ---------------------------------------------------------------


def _same(a, b) -> bool:
    """Bit-for-bit equality of decoded JSON values (NaN equals NaN)."""
    if isinstance(a, float) and isinstance(b, float):
        return a.hex() == b.hex() or (math.isnan(a) and math.isnan(b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and a == b


def expected_answer(request: Request) -> Dict:
    """What the server must answer, derived from the scalar model."""
    from repro.errors import ModelDivergence
    from repro.models.advisor import recommend
    from repro.models.combined import CombinedModel
    from repro.models.redundancy import PAPER_REDUNDANCY_GRID
    from repro.service.batching import model_to_dict
    from repro.service.server import recommendation_to_dict

    model = CombinedModel(**request.params)
    if request.kind == "recommend":  # raises ModelDivergence if unsolvable
        rec = recommend(model, grid=tuple(PAPER_REDUNDANCY_GRID))
        return {"model": model_to_dict(model), **recommendation_to_dict(rec)}
    try:
        result = model.evaluate()
    except ModelDivergence:
        return {"diverged": True}
    return {
        "model": model_to_dict(model),
        "redundant_time": result.redundant_time,
        "total_processes": result.total_processes,
        "system_reliability": result.system_reliability,
        "failure_rate": result.failure_rate,
        "system_mtbf": result.system_mtbf,
        "checkpoint_interval": result.checkpoint_interval,
        "total_time": result.total_time,
        "diverged": not math.isfinite(result.total_time),
    }


def answer_matches(outcome: Outcome) -> bool:
    from repro.errors import ModelDivergence

    served = json.loads(outcome.body)
    try:
        expected = expected_answer(outcome.request)
    except ModelDivergence:
        return _refused_as_divergent(outcome)
    if _refused_as_divergent(outcome):
        return False
    if expected == {"diverged": True}:
        return served.get("diverged") is True
    return _same(served, expected)


def _refused_as_divergent(outcome: Outcome) -> bool:
    if outcome.request.kind != "recommend" or outcome.status != 400:
        return False
    return json.loads(outcome.body).get("error_type") == "ModelDivergence"


def status_ok(outcome: Outcome) -> bool:
    """The expected status; a /recommend may also refuse an unsolvable model.

    Whether that refusal was right is decided by :func:`verify`.
    """
    return outcome.status == outcome.request.expect or _refused_as_divergent(outcome)


def classify(outcomes: List[Outcome]) -> Dict[str, int]:
    """Failed operations by cause.

    ``bad_request_status``: a malformed body did not get 400 (on the
    current code a non-finite field gets 500, or 200 for some fields) -
    deterministic.  ``valid_request_5xx``: a well-formed request got a
    5xx; on the current code that is a batch-mate's non-finite field
    failing the whole grid call, so it depends on timing.
    ``other_status``: any other unexpected status (429, 503, 0).
    """
    causes = {"bad_request_status": 0, "valid_request_5xx": 0, "other_status": 0}
    for outcome in outcomes:
        if status_ok(outcome):
            continue
        if outcome.request.expect == 400:
            causes["bad_request_status"] += 1
        elif 500 <= outcome.status < 600:
            causes["valid_request_5xx"] += 1
        else:
            causes["other_status"] += 1
    return causes


def verify(outcomes: List[Outcome], seed: int) -> Tuple[int, int]:
    """Re-derive a seeded sample of answers; returns (checked, mismatched)."""
    answered = [
        o for o in outcomes
        if o.request.params is not None and (o.status == 200 or _refused_as_divergent(o))
    ]
    evaluates = [o for o in answered if o.request.kind == "evaluate"]
    sample = rng_for("serve:verify", seed).sample(evaluates, min(VERIFY_SAMPLE, len(evaluates)))
    sample += [o for o in answered if o.request.kind == "recommend"]
    mismatched = sum(1 for outcome in sample if not answer_matches(outcome))
    return len(sample), mismatched


# -- one server run --------------------------------------------------------------


def _serve_argv(store) -> List[str]:
    return ["serve", "--port", "0", "--store", str(store)]


def _start_server(argv, work, tag, children) -> Tuple[Child, int, float]:
    child = Child(argv, work / f"{tag}.log")
    children.append(child)
    line, elapsed = child.readline_until("serving on")
    match = _READY.search(line)
    if match is None:
        raise BenchError(f"unreadable ready line: {line!r}")
    return child, int(match.group(1)), elapsed


async def _healthz(port: int) -> int:
    conn = Connection(port)
    await conn.open()
    try:
        status, _body = await conn.call("GET", "/healthz")
    finally:
        await conn.close()
    return status


def _stop_server(child: Child, port: int) -> str:
    # The server installs its SIGTERM handler just after printing the
    # ready line; one answered request proves the handler is in place.
    if asyncio.run(_healthz(port)) != 200:
        raise BenchError("server did not answer /healthz")
    child.terminate()
    rest = child.read_rest()
    if child.wait(timeout=30) != 0:
        raise BenchError(f"server exited with {child.proc.returncode}: {child.log_tail()}")
    return rest


def _setup_sample(work, tag, children) -> float:
    argv = [sys.executable, "-m", "repro.cli", *_serve_argv(work / f"store-{tag}")]
    child, port, elapsed = _start_server(argv, work, tag, children)
    _stop_server(child, port)
    return elapsed


def _serve_once(argv, work, tag, seed, seconds, children) -> Tuple[Dict, Child, float]:
    child, port, elapsed = _start_server(argv, work, tag, children)
    # The generator's own collector pauses would land in the measured
    # latencies; it allocates little, so it runs without one.
    gc.collect()
    gc.disable()
    try:
        result = asyncio.run(_drive(port, child.proc.pid, seed, seconds))
    finally:
        gc.enable()
    result["drained"] = _stop_server(child, port).strip()
    return result, child, elapsed


def _summary(served_run: Dict, seed: int) -> Tuple[Dict, Dict, int, int]:
    """Latency figures, counts, attempted and failed ops of one server run."""
    outcomes = served_run["warmup"] + served_run["closed"] + served_run["open"]
    causes = classify(outcomes)
    checked, mismatched = verify(outcomes, seed)
    causes["mismatch"] = mismatched
    opened = served_run["open"]
    latencies = sorted(
        o.latency_s if status_ok(o) else math.inf for o in opened
    )
    lateness = sorted(served_run["lateness_s"])
    served = served_run["server_metrics"]
    requests = len(served_run["closed"]) + len(opened)
    store = served.get("store") or {}
    counts = {
        "service.server_cpu_ms_per_req": served_run["server_cpu_s"] / requests * 1000.0,
        "service.batch_size_mean": served["batcher"]["mean_batch_size"],
        "service.shed": served["batcher"]["shed"],
        "service.status_4xx": sum(1 for o in outcomes if 400 <= o.status < 500),
        "service.status_5xx": sum(1 for o in outcomes if 500 <= o.status < 600),
        "models.recommend_cache_hit_ratio": served["recommend_cache"]["hit_ratio"],
        "store.gets": store.get("hits", 0) + store.get("misses", 0),
        "store.puts": store.get("writes", 0),
        "store.hit_ratio": store.get("hit_ratio", 0.0),
        "loadgen.rps": len(served_run["closed"]) / served_run["closed_wall_s"],
        "loadgen.lateness_p99_ms": nearest_rank(lateness, 99) * 1000.0,
    }
    figures = {
        "closed_requests": len(served_run["closed"]),
        "closed_wall_s": served_run["closed_wall_s"],
        "open_requests": len(opened),
        "open_rate": OPEN_RATE,
        "p50_ms": nearest_rank(latencies, 50) * 1000.0,
        "p95_ms": nearest_rank(latencies, 95) * 1000.0,
        "p99_ms": nearest_rank(latencies, 99) * 1000.0,
        "p99_samples_beyond": samples_beyond(len(latencies), 99),
        "p99_supported": percentile_supported(len(latencies), 99),
        "lateness_p50_ms": nearest_rank(lateness, 50) * 1000.0,
        "lateness_p99_ms": nearest_rank(lateness, 99) * 1000.0,
        "evaluations": served["batcher"]["evaluations"],
        "batches": served["batcher"]["batches"],
        "verified_answers": checked,
        "open_tail": [
            [round(o.latency_s * 1000.0, 3), o.request.kind, o.status]
            for o in sorted(opened, key=lambda o: o.latency_s)[-30:]
        ],
        "failed_by_cause": causes,
        "failures": [
            {"kind": o.request.kind, "status": o.status, "body": o.body[:300].decode(errors="replace"),
             "request": o.request.body[:300].decode(errors="replace")}
            for o in outcomes
            if not status_ok(o)
        ][:50],
        "drained": served_run["drained"],
    }
    return figures, counts, len(outcomes), sum(causes.values())


def run(workload: str, seed: int, trace: bool, seconds: float):
    """Run the serve workload; returns (metric values, attempted, failed, record)."""
    work = fresh_work_dir(workload)
    children: List[Child] = []
    plain_argv = [sys.executable, "-m", "repro.cli", *_serve_argv(work / "store-main")]
    try:
        if trace:
            return _traced(seed, seconds, work, children, plain_argv)
        setups = [_setup_sample(work, f"setup{i}", children) for i in range(SETUP_STARTS - 1)]
        served_run, server, elapsed = _serve_once(plain_argv, work, "main", seed, seconds, children)
        setups.append(elapsed)
    finally:
        for child in children:
            child.kill()
    figures, counts, attempted, failed = _summary(served_run, seed)
    values = {
        "setup_s": median(setups),
        "op_ms": figures["p50_ms"],
        "peak_rss_mb": server.peak_rss_mb,
    }
    record = {
        "setup_samples_s": setups,
        "figures": figures,
        "counts": counts,
        "correct": figures["failed_by_cause"]["mismatch"] == 0,
    }
    return values, attempted + len(setups), failed, record


def _traced(seed, seconds, work, children, plain_argv):
    plain, _server, _elapsed = _serve_once(plain_argv, work, "plain", seed, seconds, children)
    profile_out, samples_out = work / "serve.prof", work / "probes.json"
    traced_argv = [
        sys.executable, str(BENCH_DIR / "serve_child.py"), str(profile_out),
        str(samples_out), *_serve_argv(work / "store-traced"),
    ]
    traced, _server, _elapsed = _serve_once(traced_argv, work, "traced", seed, seconds, children)
    importer_argv = [
        sys.executable, "-X", "importtime", "-m", "repro.cli",
        *_serve_argv(work / "store-importtime"),
    ]
    importer, port, _elapsed = _start_server(importer_argv, work, "importtime", children)
    _stop_server(importer, port)
    for child in children:
        child.kill()

    figures, counts, attempted, failed = _summary(plain, seed)
    traced_figures, _counts, traced_attempted, traced_failed = _summary(traced, seed)
    stats = fold.load(str(profile_out))
    totals = fold.fold(stats)
    rows = fold.function_rows(stats, _ROWS)
    probes = json.loads(samples_out.read_text())
    waits = sorted(probes["queue_wait_s"])
    parses = len(probes["parse_json_s"])
    requests = traced_figures["closed_requests"] + traced_figures["open_requests"]
    grid = rows["models/grid.py:evaluate_grid"]
    advisor = rows["models/advisor.py:recommend"]
    gets = rows["store/__init__.py:get_object"]
    puts = rows["store/__init__.py:put_object"]

    values = fold_importtime((work / "importtime.log").read_text())
    values.update(counts)
    values.update(self_seconds(totals, ("service", "models", "store")))
    values.update(
        {
            "service.queue_wait_p50_ms": nearest_rank(waits, 50) * 1000.0 if waits else 0.0,
            "service.queue_wait_p99_ms": nearest_rank(waits, 99) * 1000.0 if waits else 0.0,
            "service.parse_us": (
                (sum(probes["parse_json_s"]) + sum(probes["parse_model_s"])) / parses * 1e6
                if parses else 0.0
            ),
            "models.grid_calls": grid["calls"],
            "models.grid_us_per_call": fold.per_call(grid, 1e6),
            "models.cells_per_call": (
                traced_figures["evaluations"] / grid["calls"] if grid["calls"] else 0.0
            ),
            "models.recommend_ms": fold.per_call(advisor, 1000.0),
            "store.get_us": fold.per_call(gets, 1e6),
            "store.put_ms": fold.per_call(puts, 1000.0),
            "stdlib.json_s": totals.get("json", 0.0) / requests,
            "stdlib.asyncio_s": totals.get("asyncio", 0.0) / requests,
            "runtime.c_self_s": totals.get("c_builtins", 0.0),
            "runtime.stdlib_self_s": totals.get("stdlib", 0.0),
            "runtime.numpy_self_s": totals.get("numpy", 0.0),
            "trace.overhead": traced_figures["closed_wall_s"] / figures["closed_wall_s"],
            "trace.named_share": fold.named_share(totals),
        }
    )
    record = {
        "figures": figures,
        "traced_figures": traced_figures,
        "counts": counts,
        "profile_buckets_s": totals,
        "profile_rows": rows,
        "queue_wait_samples": len(waits),
        "correct": (
            figures["failed_by_cause"]["mismatch"] == 0
            and traced_figures["failed_by_cause"]["mismatch"] == 0
        ),
    }
    return values, attempted + traced_attempted, failed + traced_failed, record
