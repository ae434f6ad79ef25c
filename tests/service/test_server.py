"""End-to-end service tests over real sockets (ServerThread + client)."""

import http.client
import json
import logging
import os
import signal
import socket
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro

from repro.errors import ConfigurationError, ServiceError
from repro.models import CombinedModel, recommend
from repro.service import ServeClient, ServerThread
from repro.service import model_to_dict
from repro.service.server import MAX_BODY_BYTES, MAX_GRID_DEGREES, parse_model
from repro.store import ResultsStore


def model(i: int = 0, **overrides) -> CombinedModel:
    params = dict(
        virtual_processes=20_000 + 500 * i,
        redundancy=1.0 + 0.25 * (i % 9),
        node_mtbf=5 * 365 * 24 * 3600.0,
        alpha=0.2,
        base_time=128 * 3600.0,
        checkpoint_cost=480.0,
        restart_cost=720.0,
    )
    params.update(overrides)
    return CombinedModel(**params)


@pytest.fixture(scope="module")
def server():
    runner = ServerThread(max_batch=32).start()
    yield runner
    runner.stop()


@pytest.fixture()
def client(server):
    with ServeClient(port=server.port) as c:
        yield c


class TestEvaluate:
    def test_concurrent_requests_bit_identical_to_scalar(self, server):
        def one(i):
            with ServeClient(port=server.port) as c:
                return c.evaluate(model(i))

        with ThreadPoolExecutor(max_workers=12) as pool:
            answers = list(pool.map(one, range(48)))
        for i, served in enumerate(answers):
            direct = model(i).evaluate()
            assert served["total_time"] == direct.total_time
            assert served["checkpoint_interval"] == direct.checkpoint_interval
            assert served["system_reliability"] == direct.system_reliability
            assert served["failure_rate"] == direct.failure_rate
            assert served["total_processes"] == direct.total_processes
            assert served["diverged"] is False

    def test_diverged_configuration_carries_infinity(self, client):
        served = client.evaluate(model(0, node_mtbf=100.0, base_time=1000.0))
        assert served["diverged"] is True
        assert served["total_time"] == float("inf")

    def test_failure_free_rate_is_positive_zero(self, server):
        # -ln(1) is -0.0; the wire must carry 0.0 for a failure-free cell.
        body = json.dumps(
            model_to_dict(model(0, virtual_processes=1, node_mtbf=1e300))
        ).encode()
        reply = raw_exchange(
            server.port,
            b"POST /evaluate HTTP/1.1\r\nConnection: close\r\n"
            + b"Content-Length: %d\r\n\r\n" % len(body)
            + body,
        )
        assert reply.startswith(b"HTTP/1.1 200 ")
        assert b'"failure_rate": 0.0,' in reply
        assert b"-0.0" not in reply

    def test_missing_field_is_400(self, client):
        with pytest.raises(ConfigurationError, match="missing model fields"):
            client._request("POST", "/evaluate", {"virtual_processes": 10})

    def test_unknown_field_is_400(self, client):
        body = {**{f: 1 for f in (
            "virtual_processes", "redundancy", "node_mtbf", "alpha",
            "base_time", "checkpoint_cost", "restart_cost")}, "typo": 1}
        with pytest.raises(ConfigurationError, match="unknown model fields"):
            client._request("POST", "/evaluate", body)

    def test_out_of_domain_is_400(self, client):
        with pytest.raises(ConfigurationError, match="node_mtbf"):
            client._request(
                "POST", "/evaluate",
                {"virtual_processes": 10, "redundancy": 1.0,
                 "node_mtbf": -5.0, "alpha": 0.2, "base_time": 10.0,
                 "checkpoint_cost": 1.0, "restart_cost": 1.0},
            )


def post_status(port: int, path: str, body) -> int:
    """POST ``body`` (non-finite floats as JSON NaN/Infinity); the status."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("POST", path, body=json.dumps(body))
        response = conn.getresponse()
        response.read()
        return response.status
    finally:
        conn.close()


def raw_exchange(port: int, request: bytes) -> bytes:
    """Send raw bytes; everything the server answers before it hangs up."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


class TestNonFiniteInput:
    def test_nan_request_fails_alone_not_its_batch(self, server):
        bodies = [
            {**model_to_dict(model(0)), "redundancy": float("nan")},
            model_to_dict(model(1)),
            model_to_dict(model(2)),
        ]
        with ThreadPoolExecutor(max_workers=3) as pool:
            statuses = list(pool.map(
                lambda body: post_status(server.port, "/evaluate", body),
                bodies,
            ))
        assert statuses == [400, 200, 200]

    def test_recommend_with_infinity_is_400(self, server):
        body = {"model": {**model_to_dict(model(0)), "node_mtbf": float("inf")}}
        assert post_status(server.port, "/recommend", body) == 400

    def test_recommend_with_infinite_grid_is_400(self, server):
        body = {"model": model_to_dict(model(0)), "grid": [1.0, float("inf")]}
        assert post_status(server.port, "/recommend", body) == 400


class TestRecommendGridLength:
    def test_longest_grid_is_answered(self, client):
        grid = [1.0 + i / MAX_GRID_DEGREES for i in range(MAX_GRID_DEGREES)]
        served = client.recommend(model(7), grid=grid)
        assert len(served["candidates"]) == MAX_GRID_DEGREES


def model_body(**overrides):
    return {**model_to_dict(model(0)), **overrides}


#: Bodies the HTTP boundary must answer with 400: wrong JSON types are
#: rejected rather than coerced, out-of-domain values fail the model's
#: construction, and no grid or budget can reach a 500.  A huge degree
#: or grid must be refused before any evaluation: Eq. 9's sphere power
#: takes ceil(r) multiplies on the loop every client shares.
BAD_REQUESTS = {
    "fractional_processes": ("/evaluate", model_body(virtual_processes=1.5)),
    "boolean_processes": ("/evaluate", model_body(virtual_processes=True)),
    "string_processes": ("/evaluate", model_body(virtual_processes="7")),
    "string_exact_flag": ("/evaluate", model_body(exact_reliability="false")),
    "nan_node_mtbf": ("/evaluate", model_body(node_mtbf=float("nan"))),
    "nan_alpha": ("/evaluate", model_body(alpha=float("nan"))),
    "nan_restart_cost": ("/evaluate", model_body(restart_cost=float("nan"))),
    "nan_checkpoint_cost": ("/evaluate", model_body(checkpoint_cost=float("nan"))),
    "zero_base_time": ("/evaluate", model_body(base_time=0.0)),
    "infinite_base_time": ("/evaluate", model_body(base_time=float("inf"))),
    "scalar_grid": ("/recommend", {"model": model_body(), "grid": 5}),
    "string_in_grid": ("/recommend", {"model": model_body(), "grid": ["x"]}),
    "empty_grid": ("/recommend", {"model": model_body(), "grid": []}),
    "degree_below_one": ("/recommend", {"model": model_body(), "grid": [0.5]}),
    "string_budget": ("/recommend", {"model": model_body(), "node_budget": "x"}),
    "fractional_budget": ("/recommend", {"model": model_body(), "node_budget": 1.5}),
    "boolean_budget": ("/recommend", {"model": model_body(), "node_budget": True}),
    "huge_redundancy": ("/evaluate", model_body(redundancy=1e300)),
    "large_redundancy": ("/evaluate", model_body(redundancy=1e6)),
    "recommend_huge_redundancy": ("/recommend", {"model": model_body(redundancy=1e300)}),
    "recommend_large_redundancy": ("/recommend", {"model": model_body(redundancy=1e6)}),
    "huge_grid_degree": ("/recommend", {"model": model_body(), "grid": [1.0, 1e300]}),
    "large_grid_degree": ("/recommend", {"model": model_body(), "grid": [1.0, 1e6]}),
    "grid_too_long": (
        "/recommend",
        {"model": model_body(), "grid": [1.0] * (MAX_GRID_DEGREES + 1)},
    ),
}


class TestStrictBoundary:
    @pytest.mark.parametrize("case", sorted(BAD_REQUESTS))
    def test_bad_request_is_400(self, server, case):
        path, body = BAD_REQUESTS[case]
        assert post_status(server.port, path, body) == 400

    def test_integral_float_process_count_is_accepted(self):
        assert parse_model(model_body(virtual_processes=20_000.0)) == model(0)


class TestRequestBoundary:
    @pytest.mark.parametrize("length", ["abc", "-5", "1.5"])
    def test_bad_content_length_is_400_and_closes(self, server, length):
        request = (
            "POST /evaluate HTTP/1.1\r\n"
            f"Content-Length: {length}\r\n\r\n{{}}"
        )
        reply = raw_exchange(server.port, request.encode())
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in reply
        assert b"Content-Length" in reply

    def test_oversized_body_is_413_before_reading(self, server):
        # The header announces more than the cap; no body is ever sent,
        # so an answer proves the server did not wait to read it.
        request = (
            "POST /evaluate HTTP/1.1\r\n"
            f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n"
        )
        reply = raw_exchange(server.port, request.encode())
        assert reply.startswith(b"HTTP/1.1 413 ")
        assert b"Connection: close" in reply


class TestMalformedRequest:
    """Requests the parser cannot frame get a 400 and a hang-up, never
    an unhandled exception in the connection callback."""

    @pytest.mark.parametrize(
        "request_bytes",
        [
            b"GARBAGE\r\n\r\n",
            # One header line over asyncio's 64 KiB stream limit.
            b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * 70_000 + b"\r\n\r\n",
        ],
        ids=["request-line", "oversized-header"],
    )
    def test_answered_with_400(self, server, caplog, request_bytes):
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            reply = raw_exchange(server.port, request_bytes)
            # A second exchange lets the loop run any pending callback
            # of the first connection before the log is read.
            health = raw_exchange(
                server.port, b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
            )
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in reply
        assert health.startswith(b"HTTP/1.1 200 ")
        assert [r.getMessage() for r in caplog.records if r.name == "asyncio"] == []


class TestServeProcess:
    def test_sigterm_right_after_ready_line_drains(self):
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env,
        )
        try:
            ready = proc.stdout.readline()
            assert "serving on" in ready, ready
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, out
        assert "drained" in out, out


class TestRecommend:
    def test_matches_local_advisor(self, client):
        served = client.recommend(model(0), node_budget=60_000)
        local = recommend(model(0), node_budget=60_000)
        assert served["redundancy"] == local.redundancy
        assert served["checkpoint_interval"] == local.checkpoint_interval
        assert served["total_time"] == local.total_time
        assert served["total_processes"] == local.total_processes
        assert served["rationale"] == local.rationale
        assert len(served["candidates"]) == len(local.candidates)

    def test_requires_model_key(self, client):
        with pytest.raises(ConfigurationError, match="model"):
            client._request("POST", "/recommend", {"grid": [1.0]})


class TestIntrospection:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["draining"] is False

    def test_metrics_exports_batching_and_cache_stats(self, client):
        client.evaluate(model(1))
        payload = client.metrics()
        assert payload["batcher"]["evaluations"] >= 1
        assert payload["batcher"]["batches"] >= 1
        histogram = payload["metrics"]["histograms"]["serve.batch_size"]
        assert histogram["count"] >= 1
        assert "hit_ratio" in payload["recommend_cache"]

    def test_unknown_path_is_404(self, client):
        with pytest.raises(ServiceError, match="no such endpoint"):
            client._request("GET", "/nope")

    def test_wrong_method_is_405(self, client):
        with pytest.raises(ServiceError, match="use POST"):
            client._request("GET", "/evaluate")


class TestStoreBackedRecommend:
    def test_second_request_hits_the_store(self, tmp_path):
        runner = ServerThread(store=ResultsStore(tmp_path)).start()
        try:
            with ServeClient(port=runner.port) as c:
                first = c.recommend(model(3))
                second = c.recommend(model(3))
                stats = c.metrics()
        finally:
            runner.stop()
        assert first == second
        assert stats["recommend_cache"]["store_hits"] >= 1
        assert stats["store"]["writes"] >= 1


class TestGracefulDrain:
    def test_drain_answers_then_refuses(self):
        runner = ServerThread().start()
        with ServeClient(port=runner.port) as c:
            assert c.evaluate(model(0))["diverged"] is False
        runner.stop()  # graceful: joins only after in-flight work drains
        with pytest.raises(OSError):
            with ServeClient(port=runner.port, timeout=1.0) as c:
                c.healthz()


class TestParseModel:
    def test_round_trips_the_wire_form(self):
        from repro.service import model_to_dict

        m = model(5, interval_rule="young", checkpoint_interval=1234.5)
        assert parse_model(model_to_dict(m)) == m

    def test_rejects_non_object(self):
        with pytest.raises(ConfigurationError):
            parse_model([1, 2, 3])
