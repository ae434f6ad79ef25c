"""The model-serving endpoint: `repro-exp serve`.

A small asyncio HTTP/1.1 server (standard library only) that answers
model evaluations and advisor recommendations over JSON:

``POST /evaluate``
    Body is a :class:`~repro.models.combined.CombinedModel` parameter
    object.  Concurrent requests are coalesced by the
    :class:`~repro.service.batching.MicroBatcher` into single vectorized
    grid calls; answers are bit-identical to a direct
    ``CombinedModel.evaluate()``.
``POST /recommend``
    Body is ``{"model": {...}, "grid"?, "node_budget"?, "time_weight"?,
    "resource_weight"?}``, with at most :data:`MAX_GRID_DEGREES` grid
    degrees; answered by
    :func:`~repro.models.advisor.recommend`, memoized twice — in
    process (the advisor's own LRU) and, when a results store is
    attached, across restarts via
    :meth:`~repro.store.ResultsStore.get_object`.
``GET /healthz``
    Liveness + drain state + queue depth.
``GET /metrics``
    The :class:`~repro.obs.metrics.MetricsRegistry` snapshot (batch-size
    histogram, queue-depth gauge, shed counter) plus batcher totals,
    store statistics and the advisor cache ratio.

Responses use Python's default JSON float handling, so diverged
configurations carry literal ``Infinity`` — the bundled
:class:`~repro.service.client.ServeClient` (and any Python
``json.loads``) round-trips it exactly.

Overload and shutdown semantics: the batcher's bounded queue sheds
excess load as **429**; once a drain starts (SIGTERM or
:meth:`ModelServer.request_shutdown`) new work gets **503** while every
admitted request is still answered before the process exits.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import signal
import threading
import time
from typing import Any, Dict, Optional, Tuple

from ..errors import (
    ConfigurationError,
    ModelDivergence,
    ReproError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from ..models.advisor import Recommendation, recommend, recommend_cache_info
from ..models.combined import CombinedModel
from ..models.redundancy import PAPER_REDUNDANCY_GRID
from ..obs.metrics import MetricsRegistry
from .batching import MicroBatcher, model_to_dict

__all__ = ["ModelServer", "ServerThread", "parse_model", "recommendation_to_dict"]

#: Largest request body read; a bigger ``Content-Length`` gets 413.
MAX_BODY_BYTES = 1 << 20

#: Most candidate degrees one ``/recommend`` ``grid`` may list.  The sweep
#: runs on the event loop and its result stays in the advisor's memo, so a
#: longer grid gets 400 (1,000 degrees take well under 0.1 s).
MAX_GRID_DEGREES = 1000

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Fields a ``/evaluate`` body may carry (the CombinedModel parameters).
_MODEL_FIELDS = {
    "virtual_processes",
    "redundancy",
    "node_mtbf",
    "alpha",
    "base_time",
    "checkpoint_cost",
    "restart_cost",
    "interval_rule",
    "checkpoint_interval",
    "exact_reliability",
}
_REQUIRED_MODEL_FIELDS = (
    "virtual_processes",
    "redundancy",
    "node_mtbf",
    "alpha",
    "base_time",
    "checkpoint_cost",
    "restart_cost",
)


class _RejectedRequest(Exception):
    """A request the server answers with ``status`` and then hangs up on."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _number(name: str, value: Any, integral: bool = False):
    """``value`` if it is a JSON number (an int when ``integral``): booleans,
    strings and fractional counts are rejected, not coerced."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{name} must be a JSON number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ConfigurationError(f"{name} is out of range") from None
    if not integral:
        return number
    if not number.is_integer():
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    return int(number)


def parse_model(body: Any) -> CombinedModel:
    """Build a :class:`CombinedModel` from a request body, strictly.

    Unknown keys and missing required keys are rejected up front — a
    typo like ``"nod_mtbf"`` must 400, not silently evaluate defaults —
    and so is any field of the wrong JSON type.  Out-of-domain values
    fail the model's own construction.
    """
    if not isinstance(body, dict):
        raise ConfigurationError("request body must be a JSON object")
    unknown = set(body) - _MODEL_FIELDS
    if unknown:
        raise ConfigurationError(f"unknown model fields: {sorted(unknown)}")
    missing = [f for f in _REQUIRED_MODEL_FIELDS if f not in body]
    if missing:
        raise ConfigurationError(f"missing model fields: {missing}")
    rule = body.get("interval_rule", "daly")
    if not isinstance(rule, str):
        raise ConfigurationError(f"interval_rule must be a string, got {rule!r}")
    exact = body.get("exact_reliability", False)
    if not isinstance(exact, bool):
        raise ConfigurationError(f"exact_reliability must be a boolean, got {exact!r}")
    interval = body.get("checkpoint_interval")
    return CombinedModel(
        **{
            name: _number(name, body[name], integral=name == "virtual_processes")
            for name in _REQUIRED_MODEL_FIELDS
        },
        interval_rule=rule,
        checkpoint_interval=(
            None if interval is None else _number("checkpoint_interval", interval)
        ),
        exact_reliability=exact,
    )


def recommendation_to_dict(rec: Recommendation) -> Dict[str, Any]:
    """The wire form of an advisor recommendation."""
    return {
        "redundancy": rec.redundancy,
        "checkpoint_interval": rec.checkpoint_interval,
        "total_time": rec.total_time,
        "total_processes": rec.total_processes,
        "speedup_vs_plain": rec.speedup_vs_plain,
        "rationale": rec.rationale,
        "candidates": [
            {
                "redundancy": point.redundancy,
                "total_time": point.total_time,
                "diverged": point.diverged,
            }
            for point in rec.candidates
        ],
    }


class ModelServer:
    """Asyncio HTTP server over a :class:`MicroBatcher` and the advisor.

    Parameters
    ----------
    host / port:
        Bind address; ``port=0`` picks a free port (read :attr:`port`
        after :meth:`start`).
    max_batch / queue_limit:
        Micro-batching knobs, passed through to :class:`MicroBatcher`.
    store:
        Optional :class:`~repro.store.ResultsStore`; when given,
        ``/recommend`` answers persist across restarts.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`; a private
        one is created when omitted.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8787,
        max_batch: int = 64,
        queue_limit: int = 256,
        store=None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.store = store
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.batcher = MicroBatcher(
            max_batch=max_batch,
            queue_limit=queue_limit,
            metrics=self.metrics,
        )
        self.requests = 0
        self.recommend_store_hits = 0
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: set = set()
        self._shutdown = asyncio.Event()
        self._stopping = False
        #: Signals whose handlers :meth:`handle_signals` installed.
        self._signals: list = []

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket and start the batcher; resolves ``port=0``."""
        await self.batcher.start()
        self._server = await asyncio.start_server(
            self._client, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Graceful drain: refuse new work, answer admitted requests.

        Idempotent.  The listening socket closes first, then the
        batcher drains (resolving every admitted future), then open
        connections get a short grace period to flush their final
        responses before being closed.
        """
        if self._stopping:
            return
        self._stopping = True
        self._shutdown.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.batcher.stop()
        for _ in range(200):  # <= ~2 s for handlers to write final bytes
            if not self._connections:
                break
            await asyncio.sleep(0.01)
        for writer in list(self._connections):
            with contextlib.suppress(Exception):
                writer.close()

    def request_shutdown(self) -> None:
        """Signal-handler entry point: begin the drain asynchronously."""
        self._shutdown.set()

    def handle_signals(self) -> None:
        """Make SIGTERM/SIGINT begin a drain (idempotent).

        Call it before announcing readiness, so a signal that arrives
        right after the announcement drains instead of killing the
        process.  :meth:`run` removes the handlers when it returns.
        """
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            if sig in self._signals:
                continue
            try:
                loop.add_signal_handler(sig, self.request_shutdown)
                self._signals.append(sig)
            except (NotImplementedError, RuntimeError):
                pass

    async def run(self, install_signal_handlers: bool = True) -> None:
        """Serve until SIGTERM/SIGINT (or :meth:`request_shutdown`)."""
        if self._server is None:
            await self.start()
        if install_signal_handlers:
            self.handle_signals()
        try:
            await self._shutdown.wait()
        finally:
            loop = asyncio.get_running_loop()
            for sig in self._signals:
                loop.remove_signal_handler(sig)
            self._signals = []
            await self.stop()

    @property
    def draining(self) -> bool:
        return self._stopping or self._shutdown.is_set()

    # -- request handling ----------------------------------------------------

    async def _client(self, reader, writer) -> None:
        self._connections.add(writer)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _RejectedRequest as rejected:
                    # The body was not read, so the stream is no longer
                    # framed: answer, then close the connection.
                    self.metrics.counter("serve.bad_requests").inc()
                    await self._respond(
                        writer, rejected.status, {"error": str(rejected)}, False
                    )
                    break
                if request is None:
                    break
                method, path, headers, raw = request
                status, payload = await self._dispatch(method, path, raw)
                keep = (
                    headers.get("connection", "").lower() != "close"
                    and not self.draining
                )
                await self._respond(writer, status, payload, keep)
                if not keep:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    @staticmethod
    async def _read_line(reader) -> bytes:
        try:
            return await reader.readline()
        except ValueError as error:  # the line overran the stream's limit
            raise _RejectedRequest(400, "request or header line too long") from error

    @classmethod
    async def _read_request(cls, reader):
        line = await cls._read_line(reader)
        if not line:
            return None
        parts = line.decode("latin-1").split()
        if not parts:
            return None
        if len(parts) < 2:
            raise _RejectedRequest(400, f"malformed request line {parts[0][:64]!r}")
        method, path = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            header = await cls._read_line(reader)
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = headers.get("content-length", "") or "0"
        if not length.isdecimal():
            raise _RejectedRequest(400, f"bad Content-Length: {length!r}")
        size = int(length)
        if size > MAX_BODY_BYTES:
            raise _RejectedRequest(
                413, f"body of {size} bytes exceeds {MAX_BODY_BYTES}"
            )
        raw = await reader.readexactly(size) if size else b""
        return method, path, headers, raw

    async def _respond(self, writer, status: int, payload: Any, keep: bool) -> None:
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep else 'close'}\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    async def _dispatch(
        self, method: str, path: str, raw: bytes
    ) -> Tuple[int, Any]:
        self.requests += 1
        self.metrics.counter("serve.requests").inc()
        try:
            if path == "/healthz":
                if method != "GET":
                    return 405, {"error": "use GET"}
                return 200, self._healthz()
            if path == "/metrics":
                if method != "GET":
                    return 405, {"error": "use GET"}
                return 200, self._metrics_payload()
            if path == "/evaluate":
                if method != "POST":
                    return 405, {"error": "use POST"}
                return 200, await self._evaluate(self._parse_json(raw))
            if path == "/recommend":
                if method != "POST":
                    return 405, {"error": "use POST"}
                return 200, self._recommend(self._parse_json(raw))
            return 404, {"error": f"no such endpoint: {path}"}
        except ServiceOverloadedError as error:
            return 429, {"error": str(error), "error_type": "overloaded"}
        except ServiceClosedError as error:
            return 503, {"error": str(error), "error_type": "draining"}
        except (ConfigurationError, ModelDivergence, ReproError) as error:
            self.metrics.counter("serve.bad_requests").inc()
            return 400, {
                "error": str(error),
                "error_type": type(error).__name__,
            }
        except Exception as error:  # noqa: BLE001 - a handler bug must
            # 500 its own request, not kill the connection loop.
            self.metrics.counter("serve.errors").inc()
            return 500, {"error": str(error), "error_type": type(error).__name__}

    @staticmethod
    def _parse_json(raw: bytes) -> Any:
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ConfigurationError(f"request body is not JSON: {error}") from error

    # -- endpoints -----------------------------------------------------------

    async def _evaluate(self, body: Any) -> Dict[str, Any]:
        if self.draining:
            raise ServiceClosedError("service is draining; no new requests")
        return await self.batcher.submit(parse_model(body))

    def _recommend(self, body: Any) -> Dict[str, Any]:
        if self.draining:
            raise ServiceClosedError("service is draining; no new requests")
        if not isinstance(body, dict) or "model" not in body:
            raise ConfigurationError('recommend body must carry a "model" object')
        unknown = set(body) - {
            "model", "grid", "node_budget", "time_weight", "resource_weight",
        }
        if unknown:
            raise ConfigurationError(f"unknown recommend fields: {sorted(unknown)}")
        model = parse_model(body["model"])
        grid = body.get("grid", PAPER_REDUNDANCY_GRID)
        if not isinstance(grid, (list, tuple)):
            raise ConfigurationError(f"grid must be a list of numbers, got {grid!r}")
        if len(grid) > MAX_GRID_DEGREES:
            raise ConfigurationError(
                f"grid lists {len(grid)} degrees; at most {MAX_GRID_DEGREES}"
            )
        grid = tuple(_number("grid", degree) for degree in grid)
        budget = body.get("node_budget")
        node_budget = (
            None if budget is None else _number("node_budget", budget, integral=True)
        )
        time_weight = _number("time_weight", body.get("time_weight", 1.0))
        resource_weight = _number("resource_weight", body.get("resource_weight", 0.0))
        if not all(map(math.isfinite, (*grid, time_weight, resource_weight))):
            raise ConfigurationError("grid and weights must be finite")
        self.metrics.counter("serve.recommendations").inc()
        params = {
            "model": model,
            "grid": grid,
            "node_budget": node_budget,
            "time_weight": time_weight,
            "resource_weight": resource_weight,
        }
        rec = None
        if self.store is not None:
            rec = self.store.get_object("recommend", params)
            if rec is not None:
                self.recommend_store_hits += 1
                self.metrics.counter("serve.recommend_store_hits").inc()
        if rec is None:
            rec = recommend(
                model,
                grid=grid,
                node_budget=node_budget,
                time_weight=time_weight,
                resource_weight=resource_weight,
            )
            if self.store is not None:
                self.store.put_object("recommend", params, rec)
        return {"model": model_to_dict(model), **recommendation_to_dict(rec)}

    def _healthz(self) -> Dict[str, Any]:
        return {
            "status": "draining" if self.draining else "ok",
            "draining": self.draining,
            "queue_depth": self.batcher.queue_depth,
            "requests": self.requests,
            "evaluations": self.batcher.evaluations,
            "batches": self.batcher.batches,
        }

    def _metrics_payload(self) -> Dict[str, Any]:
        info = recommend_cache_info()
        lookups = info.hits + info.misses
        payload = {
            "metrics": self.metrics.snapshot(),
            "render": self.metrics.render(),
            "batcher": {
                "batches": self.batcher.batches,
                "evaluations": self.batcher.evaluations,
                "shed": self.batcher.shed,
                "queue_depth": self.batcher.queue_depth,
                "mean_batch_size": (
                    self.batcher.evaluations / self.batcher.batches
                    if self.batcher.batches
                    else 0.0
                ),
            },
            "recommend_cache": {
                "hits": info.hits,
                "misses": info.misses,
                "size": info.currsize,
                "hit_ratio": info.hits / lookups if lookups else 0.0,
                "store_hits": self.recommend_store_hits,
            },
            "store": self.store.stats() if self.store is not None else None,
        }
        return payload


class ServerThread:
    """A ModelServer running its own event loop in a daemon thread.

    Used by the service tests: ``start()`` returns once the ephemeral
    port is bound; ``stop()`` triggers the graceful drain and joins the
    thread.
    """

    def __init__(self, **server_kwargs) -> None:
        server_kwargs.setdefault("host", "127.0.0.1")
        server_kwargs.setdefault("port", 0)
        self.server = ModelServer(**server_kwargs)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )

    @property
    def port(self) -> int:
        return self.server.port

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as error:  # noqa: BLE001 - surfaced in start/stop
            self._error = error
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        await self.server.run(install_signal_handlers=False)

    def start(self) -> "ServerThread":
        self._thread.start()
        # run() sets no explicit ready flag; poll for the bound port.
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if self._error is not None:
                raise ReproError(f"server thread failed: {self._error}")
            if self.server.port != 0 and self.server._server is not None:
                return self
            time.sleep(0.005)
        raise ReproError("server thread did not come up within 10 s")

    def stop(self) -> None:
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self.server.request_shutdown)
        self._thread.join(timeout=10.0)
        if self._thread.is_alive():
            raise ReproError("server thread did not drain within 10 s")
        if self._error is not None:
            raise ReproError(f"server thread failed: {self._error}")
