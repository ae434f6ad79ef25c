"""Micro-batching engine: coalesce concurrent evaluations into one grid.

Concurrent ``/evaluate`` requests arriving within a small window are
answered by a *single* vectorized
:func:`~repro.models.grid.evaluate_grid` call instead of one scalar
:meth:`~repro.models.combined.CombinedModel.evaluate` each — the
vectorized pipeline amortises its fixed cost over the batch, which is
what lets one process serve heavy traffic.

The collection rule is the classic N-or-T window: a batch closes when
it holds ``max_batch`` requests or ``max_wait`` seconds have passed
since its first request, whichever comes first.  A lone request
therefore waits at most ``max_wait`` and a burst is served at full
batch width.

Correctness contract — **batched answers are bit-identical to direct
scalar model calls**.  Two mechanisms guarantee it:

* the scalar and vectorized pipelines share one arithmetic substrate
  (numpy scalar ufuncs + ``integer_power``; see
  :mod:`repro.models.reliability`), and numpy's element-wise loops give
  the same last-ULP result for a batch of one and a batch of a
  thousand;
* requests are grouped by the non-numeric knobs (``interval_rule``,
  ``exact_reliability``, override presence) so every grid call is
  homogeneous in code path and only the numeric inputs vary.

Robustness: every request is domain-validated *before* it enters the
queue (:func:`validate_model`), so one bad request 400s alone instead
of poisoning its whole batch; the queue is bounded and overflowing
requests are shed immediately with
:class:`~repro.errors.ServiceOverloadedError` (the server's 429).
"""

from __future__ import annotations

import asyncio
import math
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..errors import (
    ConfigurationError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from ..models.combined import CombinedModel
from ..models.grid import evaluate_grid

__all__ = ["MicroBatcher", "model_to_dict", "validate_model"]

#: Histogram bounds for batch sizes (requests per grid call).
BATCH_SIZE_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
)

_STOP = object()

#: The numeric request fields (``checkpoint_interval`` may be None).
_NUMERIC_FIELDS = (
    "virtual_processes",
    "redundancy",
    "node_mtbf",
    "alpha",
    "base_time",
    "checkpoint_cost",
    "restart_cost",
    "checkpoint_interval",
)


def validate_model(model: CombinedModel) -> None:
    """Domain-check one request's model up front (mirrors the grid).

    ``CombinedModel`` itself validates only its structural fields;
    the numeric domains are enforced lazily by the evaluation pipeline.
    A batched service must check them *per request*: a single
    out-of-domain value would otherwise fail the whole grid call and
    take its batch-mates down with it.  NaN and infinities are
    rejected first: every range check below is False for NaN.
    """
    for name in _NUMERIC_FIELDS:
        value = getattr(model, name)
        if value is not None and not math.isfinite(value):
            raise ConfigurationError(f"{name} must be finite, got {value}")
    if model.virtual_processes < 1:
        raise ConfigurationError("virtual_processes must be >= 1")
    if model.redundancy < 1.0:
        raise ConfigurationError("redundancy must be >= 1")
    if model.node_mtbf <= 0:
        raise ConfigurationError("node_mtbf must be > 0")
    if not 0.0 <= model.alpha <= 1.0:
        raise ConfigurationError("alpha must be in [0, 1]")
    if model.base_time < 0:
        raise ConfigurationError("base_time must be >= 0")
    if model.checkpoint_cost <= 0:
        raise ConfigurationError("checkpoint_cost must be > 0")
    if model.restart_cost < 0:
        raise ConfigurationError("restart_cost must be >= 0")


def model_to_dict(model: CombinedModel) -> Dict[str, Any]:
    """The request echo embedded in every evaluation answer."""
    return {
        "virtual_processes": model.virtual_processes,
        "redundancy": model.redundancy,
        "node_mtbf": model.node_mtbf,
        "alpha": model.alpha,
        "base_time": model.base_time,
        "checkpoint_cost": model.checkpoint_cost,
        "restart_cost": model.restart_cost,
        "interval_rule": model.interval_rule,
        "checkpoint_interval": model.checkpoint_interval,
        "exact_reliability": model.exact_reliability,
    }


class MicroBatcher:
    """N-or-T request coalescer in front of the vectorized model.

    Parameters
    ----------
    max_batch:
        Most requests folded into one grid call.
    max_wait:
        Seconds a batch's first request may wait for company.
    queue_limit:
        Bound on queued (admitted, not yet evaluated) requests; beyond
        it, :meth:`submit` sheds with ``ServiceOverloadedError``.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` receiving
        the batch-size histogram, queue-depth gauge and shed/evaluation
        counters.
    """

    def __init__(
        self,
        max_batch: int = 64,
        max_wait: float = 0.002,
        queue_limit: int = 256,
        metrics=None,
    ) -> None:
        if max_batch < 1:
            raise ConfigurationError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait < 0:
            raise ConfigurationError(f"max_wait must be >= 0, got {max_wait}")
        if queue_limit < 1:
            raise ConfigurationError(
                f"queue_limit must be >= 1, got {queue_limit}"
            )
        self.max_batch = int(max_batch)
        self.max_wait = float(max_wait)
        self.queue_limit = int(queue_limit)
        self.metrics = metrics
        self._queue: Optional[asyncio.Queue] = None
        self._task: Optional[asyncio.Task] = None
        self._closed = False
        #: Totals over the batcher's lifetime.
        self.batches = 0
        self.evaluations = 0
        self.shed = 0

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Create the queue and the collector task (idempotent)."""
        if self._task is not None:
            return
        self._closed = False
        self._queue = asyncio.Queue(maxsize=self.queue_limit)
        self._task = asyncio.create_task(self._run(), name="micro-batcher")

    async def stop(self) -> None:
        """Drain: admitted requests are answered, then the task exits."""
        self._closed = True
        if self._task is None:
            return
        # The sentinel lands behind every admitted request, so the
        # collector answers everything in flight before it sees it.
        await self._queue.put(_STOP)
        await self._task
        self._task = None

    @property
    def queue_depth(self) -> int:
        """Requests admitted but not yet evaluated."""
        return self._queue.qsize() if self._queue is not None else 0

    # -- request path --------------------------------------------------------

    async def submit(self, model: CombinedModel) -> Dict[str, Any]:
        """Admit one request; resolves with its evaluation answer.

        Raises ``ServiceClosedError`` when draining/stopped and
        ``ServiceOverloadedError`` when the bounded queue is full.
        """
        if self._closed or self._queue is None:
            raise ServiceClosedError("service is draining; no new requests")
        validate_model(model)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        try:
            self._queue.put_nowait((model, future))
        except asyncio.QueueFull:
            self.shed += 1
            if self.metrics is not None:
                self.metrics.counter("serve.shed").inc()
            raise ServiceOverloadedError(
                f"request queue full ({self.queue_limit}); retry later"
            ) from None
        if self.metrics is not None:
            self.metrics.gauge("serve.queue_depth").set(self._queue.qsize())
        return await future

    # -- collector -----------------------------------------------------------

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            first = await self._queue.get()
            if first is _STOP:
                return
            batch: List[Tuple[CombinedModel, asyncio.Future]] = [first]
            deadline = loop.time() + self.max_wait
            stop = False
            while len(batch) < self.max_batch:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    break
                try:
                    item = await asyncio.wait_for(self._queue.get(), remaining)
                except asyncio.TimeoutError:
                    break
                if item is _STOP:
                    stop = True
                    break
                batch.append(item)
            self._execute(batch)
            if self.metrics is not None:
                self.metrics.gauge("serve.queue_depth").set(self._queue.qsize())
            if stop:
                return

    def _execute(
        self, batch: List[Tuple[CombinedModel, asyncio.Future]]
    ) -> None:
        """One coalesced round: group, grid-evaluate, resolve futures."""
        self.batches += 1
        self.evaluations += len(batch)
        if self.metrics is not None:
            self.metrics.histogram(
                "serve.batch_size", buckets=BATCH_SIZE_BUCKETS
            ).observe(len(batch))
            self.metrics.counter("serve.batches").inc()
            self.metrics.counter("serve.evaluations").inc(len(batch))
        groups: Dict[Tuple[str, bool, bool], List[Tuple[CombinedModel, asyncio.Future]]] = {}
        for model, future in batch:
            key = (
                model.interval_rule,
                model.exact_reliability,
                model.checkpoint_interval is not None,
            )
            groups.setdefault(key, []).append((model, future))
        for (rule, exact, has_override), items in groups.items():
            models = [model for model, _future in items]
            try:
                grid = evaluate_grid(
                    virtual_processes=np.array(
                        [m.virtual_processes for m in models], dtype=np.float64
                    ),
                    redundancy=np.array(
                        [m.redundancy for m in models], dtype=np.float64
                    ),
                    node_mtbf=np.array(
                        [m.node_mtbf for m in models], dtype=np.float64
                    ),
                    alpha=np.array([m.alpha for m in models], dtype=np.float64),
                    base_time=np.array(
                        [m.base_time for m in models], dtype=np.float64
                    ),
                    checkpoint_cost=np.array(
                        [m.checkpoint_cost for m in models], dtype=np.float64
                    ),
                    restart_cost=np.array(
                        [m.restart_cost for m in models], dtype=np.float64
                    ),
                    interval_rule=rule,
                    exact_reliability=exact,
                    checkpoint_interval=(
                        np.array(
                            [m.checkpoint_interval for m in models],
                            dtype=np.float64,
                        )
                        if has_override
                        else None
                    ),
                )
            except Exception as error:  # noqa: BLE001 - backstop; requests
                # are pre-validated, so this is an internal failure and
                # every member of the group must hear about it.
                for _model, future in items:
                    if not future.done():
                        future.set_exception(error)
                continue
            for position, (model, future) in enumerate(items):
                if not future.done():
                    future.set_result(self._answer(grid, position, model))

    @staticmethod
    def _answer(grid, position: int, model: CombinedModel) -> Dict[str, Any]:
        total_time = float(grid.total_time[position])
        return {
            "model": model_to_dict(model),
            "redundant_time": float(grid.redundant_time[position]),
            "total_processes": int(grid.total_processes[position]),
            "system_reliability": float(grid.system_reliability[position]),
            "failure_rate": float(grid.failure_rate[position]),
            "system_mtbf": float(grid.system_mtbf[position]),
            "checkpoint_interval": float(grid.checkpoint_interval[position]),
            "total_time": total_time,
            "diverged": not math.isfinite(total_time),
        }
