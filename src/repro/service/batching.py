"""Micro-batching engine: coalesce concurrent evaluations into one grid.

Concurrent ``/evaluate`` requests that are queued together are
answered by a *single* vectorized
:func:`~repro.models.grid.evaluate_grid` call instead of one scalar
:meth:`~repro.models.combined.CombinedModel.evaluate` each — the
vectorized pipeline amortises its fixed cost over the batch, which is
what lets one process serve heavy traffic.

The collection rule has no timer: the collector awaits a first
request, yields one loop tick so handlers woken by the same poll can
submit, then drains whatever is already queued, up to ``max_batch``.
A lone request is evaluated at once; under a burst, requests pile up
while the previous grid call runs and the next batch takes them all.

Correctness contract — **batched answers are bit-identical to direct
``CombinedModel.evaluate()`` calls**.  Two facts guarantee it:

* there is one kernel: ``evaluate()`` is itself a one-cell
  :func:`~repro.models.grid.evaluate_grid` call, and the kernel's
  element-wise arithmetic (numpy ufuncs and a masked multiply chain for
  the sphere powers) gives each cell the same bits in a batch of one
  and in a batch of a thousand;
* requests are grouped by the non-numeric knobs (``interval_rule``,
  ``exact_reliability``, override presence) so every grid call is
  homogeneous in code path and only the numeric inputs vary.

Robustness: a :class:`~repro.models.combined.CombinedModel` checks its
domain when it is built, so an out-of-domain request fails (a 400)
before it exists as a model, let alone joins a batch; the queue is
bounded and overflowing requests are shed immediately with
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
from ..models.grid import DOMAIN, evaluate_grid

__all__ = ["MicroBatcher", "model_to_dict"]

#: Histogram bounds for batch sizes (requests per grid call).
BATCH_SIZE_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
)

_STOP = object()


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
    """Request coalescer in front of the vectorized model.

    Parameters
    ----------
    max_batch:
        Most requests folded into one grid call.
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
        queue_limit: int = 256,
        metrics=None,
    ) -> None:
        if max_batch < 1:
            raise ConfigurationError(f"max_batch must be >= 1, got {max_batch}")
        if queue_limit < 1:
            raise ConfigurationError(
                f"queue_limit must be >= 1, got {queue_limit}"
            )
        self.max_batch = int(max_batch)
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
        while True:
            first = await self._queue.get()
            if first is _STOP:
                return
            # One loop tick lets handlers woken by the same poll submit.
            await asyncio.sleep(0)
            batch: List[Tuple[CombinedModel, asyncio.Future]] = [first]
            stop = False
            while len(batch) < self.max_batch and not self._queue.empty():
                item = self._queue.get_nowait()
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
                    interval_rule=rule,
                    exact_reliability=exact,
                    **{
                        name: np.array(
                            [getattr(m, name) for m in models], dtype=np.float64
                        )
                        for name in DOMAIN
                        if has_override or name != "checkpoint_interval"
                    },
                )
            except Exception as error:  # noqa: BLE001 - backstop; models
                # are validated when built, so this is an internal failure
                # and every member of the group must hear about it.
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
