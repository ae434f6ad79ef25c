"""Micro-batching engine: coalesce concurrent evaluations into one grid.

Concurrent ``/evaluate`` requests that are queued together are
answered by a *single* vectorized
:func:`~repro.models.grid.evaluate_grid` call instead of one scalar
:meth:`~repro.models.combined.CombinedModel.evaluate` each — the
vectorized pipeline amortises its fixed cost over the batch, which is
what lets one process serve heavy traffic.

The collection rule has no timer and no collector task: the first
:meth:`MicroBatcher.submit` of an event-loop pass schedules a flush
with ``loop.call_soon``, so it runs on the next pass, after every
handler woken by the same poll has submitted.  A flush evaluates up to
``max_batch`` pending requests and, if more are left, schedules the
next flush.  A lone request is evaluated one pass after it arrives;
under a burst, requests pile up while a grid call runs and the next
flush takes them all.

Correctness contract — **batched answers are bit-identical to direct
``CombinedModel.evaluate()`` calls**.  Two facts guarantee it:

* there is one kernel: ``evaluate()`` is itself a one-cell
  :func:`~repro.models.grid.evaluate_grid` call — the very call a
  group of one makes here — and the kernel's element-wise arithmetic
  (numpy ufuncs and a masked multiply chain for the sphere powers)
  gives each cell the same bits as a scalar, in a batch of one and in a
  batch of a thousand;
* requests are grouped by the non-numeric knobs (``interval_rule``,
  ``exact_reliability``, override presence) so every grid call is
  homogeneous in code path and only the numeric inputs vary.

Robustness: a :class:`~repro.models.combined.CombinedModel` checks its
domain when it is built, so an out-of-domain request fails (a 400)
before it exists as a model, let alone joins a batch.  A group of one
is evaluated with no further check.  A larger group stacks its
members' numbers into arrays and passes them to the kernel as axes, so
the kernel checks those already-checked numbers once more, once per
batch rather than once per request.  The pending list is bounded and
overflowing requests are shed immediately with
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
        #: Admitted requests not yet evaluated, in arrival order.  While it
        #: is non-empty a flush is scheduled on the loop.
        self._pending: List[Tuple[CombinedModel, asyncio.Future]] = []
        self._closed = True
        #: Totals over the batcher's lifetime.
        self.batches = 0
        self.evaluations = 0
        self.shed = 0

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Begin admitting requests (idempotent)."""
        self._closed = False

    async def stop(self) -> None:
        """Drain: refuse new requests, answer every admitted one."""
        self._closed = True
        while self._pending:
            await asyncio.sleep(0)

    @property
    def queue_depth(self) -> int:
        """Requests admitted but not yet evaluated."""
        return len(self._pending)

    # -- request path --------------------------------------------------------

    async def submit(self, model: CombinedModel) -> Dict[str, Any]:
        """Admit one request; resolves with its evaluation answer.

        Raises ``ServiceClosedError`` when draining/stopped and
        ``ServiceOverloadedError`` when ``queue_limit`` requests are
        already pending.
        """
        if self._closed:
            raise ServiceClosedError("service is draining; no new requests")
        if len(self._pending) >= self.queue_limit:
            self.shed += 1
            if self.metrics is not None:
                self.metrics.counter("serve.shed").inc()
            raise ServiceOverloadedError(
                f"request queue full ({self.queue_limit}); retry later"
            )
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        if not self._pending:
            loop.call_soon(self._flush)
        self._pending.append((model, future))
        if self.metrics is not None:
            self.metrics.gauge("serve.queue_depth").set(len(self._pending))
        return await future

    def _flush(self) -> None:
        """One loop pass's batch: the oldest ``max_batch`` pending requests."""
        batch = self._pending[: self.max_batch]
        del self._pending[: self.max_batch]
        if self._pending:
            asyncio.get_running_loop().call_soon(self._flush)
        self._execute(batch)
        if self.metrics is not None:
            self.metrics.gauge("serve.queue_depth").set(len(self._pending))

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
        for (_rule, _exact, has_override), items in groups.items():
            models = [model for model, _future in items]
            try:
                if len(models) == 1:
                    # A group of one takes evaluate()'s own scalar call.
                    grid, cells = evaluate_grid(models[0]), [()]
                else:
                    # The group key gives every member the first model's
                    # rule, exact flag and override presence.
                    grid = evaluate_grid(
                        models[0],
                        **{
                            name: np.array(
                                [getattr(m, name) for m in models], dtype=np.float64
                            )
                            for name in DOMAIN
                            if has_override or name != "checkpoint_interval"
                        },
                    )
                    cells = range(len(models))
            except Exception as error:  # noqa: BLE001 - backstop; models
                # are validated when built, so this is an internal failure
                # and every member of the group must hear about it.
                for _model, future in items:
                    if not future.done():
                        future.set_exception(error)
                continue
            for cell, (model, future) in zip(cells, items):
                if not future.done():
                    future.set_result(self._answer(grid, cell, model))

    @staticmethod
    def _answer(grid, cell, model: CombinedModel) -> Dict[str, Any]:
        total_time = float(grid.total_time[cell])
        return {
            "model": model_to_dict(model),
            "redundant_time": float(grid.redundant_time[cell]),
            "total_processes": int(grid.total_processes[cell]),
            "system_reliability": float(grid.system_reliability[cell]),
            "failure_rate": float(grid.failure_rate[cell]),
            "system_mtbf": float(grid.system_mtbf[cell]),
            "checkpoint_interval": float(grid.checkpoint_interval[cell]),
            "total_time": total_time,
            "diverged": not math.isfinite(total_time),
        }
