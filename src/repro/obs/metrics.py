"""Metrics primitives: counters, gauges, fixed-bucket histograms.

:class:`MetricsRegistry` holds named metrics with a snapshot/merge
protocol, so per-worker registries from a parallel campaign fold into
one, and a text rendering for the CLI's ``--metrics`` flag.

Histograms use fixed bucket bounds (Prometheus-style ``le`` semantics:
an observation lands in the first bucket whose upper bound is >= the
value), so percentiles are conservative upper estimates that merge
exactly across processes — no raw samples are shipped around.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

#: Default histogram bounds: 1-2.5-5 per decade over 1 us .. 1e6 s —
#: wide enough for both simulated phase times and wall-clock cell times.
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(
    m * 10.0 ** e for e in range(-6, 7) for m in (1.0, 2.5, 5.0)
)


class Counter:
    """A single monotonically increasing value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError(f"counter increment must be >= 0, got {amount}")
        self.value += amount


class Gauge:
    """A single last-write-wins value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-bucket histogram with conservative percentile estimates."""

    __slots__ = ("name", "bounds", "counts", "total", "count")

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ConfigurationError(
                "histogram buckets must be a strictly increasing, non-empty "
                f"sequence, got {buckets!r}"
            )
        self.name = name
        self.bounds = bounds
        #: One count per bound, plus the overflow bucket at the end.
        self.counts = [0] * (len(bounds) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Upper bound of the bucket holding the ``q``-th percentile.

        Returns ``nan`` when empty and ``inf`` when the rank lands in
        the overflow bucket (observation beyond the largest bound).
        """
        if not 0.0 <= q <= 100.0:
            raise ConfigurationError(f"percentile must be in [0, 100], got {q}")
        if self.count == 0:
            return math.nan
        rank = math.ceil(self.count * q / 100.0) or 1
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= rank:
                if index == len(self.bounds):
                    return math.inf
                return self.bounds[index]
        return math.inf  # pragma: no cover - rank <= count always hits


class MetricsRegistry:
    """Named counters/gauges/histograms with get-or-create access."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- access -------------------------------------------------------------

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(
                name, buckets if buckets is not None else DEFAULT_BUCKETS
            )
        return metric

    # -- snapshot / merge ---------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-friendly dump that :meth:`merge` can fold back in."""
        return {
            "counters": {n: c.value for n, c in self._counters.items()},
            "gauges": {n: g.value for n, g in self._gauges.items()},
            "histograms": {
                n: {
                    "bounds": list(h.bounds),
                    "counts": list(h.counts),
                    "total": h.total,
                    "count": h.count,
                }
                for n, h in self._histograms.items()
            },
        }

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Fold a worker registry's snapshot into this one.

        Counters and histograms add; gauges take the incoming value.
        Histograms merge only when bucket bounds match exactly.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, dump in snapshot.get("histograms", {}).items():
            histogram = self.histogram(name, buckets=dump["bounds"])
            if list(histogram.bounds) != list(dump["bounds"]):
                raise ConfigurationError(
                    f"histogram {name!r} bucket bounds differ; cannot merge"
                )
            for index, count in enumerate(dump["counts"]):
                histogram.counts[index] += count
            histogram.total += dump["total"]
            histogram.count += dump["count"]

    # -- rendering ----------------------------------------------------------

    def render(self) -> str:
        """A compact text dump (the CLI's ``--metrics`` output)."""
        lines: List[str] = []
        for name in sorted(self._counters):
            lines.append(f"counter   {name} = {self._counters[name].value:g}")
        for name in sorted(self._gauges):
            lines.append(f"gauge     {name} = {self._gauges[name].value:g}")
        for name in sorted(self._histograms):
            histogram = self._histograms[name]
            if histogram.count == 0:
                lines.append(f"histogram {name}: empty")
                continue
            p50, p95, p99 = (histogram.percentile(q) for q in (50, 95, 99))
            lines.append(
                f"histogram {name}: count={histogram.count} "
                f"mean={histogram.mean:.6g} p50<={p50:g} p95<={p95:g} p99<={p99:g}"
            )
        return "\n".join(lines) if lines else "(no metrics recorded)"
