"""Tests for the metrics registry and its substrate primitives."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.obs import DEFAULT_BUCKETS, MetricsRegistry
from repro.obs.metrics import Histogram


class TestCounterAndGauge:
    def test_counter_get_or_create(self):
        registry = MetricsRegistry()
        registry.counter("cells").inc()
        registry.counter("cells").inc(2.0)
        assert registry.counter("cells").value == 3.0

    def test_counter_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().counter("x").inc(-1.0)

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("utilization").set(0.5)
        registry.gauge("utilization").set(0.9)
        assert registry.gauge("utilization").value == 0.9


class TestHistogram:
    def test_default_buckets_strictly_increasing(self):
        assert all(
            b2 > b1 for b1, b2 in zip(DEFAULT_BUCKETS, DEFAULT_BUCKETS[1:])
        )

    def test_observation_lands_in_le_bucket(self):
        histogram = Histogram("t", buckets=(1.0, 2.0, 4.0))
        histogram.observe(1.5)
        assert histogram.counts == [0, 1, 0, 0]
        histogram.observe(2.0)  # le semantics: lands in the 2.0 bucket
        assert histogram.counts == [0, 2, 0, 0]
        histogram.observe(100.0)  # overflow bucket
        assert histogram.counts == [0, 2, 0, 1]

    def test_mean_and_percentiles(self):
        histogram = Histogram("t", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0, 3.5):
            histogram.observe(value)
        assert histogram.mean == pytest.approx(2.125)
        assert histogram.percentile(50) == 2.0
        assert histogram.percentile(100) == 4.0

    def test_percentile_edge_cases(self):
        histogram = Histogram("t", buckets=(1.0,))
        assert math.isnan(histogram.percentile(50))
        histogram.observe(9.0)
        assert histogram.percentile(50) == math.inf
        with pytest.raises(ConfigurationError):
            histogram.percentile(101)

    def test_rejects_bad_buckets(self):
        with pytest.raises(ConfigurationError):
            Histogram("t", buckets=())
        with pytest.raises(ConfigurationError):
            Histogram("t", buckets=(1.0, 1.0))


class TestSnapshotMerge:
    def build(self, values):
        registry = MetricsRegistry()
        registry.counter("cells").inc(len(values))
        registry.gauge("workers").set(4)
        for value in values:
            registry.histogram("wall", buckets=(1.0, 2.0, 4.0)).observe(value)
        return registry

    def test_merge_equals_single_registry(self):
        merged = self.build([0.5, 1.5])
        merged.merge(self.build([3.0, 9.0]).snapshot())
        direct = self.build([0.5, 1.5, 3.0, 9.0])
        assert merged.snapshot()["histograms"] == direct.snapshot()["histograms"]
        assert merged.counter("cells").value == 4.0
        # Percentiles merge exactly because the buckets are fixed.
        assert merged.histogram("wall").percentile(50) == direct.histogram(
            "wall"
        ).percentile(50)

    def test_merge_rejects_mismatched_buckets(self):
        registry = MetricsRegistry()
        registry.histogram("wall", buckets=(1.0, 2.0))
        other = MetricsRegistry()
        other.histogram("wall", buckets=(5.0,)).observe(1.0)
        with pytest.raises(ConfigurationError):
            registry.merge(other.snapshot())

    def test_snapshot_is_json_friendly(self):
        import json

        json.dumps(self.build([1.0]).snapshot())


class TestRender:
    def test_empty(self):
        assert MetricsRegistry().render() == "(no metrics recorded)"

    def test_lists_every_metric_kind(self):
        registry = MetricsRegistry()
        registry.counter("cells").inc(15)
        registry.gauge("utilization").set(0.91)
        registry.histogram("wall", buckets=(1.0, 10.0)).observe(2.0)
        registry.histogram("empty", buckets=(1.0,))
        text = registry.render()
        assert "counter   cells = 15" in text
        assert "gauge     utilization = 0.91" in text
        assert "histogram wall: count=1" in text and "p95<=10" in text
        assert "histogram empty: empty" in text
