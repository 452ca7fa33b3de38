"""Unit tests for the metrics registry."""

import math

import pytest

from repro.obs import Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_defaults_and_inc(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits")
        assert counter.value == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_rejected(self):
        counter = MetricsRegistry().counter("hits")
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1)

    def test_total_sums_label_sets(self):
        registry = MetricsRegistry()
        registry.counter("wire.link_bytes", link="0->1").inc(10)
        registry.counter("wire.link_bytes", link="1->2").inc(20)
        assert registry.total("wire.link_bytes") == 30
        assert registry.total("missing") == 0.0


class TestGauge:
    def test_set_keeps_series(self):
        gauge = MetricsRegistry().gauge("depth")
        assert math.isnan(gauge.value)
        gauge.set(2.0)
        gauge.set(4.0)
        assert gauge.value == 4.0
        assert gauge.series == [2.0, 4.0]
        assert gauge.mean() == 3.0

    def test_empty_mean_is_nan(self):
        assert math.isnan(MetricsRegistry().gauge("depth").mean())


class TestHistogram:
    def test_observe_buckets_and_stats(self):
        histogram = MetricsRegistry().histogram(
            "latency", bounds=(1.0, 10.0)
        )
        for value in (0.5, 5.0, 50.0):
            histogram.observe(value)
        assert histogram.counts == [1, 1, 1]
        assert histogram.count == 3
        assert histogram.total == 55.5
        assert histogram.min == 0.5
        assert histogram.max == 50.0
        assert histogram.mean() == 18.5

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            MetricsRegistry().histogram("bad", bounds=(10.0, 1.0))

    def test_conflicting_bounds_raise_instead_of_being_ignored(self):
        registry = MetricsRegistry()
        first = registry.histogram("h", bounds=(1.0,))
        with pytest.raises(ValueError, match="bounds"):
            registry.histogram("h", bounds=(2.0,))
        # Matching or omitted bounds return the registered histogram.
        assert registry.histogram("h", bounds=[1.0]) is first
        assert registry.histogram("h") is first
        assert first.bounds == (1.0,)

    def test_default_bounds_cover_link_latency(self):
        histogram = MetricsRegistry().histogram("wire.step_makespan_s")
        histogram.observe(25e-6)
        assert histogram.count == 1
        # 25us lands strictly inside the log-spaced default buckets.
        assert histogram.counts[0] == 0
        assert histogram.counts[-1] == 0


class TestRegistry:
    def test_get_or_create_is_stable(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.counter("a", x="1") is not registry.counter("a", x="2")
        assert len(registry) == 3

    def test_label_order_is_canonical(self):
        registry = MetricsRegistry()
        assert registry.gauge("g", a="1", b="2") is registry.gauge(
            "g", b="2", a="1"
        )

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(TypeError, match="already registered"):
            registry.gauge("m")
        with pytest.raises(TypeError, match="already registered"):
            registry.histogram("m")

    def test_get_returns_none_for_missing(self):
        assert MetricsRegistry().get("nope") is None

    def test_snapshot_qualified_names(self):
        registry = MetricsRegistry()
        registry.counter("plain").inc(1)
        registry.counter("labeled", link="0->1").inc(2)
        registry.gauge("g").set(3.0)
        snap = registry.snapshot()
        assert snap["plain"] == {"kind": "counter", "value": 1.0}
        assert snap['labeled{link=0->1}']["value"] == 2.0
        assert snap["g"]["kind"] == "gauge"
        assert snap["g"]["value"] == 3.0

    def test_iter_yields_metrics(self):
        registry = MetricsRegistry()
        registry.counter("a")
        registry.gauge("b")
        kinds = sorted(metric.kind for metric in registry)
        assert kinds == ["counter", "gauge"]

    def test_types_exported(self):
        registry = MetricsRegistry()
        assert isinstance(registry.counter("c"), Counter)
        assert isinstance(registry.gauge("g"), Gauge)
        assert isinstance(registry.histogram("h"), Histogram)
