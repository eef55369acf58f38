"""Tests for the metric instruments and registry."""

import math

import pytest

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_accumulates(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match=">= 0"):
            Counter("c").inc(-1.0)


class TestGauge:
    def test_tracks_envelope(self):
        gauge = Gauge("g")
        for value in (5.0, 1.0, 9.0):
            gauge.set(value)
        assert gauge.value == 9.0
        assert gauge.minimum == 1.0
        assert gauge.maximum == 9.0
        assert gauge.updates == 3

    def test_empty_row_is_zeroed(self):
        row = Gauge("g").as_row()
        assert row["min"] == 0.0 and row["max"] == 0.0


class TestHistogram:
    def test_bucket_counts(self):
        hist = Histogram("h", buckets=(1.0, 10.0, 100.0))
        for value in (0.5, 5.0, 50.0, 500.0):
            hist.observe(value)
        assert hist.bucket_counts == [1, 1, 1, 1]
        assert hist.count == 4
        assert hist.total == 555.5

    def test_bucket_upper_bound_inclusive(self):
        hist = Histogram("h", buckets=(1.0, 10.0))
        hist.observe(1.0)
        assert hist.bucket_counts == [1, 0, 0]

    def test_percentiles_exact_under_reservoir_size(self):
        hist = Histogram("h", buckets=(1000.0,))
        for value in range(101):  # 0..100
            hist.observe(float(value))
        assert hist.percentile(50.0) == pytest.approx(50.0)
        assert hist.percentile(95.0) == pytest.approx(95.0)
        assert hist.percentile(0.0) == 0.0
        assert hist.percentile(100.0) == 100.0

    def test_percentiles_approximate_beyond_reservoir(self):
        hist = Histogram("h", buckets=(10_000.0,), reservoir_size=256)
        for value in range(10_000):
            hist.observe(float(value))
        # Uniform input: the reservoir median should land near 5000.
        assert hist.percentile(50.0) == pytest.approx(5000.0, rel=0.15)

    def test_reservoir_is_deterministic(self):
        def build():
            hist = Histogram("h", buckets=(10_000.0,), reservoir_size=64)
            for value in range(5_000):
                hist.observe(float((value * 37) % 1000))
            return hist

        first, second = build(), build()
        assert first.percentile(50.0) == second.percentile(50.0)
        assert first.percentile(95.0) == second.percentile(95.0)
        assert first.as_row() == second.as_row()

    def test_empty_percentile_is_nan(self):
        assert math.isnan(Histogram("h").percentile(50.0))
        assert math.isnan(Histogram("h").mean)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="ascending"):
            Histogram("h", buckets=(5.0, 1.0))
        with pytest.raises(ValueError, match="reservoir"):
            Histogram("h", reservoir_size=0)
        with pytest.raises(ValueError, match="percentile"):
            Histogram("h").percentile(101.0)


class TestRegistry:
    def test_same_key_same_instrument(self):
        registry = MetricsRegistry()
        registry.counter("events", label="a").inc()
        registry.counter("events", label="a").inc()
        registry.counter("events", label="b").inc()
        assert registry.counter("events", "a").value == 2
        assert registry.counter("events", "b").value == 1
        assert len(registry.rows()) == 2

    def test_rows_sorted_regardless_of_creation_order(self):
        forward, backward = MetricsRegistry(), MetricsRegistry()
        forward.counter("a").inc()
        forward.gauge("b").set(1.0)
        backward.gauge("b").set(1.0)
        backward.counter("a").inc()
        assert forward.rows() == backward.rows()

    def test_kinds_do_not_collide(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        registry.gauge("x").set(2.0)
        registry.histogram("x").observe(3.0)
        assert len(registry.rows()) == 3
