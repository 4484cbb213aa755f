"""MetricsRegistry: instruments, consistent snapshots, merge algebra, Prometheus."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
    histogram_quantile,
    histogram_summary,
    merge_snapshots,
    parse_prometheus,
    render_prometheus,
)


class TestInstruments:
    def test_counters_and_gauges_read_back_by_subscript(self):
        registry = MetricsRegistry()
        registry.inc("requests", 3)
        registry.inc("requests")
        registry.set_gauge("depth", 7)
        assert registry["requests"] == 4
        assert registry["depth"] == 7
        assert "requests" in registry
        with pytest.raises(KeyError):
            registry["nonexistent"]

    def test_set_max_is_a_high_water_mark(self):
        registry = MetricsRegistry()
        registry.set_max("group", 3)
        registry.set_max("group", 1)
        assert registry["group"] == 3
        registry.set_max("group", 9)
        assert registry["group"] == 9

    def test_registering_a_name_as_two_kinds_raises(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(ValueError, match="already registered as a counter"):
            registry.gauge("thing")
        with pytest.raises(ValueError, match="already registered as a counter"):
            registry.histogram("thing")

    def test_register_counters_appear_at_zero_in_snapshots(self):
        registry = MetricsRegistry()
        registry.register_counters(["a", "b"])
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"a": 0, "b": 0}

    def test_histogram_bounds_must_be_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("h", buckets=(1.0, 1.0))
        with pytest.raises(ValueError, match="at least one bucket"):
            Histogram("h", buckets=())


class TestHistogram:
    def test_observations_land_in_the_right_buckets(self):
        registry = MetricsRegistry()
        registry.histogram("lat", buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.5, 5.0):
            registry.observe("lat", value)
        data = registry.snapshot()["histograms"]["lat"]
        assert data["counts"] == [1, 1, 1, 1]  # last slot is the +Inf overflow
        assert data["count"] == 4
        assert data["sum"] == pytest.approx(5.555)
        assert data["min"] == 0.005
        assert data["max"] == 5.0

    def test_quantiles_by_linear_interpolation(self):
        registry = MetricsRegistry()
        registry.histogram("lat", buckets=(1.0, 2.0, 4.0))
        for _ in range(100):
            registry.observe("lat", 1.5)  # all in (1.0, 2.0]
        data = registry.snapshot()["histograms"]["lat"]
        assert histogram_quantile(data, 0.0) == pytest.approx(1.0)
        # Interpolated within the bucket, clamped by the observed max.
        assert 1.0 <= histogram_quantile(data, 0.5) <= 1.5
        assert histogram_quantile(data, 1.0) == pytest.approx(1.5)

    def test_default_buckets_resolve_sub_millisecond_latency(self):
        # Warm requests take a few hundred microseconds; a scrape (no
        # observed max to clamp by) must not snap them to the midpoint of a
        # 1 ms bucket.
        registry = MetricsRegistry()
        for _ in range(100):
            registry.observe("request_seconds", 0.0002)
        scraped = parse_prometheus(render_prometheus(registry.snapshot()))
        p50 = histogram_quantile(scraped["histograms"]["request_seconds"], 0.5)
        assert 0.0002 / 1.5 <= p50 <= 0.0002 * 1.5

    def test_quantile_of_empty_histogram_is_none(self):
        registry = MetricsRegistry()
        data = registry.histogram("lat").snapshot()
        assert histogram_quantile(data, 0.99) is None

    def test_overflow_bucket_reports_observed_max(self):
        registry = MetricsRegistry()
        registry.histogram("lat", buckets=(1.0,))
        registry.observe("lat", 30.0)
        data = registry.snapshot()["histograms"]["lat"]
        assert histogram_quantile(data, 0.99) == 30.0

    def test_summary_attaches_percentiles(self):
        registry = MetricsRegistry()
        registry.observe("lat", 0.003)
        summary = histogram_summary(registry.snapshot()["histograms"]["lat"])
        assert set(summary) >= {"buckets", "counts", "count", "sum", "p50", "p95", "p99"}
        assert summary["count"] == 1


class TestSnapshotMerge:
    def test_snapshot_is_one_consistent_cut(self):
        registry = MetricsRegistry()
        registry.inc("seen", 5)
        registry.set_gauge("inflight", 2)
        registry.observe("lat", 0.02)
        snapshot = registry.snapshot()
        assert set(snapshot) == {"counters", "gauges", "histograms"}
        assert snapshot["counters"]["seen"] == 5
        assert snapshot["gauges"]["inflight"] == 2
        assert snapshot["histograms"]["lat"]["count"] == 1

    def test_merge_adds_counters_and_histograms_and_maxes_gauges(self):
        left = MetricsRegistry()
        right = MetricsRegistry()
        for registry, latency in ((left, 0.004), (right, 0.4)):
            registry.inc("jobs", 2)
            registry.observe("lat", latency)
        left.set_gauge("peak", 3)
        right.set_gauge("peak", 5)
        merged = merge_snapshots(left.snapshot(), right.snapshot())
        assert merged["counters"]["jobs"] == 4
        assert merged["gauges"]["peak"] == 5
        data = merged["histograms"]["lat"]
        assert data["count"] == 2
        assert data["sum"] == pytest.approx(0.404)
        assert data["min"] == 0.004
        assert data["max"] == 0.4

    def test_merge_keeps_latest_for_non_numeric_gauges(self):
        registry = MetricsRegistry()
        registry.set_gauge("cache_dir", None)
        registry.merge({"gauges": {"cache_dir": "/tmp/cache"}})
        assert registry["cache_dir"] == "/tmp/cache"

    def test_merge_rejects_mismatched_buckets(self):
        registry = MetricsRegistry()
        registry.histogram("lat", buckets=(1.0, 2.0))
        delta = MetricsRegistry()
        delta.histogram("lat", buckets=(1.0, 3.0))
        delta.observe("lat", 0.5)
        with pytest.raises(ValueError, match="bucket bounds differ"):
            registry.merge(delta.snapshot())


@settings(max_examples=50, deadline=None)
@given(
    observations=st.lists(
        st.floats(min_value=0.0, max_value=200.0, allow_nan=False), max_size=60
    ),
    splits=st.lists(st.integers(min_value=0, max_value=60), max_size=4),
)
def test_property_partitioned_merge_equals_single_process_totals(observations, splits):
    """Observing a stream split across N registries then merging is exact.

    This is the ProcessPoolExecutor contract: each worker histograms its own
    share of the kernel timings; merging the shipped deltas must reproduce
    the histogram a single process would have built from the full stream.
    """
    boundaries = sorted(index for index in splits if index <= len(observations))
    chunks, start = [], 0
    for boundary in boundaries + [len(observations)]:
        chunks.append(observations[start:boundary])
        start = boundary

    single = MetricsRegistry()
    for value in observations:
        single.observe("lat", value)
        single.inc("seen")

    partitions = []
    for chunk in chunks:
        worker = MetricsRegistry()
        for value in chunk:
            worker.observe("lat", value)
            worker.inc("seen")
        partitions.append(worker.snapshot())

    merged = merge_snapshots(*partitions)
    expected = single.snapshot()
    if not observations:
        assert merged.get("histograms", {}).get("lat") is None or (
            merged["histograms"]["lat"]["count"] == 0
        )
        return
    assert merged["counters"]["seen"] == expected["counters"]["seen"]
    got, want = merged["histograms"]["lat"], expected["histograms"]["lat"]
    assert got["counts"] == want["counts"]
    assert got["count"] == want["count"]
    assert got["sum"] == pytest.approx(want["sum"])
    assert got["min"] == want["min"]
    assert got["max"] == want["max"]
    for quantile in (0.5, 0.95, 0.99):
        assert histogram_quantile(got, quantile) == pytest.approx(
            histogram_quantile(want, quantile)
        )


class TestPrometheus:
    def _populated(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.inc("requests_total", 12)
        registry.set_gauge("inflight", 3)
        registry.set_gauge("uptime_seconds", 1.5)
        registry.set_gauge("draining", False)
        registry.set_gauge("cache_dir", "/tmp/somewhere")  # non-numeric: skipped
        registry.set_gauge("request_timeout_ms", None)  # non-numeric: skipped
        for value in (0.002, 0.03, 0.03, 2.0, 150.0):
            registry.observe("request_seconds", value)
        return registry

    def test_render_emits_typed_series_with_cumulative_buckets(self):
        text = render_prometheus(self._populated().snapshot())
        assert "# TYPE repro_requests_total counter" in text
        assert "repro_requests_total 12" in text
        assert "# TYPE repro_request_seconds histogram" in text
        assert 'repro_request_seconds_bucket{le="+Inf"} 5' in text
        assert "repro_request_seconds_count 5" in text
        assert "repro_draining 0" in text
        assert "cache_dir" not in text
        assert "request_timeout_ms" not in text
        lines = text.splitlines()
        bucket_counts = [
            int(line.rsplit(" ", 1)[1])
            for line in lines
            if line.startswith("repro_request_seconds_bucket")
        ]
        assert bucket_counts == sorted(bucket_counts), "bucket series must be cumulative"

    def test_parse_round_trips_the_rendered_snapshot(self):
        snapshot = self._populated().snapshot()
        parsed = parse_prometheus(render_prometheus(snapshot))
        assert parsed["counters"] == snapshot["counters"]
        assert parsed["gauges"]["inflight"] == 3
        assert parsed["gauges"]["uptime_seconds"] == 1.5
        got, want = parsed["histograms"]["request_seconds"], snapshot["histograms"]["request_seconds"]
        assert got["counts"] == want["counts"]
        assert got["count"] == want["count"]
        assert got["sum"] == pytest.approx(want["sum"])
        assert got["buckets"] == list(DEFAULT_LATENCY_BUCKETS)

    def test_p99_is_derivable_from_a_scrape(self):
        registry = MetricsRegistry()
        for _ in range(99):
            registry.observe("request_seconds", 0.002)
        registry.observe("request_seconds", 3.0)
        parsed = parse_prometheus(render_prometheus(registry.snapshot()))
        p99 = histogram_quantile(parsed["histograms"]["request_seconds"], 0.99)
        assert p99 is not None and p99 > 0.001
