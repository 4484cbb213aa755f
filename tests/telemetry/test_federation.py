"""Federation: partitioned-merge invariance, fleet documents, prom round-trips."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry.federation import MetricsFederation
from repro.telemetry.metrics import (
    MetricsRegistry,
    parse_prometheus,
    render_prometheus,
)

#: Observation values as dyadic rationals (n/1024): every value, partial sum
#: and merged sum is exactly representable, so the partitioned-merge
#: invariance below is *equality*, not approximation -- the same property
#: the fleet relies on (fixed bucket bounds + repr() floats on the wire).
_values = st.integers(min_value=0, max_value=4096).map(lambda n: n / 1024.0)

_operations = st.lists(
    st.one_of(
        st.tuples(st.just("inc"), st.sampled_from(["requests_total", "errors_total"]), st.integers(1, 5)),
        st.tuples(st.just("observe"), st.sampled_from(["request_seconds", "kernel_seconds"]), _values),
        st.tuples(st.just("max"), st.just("queue_high_water"), st.integers(0, 64)),
    ),
    max_size=60,
)


def _apply(registry: MetricsRegistry, operation) -> None:
    kind, name, value = operation
    if kind == "inc":
        registry.inc(name, value)
    elif kind == "observe":
        registry.observe(name, value)
    else:
        registry.set_max(name, value)


class TestPartitionedMergeInvariance:
    @settings(max_examples=50, deadline=None)
    @given(operations=_operations, partition=st.lists(st.integers(0, 2), max_size=60))
    def test_federated_rollup_equals_single_registry(self, operations, partition):
        """Scattering observations across shards and federating their scrapes
        (through the Prometheus text format, as the router does) yields the
        exact counters/histograms one combined registry would hold."""
        shards = [MetricsRegistry() for _ in range(3)]
        combined = MetricsRegistry()
        for index, operation in enumerate(operations):
            shard = shards[partition[index] if index < len(partition) else 0]
            _apply(shard, operation)
            _apply(combined, operation)

        federation = MetricsFederation()
        for index, shard in enumerate(shards):
            federation.update_from_prometheus(
                f"shard-{index}", render_prometheus(shard.snapshot())
            )
        fleet = federation.fleet_snapshot()
        expected = combined.snapshot()

        assert fleet.get("counters", {}) == expected["counters"]
        # set_max gauges merge by max: associative, so partitioning is free.
        assert fleet.get("gauges", {}) == expected["gauges"]
        for name, histogram in expected["histograms"].items():
            merged = fleet["histograms"][name]
            for key in ("buckets", "counts", "count", "sum"):
                assert merged[key] == histogram[key], (name, key)


class TestFleetDocument:
    def _federation(self):
        federation = MetricsFederation(clock=lambda: 1000.0)
        shard_a, shard_b = MetricsRegistry(), MetricsRegistry()
        shard_a.inc("requests_total", 5)
        shard_a.observe("request_seconds", 0.125)
        shard_b.inc("requests_total", 7)
        shard_b.inc("errors_total", 2)
        federation.update("127.0.0.1:1", shard_a.snapshot())
        federation.update("127.0.0.1:2", shard_b.snapshot())
        return federation

    def test_rollup_is_flat_and_superset_of_local_schema(self):
        federation = self._federation()
        local = MetricsRegistry()
        local.inc("requests_total", 3)
        document = federation.document(local.snapshot())
        # The local /metrics shape, unchanged: flat counters + histogram
        # summaries -- plus the additive fleet keys.
        assert document["requests_total"] == 15
        assert document["errors_total"] == 2
        assert document["scope"] == "fleet"
        assert document["target_count"] == 3
        assert set(document["targets"]) == {"127.0.0.1:1", "127.0.0.1:2", "self"}
        assert document["targets"]["self"]["role"] == "router"
        assert document["histograms"]["request_seconds"]["count"] == 1

    def test_rollup_equals_merge_of_target_entries(self):
        document = self._federation().document()
        for counter in ("requests_total", "errors_total"):
            summed = sum(
                entry["counters"].get(counter, 0)
                for entry in document["targets"].values()
            )
            assert document[counter] == summed


class TestFleetPrometheus:
    def test_fleet_prom_round_trips_like_a_local_scrape(self):
        federation = MetricsFederation(clock=lambda: 50.0)
        shard = MetricsRegistry()
        shard.inc("requests_total", 9)
        shard.observe("request_seconds", 0.25)
        federation.update("127.0.0.1:9", shard.snapshot())
        local = MetricsRegistry()
        local.inc("requests_total", 1)

        text = federation.prometheus(local.snapshot())
        parsed = parse_prometheus(text)
        assert parsed["counters"]["requests_total"] == 10
        assert parsed["histograms"]["request_seconds"]["count"] == 1
        # Per-target presence/staleness series are labelled, and the parser
        # files them under "labeled" instead of choking on them.
        labeled = parsed["labeled"]
        assert labeled['repro_fleet_target_up{target="127.0.0.1:9",role="shard"}'] == 1
        assert labeled['repro_fleet_target_up{target="self",role="router"}'] == 1
        assert 'repro_fleet_target_scrape_age_seconds{target="127.0.0.1:9"}' in labeled

    def test_exemplar_survives_federation(self):
        federation = MetricsFederation()
        slow, fast = MetricsRegistry(), MetricsRegistry()
        fast.observe("request_seconds", 0.01, trace_id="fast-trace")
        slow.observe("request_seconds", 0.9, trace_id="slow-trace")
        # Exemplars ride the JSON path (update), not the prom text.
        federation.update("fast", fast.snapshot())
        federation.update("slow", slow.snapshot())
        document = federation.document()
        exemplar = document["histograms"]["request_seconds"]["exemplar"]
        assert exemplar == {"trace": "slow-trace", "value": 0.9}
