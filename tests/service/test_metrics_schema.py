"""/metrics exposition contract: JSON schema stability, Prometheus, trace ids.

The JSON document is a *superset* contract: every counter the previous
release exposed must stay present under the same name, and histograms are
additive-only fields.  Dashboards built against an older server keep
working against a newer one.  A name leaves these lists only together with
the behaviour it counted: the batch window's counters, gauges and
histogram left with the window.
"""

from __future__ import annotations

import http.client
import json

import pytest

from repro.service import EvaluationServer, ServiceClient, ServiceError, start_in_background
from repro.telemetry import histogram_quantile, parse_prometheus

#: Every counter exposed by the previous release's /metrics document.
#: Removing or renaming any of these is a breaking change.
LEGACY_COUNTERS = (
    "requests_total",
    "errors_total",
    "evaluate_requests",
    "batch_endpoint_requests",
    "batch_endpoint_evaluations",
    "evaluations_computed",
    "dispatched_groups",
    "coalesced_requests",
    "cache_hits_lru",
    "cache_hits_disk",
    "cache_misses",
    "pool_restarts",
    "retried_jobs",
    "poison_jobs",
    "rejected_saturated",
    "rejected_draining",
    "deadline_timeouts",
)

LEGACY_GAUGES = (
    "max_group_size",
    "uptime_seconds",
    "workers",
    "draining",
    "lru_entries",
)

HISTOGRAMS = ("request_seconds", "queue_wait_seconds")


@pytest.fixture(scope="module")
def live_server():
    server = EvaluationServer()
    with start_in_background(server) as handle:
        yield handle


@pytest.fixture(scope="module")
def live_client(live_server):
    client = ServiceClient(port=live_server.port)
    # One real evaluation so latency histograms have observations.
    client.evaluate(
        {"p": [0.05, 0.02], "q": [1e-4, 5e-4]}, "montecarlo", seed=3,
        options={"replications": 1000},
    )
    return client


def _raw_get(client: ServiceClient, target: str):
    connection = http.client.HTTPConnection(client.host, client.port, timeout=30)
    try:
        connection.request("GET", target)
        response = connection.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        connection.close()


class TestJsonSchema:
    def test_every_legacy_counter_and_gauge_is_still_present(self, live_client):
        metrics = live_client.metrics()
        missing = [key for key in LEGACY_COUNTERS + LEGACY_GAUGES if key not in metrics]
        assert not missing, f"breaking /metrics change, lost: {missing}"

    def test_histograms_are_an_additive_field(self, live_client):
        metrics = live_client.metrics()
        assert set(metrics["histograms"]) >= set(HISTOGRAMS)
        request_seconds = metrics["histograms"]["request_seconds"]
        assert set(request_seconds) >= {"buckets", "counts", "count", "sum", "p50", "p95", "p99"}
        assert request_seconds["count"] >= 1
        assert len(request_seconds["counts"]) == len(request_seconds["buckets"]) + 1

    def test_queue_gauges_come_from_one_consistent_pass(self, live_client):
        metrics = live_client.metrics()
        for gauge in ("running_requests", "queued_requests"):
            assert gauge in metrics
            assert metrics[gauge] >= 0
        # Nothing in flight between requests: a torn multi-read would let
        # these disagree transiently even on an idle server.
        assert metrics["running_requests"] <= metrics["queued_requests"] + 1

    def test_unknown_format_is_a_400(self, live_client):
        status, _, body = _raw_get(live_client, "/metrics?format=xml")
        assert status == 400
        assert b"format" in body


class TestPrometheusExposition:
    def test_text_scrape_round_trips_against_the_json_document(self, live_client):
        json_metrics = live_client.metrics()
        status, headers, body = _raw_get(live_client, "/metrics?format=prom")
        assert status == 200
        assert headers.get("Content-Type", "").startswith("text/plain")
        parsed = parse_prometheus(body.decode())
        for key in LEGACY_COUNTERS:
            assert key in parsed["counters"], key
        for name in HISTOGRAMS:
            assert name in parsed["histograms"], name
        # Counters only move forward between the two scrapes (each scrape
        # itself increments requests_total), never backward.
        for key in LEGACY_COUNTERS:
            assert parsed["counters"][key] >= json_metrics[key], key

    def test_p99_latency_is_derivable_from_the_scrape(self, live_client):
        _, _, body = _raw_get(live_client, "/metrics?format=prom")
        parsed = parse_prometheus(body.decode())
        p99 = histogram_quantile(parsed["histograms"]["request_seconds"], 0.99)
        assert p99 is not None and p99 > 0.0


class TestTraceIds:
    def test_every_response_carries_a_trace_id_header(self, live_client):
        _, headers, _ = _raw_get(live_client, "/healthz")
        trace_id = headers.get("x-repro-trace-id")
        assert trace_id and len(trace_id) == 16
        int(trace_id, 16)

    def test_an_incoming_trace_id_is_honoured(self, live_client):
        connection = http.client.HTTPConnection(live_client.host, live_client.port, timeout=30)
        try:
            connection.request("GET", "/healthz", headers={"x-repro-trace-id": "cafecafecafecafe"})
            response = connection.getresponse()
            response.read()
            assert response.getheader("x-repro-trace-id") == "cafecafecafecafe"
        finally:
            connection.close()

    def test_service_error_carries_the_server_trace_id(self, live_client, small_model):
        with pytest.raises(ServiceError) as excinfo:
            live_client.evaluate(small_model, "frobnicate")
        error = excinfo.value
        assert error.status == 400
        assert error.trace_id and len(error.trace_id) == 16
        assert f"(trace {error.trace_id})" in str(error)

    def test_error_bodies_embed_the_trace_id(self, live_client):
        connection = http.client.HTTPConnection(live_client.host, live_client.port, timeout=30)
        try:
            connection.request("GET", "/nowhere")
            response = connection.getresponse()
            payload = json.loads(response.read())
            assert response.status == 404
            assert payload["trace_id"] == response.getheader("x-repro-trace-id")
        finally:
            connection.close()
