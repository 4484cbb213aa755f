"""The observability plane end to end, over real sockets: a live router
scraping live shards (fleet metrics in both formats), span shipping into the
router's collector (one stitched router->shard->worker tree), and the SLO
endpoint fed by federated snapshots."""

from __future__ import annotations

import http.client
import json
import time
from contextlib import contextmanager, suppress

from repro.cluster import ShardRouter
from repro.service import EvaluationServer, ServiceClient, start_in_background
from repro.telemetry import tracing
from repro.telemetry.collector import configure_shipping
from repro.telemetry.metrics import MetricsRegistry, parse_prometheus
from repro.telemetry.summarize import build_trace_tree

MODEL = {"p": [0.05, 0.02, 0.01], "q": [1e-4, 5e-4, 2e-3]}


@contextmanager
def fleet(shards: int = 2, probe_interval_ms: float = 50.0, router_kw: dict | None = None, **server_kw):
    """Live shards behind a live router, probing (and scraping) fast."""
    servers = [EvaluationServer(**server_kw) for _ in range(shards)]
    handles = [start_in_background(server) for server in servers]
    router = ShardRouter(
        [f"127.0.0.1:{handle.port}" for handle in handles],
        probe_interval_ms=probe_interval_ms,
        retries=2,
        **(router_kw or {}),
    )
    front = start_in_background(router)
    try:
        yield servers, handles, router, front
    finally:
        front.stop()
        for handle in handles:
            with suppress(RuntimeError):
                handle.stop()


def _request(port: int, path: str, method: str = "GET", body: bytes | None = None):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10.0)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def _get_json(port: int, path: str):
    status, body = _request(port, path)
    return status, (json.loads(body) if body else None)


def _wait(predicate, deadline: float = 10.0, interval: float = 0.02) -> bool:
    end = time.time() + deadline
    while time.time() < end:
        if predicate():
            return True
        time.sleep(interval)
    return False


def _drive(front_port: int, count: int = 4, seed0: int = 0) -> None:
    client = ServiceClient(port=front_port, retries=2)
    try:
        for offset in range(count):
            client.evaluate_detail(
                MODEL,
                "montecarlo",
                options={"replications": 200},
                seed=seed0 + offset,
            )
    finally:
        client.close()


class TestFleetScope:
    def test_fleet_json_rollup_equals_merge_of_target_scrapes(self):
        with fleet() as (servers, handles, router, front):
            _drive(front.port)
            addresses = [f"127.0.0.1:{handle.port}" for handle in handles]
            # Wait until the probe loop has scraped every shard at least
            # once *after* the traffic above landed.
            assert _wait(
                lambda: all(
                    entry["snapshot"]["counters"].get("requests_total", 0) > 0
                    for entry in router.federation.targets().values()
                )
                and len(router.federation.targets()) == len(addresses)
            )
            status, document = _get_json(front.port, "/metrics?scope=fleet")
            assert status == 200
            assert document["scope"] == "fleet"
            assert set(document["targets"]) == {*addresses, "self"}
            assert document["target_count"] == len(addresses) + 1
            # The acceptance invariant: the flat roll-up IS the merge of the
            # per-target ingredients, exactly.
            for counter in ("requests_total", "errors_total", "evaluations_computed"):
                summed = sum(
                    entry["counters"].get(counter, 0)
                    for entry in document["targets"].values()
                )
                assert document[counter] == summed, counter
            # PR-6/7 schema stays a strict subset: flat counters/gauges plus
            # summarised histograms, with the fleet keys purely additive.
            assert document["histograms"]["request_seconds"]["count"] > 0
            assert document["histograms"]["request_seconds"]["exemplar"] is not None
            # Shard entries carry health/staleness annotations.
            for address in addresses:
                entry = document["targets"][address]
                assert entry["role"] == "shard"
                assert entry["healthy"] is True
                assert entry["age_seconds"] >= 0.0

    def test_fleet_prometheus_round_trips_and_labels_targets(self):
        with fleet() as (servers, handles, router, front):
            _drive(front.port, count=2, seed0=50)
            assert _wait(lambda: len(router.federation.targets()) == 2)
            status, body = _request(front.port, "/metrics?scope=fleet&format=prom")
            assert status == 200
            parsed = parse_prometheus(body.decode("utf-8"))
            assert parsed["counters"]["requests_total"] >= 2
            labeled = parsed["labeled"]
            for handle in handles:
                key = (
                    f'repro_fleet_target_up{{target="127.0.0.1:{handle.port}",'
                    f'role="shard"}}'
                )
                assert labeled[key] == 1
            assert labeled['repro_fleet_target_up{target="self",role="router"}'] == 1

    def test_unknown_scope_is_a_400(self):
        with fleet() as (servers, handles, router, front):
            status, document = _get_json(front.port, "/metrics?scope=bogus")
            assert status == 400
            assert "scope" in document["error"]
            # The local scope still serves.
            status, document = _get_json(front.port, "/metrics")
            assert status == 200
            assert "requests_total" in document

    def test_shards_serve_local_scope_only(self):
        with fleet() as (servers, handles, router, front):
            status, document = _get_json(handles[0].port, "/metrics?scope=fleet")
            assert status == 400
            status, document = _get_json(handles[0].port, "/metrics?scope=local")
            assert status == 200
            assert "requests_total" in document


class TestTraceCollection:
    def test_post_traces_validates_and_counts(self):
        with fleet() as (servers, handles, router, front):
            good = {"name": "x", "trace": "t", "span": "s", "dur_ms": 1.0}
            body = json.dumps({"events": [good, {"name": "incomplete"}]}).encode()
            status, reply = _get_json_post(front.port, body)
            assert status == 200
            assert reply == {"accepted": 1, "rejected": 1}
            assert router.collector.events()[-1]["span"] == "s"
            assert router.registry["trace_events_received"] == 1
            assert router.registry["trace_events_rejected"] == 1
            status, _ = _request(front.port, "/v1/traces", "POST", b"{not json")
            assert status == 400

    def test_one_request_yields_a_stitched_router_shard_worker_tree(self, tmp_path):
        """The golden stitched trace: shipping armed in-process, one routed
        evaluation, and the collector holds one tree whose parent links run
        router.request -> server.request -> worker.kernel across pids."""
        registry = MetricsRegistry()
        with fleet(router_kw={"collector": None}) as (servers, handles, router, front):
            shipper = configure_shipping(
                f"127.0.0.1:{front.port}",
                registry=registry,
                flush_interval=0.05,
            )
            try:
                _drive(front.port, count=1, seed0=90)

                def stitched_trace():
                    shipper.flush()
                    by_trace: dict[str, set] = {}
                    for event in router.collector.events():
                        by_trace.setdefault(event["trace"], set()).add(event["name"])
                    for trace, names in by_trace.items():
                        if {"router.request", "server.request", "worker.kernel"} <= names:
                            return trace
                    return None

                assert _wait(lambda: stitched_trace() is not None)
                trace = stitched_trace()
                roots = build_trace_tree(router.collector.events(), trace)
                [root] = [node for node in roots if node["name"] == "router.request"]

                def find(node, name):
                    if node["name"] == name:
                        return node
                    for child in node["children"]:
                        found = find(child, name)
                        if found is not None:
                            return found
                    return None

                server_span = find(root, "server.request")
                assert server_span is not None, "shard root did not stitch under the router"
                kernel_span = find(server_span, "worker.kernel")
                assert kernel_span is not None, "worker span did not stitch under the shard"
                # Loss accounting: everything emitted was shipped, nothing
                # dropped -- the smoke invariant.
                assert registry["spans_shipped"] > 0
                dropped = registry["spans_dropped"] if "spans_dropped" in registry else 0
                assert dropped == 0
            finally:
                tracing.disable()


def _get_json_post(port: int, body: bytes):
    status, reply = _request(port, "/v1/traces", "POST", body)
    return status, (json.loads(reply) if reply else None)


class TestSLOEndpoint:
    def test_slo_report_reflects_federated_traffic(self):
        with fleet() as (servers, handles, router, front):
            _drive(front.port, count=3, seed0=70)
            assert _wait(lambda: len(router.federation.targets()) == 2)
            status, report = _get_json(front.port, "/v1/slo")
            assert status == 200
            assert report["role"] == "router"
            assert report["samples"] >= 1
            names = {row["name"] for row in report["objectives"]}
            assert names == {"availability", "latency-p99-500ms"}
            availability = next(
                row for row in report["objectives"] if row["name"] == "availability"
            )
            assert availability["cumulative"]["total"] >= 3
            assert availability["cumulative"]["met"] is True
