"""A pool job's telemetry comes home in its reply.

``worker.run_job`` captures the span events a job emits and returns them,
with its kernel seconds, next to its result; the server observes the time
into its own registry and hands the events, unchanged, to its own tracer.
So a shard writes or ships its pool workers' spans exactly once, with the
worker's pid and the shard-side parent span, whatever its tracer is, and
``kernel_seconds`` counts one observation per computed evaluation from
threads and worker processes alike.
"""

from __future__ import annotations

import http.client
import json
import os

import pytest

from repro import telemetry
from repro.service import EvaluationServer, ServiceClient, start_in_background
from repro.telemetry import tracing
from repro.telemetry.collector import configure_shipping
from repro.telemetry.metrics import MetricsRegistry

TRACES = [f"{index:016x}" for index in range(0xA1, 0xA4)]


@pytest.fixture(autouse=True)
def _tracing_off():
    tracing.disable()
    yield
    tracing.disable()


def _post(port: int, payload: dict, trace_id: str) -> dict:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        connection.request(
            "POST", "/v1/evaluate", json.dumps(payload), headers={"x-repro-trace-id": trace_id}
        )
        response = connection.getresponse()
        body = json.loads(response.read())
        assert response.status == 200, body
        return body
    finally:
        connection.close()


def _serve(model, workers: int) -> dict:
    """Three cold requests (one of them ``montecarlo``) to a fresh server;
    returns its ``/metrics`` document."""
    payloads = [
        {"model": model.to_dict(), "method": "moments", "p_scale": 0.5},
        {"model": model.to_dict(), "method": "moments", "p_scale": 2.0},
        {"model": model.to_dict(), "method": "montecarlo", "seed": 5,
         "options": {"replications": 2000}},
    ]
    with start_in_background(EvaluationServer(workers=workers)) as handle:
        for payload, trace_id in zip(payloads, TRACES):
            _post(handle.port, payload, trace_id)
        return ServiceClient(port=handle.port).metrics()


def _check_worker_spans(events: list[dict]) -> None:
    """Every worker span once, under its job's shard-side span."""
    shard = os.getpid()
    assert len({event["span"] for event in events}) == len(events), "a span arrived twice"
    by_span = {event["span"]: event for event in events}
    kernels = [event for event in events if event["name"] == "worker.kernel"]
    assert sorted(event["trace"] for event in kernels) == TRACES
    for kernel in kernels:
        assert kernel["pid"] != shard
        parent = by_span[kernel["parent"]]
        assert parent["pid"] == shard and parent["trace"] == kernel["trace"]
    kernel_spans = {kernel["span"] for kernel in kernels}
    inner = [e for e in events if e["pid"] != shard and e["name"] != "worker.kernel"]
    assert inner, "the montecarlo job emitted no span of its own"
    for event in inner:
        assert event["parent"] in kernel_spans


def test_shipped_pool_worker_spans_arrive_once_with_their_pid_and_parent(small_model):
    batches: list[list] = []
    shipper = configure_shipping(
        "127.0.0.1:1",
        transport=lambda batch: batches.append(batch) or True,
        flush_interval=3600.0,
        registry=MetricsRegistry(),
    )
    _serve(small_model, workers=1)
    shipper.flush()
    _check_worker_spans([event for batch in batches for event in batch])


def test_pool_worker_spans_land_in_the_trace_file_once(small_model, tmp_path):
    path = tmp_path / "shard.trace.jsonl"
    telemetry.configure(path)
    _serve(small_model, workers=1)
    tracing.disable()
    _check_worker_spans([json.loads(line) for line in path.read_text().splitlines()])


@pytest.mark.parametrize("workers", [0, 1])
def test_kernel_seconds_counts_every_computed_evaluation(small_model, workers):
    metrics = _serve(small_model, workers)
    kernel = metrics["histograms"]["kernel_seconds"]
    assert metrics["evaluations_computed"] == 3
    assert kernel["count"] == 3
    assert kernel["min"] is not None and kernel["max"] is not None
    assert 0.0 < kernel["min"] <= kernel["max"]
    assert kernel["exemplar"]["trace"] in TRACES


def test_a_failed_job_brings_home_its_span_and_kernel_time(small_model, monkeypatch):
    from repro.service import worker

    def fail(arguments):
        raise RuntimeError("kernel lost")

    monkeypatch.setattr(worker, "evaluate_single", fail)
    events: list[dict] = []
    telemetry.configure(sink=events.append)
    server = EvaluationServer()
    payload = {"model": small_model.to_dict(), "method": "moments"}
    with start_in_background(server) as handle:
        connection = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=60)
        connection.request("POST", "/v1/evaluate", json.dumps(payload))
        assert connection.getresponse().status == 500
        connection.close()
        assert server.registry.snapshot()["histograms"]["kernel_seconds"]["count"] == 1
    [kernel] = [event for event in events if event["name"] == "worker.kernel"]
    assert kernel["attrs"]["error"] == "RuntimeError"
