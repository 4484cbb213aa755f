"""End-to-end service tests: HTTP wire, byte-identity, caching, metrics.

The byte-identity pins are the contract the whole subsystem hangs on:
whatever the transport, concurrent traffic or cache state, a response's
metrics are exactly what :func:`repro.evaluate` returns for the same
``(model.rescaled(p_scale, q_scale), method, options, seed)``.
"""

from __future__ import annotations

import asyncio
import json
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.api import default_registry, evaluate, evaluate_batch, evaluate_sweep
from repro.core.fault_model import FaultModel
from repro.service import EvaluationServer, ServiceClient, ServiceError, start_in_background


def _gather_evaluate(server: EvaluationServer, payloads: list[dict]) -> list[dict]:
    """Drive the endpoint logic directly (deterministic concurrency)."""

    async def run():
        return await asyncio.gather(
            *(server._serve_evaluate(payload) for payload in payloads)
        )

    return asyncio.run(run())


def _strip_elapsed(record: dict) -> dict:
    return {key: value for key, value in record.items() if key != "elapsed_seconds"}


class TestByteIdentity:
    def test_single_request_equals_direct_evaluate(self, small_model):
        server = EvaluationServer()
        [response] = _gather_evaluate(
            server, [{"model": small_model.to_dict(), "method": "moments"}]
        )
        assert _strip_elapsed(response["result"]) == _strip_elapsed(
            evaluate(small_model, "moments").to_dict()
        )

    def test_transformed_request_equals_rescaled_evaluate(self, small_model):
        server = EvaluationServer()
        [response] = _gather_evaluate(
            server,
            [
                {
                    "model": small_model.to_dict(),
                    "method": "montecarlo",
                    "options": {"replications": 1000},
                    "seed": 11,
                    "p_scale": 0.5,
                }
            ],
        )
        direct = evaluate(
            small_model.rescaled(0.5, 1.0), "montecarlo", seed=11, replications=1000
        )
        assert _strip_elapsed(response["result"]) == _strip_elapsed(direct.to_dict())

    def test_correlated_requests_never_wait_and_equal_direct_evaluate(self, small_model):
        # Correlated montecarlo requests dispatch at once, and every one
        # matches the direct scalar evaluation.
        scales = (0.5, 1.0)
        server = EvaluationServer()
        responses = _gather_evaluate(
            server,
            [
                {
                    "model": small_model.to_dict(),
                    "method": "montecarlo",
                    "options": {"replications": 500, "correlation": 0.3},
                    "seed": 3,
                    "p_scale": scale,
                }
                for scale in scales
            ],
        )
        for response, scale in zip(responses, scales):
            direct = evaluate(
                small_model.rescaled(scale, 1.0),
                "montecarlo",
                seed=3,
                replications=500,
                correlation=0.3,
            )
            assert response["served"] == {"cached": None, "group_size": 1}
            assert _strip_elapsed(response["result"]) == _strip_elapsed(direct.to_dict())
        assert server.registry["dispatched_groups"] == len(scales)

    def test_batch_switch_is_gone(self):
        with pytest.raises(TypeError):
            EvaluationServer(batch=False)

    @pytest.mark.parametrize("method", [d.name for d in default_registry()])
    def test_record_does_not_depend_on_its_groupmates(self, method):
        # One model, one seed, four p_scale points in flight at once: each
        # record is the direct evaluation of its own rescaled model, byte
        # for byte, and equals the record the same request gets alone.
        model = FaultModel.random(
            np.random.default_rng(8), n=60, p_range=(0.005, 0.2), total_impact=0.4
        )
        scales = (0.25, 0.5, 0.75, 1.0)
        payloads = [
            {"model": model.to_dict(), "method": method, "seed": 23, "p_scale": scale}
            for scale in scales
        ]
        with start_in_background(EvaluationServer()) as handle:
            client = ServiceClient(port=handle.port)
            start = threading.Barrier(len(payloads))

            def send(payload):
                start.wait(30.0)
                with client:
                    return client.request("POST", "/v1/evaluate", payload)

            with ThreadPoolExecutor(max_workers=len(payloads)) as pool:
                burst = list(pool.map(send, payloads))
        with start_in_background(EvaluationServer()) as handle:
            with ServiceClient(port=handle.port) as client:
                alone = [client.request("POST", "/v1/evaluate", p) for p in payloads]
        for scale, inside, lone in zip(scales, burst, alone):
            direct = evaluate(model.rescaled(scale, 1.0), method, seed=23).to_dict()
            expected = json.dumps(_strip_elapsed(json.loads(json.dumps(direct))))
            assert json.dumps(_strip_elapsed(inside["result"])) == expected, scale
            assert json.dumps(_strip_elapsed(lone["result"])) == expected, scale
            assert inside["served"] == {"cached": None, "group_size": 1}


class TestCaching:
    def test_lru_serves_warm_traffic(self, small_model):
        server = EvaluationServer()
        payload = {
            "model": small_model.to_dict(),
            "method": "montecarlo",
            "options": {"replications": 500},
            "seed": 2,
        }
        [cold] = _gather_evaluate(server, [payload])
        [warm] = _gather_evaluate(server, [payload])
        assert cold["served"]["cached"] is None
        assert warm["served"]["cached"] == "lru"
        assert warm["result"]["metrics"] == cold["result"]["metrics"]
        assert server.registry["cache_hits_lru"] == 1
        assert server.registry["evaluations_computed"] == 1

    def test_disk_tier_survives_a_restart(self, small_model, tmp_path):
        payload = {
            "model": small_model.to_dict(),
            "method": "montecarlo",
            "options": {"replications": 500},
            "seed": 2,
        }
        first = EvaluationServer(cache_dir=str(tmp_path / "cache"))
        [cold] = _gather_evaluate(first, [payload])
        second = EvaluationServer(cache_dir=str(tmp_path / "cache"))
        [warm] = _gather_evaluate(second, [payload])
        assert warm["served"]["cached"] == "disk"
        assert warm["result"]["metrics"] == cold["result"]["metrics"]
        assert warm["result"]["seed_entropy"] == cold["result"]["seed_entropy"]
        assert second.registry["evaluations_computed"] == 0

    def test_study_warmed_cache_serves_deterministic_requests(self, small_model, tmp_path):
        from repro.studies.runner import run_study
        from repro.studies.spec import StudySpec

        spec = StudySpec.from_dict(
            {
                "name": "warming",
                "base": {"model": small_model.to_dict()},
                "sweep": {"grid": [{"name": "p_scale", "values": [0.5, 1.0]}]},
                "methods": [{"name": "exact", "max_support": 512}],
                "seed": 99,
            }
        )
        result = run_study(spec, cache_dir=str(tmp_path / "cache"))
        server = EvaluationServer(cache_dir=str(tmp_path / "cache"))
        [response] = _gather_evaluate(
            server,
            [
                {
                    "model": small_model.to_dict(),
                    "method": "exact",
                    "options": {"max_support": 512},
                    "p_scale": 0.5,
                }
            ],
        )
        assert response["served"]["cached"] == "disk"
        assert server.registry["evaluations_computed"] == 0
        row = next(r for r in result.records if r["p_scale"] == 0.5)
        assert response["result"]["metrics"]["exact_mean"] == row["exact_mean"]


@pytest.fixture(scope="module")
def live_server():
    server = EvaluationServer()
    with start_in_background(server) as handle:
        yield handle


@pytest.fixture(scope="module")
def live_client(live_server):
    return ServiceClient(port=live_server.port)


class TestHttpTransport:
    def test_health_and_methods(self, live_client):
        assert live_client.health()["status"] == "ok"
        from repro.api import default_registry

        schemas = {entry["name"]: entry for entry in live_client.methods()}
        assert set(schemas) == set(default_registry().names())
        assert schemas["montecarlo"]["requires_seed"] is True

    def test_wire_result_equals_direct_evaluate(self, live_client, small_model):
        result, served = live_client.evaluate_detail(
            small_model, "exact", options={"max_support": 512}
        )
        direct = evaluate(small_model, "exact", max_support=512)
        assert result.metric_dict() == direct.to_dict()["metrics"]
        assert result.option_dict() == direct.option_dict()
        assert served["cached"] is None

    def test_batch_endpoint_equals_evaluate_batch(self, live_client, small_model):
        requests = ["moments", ("montecarlo", {"replications": 500}), "moments"]
        remote = live_client.evaluate_batch(small_model, requests, seed=13)
        direct = evaluate_batch(small_model, requests, seed=13)
        assert [r.to_dict()["metrics"] for r in remote] == [
            d.to_dict()["metrics"] for d in direct
        ]
        assert [r.seed_entropy for r in remote] == [d.seed_entropy for d in direct]

    def test_http_error_statuses(self, live_server, live_client, small_model):
        with pytest.raises(ServiceError) as excinfo:
            live_client.evaluate(small_model, "frobnicate")
        assert excinfo.value.status == 400
        assert "unknown method" in excinfo.value.message

        with pytest.raises(ServiceError) as excinfo:
            live_client.request("GET", "/nowhere")
        assert excinfo.value.status == 404

        with pytest.raises(ServiceError) as excinfo:
            live_client.request("GET", "/v1/evaluate")
        assert excinfo.value.status == 405

        import http.client

        connection = http.client.HTTPConnection(
            live_client.host, live_client.port, timeout=30
        )
        try:
            connection.request(
                "POST",
                "/v1/evaluate",
                body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 400
            assert "not valid JSON" in json.loads(response.read())["error"]
        finally:
            connection.close()

    def test_out_of_range_option_is_400_before_any_cache_or_window(
        self, live_client, small_model
    ):
        before = live_client.metrics()
        with pytest.raises(ServiceError) as excinfo:
            live_client.evaluate(small_model, "montecarlo", options={"replications": -1}, seed=3)
        assert excinfo.value.status == 400
        assert "'replications' must be >= 1" in excinfo.value.message
        after = live_client.metrics()
        assert after["cache_misses"] == before["cache_misses"]
        assert after["dispatched_groups"] == before["dispatched_groups"]

    def test_out_of_range_level_is_400_before_any_cache_or_pool(self, live_client, small_model):
        before = live_client.metrics()
        with pytest.raises(ServiceError) as excinfo:
            live_client.evaluate(small_model, "exact", options={"level": 1.5})
        assert excinfo.value.status == 400
        assert "'level' must be <= 1" in excinfo.value.message
        after = live_client.metrics()
        assert after["cache_misses"] == before["cache_misses"]
        assert after["evaluations_computed"] == before["evaluations_computed"]

    def test_negative_content_length_is_400_not_a_dropped_connection(self, live_client):
        import socket

        with socket.create_connection(
            (live_client.host, live_client.port), timeout=30
        ) as raw:
            raw.sendall(
                b"POST /v1/evaluate HTTP/1.1\r\n"
                b"Content-Length: -5\r\n"
                b"Connection: close\r\n\r\n"
            )
            response = raw.recv(65536)
        assert response.startswith(b"HTTP/1.1 400"), response[:80]
        assert b"Content-Length" in response

    def test_metrics_snapshot(self, live_client):
        metrics = live_client.metrics()
        for key in (
            "requests_total",
            "dispatched_groups",
            "cache_hits_lru",
            "evaluations_computed",
            "uptime_seconds",
        ):
            assert key in metrics
        assert metrics["requests_total"] > 0
        assert "batch_enabled" not in metrics
        assert "batch_window_ms" not in metrics

    def test_client_rejects_bad_model_spelling(self, live_client):
        with pytest.raises(ValueError, match="exactly one of"):
            live_client.evaluate(None, "moments")
        with pytest.raises(ValueError, match="exactly one of"):
            live_client.evaluate({"p": [0.1], "q": [0.1]}, "moments", scenario="high-quality")


#: A batch with a duplicated and a correlated ``montecarlo`` element.
BATCH_REQUESTS = [
    {"method": "moments"},
    {"method": "montecarlo", "replications": 500},
    {"method": "montecarlo", "replications": 500},
    {"method": "montecarlo", "replications": 500, "correlation": 0.3},
    {"method": "exact", "max_support": 256},
    {"method": "tail-quantile", "level": 0.999},
]


def _element_payload(model: FaultModel, element: dict, seed: int) -> dict:
    """The ``/v1/evaluate`` body a batch element stands for."""
    options = {key: value for key, value in element.items() if key != "method"}
    return {"model": model.to_dict(), "method": element["method"], "options": options, "seed": seed}


class TestBatchEndpoint:
    """A batch element is the ``/v1/evaluate`` request with the batch's model and seed."""

    def test_elements_equal_their_evaluate_records_byte_for_byte(self, small_model):
        with start_in_background(EvaluationServer()) as handle:
            client = ServiceClient(port=handle.port)
            batch = client.request(
                "POST",
                "/v1/evaluate/batch",
                {"model": small_model.to_dict(), "requests": BATCH_REQUESTS, "seed": 11},
            )
            singles = [
                client.request("POST", "/v1/evaluate", _element_payload(small_model, element, 11))
                for element in BATCH_REQUESTS
            ]
        assert [json.dumps(record) for record in batch["results"]] == [
            json.dumps(single["result"]) for single in singles
        ]
        for element, record in zip(BATCH_REQUESTS, batch["results"]):
            payload = _element_payload(small_model, element, 11)
            direct = evaluate(small_model, payload["method"], seed=11, options=payload["options"])
            assert _strip_elapsed(record) == _strip_elapsed(json.loads(json.dumps(direct.to_dict())))

    def test_a_repeated_batch_computes_nothing(self, small_model):
        payload = {"model": small_model.to_dict(), "requests": BATCH_REQUESTS, "seed": 11}
        with start_in_background(EvaluationServer()) as handle:
            client = ServiceClient(port=handle.port)
            cold = client.request("POST", "/v1/evaluate/batch", payload)
            computed = handle.server.registry["evaluations_computed"]
            warm = client.request("POST", "/v1/evaluate/batch", payload)
            assert handle.server.registry["evaluations_computed"] == computed
        # Six elements, one duplicate: five evaluations, the duplicate joins
        # its twin's single flight.
        assert computed == 5
        assert cold["served"][2]["cached"] is None
        assert [served["cached"] for served in warm["served"]] == ["lru"] * len(BATCH_REQUESTS)
        assert warm["results"] == cold["results"]

    def test_a_batch_job_counts_as_one_dispatched_group(self, small_model):
        requests = [{"method": "moments"}, {"method": "exact"}, {"method": "tail-quantile"}]
        payload = {"model": small_model.to_dict(), "requests": requests, "seed": 11}
        with start_in_background(EvaluationServer()) as handle:
            client = ServiceClient(port=handle.port)
            registry = handle.server.registry
            counters = ("dispatched_groups", "evaluations_computed")
            before = {name: registry[name] for name in counters}
            client.request("POST", "/v1/evaluate/batch", payload)
            cold = {name: registry[name] for name in counters}
            client.request("POST", "/v1/evaluate/batch", payload)
            warm = {name: registry[name] for name in counters}
            max_group_size = registry["max_group_size"]
        assert cold["dispatched_groups"] - before["dispatched_groups"] == 1
        assert cold["evaluations_computed"] - before["evaluations_computed"] == 3
        assert max_group_size >= 3
        assert warm == cold

    def test_a_cold_batch_is_one_pool_job(self, small_model, monkeypatch):
        from repro.service import worker

        jobs = []
        for name in ("evaluate_batch", "evaluate_single"):
            function = getattr(worker, name)
            monkeypatch.setattr(
                worker, name, lambda arguments, f=function, n=name: jobs.append(n) or f(arguments)
            )
        payload = {"model": small_model.to_dict(), "requests": BATCH_REQUESTS, "seed": 11}
        with start_in_background(EvaluationServer()) as handle:
            batch = ServiceClient(port=handle.port).request("POST", "/v1/evaluate/batch", payload)
        # The five distinct elements share one job, so exact and
        # tail-quantile compute one exact PFD distribution.
        assert jobs == ["evaluate_batch"]
        assert [served["group_size"] for served in batch["served"]] == [5] * len(BATCH_REQUESTS)

    def test_a_failed_batch_job_computes_each_element_alone(self, small_model, monkeypatch):
        from repro.service import worker

        def fail(arguments):
            raise RuntimeError("batch job lost")

        monkeypatch.setattr(worker, "evaluate_batch", fail)
        payload = {"model": small_model.to_dict(), "requests": BATCH_REQUESTS, "seed": 11}
        with start_in_background(EvaluationServer()) as handle:
            batch = ServiceClient(port=handle.port).request("POST", "/v1/evaluate/batch", payload)
            assert handle.server.registry["evaluations_computed"] == 5
        for element, record in zip(BATCH_REQUESTS, batch["results"]):
            options = _element_payload(small_model, element, 11)["options"]
            direct = evaluate(small_model, element["method"], seed=11, options=options)
            assert _strip_elapsed(record) == _strip_elapsed(json.loads(json.dumps(direct.to_dict())))

    def test_a_batch_past_its_deadline_still_stores_its_records(self, small_model, monkeypatch):
        # The job outlasts the 1 ms deadline: the batch answers 504, but its
        # flight keeps computing, so the retry is a cache hit.
        import time

        from repro.service import worker

        evaluate_batch_job = worker.evaluate_batch
        monkeypatch.setattr(
            worker,
            "evaluate_batch",
            lambda arguments: time.sleep(0.05) or evaluate_batch_job(arguments),
        )
        server = EvaluationServer()
        payload = {
            "model": small_model.to_dict(),
            "requests": [{"method": "montecarlo", "replications": 500}],
            "seed": 3,
        }

        async def run():
            late = await server._route(
                "POST", "/v1/evaluate/batch", json.dumps({**payload, "timeout_ms": 1}).encode()
            )
            while server._running:
                await asyncio.sleep(0.01)
            retry = await server._route("POST", "/v1/evaluate/batch", json.dumps(payload).encode())
            return late, retry

        late, retry = asyncio.run(run())
        assert late[0] == 504
        assert retry[0] == 200
        assert retry[1]["served"] == [{"cached": "lru", "group_size": 0}]
        assert server.registry["evaluations_computed"] == 1


class TestSingleFlight:
    def test_identical_concurrent_requests_run_one_pool_job(self, small_model, monkeypatch):
        from repro.service import worker

        runs = []
        evaluate_single = worker.evaluate_single

        def counted(arguments):
            runs.append(arguments)
            return evaluate_single(arguments)

        monkeypatch.setattr(worker, "evaluate_single", counted)
        server = EvaluationServer()
        payload = {"model": small_model.to_dict(), "method": "moments", "p_scale": 0.5}
        responses = _gather_evaluate(server, [payload] * 5)
        assert len(runs) == 1
        direct = evaluate(small_model.rescaled(0.5, 1.0), "moments").to_dict()
        for response in responses:
            assert _strip_elapsed(response["result"]) == _strip_elapsed(direct)
        assert server.registry["evaluate_requests"] == 5
        assert server.registry["coalesced_requests"] == 4
        assert server.registry["evaluations_computed"] == 1


class TestProcessPool:
    def test_process_workers_serve_identical_results(self, small_model):
        server = EvaluationServer(workers=2)
        try:
            scales = (0.5, 1.0)
            responses = _gather_evaluate(
                server,
                [
                    {
                        "model": small_model.to_dict(),
                        "method": "exact",
                        "options": {"max_support": 256},
                        "p_scale": scale,
                    }
                    for scale in scales
                ],
            )
            reference = evaluate_sweep(
                small_model,
                "exact",
                [{"p_scale": scale} for scale in scales],
                max_support=256,
            )
            for response, expected in zip(responses, reference):
                assert _strip_elapsed(response["result"]) == _strip_elapsed(
                    expected.to_dict()
                )
        finally:
            asyncio.run(server.aclose())


class TestScenarioSpelling:
    def test_scenario_requests_share_the_cache_with_inline_models(self):
        from repro.experiments.scenarios import get_scenario

        server = EvaluationServer()
        model = get_scenario("high-quality")
        [cold] = _gather_evaluate(server, [{"scenario": "high-quality", "method": "moments"}])
        [warm] = _gather_evaluate(server, [{"model": model.to_dict(), "method": "moments"}])
        assert cold["served"]["cached"] is None
        assert warm["served"]["cached"] == "lru"
