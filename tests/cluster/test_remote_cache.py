"""The shared cache tier: ``/v1/cache`` endpoints and peer read-through.

The contract under test: a shard warmed by earlier traffic answers for a
cold peer (``repro serve --cache-peer``), byte-identically, with zero
recomputation -- and every failure mode of the remote tier (cold peer,
dead peer, garbage digest) degrades to an ordinary cache miss.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.core.fault_model import FaultModel
from repro.service import EvaluationServer, ServiceClient, start_in_background
from repro.service.protocol import parse_evaluate_payload

MODEL = {"p": [0.05, 0.02, 0.01], "q": [1e-4, 5e-4, 2e-3]}
PAYLOAD = {
    "model": MODEL,
    "method": "montecarlo",
    "options": {"replications": 1000},
    "seed": 11,
}
DIGEST = parse_evaluate_payload(PAYLOAD).digest()


def _route(server: EvaluationServer, verb: str, path: str, body: bytes = b""):
    async def run():
        try:
            return await server._route(verb, path, body)
        finally:
            await server.aclose(drain_seconds=0.0)

    return asyncio.run(run())


def _routes(server: EvaluationServer, calls):
    """Several calls against one server inside one event loop."""

    async def run():
        try:
            return [
                await server._route(verb, path, body) for verb, path, body in calls
            ]
        finally:
            await server.aclose(drain_seconds=0.0)

    return asyncio.run(run())


class TestCacheEndpoints:
    def test_computed_entry_is_served_and_missing_is_404(self):
        server = EvaluationServer(batch_window_ms=1.0)
        (evaluated, cache_hit, cache_miss) = _routes(
            server,
            [
                ("POST", "/v1/evaluate", json.dumps(PAYLOAD).encode()),
                ("GET", f"/v1/cache/{DIGEST}", b""),
                ("GET", f"/v1/cache/{'0' * 64}", b""),
            ],
        )
        assert evaluated[0] == 200
        assert cache_hit[0] == 200
        assert cache_hit[1]["digest"] == DIGEST
        assert cache_hit[1]["metrics"] == evaluated[1]["result"]["metrics"]
        assert cache_miss[0] == 404
        assert cache_miss[1]["code"] == "cache_miss"
        assert server.registry["cache_endpoint_hits"] == 1
        assert server.registry["cache_endpoint_misses"] == 1

    def test_invalid_digest_is_404_and_wrong_verb_is_405(self):
        server = EvaluationServer(batch_window_ms=1.0)
        short, hexless, deleted = _routes(
            server,
            [
                ("GET", "/v1/cache/abc123", b""),
                ("GET", f"/v1/cache/{'g' * 64}", b""),
                ("DELETE", f"/v1/cache/{'0' * 64}", b""),
            ],
        )
        assert short[0] == 404
        assert hexless[0] == 404
        assert deleted[0] == 405

    def test_put_fills_the_lru_and_serves_back(self):
        request = parse_evaluate_payload(PAYLOAD)
        entry = {
            "payload": request.payload(),
            "metrics": {"pfd_single": 0.5, "replications": 1000},
        }
        server = EvaluationServer(batch_window_ms=1.0)
        put, get, evaluated = _routes(
            server,
            [
                ("PUT", f"/v1/cache/{DIGEST}", json.dumps(entry).encode()),
                ("GET", f"/v1/cache/{DIGEST}", b""),
                ("POST", "/v1/evaluate", json.dumps(PAYLOAD).encode()),
            ],
        )
        assert put[0] == 200
        assert put[1] == {"digest": DIGEST, "stored": True}
        assert get[0] == 200
        assert get[1]["metrics"] == entry["metrics"]
        # The pushed entry answers the evaluation without computing.
        assert evaluated[0] == 200
        assert evaluated[1]["served"]["cached"] == "lru"
        assert evaluated[1]["result"]["metrics"] == entry["metrics"]
        assert server.registry["evaluations_computed"] == 0

    def test_put_rejects_garbage(self):
        server = EvaluationServer(batch_window_ms=1.0)
        not_json, no_metrics = _routes(
            server,
            [
                ("PUT", f"/v1/cache/{DIGEST}", b"{nope"),
                ("PUT", f"/v1/cache/{DIGEST}", b'{"payload": {}}'),
            ],
        )
        assert not_json[0] == 400
        assert no_metrics[0] == 400


class TestPeerReadThrough:
    def test_cold_shard_answers_from_warm_peer(self):
        warm = EvaluationServer(batch_window_ms=1.0)
        with start_in_background(warm) as warm_handle:
            warm_client = ServiceClient(port=warm_handle.port)
            model = FaultModel.from_dict(MODEL)
            direct, warm_served = warm_client.evaluate_detail(
                model, "montecarlo", options={"replications": 1000}, seed=11
            )
            assert warm_served["cached"] is None

            cold = EvaluationServer(
                batch_window_ms=1.0,
                cache_peers=(f"127.0.0.1:{warm_handle.port}",),
            )
            with start_in_background(cold) as cold_handle:
                cold_client = ServiceClient(port=cold_handle.port)
                result, served = cold_client.evaluate_detail(
                    model, "montecarlo", options={"replications": 1000}, seed=11
                )
                assert served["cached"] == "remote"
                assert result.metrics == direct.metrics
                assert cold.registry["evaluations_computed"] == 0
                assert cold.registry["cache_hits_remote"] == 1
                assert cold.registry["remote_cache_probes"] >= 1
                # Back-filled locally: the next identical request never
                # leaves the shard.
                _, again = cold_client.evaluate_detail(
                    model, "montecarlo", options={"replications": 1000}, seed=11
                )
                assert again["cached"] == "lru"
                assert cold.registry["cache_hits_remote"] == 1

    def test_cold_peer_is_a_miss_not_an_error(self):
        backer = EvaluationServer(batch_window_ms=1.0)  # cold: nothing cached
        with start_in_background(backer) as backer_handle:
            front = EvaluationServer(
                batch_window_ms=1.0,
                cache_peers=(f"127.0.0.1:{backer_handle.port}",),
            )
            with start_in_background(front) as front_handle:
                client = ServiceClient(port=front_handle.port)
                _, served = client.evaluate_detail(
                    FaultModel.from_dict(MODEL),
                    "montecarlo",
                    options={"replications": 1000},
                    seed=11,
                )
                assert served["cached"] is None
                assert front.registry["evaluations_computed"] == 1
                assert front.registry["remote_cache_probes"] == 1
                assert front.registry["cache_hits_remote"] == 0

    def test_dead_peer_degrades_to_recomputation(self):
        server = EvaluationServer(
            batch_window_ms=1.0, cache_peers=("127.0.0.1:1",)  # nothing listens
        )
        with start_in_background(server) as handle:
            client = ServiceClient(port=handle.port)
            result, served = client.evaluate_detail(
                FaultModel.from_dict(MODEL), "moments"
            )
            assert served["cached"] is None
            assert server.registry["evaluations_computed"] == 1


class TestPeerSpelling:
    """A cache peer is parsed when the server is built, like a router's shards."""

    def test_malformed_peer_fails_at_construction(self):
        with pytest.raises(ValueError, match="'127.0.0.1:80x1' needs host:port"):
            EvaluationServer(cache_peers=("127.0.0.1:80x1",))

    def test_serve_rejects_a_peer_without_host_and_port(self, monkeypatch, capsys):
        from repro.cli import main

        async def never(self, host, port):
            raise AssertionError("a server with a malformed cache peer started")

        monkeypatch.setattr(EvaluationServer, "serve_forever", never)
        assert main(["serve", "--cache-peer", "http://"]) == 2
        assert "'http://' needs host:port" in capsys.readouterr().err
