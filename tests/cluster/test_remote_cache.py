"""The shared cache tier: ``/v1/cache`` endpoints and peer read-through.

The contract under test: a shard warmed by earlier traffic answers for a
cold peer (``repro serve --cache-peer``), byte-identically, with zero
recomputation -- and every failure mode of the remote tier (cold peer,
dead peer, frozen peer, garbage digest, another digest's entry) degrades to
an ordinary cache miss.
"""

from __future__ import annotations

import asyncio
import http.server
import json
import socket
import threading

import pytest

from repro.api import evaluate
from repro.core.fault_model import FaultModel
from repro.service import EvaluationServer, ServiceClient, start_in_background
from repro.service import server as server_module
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
        server = EvaluationServer()
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
        server = EvaluationServer()
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
        server = EvaluationServer()
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
        server = EvaluationServer()
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
        warm = EvaluationServer()
        with start_in_background(warm) as warm_handle:
            warm_client = ServiceClient(port=warm_handle.port)
            model = FaultModel.from_dict(MODEL)
            direct, warm_served = warm_client.evaluate_detail(
                model, "montecarlo", options={"replications": 1000}, seed=11
            )
            assert warm_served["cached"] is None

            cold = EvaluationServer(
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
        backer = EvaluationServer()  # cold: nothing cached
        with start_in_background(backer) as backer_handle:
            front = EvaluationServer(
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
            cache_peers=("127.0.0.1:1",)  # nothing listens
        )
        with start_in_background(server) as handle:
            client = ServiceClient(port=handle.port)
            result, served = client.evaluate_detail(
                FaultModel.from_dict(MODEL), "moments"
            )
            assert served["cached"] is None
            assert server.registry["evaluations_computed"] == 1


def _moments_payloads(count: int) -> list[bytes]:
    """``count`` distinct cold ``moments`` requests (one model each)."""
    return [
        json.dumps({"model": {"p": [0.05, 0.02 + 1e-4 * i], "q": [1e-4, 5e-4]},
                    "method": "moments"}).encode()
        for i in range(count)
    ]


class _ForeignEntryPeer(http.server.BaseHTTPRequestHandler):
    """A peer that answers every ``GET /v1/cache/<d>`` with one fixed entry
    of another digest (``PAYLOAD``'s ``montecarlo`` metrics)."""

    protocol_version = "HTTP/1.1"
    entry = b""

    def do_GET(self):
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(self.entry)))
        self.end_headers()
        self.wfile.write(self.entry)

    def log_message(self, *args):
        pass


class TestPeerOnTheEventLoop:
    """Peer probes run on the event loop over one keep-alive transport per
    peer: a frozen peer costs each miss its own probe budget, not a wave of
    probes queued on the I/O threads, and a healthy one costs one connection."""

    def test_frozen_peer_delays_each_miss_by_one_probe_budget(self, tmp_path, monkeypatch):
        monkeypatch.setattr(server_module, "PEER_TIMEOUT", 0.5)
        evaluate(FaultModel.from_dict(MODEL), "moments")  # import the kernel up front
        with socket.socket() as frozen:  # accepts TCP, never reads a byte
            frozen.bind(("127.0.0.1", 0))
            frozen.listen(64)
            server = EvaluationServer(
                cache_dir=str(tmp_path),
                cache_peers=(f"127.0.0.1:{frozen.getsockname()[1]}",),
            )

            async def run():
                loop = asyncio.get_running_loop()
                started = loop.time()

                async def one(body):
                    status, document, _ = await server._route("POST", "/v1/evaluate", body)
                    return status, document["served"]["cached"], loop.time() - started

                try:
                    return await asyncio.gather(*(one(body) for body in _moments_payloads(24)))
                finally:
                    await server.aclose(drain_seconds=0.0)

            answers = asyncio.run(run())
        assert [(status, cached) for status, cached, _ in answers] == [(200, None)] * 24
        slowest = max(seconds for *_, seconds in answers)
        assert slowest < 2 * 0.5, slowest
        assert server.registry["remote_cache_probes"] == 24
        assert server.registry["evaluations_computed"] == 24

    def test_a_frozen_peer_sits_out_its_cooldown(self, tmp_path, monkeypatch):
        monkeypatch.setattr(server_module, "PEER_TIMEOUT", 0.5)
        monkeypatch.setattr(server_module, "PEER_COOLDOWN", 1.5)  # lapses within the test
        evaluate(FaultModel.from_dict(MODEL), "moments")  # import the kernel up front
        bodies = _moments_payloads(12)
        with socket.socket() as frozen:  # accepts TCP, never reads a byte
            frozen.bind(("127.0.0.1", 0))
            frozen.listen(64)
            server = EvaluationServer(
                cache_dir=str(tmp_path),
                cache_peers=(f"127.0.0.1:{frozen.getsockname()[1]}",),
            )

            async def timed(body):
                loop = asyncio.get_running_loop()
                started = loop.time()
                status, document, _ = await server._route("POST", "/v1/evaluate", body)
                return status, document["served"]["cached"], loop.time() - started

            async def run():
                try:
                    first = await timed(bodies[0])
                    inside = [await timed(body) for body in bodies[1:11]]
                    probes_inside = server.registry["remote_cache_probes"]
                    await asyncio.sleep(1.5)  # the cooldown lapses: ask the peer again
                    lapsed = await timed(bodies[11])
                    return first, inside, probes_inside, lapsed
                finally:
                    await server.aclose(drain_seconds=0.0)

            first, inside, probes_inside, lapsed = asyncio.run(run())
        assert first[:2] == (200, None) and 0.5 <= first[2] < 1.0, first
        assert [answer[:2] for answer in inside] == [(200, None)] * 10
        assert max(answer[2] for answer in inside) < 0.25, inside
        assert probes_inside == 1
        assert lapsed[:2] == (200, None) and lapsed[2] >= 0.5, lapsed
        assert server.registry["remote_cache_probes"] == 2
        assert server.registry["evaluations_computed"] == 12

    def test_sequential_misses_share_one_peer_connection(self):
        peer = EvaluationServer()  # cold: every probe is a 404
        with start_in_background(peer) as peer_handle:
            front = EvaluationServer(
                cache_peers=(f"127.0.0.1:{peer_handle.port}",)
            )
            statuses = _routes(
                front, [("POST", "/v1/evaluate", body) for body in _moments_payloads(40)]
            )
        assert [status for status, *_ in statuses] == [200] * 40
        assert front.registry["remote_cache_probes"] == 40
        assert front.registry["cache_hits_remote"] == 0
        (transport,) = front.peer_transports
        assert transport.stats["connections_opened"] == 1
        assert peer.registry["cache_endpoint_misses"] == 40

    def test_an_entry_for_another_digest_is_a_miss(self):
        model = FaultModel.from_dict(MODEL)
        foreign = evaluate(model, "montecarlo", seed=11, replications=1000)
        handler = type("Handler", (_ForeignEntryPeer,), {"entry": json.dumps(
            {"digest": DIGEST, "metrics": foreign.to_dict()["metrics"]}
        ).encode()})
        stub = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
        thread = threading.Thread(target=stub.serve_forever, daemon=True)
        thread.start()
        try:
            server = EvaluationServer(
                cache_peers=(f"127.0.0.1:{stub.server_address[1]}",)
            )
            with start_in_background(server) as handle:
                client = ServiceClient(port=handle.port)
                result, served = client.evaluate_detail(model, "moments")
                client.close()
        finally:
            stub.shutdown()
            stub.server_close()
            thread.join(5.0)
        assert served["cached"] is None
        assert result.metric_dict() == evaluate(model, "moments").to_dict()["metrics"]
        assert server.registry["remote_cache_probes"] == 1
        assert server.registry["cache_hits_remote"] == 0
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
