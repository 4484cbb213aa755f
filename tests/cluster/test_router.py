"""Router edge cases: failover, rebalance, duplicate races, Retry-After.

Real sockets throughout: shards are live :class:`EvaluationServer` instances
on ephemeral ports, the router fronts them, and a stock
:class:`ServiceClient` talks to the router -- the same path production
traffic takes.  Shard names embed ephemeral ports, so ring placement varies
between runs; tests that need a key on a *specific* shard search for one
(``_payload_owned_by``) instead of assuming.
"""

from __future__ import annotations

import http.server
import json
import threading
from contextlib import contextmanager, suppress

import pytest

from repro.api import evaluate_batch
from repro.cluster import ShardRouter
from repro.core.fault_model import FaultModel
from repro.service import EvaluationServer, ServiceClient, ServiceError, start_in_background
from repro.service.protocol import parse_evaluate_payload

MODEL = {"p": [0.05, 0.02, 0.01], "q": [1e-4, 5e-4, 2e-3]}


@contextmanager
def cluster(
    shards: int = 2,
    probe_interval_ms: float = 10_000.0,
    router_kw: dict | None = None,
    **server_kw,
):
    """``shards`` live servers behind a live router; yields the moving parts.

    The probe interval defaults high so tests control ejection/readmission
    deterministically instead of racing the probe loop.  ``router_kw``
    reaches the :class:`ShardRouter` constructor (replication, lru_size...).
    """
    server_kw.setdefault("batch_window_ms", 1.0)
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
            # Tests kill shards mid-run; stopping one again is a no-op.
            with suppress(RuntimeError):
                handle.stop()


def _computed(servers) -> list[int]:
    return [server.registry["evaluations_computed"] for server in servers]


def _payload_owned_by(router: ShardRouter, shard: str, exclude_seeds=()) -> dict:
    """A /v1/evaluate payload whose route key lands on ``shard``."""
    for seed in range(1000):
        if seed in exclude_seeds:
            continue
        payload = {
            "model": MODEL,
            "method": "montecarlo",
            "options": {"replications": 500},
            "seed": seed,
        }
        key = parse_evaluate_payload(payload).group_key()
        if router.ring.owner(key) == shard:
            return payload
    raise AssertionError(f"no seed in 0..999 hashed to {shard}")  # pragma: no cover


def _on_router_loop(front, call) -> None:
    """Run ``call`` on the router's event loop and wait for it."""
    done = threading.Event()

    def step():
        call()
        done.set()

    front._loop.call_soon_threadsafe(step)
    assert done.wait(5.0)


def _strip_elapsed(record: dict) -> dict:
    return {key: value for key, value in record.items() if key != "elapsed_seconds"}


class TestFailover:
    def test_batch_survives_shard_death_byte_identically(self):
        """A fanned-out batch matches the direct API before AND after one of
        the two shards dies -- failover changes placement, never bytes."""
        requests = [
            {"method": "moments"},
            {"method": "montecarlo", "replications": 500},
            {"method": "bounds"},
            {"method": "exact", "max_support": 256},
        ]
        model = FaultModel.from_dict(MODEL)
        direct = [
            _strip_elapsed(result.to_dict())
            for result in evaluate_batch(model, requests, seed=7)
        ]
        with cluster(2) as (servers, handles, router, front):
            client = ServiceClient(port=front.port)
            before = [
                _strip_elapsed(result.to_dict())
                for result in client.evaluate_batch(model, requests, seed=7)
            ]
            assert before == direct
            handles[1].stop()  # one shard dies with its LRU still warm
            after = [
                _strip_elapsed(result.to_dict())
                for result in client.evaluate_batch(model, requests, seed=7)
            ]
            assert after == direct
            health = client.health()
            assert health["role"] == "router"

    def test_all_shards_dead_is_a_typed_503(self):
        with cluster(1) as (servers, handles, router, front):
            client = ServiceClient(port=front.port, retries=0)
            handles[0].stop()
            with pytest.raises(ServiceError) as excinfo:
                client.evaluate(FaultModel.from_dict(MODEL), "moments")
            assert excinfo.value.status == 503
            assert excinfo.value.code == "no_healthy_shards"
            assert excinfo.value.retry_after is not None


class TestRebalance:
    def test_eject_spills_and_readmit_snaps_back(self):
        """An ejected shard's keys spill to its neighbour; readmission puts
        new traffic for its range right back."""
        with cluster(2) as (servers, handles, router, front):
            client = ServiceClient(port=front.port)
            target = router.ring.shards[0]
            other_index = 1 if target.endswith(str(handles[0].port)) else 0
            target_index = 1 - other_index

            first = _payload_owned_by(router, target)
            client.evaluate_detail(**_as_kwargs(first))
            assert _computed(servers)[target_index] == 1

            _on_router_loop(front, lambda: router.health.eject(target))
            second = _payload_owned_by(router, target, exclude_seeds={first["seed"]})
            _, served = client.evaluate_detail(**_as_kwargs(second))
            assert served["cached"] is None
            counts = _computed(servers)
            assert counts[other_index] == 1  # spilled to the healthy shard
            assert counts[target_index] == 1  # untouched while ejected

            _on_router_loop(front, lambda: router.health.readmit(target))
            third = _payload_owned_by(
                router, target, exclude_seeds={first["seed"], second["seed"]}
            )
            client.evaluate_detail(**_as_kwargs(third))
            assert _computed(servers)[target_index] == 2  # snapped back
            assert router.health.readmissions >= 1

    def test_unaffected_keys_never_move_during_ejection(self):
        with cluster(2) as (servers, handles, router, front):
            client = ServiceClient(port=front.port)
            survivor = router.ring.shards[1]
            survivor_index = 0 if survivor.endswith(str(handles[0].port)) else 1
            payload = _payload_owned_by(router, survivor)
            client.evaluate_detail(**_as_kwargs(payload))
            assert _computed(servers)[survivor_index] == 1
            _on_router_loop(front, lambda: router.health.eject(router.ring.shards[0]))
            repeat = dict(payload, seed=payload["seed"])  # identical request
            # Identical repeat: the router LRU answers it; a *fresh* key owned
            # by the survivor still computes on the survivor.
            fresh = _payload_owned_by(router, survivor, exclude_seeds={payload["seed"]})
            client.evaluate_detail(**_as_kwargs(repeat))
            client.evaluate_detail(**_as_kwargs(fresh))
            assert _computed(servers)[survivor_index] == 2


class TestDuplicateRace:
    def test_concurrent_identical_requests_compute_once(self):
        """Two clients race the same request through the router: one compute
        total across the cluster, identical answers for both.

        The shard window is widened so both arrivals land inside one
        batching window even on a loaded machine -- the coalescing
        contract, not scheduler luck, is what's under test.
        """
        with cluster(2, batch_window_ms=250.0) as (servers, handles, router, front):
            results = []
            errors = []
            barrier = threading.Barrier(2)

            def one():
                client = ServiceClient(port=front.port)
                try:
                    barrier.wait(5.0)
                    result, served = client.evaluate_detail(
                        FaultModel.from_dict(MODEL),
                        "montecarlo",
                        options={"replications": 2000},
                        seed=42,
                    )
                    results.append((_strip_elapsed(result.to_dict()), served))
                except ServiceError as error:  # pragma: no cover - fails the test
                    errors.append(error)

            threads = [threading.Thread(target=one) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
            assert not errors
            assert len(results) == 2
            assert results[0][0] == results[1][0]
            assert sum(_computed(servers)) == 1


def _as_kwargs(payload: dict) -> dict:
    return {
        "model": FaultModel.from_dict(payload["model"]),
        "method": payload["method"],
        "options": payload.get("options"),
        "seed": payload.get("seed"),
    }


class _SaturatedShard(http.server.BaseHTTPRequestHandler):
    """A fake shard: healthy ``/healthz``, everything else 429 + Retry-After.

    Models a real saturated shard exactly: ``/healthz`` bypasses admission
    control, so probes read healthy while work is rejected.
    """

    protocol_version = "HTTP/1.1"

    def _send(self, status: int, body: dict, extra=()) -> None:
        data = json.dumps(body).encode()
        self.send_response(status)
        for name, value in extra:
            self.send_header(name, value)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self):
        if self.path == "/healthz":
            self._send(200, {"status": "ok"})
        else:
            self._send(404, {"error": "not found", "code": "not_found"})

    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length", "0") or "0"))
        self._send(
            429,
            {"error": "server saturated", "code": "saturated"},
            extra=[("Retry-After", "7")],
        )

    def log_message(self, *args):  # noqa: D102 - silence test output
        pass


class TestRetryAfterPropagation:
    def test_upstream_retry_after_reaches_the_client(self):
        """A saturated shard's 429 -- Retry-After header included -- comes
        back through the router once every candidate is out."""
        stub = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _SaturatedShard)
        thread = threading.Thread(target=stub.serve_forever, daemon=True)
        thread.start()
        router = ShardRouter(
            [f"127.0.0.1:{stub.server_address[1]}"],
            probe_interval_ms=10_000.0,
            retries=1,
        )
        front = start_in_background(router)
        try:
            client = ServiceClient(port=front.port, retries=0)
            with pytest.raises(ServiceError) as excinfo:
                client.evaluate(FaultModel.from_dict(MODEL), "moments")
            assert excinfo.value.status == 429
            assert excinfo.value.code == "saturated"
            assert excinfo.value.retry_after == pytest.approx(7.0)
        finally:
            front.stop()
            stub.shutdown()
            thread.join(5.0)


def _wait_for(predicate, timeout: float = 10.0, step: float = 0.02) -> bool:
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(step)
    return predicate()


class TestReplication:
    def test_write_all_warms_replica_and_primary_death_loses_nothing(self):
        """With R=2 a computed result fans out to the standby replica, so
        killing the primary serves the *same bytes* from the replica's cache
        -- zero recompute, one counted read fallback."""
        with cluster(
            3, router_kw={"replication": 2, "lru_size": 0}
        ) as (servers, handles, router, front):
            client = ServiceClient(port=front.port)
            payload = _payload_owned_by(router, router.ring.shards[0])
            key = parse_evaluate_payload(payload).group_key()
            primary, standby = router.placement.replica_set(key)

            first, served = client.evaluate_detail(**_as_kwargs(payload))
            assert served["cached"] is None  # computed on the primary
            assert _wait_for(lambda: router.registry["replica_writes"] >= 1)

            primary_index = next(
                index for index, handle in enumerate(handles)
                if primary.endswith(f":{handle.port}")
            )
            computed_before = sum(_computed(servers))
            handles[primary_index].stop()

            second, served = client.evaluate_detail(**_as_kwargs(payload))
            assert _strip_elapsed(second.to_dict()) == _strip_elapsed(first.to_dict())
            assert served["cached"] in ("lru", "disk")  # the replica was warm
            assert sum(_computed(servers)) == computed_before  # nothing recomputed
            assert router.registry["replica_read_fallbacks"] >= 1
            assert primary in router.health.excluded()

    def test_readmission_restores_exact_placement(self):
        with cluster(
            3, router_kw={"replication": 2, "lru_size": 0}
        ) as (servers, handles, router, front):
            keys = [f"key-{index}" for index in range(64)]
            before = {key: router.placement.replica_set(key) for key in keys}
            victim = router.ring.shards[0]
            _on_router_loop(front, lambda: router.health.eject(victim))
            during = {
                key: router.placement.replica_set(
                    key, excluded=router.health.excluded()
                )
                for key in keys
            }
            assert any(during[key] != before[key] for key in keys)
            _on_router_loop(front, lambda: router.health.readmit(victim))
            after = {key: router.placement.replica_set(key) for key in keys}
            assert after == before

    def test_replica_write_failpoint_counts_failures(self):
        from repro import faults

        with cluster(
            2, router_kw={"replication": 2, "lru_size": 0}
        ) as (servers, handles, router, front):
            faults.inject("router.replica_write", export_env=False)
            try:
                client = ServiceClient(port=front.port)
                client.evaluate_detail(
                    FaultModel.from_dict(MODEL),
                    "montecarlo",
                    options={"replications": 500},
                    seed=3,
                )
                assert _wait_for(
                    lambda: router.registry["replica_write_failures"] >= 1
                )
                assert router.registry["replica_writes"] == 0
            finally:
                faults.clear("router.replica_write")

    def test_replication_must_fit_the_shard_count(self):
        with pytest.raises(ValueError):
            ShardRouter(["a:1", "b:2"], replication=3)

    def test_lru_size_zero_disables_the_router_cache(self):
        with cluster(1, router_kw={"lru_size": 0}) as (servers, handles, router, front):
            assert router.cache is None
            client = ServiceClient(port=front.port)
            kwargs = _as_kwargs(
                {"model": MODEL, "method": "montecarlo",
                 "options": {"replications": 500}, "seed": 11}
            )
            client.evaluate_detail(**kwargs)
            _, served = client.evaluate_detail(**kwargs)
            # The repeat is served by the shard's cache, never tagged "router".
            assert served["cached"] in ("lru", "disk")


class TestSharedHealthView:
    def test_router_serves_its_view(self):
        with cluster(2) as (servers, handles, router, front):
            client = ServiceClient(port=front.port)
            body = client.health_peers()
            assert body["role"] == "router"
            assert set(body["view"]) == set(router.ring.shards)
            victim = router.ring.shards[0]
            _on_router_loop(front, lambda: router.health.eject(victim))
            body = client.health_peers()
            assert body["view"][victim]["ejected"] is True

    def test_shard_serves_an_empty_view(self):
        server = EvaluationServer(batch_window_ms=1.0)
        handle = start_in_background(server)
        try:
            client = ServiceClient(port=handle.port)
            body = client.health_peers()
            assert body["role"] == "shard"
            assert body["view"] == {}
        finally:
            handle.stop()

    def test_peer_routers_converge_on_an_ejection(self):
        """Router A never saw the failure; router B did.  One merge pass
        later A excludes the shard too, and counts the adoption."""
        with cluster(2) as (servers, handles, router_a, front_a):
            shard_names = [f"127.0.0.1:{handle.port}" for handle in handles]
            router_b = ShardRouter(
                shard_names, probe_interval_ms=10_000.0, retries=2
            )
            front_b = start_in_background(router_b)
            try:
                import asyncio

                from repro.cluster.transport import ShardTransport

                peer = f"127.0.0.1:{front_b.port}"
                router_a.peer_routers = (peer,)
                router_a.peer_transports = {peer: ShardTransport(peer, timeout=5.0)}
                victim = shard_names[0]
                _on_router_loop(front_b, lambda: router_b.health.eject(victim))
                future = asyncio.run_coroutine_threadsafe(
                    router_a._merge_peer_views(), front_a._loop
                )
                future.result(timeout=10.0)
                assert victim in router_a.health.excluded()
                assert router_a.registry["health_merges"] >= 1
            finally:
                front_b.stop()

    def test_unreachable_peer_is_skipped(self):
        import asyncio

        from repro.cluster.transport import ShardTransport

        with cluster(1) as (servers, handles, router, front):
            peer = "127.0.0.1:1"  # nothing listens there
            router.peer_routers = (peer,)
            router.peer_transports = {peer: ShardTransport(peer, timeout=2.0)}
            future = asyncio.run_coroutine_threadsafe(
                router._merge_peer_views(), front._loop
            )
            future.result(timeout=10.0)  # swallows the connection failure
            client = ServiceClient(port=front.port)
            # Traffic still flows; the merge failure is silent by design.
            client.evaluate(FaultModel.from_dict(MODEL), "moments")
            assert router.registry["health_merges"] == 0


class TestShutdown:
    def test_stop_with_a_hop_in_flight_prints_no_cancelled_traceback(
        self, monkeypatch, capfd, caplog
    ):
        import logging
        import time

        from repro.service import worker

        evaluate_single = worker.evaluate_single

        def held(arguments):
            # Keep the hop in flight past the router's connection-close
            # wait, so shutdown has to cancel the request's handler task.
            time.sleep(3.0)
            return evaluate_single(arguments)

        monkeypatch.setattr(worker, "evaluate_single", held)
        shard = start_in_background(EvaluationServer(workers=0, batch_window_ms=1.0))
        front = start_in_background(
            ShardRouter([f"127.0.0.1:{shard.port}"], probe_interval_ms=10_000.0)
        )
        outcome: list = []

        def send() -> None:
            client = ServiceClient(port=front.port, retries=0, timeout=30.0)
            try:
                client.evaluate(
                    FaultModel.from_dict(MODEL), "montecarlo", options={"replications": 1000}
                )
            except (ServiceError, OSError) as error:  # shutdown drops it
                outcome.append(error)

        caller = threading.Thread(target=send, daemon=True)
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            caller.start()
            time.sleep(0.5)
            front.stop()
            shard.stop()
            caller.join(10.0)
        assert not caller.is_alive()
        assert outcome, "the in-flight request cannot have completed"
        logged = caplog.text + capfd.readouterr().err
        assert "CancelledError" not in logged
        assert "Exception in callback" not in logged


class TestBadRequests:
    @pytest.mark.parametrize(
        "path, payload",
        [
            ("/v1/evaluate", {"model": {**MODEL, "strict": "false"}, "method": "moments"}),
            ("/v1/evaluate", {"model": {**MODEL, "names": "xyz"}, "method": "moments"}),
            ("/v1/evaluate", {"model": {**MODEL, "p": 0.1}, "method": "moments"}),
            ("/v1/evaluate", {"model": MODEL, "method": "moments", "p_scale": 100.0}),
            ("/v1/evaluate/batch", {"model": {**MODEL, "names": [1, 2, 3]},
                                    "requests": ["moments"]}),
            ("/v1/evaluate/batch", {"model": {**MODEL, "p": [True, False, 0.1]},
                                    "requests": ["moments"]}),
        ],
    )
    def test_router_and_shard_answer_the_same_400(self, path, payload):
        """Wrong-typed or out-of-range model content: the router rejects it
        itself with exactly the shard's status, code and message."""
        with cluster(shards=1) as (servers, handles, _router, front):
            answers = []
            for port in (front.port, handles[0].port):
                with pytest.raises(ServiceError) as excinfo:
                    ServiceClient(port=port, retries=0).request("POST", path, payload)
                error = excinfo.value
                answers.append((error.status, error.code, error.detail))
            assert answers[0] == answers[1]
            assert answers[0][:2] == (400, "bad_request")
            assert _computed(servers) == [0]
