"""Fault-tolerance tests: crash recovery, backpressure, deadlines, draining.

These drive the server's admission/retry machinery deterministically --
event-controlled coroutines instead of wall-clock races -- plus two real
process-pool crash scenarios armed through the failpoint registry.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro import faults
from repro.api import evaluate
from repro.service import (
    EvaluationServer,
    ServiceClient,
    ServiceError,
    WorkerCrashError,
    start_in_background,
)


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.clear()
    yield
    faults.clear()


def _strip_elapsed(record: dict) -> dict:
    return {key: value for key, value in record.items() if key != "elapsed_seconds"}


class TestPoolRestart:
    def test_worker_crash_rebuilds_the_pool_and_retries_byte_identical(self, small_model):
        # Pool of one worker; the crash failpoint fires on its second hit,
        # so request A succeeds, request B crashes the worker once and its
        # retry (a fresh process, counting from zero) succeeds.
        faults.inject("worker.crash", crash=True, every=2)
        server = EvaluationServer(workers=1)
        try:

            async def run():
                first = await server._serve_evaluate(
                    {"model": small_model.to_dict(), "method": "moments"}
                )
                second = await server._serve_evaluate(
                    {"model": small_model.to_dict(), "method": "moments", "p_scale": 0.5}
                )
                return first, second

            first, second = asyncio.run(run())
            assert server.registry["pool_restarts"] == 1
            assert server.registry["retried_jobs"] == 1
            assert server.registry["poison_jobs"] == 0
            assert _strip_elapsed(first["result"]) == _strip_elapsed(
                evaluate(small_model, "moments").to_dict()
            )
            assert _strip_elapsed(second["result"]) == _strip_elapsed(
                evaluate(small_model.rescaled(0.5, 1.0), "moments").to_dict()
            )
        finally:
            asyncio.run(server.aclose(drain_seconds=0.0))

    def test_poison_job_fails_typed_after_one_retry(self, small_model):
        # Crashing on every hit: the job kills the pool, kills the rebuilt
        # pool on its retry, and must then fail as WorkerCrashError instead
        # of restart-looping.
        faults.inject("worker.crash", crash=True)
        server = EvaluationServer(workers=1)
        try:
            with pytest.raises(WorkerCrashError, match="not retried again"):
                asyncio.run(
                    server._serve_evaluate(
                        {"model": small_model.to_dict(), "method": "moments"}
                    )
                )
            assert server.registry["pool_restarts"] == 2
            assert server.registry["retried_jobs"] == 1
            assert server.registry["poison_jobs"] == 1
        finally:
            asyncio.run(server.aclose(drain_seconds=0.0))

    def test_worker_crash_maps_to_a_typed_500(self, small_model):
        faults.inject("worker.crash", crash=True)
        server = EvaluationServer(workers=1)
        try:
            body = json.dumps({"model": small_model.to_dict(), "method": "moments"})
            status, payload, _ = asyncio.run(
                server._route("POST", "/v1/evaluate", body.encode())
            )
            assert status == 500
            assert payload["code"] == "worker_crash"
        finally:
            asyncio.run(server.aclose(drain_seconds=0.0))


class TestAdmissionControl:
    def test_saturation_answers_429_with_retry_after(self):
        server = EvaluationServer(max_inflight=1, max_queue=0)

        async def run():
            release = asyncio.Event()

            async def slow():
                await release.wait()
                return {"ok": True}

            async def rejected():
                return {}  # pragma: no cover - closed unawaited

            first = asyncio.ensure_future(server._admit(slow(), None))
            await asyncio.sleep(0)  # let the first request take the slot
            overflow = await server._admit(rejected(), None)
            release.set()
            return overflow, await first

        (status, payload, headers), (first_status, first_payload, _) = asyncio.run(run())
        assert status == 429
        assert payload["code"] == "saturated"
        assert headers["Retry-After"] == "1"
        assert server.registry["rejected_saturated"] == 1
        assert (first_status, first_payload) == (200, {"ok": True})

    def test_queue_headroom_admits_before_rejecting(self):
        server = EvaluationServer(max_inflight=1, max_queue=1)

        async def run():
            release = asyncio.Event()

            async def slow(tag):
                await release.wait()
                return {"tag": tag}

            async def rejected():
                return {}  # pragma: no cover - closed unawaited

            first = asyncio.ensure_future(server._admit(slow("running"), None))
            await asyncio.sleep(0)
            second = asyncio.ensure_future(server._admit(slow("queued"), None))
            await asyncio.sleep(0)  # the second request is now waiting for a slot
            overflow = await server._admit(rejected(), None)
            release.set()
            return overflow, await first, await second

        overflow, first, second = asyncio.run(run())
        assert overflow[0] == 429
        assert first[0] == 200 and first[1] == {"tag": "running"}
        assert second[0] == 200 and second[1] == {"tag": "queued"}
        assert server.registry["rejected_saturated"] == 1

    def test_draining_answers_503(self):
        server = EvaluationServer()

        async def run():
            await server.aclose(drain_seconds=0.0)

            async def rejected():
                return {}  # pragma: no cover - closed unawaited

            return await server._admit(rejected(), None)

        status, payload, headers = asyncio.run(run())
        assert status == 503
        assert payload["code"] == "draining"
        assert headers["Retry-After"] == "1"
        assert server.registry["rejected_draining"] == 1


class TestDeadlines:
    def test_overrun_answers_504(self):
        server = EvaluationServer()

        async def hang():
            await asyncio.sleep(60)

        status, payload, _ = asyncio.run(server._admit(hang(), 30.0))
        assert status == 504
        assert payload["code"] == "deadline_exceeded"
        assert "30 ms" in payload["error"]
        assert server.registry["deadline_timeouts"] == 1

    def test_server_default_applies_and_request_overrides(self):
        server = EvaluationServer(request_timeout_ms=20.0)

        async def hang():
            await asyncio.sleep(60)

        async def quick():
            return {"ok": True}

        status, payload, _ = asyncio.run(server._admit(hang(), None))
        assert (status, payload["code"]) == (504, "deadline_exceeded")
        # A generous per-request deadline overrides the tight server default.
        status, payload, _ = asyncio.run(server._admit(quick(), 60_000.0))
        assert (status, payload) == (200, {"ok": True})

    def test_bad_timeout_spelling_is_400_not_admitted(self, small_model):
        server = EvaluationServer()
        body = json.dumps(
            {"model": small_model.to_dict(), "method": "moments", "timeout_ms": -5}
        )
        status, payload, _ = asyncio.run(server._route("POST", "/v1/evaluate", body.encode()))
        assert status == 400
        assert payload["code"] == "bad_request"
        assert "timeout_ms" in payload["error"]

    def test_timed_out_waiter_does_not_poison_a_concurrent_request(
        self, small_model, monkeypatch
    ):
        # Two concurrent requests; one carries a 1 ms deadline that fires
        # long before its 50 ms evaluation ends.  The other still gets the
        # direct record of its own rescaled model.
        import time

        from repro.service import worker

        evaluate_single = worker.evaluate_single
        monkeypatch.setattr(
            worker,
            "evaluate_single",
            lambda arguments: time.sleep(0.05) or evaluate_single(arguments),
        )
        server = EvaluationServer()

        def body(scale, timeout_ms=None):
            payload = {
                "model": small_model.to_dict(),
                "method": "montecarlo",
                "options": {"replications": 500},
                "seed": 7,
                "p_scale": scale,
            }
            if timeout_ms is not None:
                payload["timeout_ms"] = timeout_ms
            return json.dumps(payload).encode()

        async def run():
            return await asyncio.gather(
                server._route("POST", "/v1/evaluate", body(0.5, timeout_ms=1)),
                server._route("POST", "/v1/evaluate", body(0.75)),
            )

        (timed_out, survived) = asyncio.run(run())
        assert timed_out[0] == 504
        assert survived[0] == 200
        assert survived[1]["served"] == {"cached": None, "group_size": 1}
        direct = evaluate(
            small_model.rescaled(0.75, 1.0), "montecarlo", seed=7, replications=500
        )
        assert survived[1]["result"]["metrics"] == direct.to_dict()["metrics"]
        assert server.registry["deadline_timeouts"] == 1

    def test_duplicate_deadline_fails_alone(self, small_model, monkeypatch):
        # Two requests for one digest share one flight; the one whose own
        # 50 ms deadline fires answers 504, the other still gets the record
        # of the single kernel run.
        import time

        from repro.service import worker

        runs = []
        evaluate_single = worker.evaluate_single

        def held(arguments):
            runs.append(arguments)
            time.sleep(0.5)
            return evaluate_single(arguments)

        monkeypatch.setattr(worker, "evaluate_single", held)
        server = EvaluationServer()
        payload = {"model": small_model.to_dict(), "method": "moments"}

        async def run():
            return await asyncio.gather(
                server._route("POST", "/v1/evaluate", json.dumps(payload).encode()),
                server._route(
                    "POST", "/v1/evaluate", json.dumps({**payload, "timeout_ms": 50}).encode()
                ),
            )

        survived, timed_out = asyncio.run(run())
        assert timed_out[0] == 504
        assert survived[0] == 200
        assert _strip_elapsed(survived[1]["result"]) == _strip_elapsed(
            evaluate(small_model, "moments").to_dict()
        )
        assert len(runs) == 1
        assert server.registry["coalesced_requests"] == 1

    def test_retry_after_504_reads_the_finished_flight(self, small_model, monkeypatch):
        # The computation a 504 abandoned still lands in the LRU: the
        # client's retry reads it instead of running the kernel again.
        import threading
        import time

        from repro.service import worker

        runs = []
        release = threading.Event()
        evaluate_single = worker.evaluate_single

        def held(arguments):
            runs.append(arguments)
            release.wait(30.0)
            return evaluate_single(arguments)

        monkeypatch.setattr(worker, "evaluate_single", held)
        server = EvaluationServer(workers=0)
        with start_in_background(server) as handle:
            client = ServiceClient(port=handle.port, retries=0, timeout=30.0)
            with pytest.raises(ServiceError) as excinfo:
                client.evaluate_detail(small_model, "exact", timeout_ms=100)
            assert excinfo.value.status == 504
            release.set()
            deadline = time.monotonic() + 30.0
            while client.metrics()["lru_entries"] < 1 and time.monotonic() < deadline:
                time.sleep(0.02)
            result, served = client.evaluate_detail(small_model, "exact")
        assert served["cached"] == "lru"
        assert len(runs) == 1
        assert result.metric_dict() == evaluate(small_model, "exact").to_dict()["metrics"]

    def test_timed_out_evaluations_keep_their_slots(self, small_model, monkeypatch):
        # Flights that outlive their waiters' 504s still occupy the executor,
        # so they stay charged against admission: with every slot held by
        # one, the next request is 429, not a new evaluation.
        import threading

        from repro.service import worker

        runs = []
        release = threading.Event()
        evaluate_single = worker.evaluate_single

        def held(arguments):
            runs.append(arguments)
            release.wait(30.0)
            return evaluate_single(arguments)

        monkeypatch.setattr(worker, "evaluate_single", held)
        server = EvaluationServer(workers=0, max_inflight=2, max_queue=0)

        def body(scale, timeout_ms=None):
            payload = {"model": small_model.to_dict(), "method": "exact", "p_scale": scale}
            if timeout_ms is not None:
                payload["timeout_ms"] = timeout_ms
            return json.dumps(payload).encode()

        async def run():
            timed_out = await asyncio.gather(
                server._route("POST", "/v1/evaluate", body(0.5, 50)),
                server._route("POST", "/v1/evaluate", body(0.6, 50)),
            )
            saturated = await server._route("POST", "/v1/evaluate", body(0.7))
            held_running = server.registry["running_requests"]
            release.set()
            await server.aclose()
            return timed_out, saturated, held_running

        timed_out, saturated, held_running = asyncio.run(run())
        assert [status for status, _, _ in timed_out] == [504, 504]
        assert saturated[0] == 429
        assert held_running == 2
        assert len(runs) == 2
        assert server.registry["running_requests"] == 0
        assert len(server.cache) == 2


class TestWireRobustness:
    def test_draining_and_errors_are_typed_on_the_wire(self, small_model):
        server = EvaluationServer()
        with start_in_background(server) as handle:
            client = ServiceClient(port=handle.port, retries=0)
            assert client.health()["draining"] is False
            server._draining = True
            try:
                with pytest.raises(ServiceError) as excinfo:
                    client.evaluate(small_model, "moments")
                error = excinfo.value
                assert error.status == 503
                assert error.code == "draining"
                assert error.retry_after == 1.0
                assert error.retryable is True
                # Liveness endpoints keep answering while draining.
                assert client.health()["draining"] is True
                assert client.metrics()["rejected_draining"] == 1
            finally:
                server._draining = False
            result = client.evaluate(small_model, "moments")
            assert result.metric_dict() == evaluate(small_model, "moments").to_dict()["metrics"]

    def test_startup_timeout_raises_instead_of_half_starting(self):
        server = EvaluationServer()

        async def stalled(host, port):
            await asyncio.sleep(60)

        server.start = stalled
        with pytest.raises(RuntimeError, match=r"within 0\.2s"):
            start_in_background(server, startup_timeout=0.2)


class TestAdmissionAtomicity:
    """Admission accounting is synchronous with the saturation check.

    The queued reservation happens before the first ``await`` and the check
    compares the combined total, so a burst arriving in ONE event-loop tick
    -- when nothing has started running yet and a stale per-counter check
    would admit everything -- still admits exactly
    ``max_inflight + max_queue`` requests, and a ``/metrics`` snapshot taken
    mid-burst reads the same numbers admission control used.
    """

    def test_same_tick_burst_admits_exactly_capacity(self):
        server = EvaluationServer(max_inflight=2, max_queue=2)

        async def run():
            release = asyncio.Event()

            async def slow():
                await release.wait()
                return {}

            futures = [
                asyncio.ensure_future(server._admit(slow(), None)) for _ in range(5)
            ]
            await asyncio.sleep(0)  # every admission check ran in one tick
            mid_burst = (
                server.registry["queued_requests"],
                server.registry["running_requests"],
            )
            release.set()
            results = await asyncio.gather(*futures)
            after = (
                server.registry["queued_requests"],
                server.registry["running_requests"],
            )
            return results, mid_burst, after

        results, mid_burst, after = asyncio.run(run())
        statuses = sorted(status for status, _, _ in results)
        assert statuses == [200, 200, 200, 200, 429]
        assert server.registry["rejected_saturated"] == 1
        # The gauges a concurrent /metrics scrape would have read mid-burst:
        # two running, two queued -- never over capacity, never stale zeros.
        assert mid_burst == (2, 2)
        assert after == (0, 0)

    def test_gauges_return_to_zero_after_deadline_cancellation(self):
        server = EvaluationServer(max_inflight=1, max_queue=1)

        async def run():
            release = asyncio.Event()

            async def slow():
                await release.wait()
                return {}

            first = asyncio.ensure_future(server._admit(slow(), None))
            await asyncio.sleep(0)
            # Queued behind the running request, with a deadline that fires
            # while it is still waiting for a slot.
            timed_out = await server._admit(slow(), timeout_ms=10.0)
            release.set()
            await first
            return timed_out

        timed_out = asyncio.run(run())
        assert timed_out[0] == 504
        assert server.registry["queued_requests"] == 0
        assert server.registry["running_requests"] == 0
