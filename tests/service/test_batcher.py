"""Tests for the dispatcher: each request runs on arrival, duplicates coalesce.

Every request is one ``evaluate_single`` pool job, so its record is the
direct API's; duplicates never reach the dispatcher (the server coalesces
them single-flight), so the duplicate tests drive the server's endpoint
logic over a recording dispatcher.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.api import evaluate
from repro.api.registry import default_registry
from repro.service import EvaluationServer
from repro.service.batcher import MicroBatcher
from repro.service.protocol import parse_evaluate_payload

REPLICATIONS = 500
SEED = 7


class Recorder:
    """A run_in_pool that executes the real worker functions synchronously
    while recording every dispatch."""

    def __init__(self) -> None:
        self.calls: list[tuple[str, tuple]] = []

    async def run(self, function, arguments):
        self.calls.append((function.__name__, arguments))
        return function(arguments)


def _payload(model, method="montecarlo", seed=SEED, p_scale=1.0, **options):
    if method == "montecarlo":
        options.setdefault("replications", REPLICATIONS)
    payload = {"model": model.to_dict(), "method": method, "p_scale": p_scale, "seed": seed}
    if options:
        payload["options"] = options
    return payload


def _request(model, method="montecarlo", seed=SEED, p_scale=1.0, **options):
    return parse_evaluate_payload(_payload(model, method, seed, p_scale, **options))


def _direct(model, scale, method="montecarlo", seed=SEED):
    options = {"replications": REPLICATIONS} if method == "montecarlo" else {}
    return evaluate(model.rescaled(scale, 1.0), method, seed=seed, **options)


def _submit_all(batcher, requests):
    async def run():
        return await asyncio.gather(*(batcher.submit(request) for request in requests))

    return asyncio.run(run())


def _recorded_server(recorder, **kwargs):
    """A server whose dispatcher runs through ``recorder``."""
    server = EvaluationServer(**kwargs)
    server.batcher._run = recorder.run
    return server


def _serve_all(server, payloads):
    async def run():
        return await asyncio.gather(*(server._serve_evaluate(payload) for payload in payloads))

    return asyncio.run(run())


class TestDispatch:
    @pytest.mark.parametrize("method", [d.name for d in default_registry()])
    def test_every_request_dispatches_alone_on_arrival(self, small_model, method):
        recorder = Recorder()
        batcher = MicroBatcher(recorder.run)
        scales = (0.25, 0.5, 0.75)
        requests = [_request(small_model, method=method, p_scale=s) for s in scales]
        outcomes = _submit_all(batcher, requests)
        assert [name for name, _ in recorder.calls] == ["evaluate_single"] * 3
        assert batcher._pending == {}
        for record, scale in zip(outcomes, scales):
            expected = _direct(small_model, scale, method=method)
            assert record["metrics"] == expected.to_dict()["metrics"]

    def test_pending_holds_the_job_until_flush(self, small_model):
        # The job sits under its digest, with its trace id and submit time,
        # until _flush takes it: what a wrapper of _flush reads.
        seen = []
        original = MicroBatcher._flush

        async def flush(self, key):
            [job] = self._pending[key].jobs
            seen.append((key, job.request, job.trace, job.submitted))
            return await original(self, key)

        batcher = MicroBatcher(Recorder().run)
        batcher._flush = flush.__get__(batcher)
        request = _request(small_model, p_scale=0.5)
        _submit_all(batcher, [request])
        [(key, queued, trace, submitted)] = seen
        assert key == request.digest()
        assert queued is request
        assert trace is None
        assert submitted > 0.0
        assert batcher._pending == {}

    def test_duplicates_coalesce_into_one_dispatch(self, small_model):
        recorder = Recorder()
        server = _recorded_server(recorder)
        payloads = [_payload(small_model, p_scale=0.5)] * 3 + [_payload(small_model, p_scale=1.0)]
        outcomes = _serve_all(server, payloads)
        assert [name for name, _ in recorder.calls] == ["evaluate_single"] * 2
        assert server.registry["coalesced_requests"] == 2
        assert server.registry["evaluations_computed"] == 2
        assert server.registry["dispatched_groups"] == 2
        assert outcomes[0]["result"] == outcomes[1]["result"] == outcomes[2]["result"]
        for outcome, scale in ((outcomes[0], 0.5), (outcomes[3], 1.0)):
            expected = _direct(small_model, scale)
            assert outcome["result"]["metrics"] == expected.to_dict()["metrics"]

    def test_all_duplicates_dispatch_once(self, small_model):
        # One distinct point is computed once: its value cannot depend on
        # how many clients asked for it.
        recorder = Recorder()
        server = _recorded_server(recorder)
        outcomes = _serve_all(server, [_payload(small_model, p_scale=0.5)] * 2)
        assert [name for name, _ in recorder.calls] == ["evaluate_single"]
        assert server.registry["coalesced_requests"] == 1
        assert server.registry["evaluations_computed"] == 1
        expected = _direct(small_model, 0.5)
        assert outcomes[0]["result"]["metrics"] == expected.to_dict()["metrics"]
        assert outcomes[1]["result"] == outcomes[0]["result"]
        assert outcomes[0]["served"] == {"cached": None, "group_size": 1}

    def test_batch_and_window_switches_are_gone(self):
        # on_group is gone too: the server counts its pool jobs itself.
        for switch in ({"batch": False}, {"window_seconds": 0.005}, {"on_group": print}):
            with pytest.raises(TypeError):
                MicroBatcher(Recorder().run, **switch)


class TestFailures:
    def test_worker_error_reaches_every_waiter(self, small_model):
        async def broken(function, arguments):
            raise RuntimeError("pool exploded")

        batcher = MicroBatcher(broken)
        requests = [_request(small_model, p_scale=scale) for scale in (0.25, 0.5)]

        async def run():
            outcomes = await asyncio.gather(
                *(batcher.submit(request) for request in requests),
                return_exceptions=True,
            )
            return outcomes

        outcomes = asyncio.run(run())
        assert all(isinstance(outcome, RuntimeError) for outcome in outcomes)
        assert batcher._pending == {}
