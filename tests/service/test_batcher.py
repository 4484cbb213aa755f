"""Tests for the micro-batcher: grouping, coalescing, fallbacks, failures.

Only shared-work requests (``montecarlo`` sweep points) wait in a window, so
the window tests use ``montecarlo``; duplicates never reach a window (the
server coalesces them single-flight), so the duplicate tests drive the
server's endpoint logic over a recording batcher.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.api import evaluate, evaluate_sweep
from repro.api.registry import default_registry
from repro.service import EvaluationServer
from repro.service.batcher import MicroBatcher
from repro.service.protocol import parse_evaluate_payload
from repro.telemetry.metrics import MetricsRegistry

REPLICATIONS = 500
SEED = 7


class Recorder:
    """A run_in_pool that executes the real worker functions synchronously
    while recording every dispatch, plus the group-metrics callback feed."""

    def __init__(self) -> None:
        self.calls: list[tuple[str, tuple]] = []
        self.groups: list[tuple[int, bool]] = []

    async def run(self, function, arguments):
        self.calls.append((function.__name__, arguments))
        return function(arguments)

    def on_group(self, group_size: int, batched: bool) -> None:
        self.groups.append((group_size, batched))


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
    """A server whose batcher dispatches through ``recorder``."""
    server = EvaluationServer(**kwargs)
    server.batcher._run = recorder.run
    return server


def _serve_all(server, payloads):
    async def run():
        return await asyncio.gather(*(server._serve_evaluate(payload) for payload in payloads))

    return asyncio.run(run())


class TestGrouping:
    def test_concurrent_sweep_points_become_one_group(self, small_model):
        recorder = Recorder()
        batcher = MicroBatcher(recorder.run, window_seconds=0.01, on_group=recorder.on_group)
        requests = [_request(small_model, p_scale=scale) for scale in (0.25, 0.5, 0.75)]
        outcomes = _submit_all(batcher, requests)
        assert [name for name, _ in recorder.calls] == ["evaluate_group"]
        assert recorder.groups == [(3, True)]
        reference = evaluate_sweep(
            small_model,
            "montecarlo",
            [{"p_scale": scale} for scale in (0.25, 0.5, 0.75)],
            seed=SEED,
            replications=REPLICATIONS,
        )
        for (record, meta), expected in zip(outcomes, reference):
            assert record["metrics"] == expected.to_dict()["metrics"]
            assert meta == {"batched": True, "group_size": 3}

    def test_duplicates_coalesce_into_one_variation(self, small_model):
        recorder = Recorder()
        server = _recorded_server(recorder, batch_window_ms=10.0)
        payloads = [_payload(small_model, p_scale=0.5)] * 3 + [_payload(small_model, p_scale=1.0)]
        outcomes = _serve_all(server, payloads)
        (name, arguments), = recorder.calls
        assert name == "evaluate_group"
        variations = arguments[3]
        assert variations == (
            {"p_scale": 0.5, "q_scale": 1.0},
            {"p_scale": 1.0, "q_scale": 1.0},
        )
        assert server.registry["coalesced_requests"] == 2
        assert server.registry["evaluations_computed"] == 2
        assert server.registry["batched_groups"] == 1
        assert outcomes[0]["result"] == outcomes[1]["result"] == outcomes[2]["result"]
        assert outcomes[3]["result"]["metrics"] != outcomes[0]["result"]["metrics"]

    def test_all_duplicates_dispatch_scalar(self, small_model):
        # One distinct point must not flow through the sweep kernel: its
        # value cannot depend on how many clients asked for it.
        recorder = Recorder()
        server = _recorded_server(recorder, batch_window_ms=10.0)
        outcomes = _serve_all(server, [_payload(small_model, p_scale=0.5)] * 2)
        assert [name for name, _ in recorder.calls] == ["evaluate_single"]
        assert server.registry["coalesced_requests"] == 1
        assert server.registry["evaluations_computed"] == 1
        expected = _direct(small_model, 0.5)
        assert outcomes[0]["result"]["metrics"] == expected.to_dict()["metrics"]
        assert outcomes[1]["result"] == outcomes[0]["result"]
        assert outcomes[0]["served"] == {"cached": None, "batched": False, "group_size": 1}

    def test_different_seeds_split_groups(self, small_model):
        recorder = Recorder()
        batcher = MicroBatcher(recorder.run, window_seconds=0.01, on_group=recorder.on_group)
        requests = [
            _request(small_model, seed=1, p_scale=0.5),
            _request(small_model, seed=1, p_scale=1.0),
            _request(small_model, seed=2, p_scale=0.5),
        ]
        _submit_all(batcher, requests)
        assert sorted(name for name, _ in recorder.calls) == [
            "evaluate_group",
            "evaluate_single",
        ]

    def test_non_batchable_method_dispatches_immediately(self, small_model):
        recorder = Recorder()
        batcher = MicroBatcher(recorder.run, window_seconds=0.01, on_group=recorder.on_group)
        requests = [_request(small_model, method="moments", p_scale=s) for s in (0.5, 1.0)]
        _submit_all(batcher, requests)
        assert [name for name, _ in recorder.calls] == ["evaluate_single"] * 2
        assert recorder.groups == [(1, False)] * 2

    @pytest.mark.parametrize("method", [d.name for d in default_registry()])
    def test_only_shared_work_methods_open_a_window(self, small_model, method):
        # A deterministic point's answer depends on that point alone, so its
        # batch kernel (if any) shares no work: it never waits, even in an
        # hour-long window.  Only a shared-stream kernel's points do.
        dispatched = []

        async def run_in_pool(function, arguments):
            dispatched.append(function.__name__)
            if function.__name__ == "evaluate_group":
                return True, [{"method": method}] * len(arguments[3])
            return {"method": method}

        metrics = MetricsRegistry()
        batcher = MicroBatcher(run_in_pool, window_seconds=3600.0, metrics=metrics)
        requests = [_request(small_model, method=method, p_scale=s) for s in (0.25, 0.5, 0.75)]

        async def run():
            tasks = [asyncio.ensure_future(batcher.submit(request)) for request in requests]
            await asyncio.sleep(0.01)
            windowed = batcher.pending_requests
            await batcher.flush_all()
            return windowed, await asyncio.gather(*tasks)

        windowed, outcomes = asyncio.run(run())
        if default_registry().get(method).shares_work(requests[0].options):
            assert windowed == 3
            assert dispatched == ["evaluate_group"]
            assert metrics.histogram("batch_window_wait_seconds").count == 3
        else:
            assert windowed == 0
            assert dispatched == ["evaluate_single"] * 3
            assert metrics.histogram("batch_window_wait_seconds").count == 0
            assert [meta for _, meta in outcomes] == [{"batched": False, "group_size": 1}] * 3

    def test_zero_window_is_all_scalar(self, small_model):
        recorder = Recorder()
        batcher = MicroBatcher(recorder.run, window_seconds=0.0, on_group=recorder.on_group)
        requests = [_request(small_model, p_scale=scale) for scale in (0.25, 0.5)]
        outcomes = _submit_all(batcher, requests)
        assert [name for name, _ in recorder.calls] == ["evaluate_single"] * 2
        for (record, _), scale in zip(outcomes, (0.25, 0.5)):
            expected = _direct(small_model, scale)
            assert record["metrics"] == expected.to_dict()["metrics"]

    def test_correlated_requests_never_wait(self, small_model):
        # The registry rules correlated montecarlo out of the shared-world
        # kernel, so such requests skip the window, each on its own stream.
        recorder = Recorder()
        metrics = MetricsRegistry()
        batcher = MicroBatcher(
            recorder.run, window_seconds=0.05, on_group=recorder.on_group, metrics=metrics
        )
        scales = (0.25, 0.5)
        requests = [_request(small_model, p_scale=scale, correlation=0.3) for scale in scales]
        outcomes = _submit_all(batcher, requests)
        assert [name for name, _ in recorder.calls] == ["evaluate_single"] * 2
        assert metrics.histogram("batch_window_wait_seconds").count == 0
        for (record, meta), scale in zip(outcomes, scales):
            expected = evaluate(
                small_model.rescaled(scale, 1.0),
                "montecarlo",
                seed=SEED,
                replications=REPLICATIONS,
                correlation=0.3,
            )
            assert record["metrics"] == expected.to_dict()["metrics"]
            assert meta == {"batched": False, "group_size": 1}

    def test_batch_switch_is_gone(self):
        with pytest.raises(TypeError):
            MicroBatcher(Recorder().run, batch=False)

    def test_lone_request_takes_the_scalar_path(self, small_model):
        recorder = Recorder()
        batcher = MicroBatcher(recorder.run, window_seconds=0.001, on_group=recorder.on_group)
        outcomes = _submit_all(batcher, [_request(small_model, p_scale=0.5)])
        assert [name for name, _ in recorder.calls] == ["evaluate_single"]
        expected = _direct(small_model, 0.5)
        assert outcomes[0][0]["metrics"] == expected.to_dict()["metrics"]


class TestGroupFallback:
    """Group isolation: a failed batched call re-dispatches point by point."""

    @pytest.fixture(autouse=True)
    def _clean_faults(self):
        from repro import faults

        faults.clear()
        yield
        faults.clear()

    def _fallback_batcher(self, recorder):
        fallbacks = []
        batcher = MicroBatcher(
            recorder.run,
            window_seconds=0.01,
            on_group=recorder.on_group,
            on_fallback=lambda: fallbacks.append(1),
        )
        return batcher, fallbacks

    def test_failed_group_call_falls_back_byte_identical(self, small_model):
        from repro import faults

        faults.inject("worker.group", error=RuntimeError, message="kernel died", export_env=False)
        recorder = Recorder()
        batcher, fallbacks = self._fallback_batcher(recorder)
        scales = (0.25, 0.5, 0.75)
        outcomes = _submit_all(
            batcher, [_request(small_model, p_scale=scale) for scale in scales]
        )
        # One (failed) group dispatch, then one scalar call per point.
        assert [name for name, _ in recorder.calls] == [
            "evaluate_group", "evaluate_single", "evaluate_single", "evaluate_single",
        ]
        assert fallbacks == [1]
        assert recorder.groups == [(3, False)]
        for (record, meta), scale in zip(outcomes, scales):
            expected = _direct(small_model, scale)
            assert record["metrics"] == expected.to_dict()["metrics"]
            assert meta == {"batched": False, "group_size": 3, "fallback": True}

    def test_one_bad_point_answers_alone(self, small_model):
        from repro import faults

        faults.inject("worker.group", error=RuntimeError, times=1, export_env=False)
        # The three fallback scalar calls hit "worker.evaluate" 1, 2, 3:
        # only the second point (p_scale 0.5) fails.
        faults.inject("worker.evaluate", error=ValueError, message="bad point", every=2, export_env=False)
        recorder = Recorder()
        batcher, fallbacks = self._fallback_batcher(recorder)
        scales = (0.25, 0.5, 0.75)
        requests = [_request(small_model, p_scale=scale) for scale in scales]

        async def run():
            return await asyncio.gather(
                *(batcher.submit(request) for request in requests),
                return_exceptions=True,
            )

        outcomes = asyncio.run(run())
        assert fallbacks == [1]
        assert isinstance(outcomes[1], ValueError)
        for index in (0, 2):
            record, meta = outcomes[index]
            expected = _direct(small_model, scales[index])
            assert record["metrics"] == expected.to_dict()["metrics"]
            assert meta["fallback"] is True

    def test_fallback_still_coalesces_duplicates(self, small_model):
        from repro import faults

        faults.inject("worker.group", error=RuntimeError, times=1, export_env=False)
        recorder = Recorder()
        server = _recorded_server(recorder, batch_window_ms=10.0)
        payloads = [_payload(small_model, p_scale=0.5)] * 2 + [_payload(small_model, p_scale=1.0)]
        outcomes = _serve_all(server, payloads)
        assert server.registry["group_fallbacks"] == 1
        # Two distinct points -> two scalar calls, not three.
        assert [name for name, _ in recorder.calls] == [
            "evaluate_group", "evaluate_single", "evaluate_single",
        ]
        assert server.registry["coalesced_requests"] == 1
        assert server.registry["evaluations_computed"] == 2
        assert outcomes[0]["result"] == outcomes[1]["result"]
        assert outcomes[2]["result"]["metrics"] != outcomes[0]["result"]["metrics"]


class TestFailures:
    def test_worker_error_reaches_every_waiter(self, small_model):
        async def broken(function, arguments):
            raise RuntimeError("pool exploded")

        batcher = MicroBatcher(broken, window_seconds=0.01)
        requests = [_request(small_model, p_scale=scale) for scale in (0.25, 0.5)]

        async def run():
            outcomes = await asyncio.gather(
                *(batcher.submit(request) for request in requests),
                return_exceptions=True,
            )
            return outcomes

        outcomes = asyncio.run(run())
        assert all(isinstance(outcome, RuntimeError) for outcome in outcomes)

    def test_rejects_negative_window(self):
        with pytest.raises(ValueError, match="non-negative"):
            MicroBatcher(lambda *a: None, window_seconds=-1.0)


class TestFlushAll:
    def test_flush_all_short_circuits_the_window(self, small_model):
        recorder = Recorder()
        # A one-hour window: only flush_all can dispatch.
        batcher = MicroBatcher(recorder.run, window_seconds=3600.0, on_group=recorder.on_group)

        async def run():
            tasks = [
                asyncio.ensure_future(batcher.submit(request))
                for request in (
                    _request(small_model, p_scale=0.25),
                    _request(small_model, p_scale=0.5),
                )
            ]
            await asyncio.sleep(0)  # let the submits register
            assert batcher.pending_requests == 2
            await batcher.flush_all()
            return await asyncio.gather(*tasks)

        outcomes = asyncio.run(run())
        assert len(outcomes) == 2
        assert recorder.groups == [(2, True)]
        assert batcher.pending_requests == 0
