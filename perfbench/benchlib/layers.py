"""The per-layer wrappers of the traced run.

Each wrapper replaces a layer's public function *where its caller looks it
up* -- ``repro.service.server.parse_evaluate_payload``, not only the module
that defines it -- and records one span per call through a
:class:`~benchlib.spans.Recorder`.  Span names are the per-layer metric
names without their unit suffix; functions shared by the router and the
shards (HTTP framing, parsing, digests, the LRU) get the process role as
prefix.  Pool workers forked from a shard inherit the wrappers and record
under the role ``worker``.

:func:`install` returns an undo function; nothing is wrapped on import.
"""

from __future__ import annotations

import functools
import json
import time
import types

from benchlib import spans

#: Span names whose time is off a request's blocking path by design (the
#: write-all replica PUTs are fire-and-forget), left out of the coverage sum.
OFF_PATH = frozenset({"router.replica_write"})


def _program_trace(args=None, kwargs=None, result=None):
    from repro import telemetry

    return telemetry.current_trace_id()


class _Patcher:
    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attribute: str, value) -> None:
        self._undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def undo(self) -> None:
        for owner, attribute, original in reversed(self._undo):
            setattr(owner, attribute, original)
        self._undo.clear()


async def _await_first_bytes(args) -> None:
    """Wait until a request's first bytes are buffered (idle keep-alive time
    between requests is not HTTP parsing)."""
    reader = args[0]
    if not reader._buffer and not reader.at_eof():
        try:
            await reader._wait_for_data("read_request")
        except (ConnectionError, RuntimeError):
            pass  # the wrapped read_request sees and handles the same state


def _install_http(patch: _Patcher, module, role: str, recorder) -> None:
    def read_trace(args, kwargs, request):
        headers = getattr(request, "headers", None) or {}
        return headers.get("x-repro-trace-id")

    def write_trace(args, kwargs, result):
        extra = args[4] if len(args) > 4 else kwargs.get("extra_headers")
        return (extra or {}).get("x-repro-trace-id")

    patch.set(module, "read_request", spans.timed_async(
        module.read_request, f"{role}.http_read", recorder, read_trace, before=_await_first_bytes))
    patch.set(module, "write_response", spans.timed_async(
        module.write_response, f"{role}.http_write", recorder, write_trace))
    patch.set(module, "parse_evaluate_payload", spans.timed(
        module.parse_evaluate_payload, f"{role}.parse", recorder, _program_trace))


def _install_shared(patch: _Patcher, role: str, recorder) -> None:
    from repro.service.cache import ResponseCache
    from repro.service.protocol import ServiceRequest
    from repro.telemetry.metrics import MetricsRegistry

    for attribute in ("digest", "group_key"):
        patch.set(ServiceRequest, attribute, spans.timed(
            getattr(ServiceRequest, attribute), f"{role}.digest", recorder, _program_trace))
    patch.set(ResponseCache, "get_local", spans.timed(
        ResponseCache.get_local, f"{role}.lru_get", recorder, _program_trace))
    patch.set(ResponseCache, "put_local", spans.timed(
        ResponseCache.put_local, f"{role}.lru_put", recorder, _program_trace))

    def observe_trace(args, kwargs):
        explicit = args[3] if len(args) > 3 else kwargs.get("trace_id")
        return explicit or _program_trace()

    patch.set(MetricsRegistry, "observe", spans.timed(
        MetricsRegistry.observe, "metrics.observe", recorder, observe_trace))


def _install_kernels(patch: _Patcher, recorder) -> None:
    from repro.core import moments, pfd_distribution
    from repro.montecarlo import sweep
    from repro.montecarlo.engine import MonteCarloEngine
    from repro.stats import batched

    patch.set(pfd_distribution, "exact_pfd_distribution", spans.timed(
        pfd_distribution.exact_pfd_distribution, "kernel.exact", recorder, _program_trace))
    patch.set(moments, "pfd_moments", spans.timed(
        moments.pfd_moments, "kernel.moments", recorder, _program_trace))

    def replications(args, kwargs):
        return {"reps": int(kwargs.get("replications", args[1] if len(args) > 1 else 0))}

    for attribute in ("simulate_paired_streaming", "simulate_systems_streaming"):
        patch.set(MonteCarloEngine, attribute, spans.timed(
            getattr(MonteCarloEngine, attribute), "kernel.mc", recorder, _program_trace,
            replications))

    def pmf_points(args, kwargs):
        return {"points": len(kwargs.get("p_scales", args[1] if len(args) > 1 else ()))}

    patch.set(batched, "batched_scaled_pfd", spans.timed(
        batched.batched_scaled_pfd, "kernel.batched_pmf", recorder, _program_trace, pmf_points))

    def sweep_size(args, kwargs):
        reps = int(kwargs.get("replications", args[1] if len(args) > 1 else 0))
        points = len(kwargs.get("variations", args[2] if len(args) > 2 else ()))
        return {"reps": reps, "points": points}

    patch.set(sweep, "simulate_scaled_sweep", spans.timed(
        sweep.simulate_scaled_sweep, "kernel.mc_sweep", recorder, _program_trace, sweep_size))


def _install_router(patch: _Patcher, recorder) -> None:
    from repro.cluster import router
    from repro.cluster.transport import ShardTransport

    _install_http(patch, router, "router", recorder)
    _install_shared(patch, "router", recorder)
    patch.set(router.ShardRouter, "_route", spans.timed_async(
        router.ShardRouter._route, "router.request", recorder, _program_trace))

    original = ShardTransport.request
    hop = spans.timed_async(original, "router.hop", recorder, _program_trace)
    replica = spans.timed_async(original, "router.replica_write", recorder, _program_trace)

    async def request(self, verb, path, *args, **kwargs):
        if verb == "POST" and path.startswith("/v1/evaluate"):
            return await hop(self, verb, path, *args, **kwargs)
        if verb == "PUT":
            return await replica(self, verb, path, *args, **kwargs)
        return await original(self, verb, path, *args, **kwargs)

    patch.set(ShardTransport, "request", request)


def _install_shard(patch: _Patcher, recorder) -> None:
    from repro import telemetry
    from repro.service import batcher, server, worker

    _install_http(patch, server, "shard", recorder)
    _install_shared(patch, "shard", recorder)
    _install_kernels(patch, recorder)
    patch.set(server.EvaluationServer, "_route", spans.timed_async(
        server.EvaluationServer._route, "shard.request", recorder, _program_trace))
    patch.set(server.EvaluationServer, "_run_in_pool", spans.timed_async(
        server.EvaluationServer._run_in_pool, "worker.handoff", recorder, _program_trace))
    patch.set(batcher.MicroBatcher, "submit", spans.timed_async(
        batcher.MicroBatcher.submit, "batcher.submit", recorder, _program_trace))

    flush = spans.timed_async(
        batcher.MicroBatcher._flush, "batcher.submit", recorder, _program_trace)

    async def flush_with_window(self, key):
        # The window wait is an interval, not a call: one synthetic span per
        # job, from its submit to this flush (the program's own
        # batcher.window_wait measures the same interval).
        group = self._pending.get(key)
        if group is not None:
            now = time.perf_counter()
            for job in group.jobs:
                recorder.add("batcher.window_wait", job.trace, recorder.next_id(), None,
                             job.submitted, now)
        return await flush(self, key)

    patch.set(batcher.MicroBatcher, "_flush", flush_with_window)
    timed_job = spans.timed(
        worker.run_job, "worker.kernel", recorder, lambda args, kwargs: args[0][2])

    @functools.wraps(worker.run_job)
    def run_job(arguments):
        # The job's trace id rides in its envelope; make it current so the
        # kernel spans inside land in the request's trace.
        token = telemetry.set_trace_id(arguments[2])
        try:
            return timed_job(arguments)
        finally:
            token.var.reset(token)

    patch.set(worker, "run_job", run_job)
    patch.set(worker, "api_evaluate", spans.timed(
        worker.api_evaluate, "api.evaluate", recorder, _program_trace))


def _install_client(patch: _Patcher, recorder) -> None:
    from repro import telemetry
    from repro.api.results import EvaluationResult
    from repro.service import client

    def call_trace(args, kwargs):
        return telemetry.current_trace_id()

    patch.set(client, "_model_payload", spans.timed(
        client._model_payload, "client.encode", recorder, call_trace))
    proxy = types.ModuleType("json")
    proxy.__dict__.update(json.__dict__)
    proxy.dumps = spans.timed(json.dumps, "client.encode", recorder, call_trace)
    proxy.loads = spans.timed(json.loads, "client.decode", recorder, call_trace)
    patch.set(client, "json", proxy)
    patch.set(EvaluationResult, "from_dict", staticmethod(spans.timed(
        EvaluationResult.from_dict, "client.decode", recorder, call_trace)))

    call = spans.timed(client.ServiceClient.evaluate_detail, "client.call", recorder, call_trace)

    def evaluate_detail(self, *args, **kwargs):
        # One trace per call, carried to the router in x-repro-trace-id.
        token = telemetry.set_trace_id(telemetry.new_trace_id())
        try:
            return call(self, *args, **kwargs)
        finally:
            token.var.reset(token)

    exchange = spans.timed(client.ServiceClient._exchange, "client.exchange", recorder, call_trace)

    def _exchange(self, verb, path, body, headers):
        trace = telemetry.current_trace_id()
        if trace:
            headers = {**headers, "x-repro-trace-id": trace}
        return exchange(self, verb, path, body, headers)

    patch.set(client.ServiceClient, "evaluate_detail", evaluate_detail)
    patch.set(client.ServiceClient, "_exchange", _exchange)


def _install_study(patch: _Patcher, recorder) -> None:
    from repro.cache import ResultCache
    from repro.studies import runner

    _install_kernels(patch, recorder)
    patch.set(runner, "plan_study", spans.timed(
        runner.plan_study, "study.plan", recorder, _program_trace))
    patch.set(ResultCache, "store", spans.timed(
        ResultCache.store, "disk.store", recorder, _program_trace))
    patch.set(ResultCache, "load", spans.timed(
        ResultCache.load, "disk.load", recorder, _program_trace))


_INSTALLERS = {
    "router": _install_router,
    "shard": _install_shard,
    "client": _install_client,
    "study": _install_study,
}


def install(role: str, recorder: spans.Recorder):
    """Wrap ``role``'s layers; returns a function that restores them.

    Forked children (pool workers) keep the wrappers, start an empty span
    buffer under the role ``worker`` and write it when they exit normally.
    """
    patch = _Patcher()
    _INSTALLERS[role](patch, recorder)
    import multiprocessing.util

    def in_child(owner) -> None:
        owner.after_fork("worker")
        multiprocessing.util.Finalize(None, owner.flush, exitpriority=100)

    multiprocessing.util.register_after_fork(recorder, in_child)
    return patch.undo
