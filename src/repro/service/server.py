"""The asyncio evaluation server behind ``repro serve``.

A minimal, dependency-free HTTP/1.1 server on ``asyncio`` streams -- no web
framework, no third-party packages -- exposing:

===========================  ========================================================
Endpoint                     Meaning
===========================  ========================================================
``POST /v1/evaluate``        one evaluation (micro-batched with concurrent traffic)
``POST /v1/evaluate/batch``  one ``repro.evaluate_batch`` call, shipped as one job
``GET /v1/methods``          the method registry's schemas (``repro methods`` as JSON)
``GET /v1/cache/<digest>``   the shared cache surface: this shard's cached entry
                             for a digest (local tiers only), or 404
``PUT /v1/cache/<digest>``   push a study-shaped entry into this shard's cache
``GET /healthz``             liveness: ``{"status": "ok", ...}``
``GET /v1/health/peers``     the shared health-view surface (role, status and an
                             empty view table: routers own ejection state)
``GET /metrics``             counters, gauges and latency histograms (JSON; the
                             Prometheus text exposition via ``?format=prom``)
===========================  ========================================================

The ``/v1/cache`` surface is the cluster's shared cache tier
(:mod:`repro.cluster`): shards started with ``--cache-peer URL`` probe each
other's entries after a local LRU + disk miss, so a shard warmed by studies
or earlier traffic answers for a cold one without recomputation.

Request handling is fully asynchronous: each connection is a task, each
``/v1/evaluate`` cache miss joins the single-flight task for its digest (one
per digest: it probes the disk and remote tiers, computes through the
micro-batcher and stores the record), and every evaluation runs on an
executor (forked workers on direct pipes with ``workers >= 1``, see
:mod:`repro.service.pool`; a thread pool in-process otherwise), so slow
evaluations never stall the accept loop, ``/healthz`` or ``/metrics``.

Responses are JSON; invalid input is HTTP 400 with a one-line ``error``
message (the same messages the CLI prints), unknown paths 404, wrong verbs
405, oversized bodies 413 and evaluation failures 500.
"""

from __future__ import annotations

import asyncio
import contextvars
import string
import threading
import time
from typing import Any, Sequence

from repro import telemetry
from repro.api.registry import default_registry
from repro.cache import ResultCache
from repro.service.batcher import MicroBatcher
from repro.service.cache import RemoteCacheClient, ResponseCache, record_from_entry
from repro.service.http import (
    HttpApp,
    HttpError,
    HttpRequest,
    parse_json_body,
    read_request,
    write_response,
)
from repro.service.protocol import (
    parse_batch_payload,
    parse_evaluate_payload,
    parse_timeout_ms,
)
from repro.service import worker
from repro.telemetry.metrics import MetricsRegistry, merge_snapshots

__all__ = ["EvaluationServer", "ServerHandle", "WorkerCrashError", "start_in_background"]

#: Every PR-6 counter, pre-registered so ``/metrics`` always exposes the
#: full catalogue (at zero) from the first scrape -- the schema test pins
#: these names; removals are breaking, additions are not.
_COUNTER_NAMES = (
    "requests_total",
    "errors_total",
    "evaluate_requests",
    "batch_endpoint_requests",
    "batch_endpoint_evaluations",
    "evaluations_computed",
    "dispatched_groups",
    "batched_groups",
    "batched_group_requests",
    "coalesced_requests",
    "cache_hits_lru",
    "cache_hits_disk",
    "cache_misses",
    "group_fallbacks",
    "pool_restarts",
    "retried_jobs",
    "poison_jobs",
    "rejected_saturated",
    "rejected_draining",
    "deadline_timeouts",
    "cache_hits_remote",
    "remote_cache_probes",
    "cache_endpoint_hits",
    "cache_endpoint_misses",
    "cache_endpoint_stores",
)

#: Latency histograms the server always populates (cheap fixed-bucket
#: observations; the JSON exposition derives p50/p95/p99 from the buckets).
_HISTOGRAM_NAMES = (
    "request_seconds",
    "queue_wait_seconds",
    "batch_window_wait_seconds",
)

_HEX_DIGITS = frozenset(string.hexdigits.lower())


class WorkerCrashError(RuntimeError):
    """A request that crashed the worker pool on its retry too.

    Raised after the pool has already been rebuilt once for the same job --
    the poison-job guard: one crashing request costs at most two pool
    restarts and then fails *typed*, instead of restart-looping the pool.
    """


class EvaluationServer(HttpApp):
    """The evaluation service: batcher + cache + executor + HTTP front.

    Parameters
    ----------
    workers:
        Process-pool size for evaluations; ``0`` evaluates in server-side
        threads (no pickling, fine for tests and small deployments).
    batch_window_ms:
        Micro-batching window: how long the first request of a shared-work
        group (``montecarlo`` sweep points) waits for companions (the added
        latency ceiling).  Every other method dispatches at once.
    batch:
        ``False`` disables micro-batching; every request takes the scalar
        :func:`repro.evaluate` path (``montecarlo`` points draw independent
        streams).  Equal-digest requests coalesce either way.
    cache_dir:
        Optional disk tier for the response cache (the shared
        content-addressed :class:`~repro.cache.ResultCache` format).
    lru_size:
        In-process response-cache capacity (entries).
    cache_peers:
        Base URLs of peer shards whose ``/v1/cache/<digest>`` surface is
        probed after a local LRU + disk miss (``repro serve --cache-peer``).
        A hit back-fills the local tiers, so a warm peer answers for this
        shard exactly once per key; a dead or slow peer is just a miss.
    max_inflight:
        Admission control: how many evaluation requests may be *running*
        concurrently.  Further requests queue.
    max_queue:
        How many admitted requests may *wait* for a running slot before the
        server starts answering 429 with ``Retry-After`` (backpressure).
    request_timeout_ms:
        Server-wide default deadline per evaluation request; a request's own
        ``timeout_ms`` overrides it.  ``None`` disables the default.
    slow_request_ms:
        When set, any request whose total handling time exceeds this many
        milliseconds is logged to stderr with its trace id (``repro serve
        --slow-request-ms``).  ``None`` disables the log.
    """

    routes = {
        "/healthz": {"GET": "_serve_health"},
        "/metrics": {"GET": "_serve_metrics"},
        "/v1/methods": {"GET": "_serve_methods"},
        "/v1/health/peers": {"GET": "_serve_health_peers"},
        "/v1/evaluate": {"POST": "_serve_admitted"},
        "/v1/evaluate/batch": {"POST": "_serve_admitted"},
        # The shared cache surface: no admission control (peers keep
        # reading from a draining or saturated shard); the digest is part
        # of the path.
        "/v1/cache/": {"GET": "_serve_cache", "PUT": "_serve_cache"},
    }

    def __init__(
        self,
        *,
        workers: int = 0,
        batch_window_ms: float = 5.0,
        batch: bool = True,
        cache_dir: str | None = None,
        lru_size: int = 1024,
        cache_peers: Sequence[str] = (),
        max_inflight: int = 64,
        max_queue: int = 256,
        request_timeout_ms: float | None = None,
        slow_request_ms: float | None = None,
    ) -> None:
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if batch_window_ms < 0.0:
            raise ValueError(f"batch_window_ms must be >= 0, got {batch_window_ms}")
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {max_queue}")
        if request_timeout_ms is not None and request_timeout_ms <= 0.0:
            raise ValueError(
                f"request_timeout_ms must be positive or None, got {request_timeout_ms}"
            )
        if slow_request_ms is not None and slow_request_ms < 0.0:
            raise ValueError(
                f"slow_request_ms must be non-negative or None, got {slow_request_ms}"
            )
        super().__init__()
        self.workers = workers
        self.batch_window_ms = batch_window_ms
        self.batch = batch
        self.cache_dir = cache_dir
        self.cache_peers = tuple(cache_peers)
        self.max_inflight = max_inflight
        self.max_queue = max_queue
        self.request_timeout_ms = request_timeout_ms
        self.slow_request_ms = slow_request_ms
        self.cache = ResponseCache(
            max_entries=lru_size,
            disk=ResultCache(cache_dir) if cache_dir is not None else None,
            remote=RemoteCacheClient(self.cache_peers) if self.cache_peers else None,
        )
        self._executor = None
        # Set when aclose tears the executor down: a flight kept past the
        # drain must then fail rather than fork a pool nothing would close.
        self._executor_released = False
        self._draining = False
        self._running = 0
        self._queued = 0
        # Created lazily per event loop: asyncio primitives bind to the loop
        # that first awaits them, and tests drive one server instance
        # through several short-lived loops.
        self._slots: asyncio.Semaphore | None = None
        self._slots_loop = None
        # This server's own instruments, plus an accumulator for the metric
        # deltas pool workers ship back with their job results.
        self.registry = MetricsRegistry()
        self.registry.register_counters(_COUNTER_NAMES)
        self.registry.gauge("max_group_size")
        for name in _HISTOGRAM_NAMES:
            self.registry.histogram(name)
        self._worker_metrics = MetricsRegistry()
        # Single flight: one task per digest in flight, joined by its duplicates.
        self._flights: dict[str, asyncio.Task] = {}
        self.batcher = MicroBatcher(
            self._run_in_pool,
            window_seconds=batch_window_ms / 1000.0,
            batch=batch,
            on_group=self._record_group,
            on_fallback=self._record_fallback,
            metrics=self.registry,
        )

    # ----------------------------------------------------------------- #
    # Executor plumbing
    # ----------------------------------------------------------------- #
    def _ensure_executor(self):
        if self._executor is None:
            if self._executor_released:
                raise RuntimeError("the evaluation server has released its executor")
            if self.workers >= 1:
                from repro.service.pool import WorkerPool

                self._executor = WorkerPool(self.workers)
            else:
                from concurrent.futures import ThreadPoolExecutor

                self._executor = ThreadPoolExecutor(
                    max_workers=4, thread_name_prefix="repro-eval"
                )
        return self._executor

    async def _run_in_pool(self, function, arguments):
        from concurrent.futures import BrokenExecutor

        # Jobs cross the executor as a run_job envelope carrying the trace
        # id and enclosing span id out (contextvars stop at the executor
        # boundary) and, for process pools, the worker's metrics delta back.
        job = (
            function,
            arguments,
            telemetry.current_trace_id(),
            telemetry.current_span_id(),
            self.workers >= 1,
        )
        for attempt in (0, 1):
            executor = self._ensure_executor()
            try:
                # A WorkerPool answers with an asyncio future (wrap_future
                # passes it through), a thread executor with a concurrent one.
                result, delta = await asyncio.wrap_future(
                    executor.submit(worker.run_job, job)
                )
                if delta is not None:
                    self._worker_metrics.merge(delta)
                return result
            except BrokenExecutor as error:
                # A worker process died mid-job (end of file on its pipe) and
                # the pool terminated the rest.  Rebuild it and retry the job
                # once -- results are deterministic, so a retry is safe and
                # byte-identical.  Identity-checked: concurrent failures of
                # one pool count one restart, not one per in-flight job.
                if self._executor is executor:
                    self._executor = None
                    self.registry.inc("pool_restarts")
                if attempt:
                    self.registry.inc("poison_jobs")
                    raise WorkerCrashError(
                        "evaluation crashed the worker pool twice; "
                        "the request was not retried again"
                    ) from error
                self.registry.inc("retried_jobs")

    def _slot_semaphore(self) -> asyncio.Semaphore:
        loop = asyncio.get_running_loop()
        if self._slots is None or self._slots_loop is not loop:
            self._slots = asyncio.Semaphore(self.max_inflight)
            self._slots_loop = loop
        return self._slots

    def _record_group(self, group_size: int, batched: bool) -> None:
        self.registry.inc("dispatched_groups")
        self.registry.inc("evaluations_computed", group_size)
        self.registry.set_max("max_group_size", group_size)
        if batched and group_size >= 2:
            self.registry.inc("batched_groups")
            self.registry.inc("batched_group_requests", group_size)

    def _record_fallback(self) -> None:
        self.registry.inc("group_fallbacks")

    # ----------------------------------------------------------------- #
    # Endpoint logic
    # ----------------------------------------------------------------- #
    async def _in_io_thread(self, function, *arguments):
        """Run blocking cache I/O on the default thread executor.

        The call runs under a copy of the caller's context, so cache-tier
        spans emitted inside keep the request's trace id (plain
        ``run_in_executor`` drops contextvars at the thread boundary).
        """
        loop = asyncio.get_running_loop()
        context = contextvars.copy_context()
        return await loop.run_in_executor(None, lambda: context.run(function, *arguments))

    async def _serve_evaluate(self, payload) -> dict:
        request = parse_evaluate_payload(payload)
        self.registry.inc("evaluate_requests")
        digest = request.digest()
        flight = self._flights.get(digest)
        if flight is not None:
            self.registry.inc("coalesced_requests")
        else:
            with telemetry.span("server.cache_probe") as probe:
                record = self.cache.get_local(digest)
                probe.set(tier="miss" if record is None else "lru")
            if record is not None:
                self.registry.inc("cache_hits_lru")
                return {"result": record, "served": {"cached": "lru", "batched": False, "group_size": 0}}
            flight = self._flights[digest] = asyncio.ensure_future(self._resolve(request, digest))
            flight.add_done_callback(lambda _: self._flights.pop(digest))
        # A waiter's cancellation must not cancel a flight other waiters share.
        return await asyncio.shield(flight)

    async def _resolve(self, request, digest: str) -> dict:
        """One digest's single flight: the shared tiers, else compute; then store."""
        # The disk tier, then peer shards' /v1/cache surface: file and
        # network I/O, both on the default thread executor -- the event loop
        # (accept loop, /healthz, in-flight responses) must never wait on it.
        metrics = cached = None
        with telemetry.span("server.shared_tier_probe") as probe:
            if self.cache.disk is not None:
                metrics = await self._in_io_thread(self.cache.get_disk, digest)
                cached = "disk" if metrics is not None else None
            if cached is None and self.cache.remote is not None:
                self.registry.inc("remote_cache_probes")
                metrics = await self._in_io_thread(self.cache.get_remote, digest)
                cached = "remote" if metrics is not None else None
            probe.set(tier=cached or "miss")
        if cached is None:
            self.registry.inc("cache_misses")
            record, meta = await self.batcher.submit(request)
        else:
            self.registry.inc(f"cache_hits_{cached}")
            record, meta = request.result_record(metrics), {"batched": False, "group_size": 0}
        # A remote hit back-fills LRU and disk like a fresh record, so each
        # key is fetched from a peer at most once.
        self.cache.put_local(digest, record)
        if self.cache.disk is not None and cached != "disk":
            await self._in_io_thread(self.cache.store_disk, digest, record, request.payload())
        return {"result": record, "served": {"cached": cached, **meta}}

    async def _serve_batch(self, payload) -> dict:
        model_data, requests, seed, stream_indices = parse_batch_payload(payload)
        self.registry.inc("batch_endpoint_requests")
        self.registry.inc("batch_endpoint_evaluations", len(requests))
        records = await self._run_in_pool(
            worker.evaluate_batch_endpoint, (model_data, requests, seed, stream_indices)
        )
        return {"results": records, "served": {"cached": None, "requests": len(requests)}}

    async def _serve_admitted(self, request: HttpRequest) -> tuple[int, dict, dict]:
        """``/v1/evaluate`` and ``/v1/evaluate/batch``: evaluation work."""
        serve = self._serve_evaluate if request.path == "/v1/evaluate" else self._serve_batch
        payload = parse_json_body(request.body)
        # The deadline is validated up front (bad spellings are 400s, not
        # admitted work); full payload validation runs inside the admitted
        # coroutine.
        timeout_ms = parse_timeout_ms(
            payload.get("timeout_ms") if isinstance(payload, dict) else None
        )
        # An evaluation outlives its deadline (its record is stored for the
        # retry); batch work is cancelled with it.
        return await self._admit(serve(payload), timeout_ms, serve == self._serve_evaluate)

    def _serve_methods(self, request: HttpRequest) -> dict:
        return {"methods": [definition.schema() for definition in default_registry()]}

    def _serve_health(self, request: HttpRequest) -> dict:
        return {
            "status": "ok",
            "draining": self._draining,
            "uptime_seconds": round(time.time() - self._started, 3),
        }

    def _serve_health_peers(self, request: HttpRequest) -> dict:
        """The shared health-view surface, uniform across roles.

        A shard has no peer table (routers own ejection state), so its view
        is empty and merging it is a no-op -- a router pointed at a shard by
        mistake converges on nothing instead of failing.
        """
        return {
            "role": "shard",
            "status": "draining" if self._draining else "ok",
            "updated": round(time.time(), 6),
            "view": {},
        }

    # ----------------------------------------------------------------- #
    # The shared cache surface (the cluster's remote tier)
    # ----------------------------------------------------------------- #
    async def _serve_cache(self, request: HttpRequest) -> dict:
        digest = request.path[len("/v1/cache/"):]
        if len(digest) != 64 or not set(digest) <= _HEX_DIGITS:
            raise HttpError(
                404, "cache paths are /v1/cache/<64 lowercase hex digest chars>", "not_found"
            )
        try:
            if request.verb == "GET":
                return await self._serve_cache_get(digest)
            return await self._serve_cache_put(digest, request.body)
        except HttpError:
            raise
        except Exception as error:  # noqa: BLE001 - the server must not die
            raise HttpError(
                500, f"cache operation failed: {type(error).__name__}: {error}", "cache_failed"
            ) from error

    async def _serve_cache_get(self, digest: str) -> dict:
        """``GET /v1/cache/<digest>``: this shard's entry, local tiers only.

        The LRU is probed on the event loop (cheap dict access), the disk
        tier on the I/O executor.  Peers are deliberately *not* probed --
        two shards pointing at each other must not ping-pong a miss -- and
        no admission control applies: peers keep reading from a draining or
        saturated shard.
        """
        record = self.cache.get_local(digest)
        if record is not None:
            self.registry.inc("cache_endpoint_hits")
            return {"digest": digest, "metrics": dict(record["metrics"])}
        if self.cache.disk is not None:
            entry = await self._in_io_thread(self.cache.disk.load, digest)
            if entry is not None:
                self.registry.inc("cache_endpoint_hits")
                return {"digest": digest, **entry}
        self.registry.inc("cache_endpoint_misses")
        raise HttpError(404, f"no cache entry for digest {digest[:12]}...", "cache_miss")

    async def _serve_cache_put(self, digest: str, body: bytes) -> dict:
        """``PUT /v1/cache/<digest>``: accept a pushed study-shaped entry.

        The LRU fills when the entry's payload is rich enough to rebuild a
        wire record (:func:`record_from_entry`); the disk tier fills when it
        exists and the entry carries its payload.  The pushed bytes are
        trusted exactly as far as a disk entry would be -- the digest keys
        them, the content-addressed scheme makes collisions a non-concern.
        """
        entry = parse_json_body(body, "cache entry")
        if not isinstance(entry, dict) or not isinstance(entry.get("metrics"), dict):
            raise HttpError(400, "a cache entry needs a 'metrics' object (study entry shape)")
        stored = False
        record = record_from_entry(entry)
        if record is not None:
            self.cache.put_local(digest, record)
            stored = True
        if self.cache.disk is not None and isinstance(entry.get("payload"), dict):
            await self._in_io_thread(
                self.cache.disk.store,
                digest,
                {"digest": digest, "payload": dict(entry["payload"]), "metrics": dict(entry["metrics"])},
            )
            stored = True
        if stored:
            self.registry.inc("cache_endpoint_stores")
        return {"digest": digest, "stored": stored}

    def _metrics_snapshot(self) -> dict:
        """One consistent registry cut, merged with worker-side observations.

        Operational gauges (queue depth, inflight, LRU size, ...) are set
        into the registry synchronously on the event loop and then *every*
        value is read in a single locked pass -- no counter in one response
        can be newer than a gauge next to it.  Worker metrics arrive from
        two places with disjoint instrument names: the process-global
        registry (thread-mode kernels and cache tiers run in this process)
        and the accumulated deltas pool workers shipped back.
        """
        self.registry.set_gauge("uptime_seconds", round(time.time() - self._started, 3))
        self.registry.set_gauge("pending_requests", self.batcher.pending_requests)
        self.registry.set_gauge("running_requests", self._running)
        self.registry.set_gauge("queued_requests", self._queued)
        self.registry.set_gauge("draining", self._draining)
        self.registry.set_gauge("lru_entries", len(self.cache))
        self.registry.set_gauge("batch_enabled", self.batch)
        self.registry.set_gauge("batch_window_ms", self.batch_window_ms)
        self.registry.set_gauge("workers", self.workers)
        self.registry.set_gauge("max_inflight", self.max_inflight)
        self.registry.set_gauge("max_queue", self.max_queue)
        self.registry.set_gauge("request_timeout_ms", self.request_timeout_ms)
        self.registry.set_gauge("cache_dir", self.cache_dir)
        telemetry.set_process_gauges(self.registry)
        return merge_snapshots(
            self.registry.snapshot(),
            telemetry.global_registry().snapshot(),
            self._worker_metrics.snapshot(),
        )

    # ----------------------------------------------------------------- #
    # Admission control and deadlines
    # ----------------------------------------------------------------- #
    async def _admit(
        self, coroutine, timeout_ms: float | None, keep_past_deadline: bool = False
    ) -> tuple[int, dict, dict]:
        """Run an evaluation coroutine under admission control and a deadline.

        Saturation (the wait queue is full) answers 429, draining answers
        503 -- both with ``Retry-After``, both *before* any work starts, so
        an overloaded server stays responsive instead of building an
        unbounded backlog.  A deadline overrun answers 504.  A request still
        queued is cancelled; a running one is cancelled too unless
        ``keep_past_deadline`` (``/v1/evaluate``: the single flight it waits
        on keeps computing, so the other waiters and a retry still get its
        record).  Such work keeps its running slot until it ends, so a 504
        never frees capacity the executor is still using.

        Admission accounting is *atomic with the saturation check*: the
        queued counter (and its gauge) is bumped here, synchronously, before
        the first ``await`` -- not inside the queued coroutine, which only
        starts on a later event-loop tick.  Without that, a burst arriving
        in one tick would all pass the saturation check against stale
        counters (over-admission beyond ``max_queue``), and a ``/metrics``
        snapshot taken between admission and enqueue would under-report
        ``queued_requests``.
        """
        if self._draining:
            coroutine.close()
            self.registry.inc("rejected_draining")
            return (
                503,
                {"error": "server is draining before shutdown", "code": "draining"},
                {"Retry-After": "1"},
            )
        # One combined capacity check: a reservation counts against the queue
        # until its slot is acquired, so comparing the *sum* keeps the check
        # exact even for a same-tick burst where nothing has started running
        # yet (separate comparisons would admit against a stale running=0).
        if self._queued + self._running >= self.max_queue + self.max_inflight:
            coroutine.close()
            self.registry.inc("rejected_saturated")
            return (
                429,
                {
                    "error": (
                        f"server saturated: {self._running} running and "
                        f"{self._queued} queued requests "
                        f"(max-inflight {self.max_inflight}, max-queue {self.max_queue})"
                    ),
                    "code": "saturated",
                },
                {"Retry-After": "1"},
            )
        # Reserve the queue slot NOW, before the first await: the wait_for
        # task below only starts on a later loop tick, and every concurrent
        # admission this tick must see this request counted.
        self._queued += 1
        self._set_admission_gauges()
        effective = timeout_ms if timeout_ms is not None else self.request_timeout_ms
        timeout = None if effective is None else effective / 1000.0
        try:
            payload = await asyncio.wait_for(
                self._with_slot(coroutine, keep_past_deadline), timeout
            )
        except asyncio.TimeoutError:
            self.registry.inc("deadline_timeouts")
            return (
                504,
                {
                    "error": f"request deadline of {effective:g} ms exceeded",
                    "code": "deadline_exceeded",
                },
                {},
            )
        return 200, payload, {}

    def _set_admission_gauges(self) -> None:
        """Publish the admission counters as gauges, synchronously.

        Called at every queued/running transition so a ``/metrics`` snapshot
        taken mid-burst reads the same numbers admission control does --
        not values from one loop tick ago.
        """
        self.registry.set_gauge("queued_requests", self._queued)
        self.registry.set_gauge("running_requests", self._running)

    async def _with_slot(self, coroutine, keep_past_deadline: bool):
        # The caller (_admit) already took the queued reservation; this
        # coroutine releases it once a running slot is acquired.  A deadline
        # cancellation lands inside acquire() -- after this task's first
        # step, which the event loop always runs before a positive wait_for
        # timer -- so the finally below cannot be skipped.
        semaphore = self._slot_semaphore()
        waited_from = time.perf_counter()
        try:
            await semaphore.acquire()
        except asyncio.CancelledError:
            # The deadline fired while this request was still queued: the
            # evaluation coroutine never started, so close it here instead
            # of leaking it un-awaited.
            coroutine.close()
            raise
        finally:
            self._queued -= 1
            self._set_admission_gauges()
        waited = time.perf_counter() - waited_from
        self.registry.observe("queue_wait_seconds", waited)
        telemetry.record("server.queue_wait", waited)
        self._running += 1
        self._set_admission_gauges()
        # The slot is freed when the work ends, not the waiter: work that
        # outlives its deadline stays counted by admission and aclose's drain.
        work = asyncio.ensure_future(coroutine)
        work.add_done_callback(lambda _: self._release_slot(semaphore))
        return await (asyncio.shield(work) if keep_past_deadline else work)

    def _release_slot(self, semaphore: asyncio.Semaphore) -> None:
        self._running -= 1
        self._set_admission_gauges()
        semaphore.release()

    def _failure(self, error: Exception) -> tuple[int, dict, dict]:
        if isinstance(error, WorkerCrashError):
            return 500, {"error": str(error), "code": "worker_crash"}, {}
        return super()._failure(error)

    # ----------------------------------------------------------------- #
    # HTTP front (the shared skeleton, this module's framing)
    # ----------------------------------------------------------------- #
    async def _route(
        self, verb: str, path: str, body: bytes, query: str = ""
    ) -> tuple[int, dict | str, dict]:
        return await self._dispatch(verb, path, body, query)

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        await self._serve_connection(reader, writer, read_request, write_response)

    # ----------------------------------------------------------------- #
    # Lifecycle
    # ----------------------------------------------------------------- #
    def _listening_message(self, host: str, port: int) -> str:
        return f"repro evaluation service listening on http://{host}:{port}"

    async def aclose(self, drain_seconds: float = 5.0) -> None:
        """Graceful shutdown: stop admitting, drain, then release the executor.

        New evaluation requests answer 503 (``Retry-After``) from here on;
        every open batching window is flushed and already-admitted requests
        (including evaluations whose waiters timed out) get up to
        ``drain_seconds`` to finish before the executor is torn down, so a
        routine shutdown never truncates accepted work.  Pool workers get
        what is left of that budget to exit on their stop message; a flight
        kept past the drain that reaches the executor afterwards fails.
        """
        self._draining = True
        await self.batcher.flush_all()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + drain_seconds
        while self._running > 0 and loop.time() < deadline:
            await asyncio.sleep(0.02)
        await self._close_connections(deadline + 1.0 - loop.time())
        self._executor_released = True
        executor, self._executor = self._executor, None
        if executor is None:
            return
        if self.workers >= 1:
            # Workers exit on a stop message, so their exit-time hooks run;
            # they get what is left of the drain budget, then are killed.
            await executor.aclose(max(0.0, deadline - loop.time()))
        else:
            executor.shutdown(wait=False, cancel_futures=True)


class ServerHandle:
    """A running background server: address, metrics access and shutdown."""

    def __init__(self, server: EvaluationServer, host: str, port: int, thread, loop) -> None:
        self.server = server
        self.host = host
        self.port = port
        self._thread = thread
        self._loop = loop

    def stop(self, timeout: float = 10.0) -> None:
        """Stop the loop and join the server thread."""
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_in_background(
    server: EvaluationServer,
    host: str = "127.0.0.1",
    port: int = 0,
    startup_timeout: float = 30.0,
) -> ServerHandle:
    """Run ``server`` on a fresh event loop in a daemon thread.

    ``port=0`` binds an ephemeral port; the returned handle carries the
    resolved address.  This is the embedding seam tests, benchmarks and the
    example client use -- production deployments run ``repro serve``.

    Raises ``RuntimeError`` when the server does not come up within
    ``startup_timeout`` seconds (the background loop is told to stop, so a
    late bind cannot leave a half-started server behind) or when binding
    failed outright.
    """
    started = threading.Event()
    box: dict[str, Any] = {}

    def run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        box["loop"] = loop
        try:
            asyncio_server = loop.run_until_complete(server.start(host, port))
            box["port"] = asyncio_server.sockets[0].getsockname()[1]
            started.set()
            loop.run_forever()
            # loop.stop() landed: drain the batcher and close sockets.
            asyncio_server.close()
            loop.run_until_complete(asyncio_server.wait_closed())
            loop.run_until_complete(server.aclose())
            # Kept-alive client connections leave their handler tasks
            # parked in read_request(); cancel them while the loop can
            # still run their cleanup, or closing the loop strands them
            # (unraisable GeneratorExit at garbage collection).
            pending = [task for task in asyncio.all_tasks(loop) if not task.done()]
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
        except BaseException as error:  # noqa: BLE001 - surfaced to the caller
            box["error"] = error
            started.set()
        finally:
            loop.close()

    thread = threading.Thread(target=run, name="repro-serve", daemon=True)
    thread.start()
    if not started.wait(timeout=startup_timeout):
        # Never hand back a half-started server: stop the loop (a late bind
        # would otherwise keep serving invisibly) and fail with a message
        # that names the bind target and the timeout.
        loop = box.get("loop")
        if loop is not None:
            loop.call_soon_threadsafe(loop.stop)
        raise RuntimeError(
            f"service failed to start on {host}:{port} within {startup_timeout:g}s "
            f"(startup thread {'still running' if thread.is_alive() else 'exited'})"
        )
    if "error" in box:
        raise RuntimeError(f"service failed to start: {box['error']}") from box["error"]
    return ServerHandle(server, host, box["port"], thread, box["loop"])
