"""The micro-batcher: concurrent requests become batched kernel calls.

Requests arriving while others are in flight rarely have *nothing* in
common: a sweep-style client (or several clients scanning the same model)
issues many requests that agree on everything except the batchable
``p_scale`` / ``q_scale`` transforms.  The batcher holds each batchable
request for a short window (``--batch-window-ms``) keyed by its batch-group
digest -- the same (model content, method, options, seed) grouping the study
runner uses for cache-miss sweep points -- and dispatches every group as
*one* :func:`repro.service.worker.evaluate_group` call: one shared-demand
Monte Carlo pass instead of N scalar evaluations, or one pool job looping the
scalar exact kernel, whose records equal the lone requests' byte for byte.

Grouping never changes *whether* an answer is right, only which equally
valid estimator produced it (see the README's CRN notes): a lone request, a
group whose kernel declined, and every non-batchable method dispatch through
the exact scalar :func:`repro.evaluate` path; duplicate requests inside a
group (same digest) are coalesced -- computed once, fanned out to every
waiter.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable

from repro import telemetry
from repro.service import worker
from repro.service.protocol import ServiceRequest
from repro.telemetry.metrics import MetricsRegistry

__all__ = ["MicroBatcher"]


@dataclass
class _Job:
    request: ServiceRequest
    digest: str
    future: asyncio.Future
    #: Stamped at submit so the flush can report how long this job sat in
    #: the open batching window -- the latency the window *added*.
    submitted: float = 0.0
    #: The submitting request's trace id (contextvars do not survive into
    #: the flush task for any job but the window opener's).
    trace: str | None = None


@dataclass
class _PendingGroup:
    jobs: list[_Job] = field(default_factory=list)
    timer: asyncio.TimerHandle | None = None


class MicroBatcher:
    """Collects in-flight batchable requests and dispatches them per group.

    Parameters
    ----------
    run_in_pool:
        ``async (function, arguments) -> result``: how work reaches the
        executor (the server wraps ``loop.run_in_executor``).
    window_seconds:
        How long the *first* request of a group waits for companions.  The
        window bounds added latency; it does not delay non-batchable
        requests, which dispatch immediately.
    batch:
        ``False`` disables grouping entirely (``repro serve --no-batch``):
        every request takes the scalar path, byte-identical to
        :func:`repro.evaluate`.
    on_group:
        Optional ``(group_size, unique, batched)`` callback invoked per
        dispatch, feeding the server's ``/metrics`` counters.
    on_fallback:
        Optional zero-argument callback invoked when a batched group call
        failed and the group was re-dispatched point by point (the
        ``group_fallbacks`` metric).
    metrics:
        Optional :class:`~repro.telemetry.metrics.MetricsRegistry` receiving
        the ``batch_window_wait_seconds`` histogram (how long each batched
        job sat in its window before dispatch).
    """

    def __init__(
        self,
        run_in_pool: Callable[..., Awaitable[Any]],
        *,
        window_seconds: float = 0.005,
        batch: bool = True,
        on_group: Callable[[int, int, bool], None] | None = None,
        on_fallback: Callable[[], None] | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if window_seconds < 0.0:
            raise ValueError(f"window_seconds must be non-negative, got {window_seconds}")
        self._run = run_in_pool
        self.window_seconds = window_seconds
        self.batch = batch
        self._on_group = on_group
        self._on_fallback = on_fallback
        self._metrics = metrics
        self._pending: dict[str, _PendingGroup] = {}
        self._flush_tasks: set[asyncio.Task] = set()

    @property
    def pending_requests(self) -> int:
        """Requests currently waiting in an open batching window."""
        return sum(len(group.jobs) for group in self._pending.values())

    async def submit(self, request: ServiceRequest, digest: str) -> tuple[dict, dict]:
        """Serve one request; returns ``(wire record, served metadata)``.

        Batchable requests (method registered a kernel, batching enabled)
        wait up to the window for groupmates; everything else dispatches
        immediately on the scalar path.
        """
        if not (self.batch and request.supports_batch):
            return await self._dispatch_single(request, group_size=1)
        loop = asyncio.get_running_loop()
        job = _Job(
            request=request,
            digest=digest,
            future=loop.create_future(),
            submitted=time.perf_counter(),
            trace=telemetry.current_trace_id(),
        )
        key = request.group_key()
        group = self._pending.get(key)
        if group is None:
            group = self._pending[key] = _PendingGroup()
            group.timer = loop.call_later(self.window_seconds, self._spawn_flush, key)
        group.jobs.append(job)
        return await job.future

    async def flush_all(self) -> None:
        """Dispatch every open group immediately (shutdown and tests)."""
        await asyncio.gather(*(self._flush(key) for key in list(self._pending)))

    def _spawn_flush(self, key: str) -> None:
        task = asyncio.get_running_loop().create_task(self._flush(key))
        # Keep a strong reference: the loop only holds weak ones.
        self._flush_tasks.add(task)
        task.add_done_callback(self._flush_tasks.discard)

    async def _dispatch_single(
        self, request: ServiceRequest, group_size: int
    ) -> tuple[dict, dict]:
        record = await self._run(worker.evaluate_single, request.single_arguments())
        if self._on_group is not None:
            self._on_group(group_size, 1, False)
        return record, {"batched": False, "group_size": group_size}

    async def _flush(self, key: str) -> None:
        group = self._pending.pop(key, None)
        if group is None:
            return
        if group.timer is not None:
            group.timer.cancel()
        jobs = group.jobs
        self._record_window_waits(jobs)
        # Coalesce duplicates (same request digest) into one variation
        # slot, preserving first-seen order -- the batched kernel sees
        # each distinct point once and every waiter gets its result.
        slot_by_digest: dict[str, int] = {}
        variations: list[dict] = []
        positions: list[int] = []
        for job in jobs:
            slot = slot_by_digest.get(job.digest)
            if slot is None:
                slot = slot_by_digest[job.digest] = len(variations)
                variations.append(
                    {"p_scale": job.request.p_scale, "q_scale": job.request.q_scale}
                )
            positions.append(slot)
        if len(variations) == 1:
            # A single distinct point gains nothing from the kernel and
            # must not depend on how many duplicates asked for it.
            try:
                record, meta = await self._dispatch_single(
                    jobs[0].request, group_size=len(jobs)
                )
            except Exception as error:  # noqa: BLE001 - fanned out to every waiter
                self._fan_exception(jobs, error)
                return
            self._fan_result(jobs, record, meta)
            return
        try:
            # The flush task inherits the window opener's context (the timer
            # was scheduled from the first submit), so this span lands in the
            # first job's trace; every job's own trace still gets its
            # window-wait event above.
            with telemetry.span(
                "batcher.dispatch",
                group_size=len(jobs),
                unique=len(variations),
                method=jobs[0].request.method,
            ):
                used_batch, records = await self._run(
                    worker.evaluate_group, jobs[0].request.group_arguments(tuple(variations))
                )
            if len(records) != len(variations):
                raise TypeError(
                    f"group evaluation returned {len(records)} records "
                    f"for {len(variations)} variations"
                )
        except Exception:  # noqa: BLE001 - isolated below, point by point
            # Group isolation: one bad point (or one crashed group job) must
            # not poison its groupmates.  Re-dispatch every distinct point on
            # the scalar path -- byte-identical to repro.evaluate, the same
            # contract as a declined kernel -- so only the genuinely failing
            # points answer with errors.
            if self._on_fallback is not None:
                self._on_fallback()
            await self._fallback_scalar(jobs, positions)
            return
        meta = {"batched": used_batch, "group_size": len(jobs)}
        if self._on_group is not None:
            self._on_group(len(jobs), len(variations), used_batch)
        for job, slot in zip(jobs, positions):
            if not job.future.done():
                job.future.set_result((records[slot], meta))

    async def _fallback_scalar(self, jobs: list[_Job], positions: list[int]) -> None:
        """Per-point scalar re-dispatch after a failed group call.

        Each distinct point is evaluated once (duplicates still coalesce);
        a point whose scalar evaluation also fails answers only its own
        waiters with that error.
        """
        by_slot: dict[int, list[_Job]] = {}
        for job, slot in zip(jobs, positions):
            by_slot.setdefault(slot, []).append(job)

        async def serve_slot(slot_jobs: list[_Job]) -> None:
            try:
                record = await self._run(
                    worker.evaluate_single, slot_jobs[0].request.single_arguments()
                )
            except Exception as error:  # noqa: BLE001 - this slot's waiters only
                self._fan_exception(slot_jobs, error)
                return
            meta = {"batched": False, "group_size": len(jobs), "fallback": True}
            self._fan_result(slot_jobs, record, meta)

        await asyncio.gather(*(serve_slot(slot_jobs) for slot_jobs in by_slot.values()))
        if self._on_group is not None:
            self._on_group(len(jobs), len(by_slot), False)

    def _record_window_waits(self, jobs: list[_Job]) -> None:
        """Report how long each job sat in the batching window.

        Measured at flush (submit-to-dispatch), attributed to each job's own
        trace -- the interval cannot wrap a ``with`` block, hence
        :func:`telemetry.record`.
        """
        now = time.perf_counter()
        tracing = telemetry.enabled()
        for job in jobs:
            waited = now - job.submitted
            if self._metrics is not None:
                self._metrics.observe("batch_window_wait_seconds", waited)
            if tracing:
                telemetry.record(
                    "batcher.window_wait",
                    waited,
                    trace_id=job.trace or telemetry.new_trace_id(),
                    group_size=len(jobs),
                )

    @staticmethod
    def _fan_result(jobs: list[_Job], record: dict, meta: dict) -> None:
        for job in jobs:
            if not job.future.done():
                job.future.set_result((record, meta))

    @staticmethod
    def _fan_exception(jobs: list[_Job], error: BaseException) -> None:
        for job in jobs:
            if not job.future.done():
                job.future.set_exception(error)
