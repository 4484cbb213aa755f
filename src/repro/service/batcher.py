"""The micro-batcher: concurrent sweep points become one shared-work kernel call.

Only a kernel that *shares work* across a sweep's points gains from
grouping them: the Monte Carlo common-random-numbers sweep scores every
point against one shared demand stream
(:attr:`~repro.api.registry.MethodDefinition.shares_work`).  Such a request
waits a short window (``--batch-window-ms``) keyed by its batch-group
digest -- the same (model content, method, options, seed) grouping the study
runner uses for cache-miss sweep points -- and every group dispatches as
*one* :func:`repro.service.worker.evaluate_group` call.

Every other request -- a deterministic method, whose per-point answer
depends only on that point, or any request under ``--no-batch`` --
dispatches at once through the scalar :func:`repro.evaluate` path.  So does
a lone window, and a group whose kernel declined answers with the same
bytes.  Grouping never changes *whether* an answer is right, only which
equally valid estimator produced it (see the README's CRN notes).

Windows never hold duplicates: the server's single-flight table
(:class:`~repro.service.server.EvaluationServer`) coalesces equal-digest
requests before they reach the batcher.
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
    """Windows shared-work requests per group; dispatches the rest at once.

    Parameters
    ----------
    run_in_pool:
        ``async (function, arguments) -> result``: how work reaches the
        executor (the server's ``_run_in_pool``).
    window_seconds:
        How long the *first* request of a shared-work group waits for
        companions.  The window bounds added latency; requests whose kernel
        shares no work never wait in it.
    batch:
        ``False`` disables windows entirely (``repro serve --no-batch``):
        every request takes the scalar path, byte-identical to
        :func:`repro.evaluate`, so ``montecarlo`` requests draw independent
        streams instead of a shared one.
    on_group:
        Optional ``(group_size, batched)`` callback invoked per dispatch,
        feeding the server's ``/metrics`` counters.
    on_fallback:
        Optional zero-argument callback invoked when a batched group call
        failed and the group was re-dispatched point by point (the
        ``group_fallbacks`` metric).
    metrics:
        Optional :class:`~repro.telemetry.metrics.MetricsRegistry` receiving
        the ``batch_window_wait_seconds`` histogram (how long each windowed
        job sat in its window before dispatch).
    """

    def __init__(
        self,
        run_in_pool: Callable[..., Awaitable[Any]],
        *,
        window_seconds: float = 0.005,
        batch: bool = True,
        on_group: Callable[[int, bool], None] | None = None,
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

    async def submit(self, request: ServiceRequest) -> tuple[dict, dict]:
        """Serve one request; returns ``(wire record, served metadata)``.

        A request whose kernel shares work (with batching enabled) waits up
        to the window for groupmates; everything else dispatches
        immediately on the scalar path.
        """
        if not (self.batch and request.shares_work):
            return await self._dispatch_single(request)
        loop = asyncio.get_running_loop()
        job = _Job(
            request=request,
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

    async def _dispatch_single(self, request: ServiceRequest) -> tuple[dict, dict]:
        """One scalar evaluation, dispatched as a group of one."""
        record = await self._run(worker.evaluate_single, request.single_arguments())
        if self._on_group is not None:
            self._on_group(1, False)
        return record, {"batched": False, "group_size": 1}

    async def _flush(self, key: str) -> None:
        group = self._pending.pop(key, None)
        if group is None:
            return
        if group.timer is not None:
            group.timer.cancel()
        jobs = group.jobs
        self._record_window_waits(jobs)
        if len(jobs) == 1:
            # A lone point gains nothing from the kernel: its value must be
            # the lone request's.
            await self._settle(jobs[0], self._dispatch_single(jobs[0].request))
            return
        variations = tuple(
            {"p_scale": job.request.p_scale, "q_scale": job.request.q_scale} for job in jobs
        )
        try:
            # The flush task inherits the window opener's context (the timer
            # was scheduled from the first submit), so this span lands in the
            # first job's trace; every job's own trace still gets its
            # window-wait event above.
            with telemetry.span(
                "batcher.dispatch", group_size=len(jobs), method=jobs[0].request.method
            ):
                used_batch, records = await self._run(
                    worker.evaluate_group, jobs[0].request.group_arguments(variations)
                )
            if len(records) != len(jobs):
                raise TypeError(
                    f"group evaluation returned {len(records)} records "
                    f"for {len(jobs)} variations"
                )
        except Exception:  # noqa: BLE001 - isolated below, point by point
            # Group isolation: one bad point (or one crashed group job) must
            # not poison its groupmates.  Re-dispatch every point on the
            # scalar path -- byte-identical to repro.evaluate, the same
            # contract as a declined kernel -- so only the genuinely failing
            # points answer with errors.
            if self._on_fallback is not None:
                self._on_fallback()
            meta = {"batched": False, "group_size": len(jobs), "fallback": True}

            async def scalar(request: ServiceRequest) -> tuple[dict, dict]:
                return await self._run(worker.evaluate_single, request.single_arguments()), meta

            await asyncio.gather(*(self._settle(job, scalar(job.request)) for job in jobs))
            if self._on_group is not None:
                self._on_group(len(jobs), False)
            return
        if self._on_group is not None:
            self._on_group(len(jobs), used_batch)
        meta = {"batched": used_batch, "group_size": len(jobs)}
        for job, record in zip(jobs, records):
            if not job.future.done():
                job.future.set_result((record, meta))

    @staticmethod
    async def _settle(job: _Job, dispatch: Awaitable[tuple[dict, dict]]) -> None:
        """Resolve ``job``'s waiter with ``dispatch``'s outcome, error included."""
        try:
            outcome = await dispatch
        except Exception as error:  # noqa: BLE001 - this job's waiter only
            if not job.future.done():
                job.future.set_exception(error)
            return
        if not job.future.done():
            job.future.set_result(outcome)

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
