"""The dispatcher: each computed request goes to the worker pool on arrival.

A request that no cache tier holds reaches :meth:`MicroBatcher.submit`
through its digest's single flight and runs at once as one
:func:`repro.service.worker.evaluate_single` pool job.  Its record is
therefore ``repro.evaluate(model.rescaled(p_scale, q_scale), method,
seed=seed, options=options)``, whatever else is in flight: the service never
groups requests.  Shared-stream (common-random-numbers) sweeps come from
studies and :func:`repro.evaluate_sweep` (the README's "Concurrency and CRN
semantics").

Between submit and :meth:`MicroBatcher._flush` a job sits in ``_pending``
under its request digest, with its trace id and submit time, so a wrapper
of ``_flush`` can time the hand-over.  The server's single-flight table
makes that key unique while the job is in flight.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable

from repro import telemetry
from repro.service import worker
from repro.service.protocol import ServiceRequest

__all__ = ["MicroBatcher"]


@dataclass
class _Job:
    request: ServiceRequest
    #: Stamped at submit: the start of the hand-over to the pool.
    submitted: float = 0.0
    #: The submitting request's trace id.
    trace: str | None = None


@dataclass
class _PendingGroup:
    jobs: list[_Job] = field(default_factory=list)


class MicroBatcher:
    """Dispatches each request to the pool at once, as a group of one.

    ``run_in_pool`` is ``async (function, arguments) -> result``: how work
    reaches the executor (the server's ``_run_in_pool``).
    """

    def __init__(self, run_in_pool: Callable[..., Awaitable[Any]]) -> None:
        self._run = run_in_pool
        self._pending: dict[str, _PendingGroup] = {}

    async def submit(self, request: ServiceRequest) -> dict:
        """Serve one request; returns its wire record."""
        key = request.digest()
        job = _Job(request, time.perf_counter(), telemetry.current_trace_id())
        self._pending[key] = _PendingGroup([job])
        return await self._flush(key)

    async def _flush(self, key: str) -> dict:
        request = self._pending.pop(key).jobs[0].request
        return await self._run(worker.evaluate_single, request.single_arguments())
