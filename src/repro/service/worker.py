"""Execution functions the service worker pool runs.

Everything here is module-level and takes one picklable argument tuple, so
the same functions serve the in-process thread executor (``--workers 0``)
and the process pool (``--workers N``, :mod:`repro.service.pool`), whose
workers are forked from the server and so share its method registry.

A job carries its model as a :class:`~repro.core.model_content.ModelContent`,
``p`` and ``q`` as float64 bytes, which :meth:`FaultModel.from_content` reads
with ``np.frombuffer``.

The contract that makes the service trustworthy: every record produced here
is **byte-identical** to what the public API returns for the same inputs --

* :func:`evaluate_single` is ``repro.evaluate(model.rescaled(p, q), method,
  seed=seed, options=options)``, nothing more: every ``/v1/evaluate`` record;
* :func:`evaluate_batch` is ``repro.evaluate_batch(model, requests,
  seed=seed)`` over a ``/v1/evaluate/batch``'s uncached elements.
"""

from __future__ import annotations

import time

from repro import faults, telemetry
from repro.api.evaluate import evaluate as api_evaluate
from repro.api.evaluate import evaluate_batch as api_evaluate_batch
from repro.core.fault_model import FaultModel
from repro.telemetry.metrics import subtract_snapshots

__all__ = ["evaluate_batch", "evaluate_single", "run_job"]


def run_job(arguments: tuple) -> tuple:
    """Run one pool job under telemetry; the server's executor entry point.

    ``arguments`` is ``(function, function_arguments, trace_id, parent_span,
    collect)``.  The wrapper exists because neither trace context nor metrics
    cross the executor boundary on their own (neither a thread executor nor
    a worker's pipe carries contextvars, and a pool worker's registry lives
    in another process):

    * the request's trace id and enclosing span id ride in explicitly and
      scope a ``worker.kernel`` span, so worker-side events land in the
      right trace *and* nest under the server-side span that dispatched the
      job in a stitched fleet trace;
    * with ``collect`` (process pools), the delta of this process's global
      metrics registry across the job rides back with the result, for the
      server to merge -- in thread mode the observations are already in the
      server process's registry and ``None`` comes back instead.

    Returns ``(result, metrics_delta_or_None)``.  Everything in the job
    tuple is picklable (module-level function + plain data), so the same
    wrapper serves thread and process executors.
    """
    function, function_arguments, trace_id, parent_span, collect = arguments
    registry = telemetry.global_registry()
    before = registry.snapshot() if collect else None
    start = time.perf_counter()
    try:
        with telemetry.span(
            "worker.kernel",
            trace_id=trace_id,
            parent_id=parent_span,
            job=function.__name__,
        ):
            result = function(function_arguments)
    finally:
        registry.observe(
            "kernel_seconds", time.perf_counter() - start, trace_id=trace_id
        )
    delta = subtract_snapshots(registry.snapshot(), before) if collect else None
    return result, delta


def evaluate_single(arguments: tuple) -> dict:
    """One scalar evaluation: the direct ``repro.evaluate`` path."""
    faults.hit("worker.crash")
    faults.hit("worker.evaluate")
    content, method, options, seed, p_scale, q_scale = arguments
    model = FaultModel.from_content(content).rescaled(p_scale, q_scale)
    return api_evaluate(model, method, seed=seed, options=options).to_dict()


def evaluate_batch(arguments: tuple) -> list[dict]:
    """The uncached elements of one ``/v1/evaluate/batch``: one
    ``repro.evaluate_batch`` call, so each record is ``repro.evaluate(model,
    method, seed=seed, options=options)``'s and elements that read one exact
    PFD distribution share it."""
    content, requests, seed = arguments
    results = api_evaluate_batch(FaultModel.from_content(content), requests, seed=seed)
    return [result.to_dict() for result in results]
