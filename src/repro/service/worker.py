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

__all__ = ["evaluate_batch", "evaluate_single", "run_job"]


def run_job(arguments: tuple) -> tuple:
    """Run one pool job under telemetry; the server's executor entry point.

    ``arguments`` is ``(function, function_arguments, trace_id,
    parent_span)``.  Neither a thread executor nor a worker's pipe carries
    contextvars, so the request's trace id and enclosing span id ride in
    explicitly and scope a ``worker.kernel`` span: worker-side events land
    in the right trace *and* nest under the server-side span that
    dispatched the job.

    The job's telemetry comes home in its reply, the one channel that
    crosses every executor: returns ``(result, error, kernel_seconds,
    events)``, where ``error`` is the exception the job raised (``result``
    is then ``None``) and ``events`` are the span events emitted while it
    ran (:func:`repro.telemetry.run_captured`).  The server observes the
    kernel time and writes the events with its own tracer.
    """
    start = time.perf_counter()
    result, error, events = telemetry.run_captured(_kernel, arguments)
    return result, error, time.perf_counter() - start, events


def _kernel(arguments: tuple):
    """A job's function, inside its ``worker.kernel`` span."""
    function, function_arguments, trace_id, parent_span = arguments
    with telemetry.span(
        "worker.kernel",
        trace_id=trace_id,
        parent_id=parent_span,
        job=function.__name__,
    ):
        return function(function_arguments)


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
