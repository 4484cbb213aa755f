"""Execution functions the service worker pool runs.

Everything here is module-level and takes one picklable argument tuple, so
the same functions serve the in-process thread executor (``--workers 0``)
and the process pool (``--workers N``, :mod:`repro.service.pool`), whose
workers are forked from the server and so share its method registry.

The contract that makes the service trustworthy: every record produced here
is **byte-identical** to what the public API returns for the same inputs --

* :func:`evaluate_single` is ``repro.evaluate(model.rescaled(p, q), method,
  seed=seed, options=options)``, nothing more;
* :func:`evaluate_group` runs the same sweep dispatch as
  :func:`repro.evaluate_sweep` for one window of ``montecarlo`` sweep
  points ``(model, method, variations, seed)``: the batched kernel sees the
  whole variation set with one shared stream seeded from the request seed
  (common-random-numbers semantics), and when the kernel declines every
  member is evaluated on its own rescaled model with the lone request's
  ``seed`` stream, so an unbatchable group is indistinguishable from never
  having been grouped.
"""

from __future__ import annotations

import time

from repro import faults, telemetry
from repro.api.evaluate import _sweep_outcome_triples, _sweep_results
from repro.api.evaluate import evaluate as api_evaluate
from repro.api.evaluate import evaluate_batch as api_evaluate_batch
from repro.api.registry import default_registry
from repro.core.fault_model import FaultModel
from repro.telemetry.metrics import subtract_snapshots

__all__ = ["evaluate_batch_endpoint", "evaluate_group", "evaluate_single", "run_job"]


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
    model_data, method, options, seed, p_scale, q_scale = arguments
    model = FaultModel.from_dict(model_data).rescaled(p_scale, q_scale)
    return api_evaluate(model, method, seed=seed, options=options).to_dict()


def evaluate_group(arguments: tuple) -> tuple[bool, list[dict]]:
    """One micro-batched group: the batched kernel over the whole variation set.

    Returns ``(used_batch, records)`` with one wire record per variation, in
    order.  ``used_batch`` is False when the method's kernel declined the
    sweep and every member was evaluated on the scalar path instead.  A
    point that failed there raises, and the batcher re-dispatches the group
    point by point.
    """
    faults.hit("worker.crash")
    faults.hit("worker.group")
    model_data, method, options, variations, seed = arguments
    resolved = default_registry().resolve_options(method, options)
    start = time.perf_counter()
    used_batch, outcomes = _sweep_outcome_triples(
        FaultModel.from_dict(model_data),
        method,
        variations,
        options=resolved,
        seed=seed,
        variation_seeds=[(seed,)] * len(variations),
    )
    results = _sweep_results(method, resolved, outcomes, time.perf_counter() - start)
    return used_batch, [result.to_dict() for result in results]


def evaluate_batch_endpoint(arguments: tuple) -> list[dict]:
    """The ``/v1/evaluate/batch`` job: one ``repro.evaluate_batch`` call.

    Per-request ``(seed, index)`` streams and duplicate-request coalescing
    are ``evaluate_batch``'s own semantics; the service adds nothing, so the
    endpoint is byte-identical to calling the function directly.
    ``stream_indices`` (sent by the cluster router for fanned-out
    sub-batches) passes straight through, keeping each request's stream tied
    to its position in the *original* batch.
    """
    model_data, requests, seed, stream_indices = arguments
    model = FaultModel.from_dict(model_data)
    results = api_evaluate_batch(
        model, requests, seed=seed, stream_indices=stream_indices
    )
    return [result.to_dict() for result in results]
