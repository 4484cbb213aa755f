"""A study task's spans come home in its reply, as a service pool job's do.

``run_study`` runs every task through :func:`repro.telemetry.run_captured`
and hands each task's events to its own tracer as the outcomes arrive.  So
a sink or a trace file gets every worker-side ``study.group`` and
``kernel.*`` span exactly once, with the worker's pid, under the caller's
trace id and enclosing span.
"""

from __future__ import annotations

import json
import os

import pytest

from repro import telemetry
from repro.studies import StudySpec, run_study
from repro.telemetry import tracing


@pytest.fixture(autouse=True)
def _two_pool_workers(monkeypatch):
    # The runner caps its pool at the CPU count; two workers on any machine.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    tracing.disable()
    yield
    tracing.disable()


def _spec() -> StudySpec:
    return StudySpec.from_dict(
        {
            "name": "task-telemetry",
            "base": {"scenario": "many-small-faults"},
            "sweep": {
                "grid": [
                    {"name": "n", "values": [10, 20, 30, 40]},
                    {"name": "p_scale", "values": [0.5, 1.0]},
                ]
            },
            "methods": [{"name": "moments"}, {"name": "exact"}],
        }
    )


def _check_worker_spans(events: list[dict], result, trace: str, parent: str | None) -> None:
    """Each task's ``study.group`` once, from a worker, under ``parent`` in
    ``trace``; every kernel span under a worker span of the same trace."""
    runner = os.getpid()
    assert len({event["span"] for event in events}) == len(events), "a span arrived twice"
    groups = [event for event in events if event["name"] == "study.group"]
    assert len(groups) == result.summary["dispatched_tasks"] > 1
    for group in groups:
        assert group["pid"] != runner
        assert (group["trace"], group["parent"]) == (trace, parent)
    worker_spans = {event["span"] for event in events if event["pid"] != runner}
    kernels = [event for event in events if event["name"].startswith("kernel.")]
    assert kernels, "no kernel span came home"
    for kernel in kernels:
        assert kernel["pid"] != runner and kernel["trace"] == trace
        assert kernel["parent"] in worker_spans


def test_sink_gets_every_worker_span_once_under_the_caller_span():
    events: list[dict] = []
    telemetry.configure(sink=events.append)
    with telemetry.span("caller") as caller:
        result = run_study(_spec(), jobs=2)
    _check_worker_spans(events, result, caller.trace, caller.span_id)


def test_trace_file_holds_each_worker_span_once_in_the_run_trace(tmp_path):
    path = tmp_path / "study.trace.jsonl"
    telemetry.configure(path)
    result = run_study(_spec(), jobs=2)
    tracing.disable()
    events = [json.loads(line) for line in path.read_text().splitlines()]
    # With no caller span the run is one fresh trace, its plan's.
    [plan] = [event for event in events if event["name"] == "study.plan"]
    _check_worker_spans(events, result, plan["trace"], None)
    assert telemetry.current_trace_id() is None
