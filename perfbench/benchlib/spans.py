"""Span recording for the traced benchmark run, and self-time analysis.

A span is ``(name, trace, id, parent, t0, t1, attrs)`` with ``t0``/``t1`` from
``time.perf_counter`` -- ``CLOCK_MONOTONIC`` on Linux, one clock for every
process on the machine, so spans from the client, the router, the shards and
their pool workers can be nested by time.  Spans stay in memory and are
written once, when the process exits.

Nesting: inside one process a span's parent is the span open in its context
when it started (a context variable, so asyncio tasks nest correctly).  A
span with no local parent -- the first span a router or shard records for a
request, or a pool job -- is attached to the latest-started span of the same
trace, in any process, that was open when it started.  A span's self time is
its duration minus the part of it that its children cover.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Iterable

_current = contextvars.ContextVar("perfbench_span", default=None)


class Recorder:
    """This process's spans, written to ``<directory>/<role>-<pid>.jsonl`` by
    :meth:`flush`."""

    def __init__(self, role: str, directory: str | None = None) -> None:
        self.role = role
        self.directory = directory
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self.pid = os.getpid()

    def after_fork(self, role: str) -> None:
        """Start a fresh buffer in a forked child (the parent keeps its own)."""
        self.role = role
        self.spans = []
        self.pid = os.getpid()

    def next_id(self) -> int:
        return next(self._ids)

    def add(self, name, trace, span_id, parent, t0, t1, attrs=None) -> None:
        self.spans.append((name, trace, span_id, parent, t0, t1, attrs))

    def events(self) -> list[dict]:
        return [
            {
                "name": name,
                "trace": trace,
                "pid": self.pid,
                "id": span_id,
                "parent": parent,
                "t0": t0,
                "t1": t1,
                "attrs": attrs,
            }
            for name, trace, span_id, parent, t0, t1, attrs in self.spans
        ]

    def flush(self) -> None:
        if self.directory is None or not self.spans:
            return
        path = Path(self.directory) / f"{self.role}-{self.pid}.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            for event in self.events():
                handle.write(json.dumps(event) + "\n")
        self.spans = []


def timed(function: Callable, name: str, recorder: Recorder, trace_of: Callable,
          attrs_of: Callable | None = None) -> Callable:
    """Wrap a plain function so each call records one span.

    ``trace_of(args, kwargs)`` names the call's trace; ``attrs_of`` (optional)
    returns extra attributes, such as a replication count.
    """

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        parent = _current.get()
        span_id = recorder.next_id()
        token = _current.set(span_id)
        t0 = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            _current.reset(token)
            recorder.add(
                name, trace_of(args, kwargs), span_id, parent, t0, t1,
                attrs_of(args, kwargs) if attrs_of is not None else None,
            )

    return wrapper


def timed_async(function: Callable, name: str, recorder: Recorder, trace_of: Callable,
                before: Callable | None = None) -> Callable:
    """Wrap a coroutine function so each await of it records one span.

    ``before(args)`` (optional) is awaited before the clock starts: the
    HTTP-read wrappers use it to wait for a request's first bytes, so a
    kept-alive connection's idle time is not charged to parsing.
    """

    @functools.wraps(function)
    async def wrapper(*args, **kwargs):
        if before is not None:
            await before(args)
        parent = _current.get()
        span_id = recorder.next_id()
        token = _current.set(span_id)
        t0 = time.perf_counter()
        result = None
        try:
            result = await function(*args, **kwargs)
            return result
        finally:
            t1 = time.perf_counter()
            _current.reset(token)
            recorder.add(name, trace_of(args, kwargs, result), span_id, parent, t0, t1)

    return wrapper


# --------------------------------------------------------------------------- #
# Analysis
# --------------------------------------------------------------------------- #
def load_events(directory: str | Path) -> list[dict]:
    events: list[dict] = []
    for path in sorted(Path(directory).glob("*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            events.extend(json.loads(line) for line in handle if line.strip())
    return events


def _covered(intervals: list[tuple[float, float]], t0: float, t1: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[t0, t1]``."""
    clipped = sorted((max(a, t0), min(b, t1)) for a, b in intervals if b > t0 and a < t1)
    total = 0.0
    end = t0
    for a, b in clipped:
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def link(events: list[dict]) -> None:
    """Set ``event["up"]`` (the index of its parent span, or ``None``).

    Local parents come from the recorded parent id; a span without one is
    attached to the latest-started span of its trace, outside its own
    subtree, that was open when it started.
    """
    by_key = {(event["pid"], event["id"]): index for index, event in enumerate(events)}
    for event in events:
        parent = event.get("parent")
        event["up"] = by_key.get((event["pid"], parent)) if parent is not None else None
    by_trace: dict[str, list[int]] = defaultdict(list)
    for index, event in enumerate(events):
        if event.get("trace"):
            by_trace[event["trace"]].append(index)

    def root_of(index: int) -> int:
        while events[index]["up"] is not None:
            index = events[index]["up"]
        return index

    for members in by_trace.values():
        roots = [index for index in members if events[index]["up"] is None]
        for root in roots:
            start = events[root]["t0"]
            best = None
            for index in members:
                if index == root:
                    continue
                candidate = events[index]
                if not candidate["t0"] <= start < candidate["t1"]:
                    continue
                if root_of(index) == root:
                    continue
                if best is None or candidate["t0"] > events[best]["t0"]:
                    best = index
            events[root]["up"] = best


def self_times(events: list[dict]) -> None:
    """Set ``event["self"]`` (seconds) on every linked event."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for event in events:
        if event["up"] is not None:
            children[event["up"]].append((event["t0"], event["t1"]))
    for index, event in enumerate(events):
        duration = event["t1"] - event["t0"]
        event["self"] = duration - _covered(children.get(index, []), event["t0"], event["t1"])


def analyse(events: list[dict]) -> list[dict]:
    """Link the spans and compute their self times; returns ``events``."""
    link(events)
    self_times(events)
    return events


def per_trace(events: Iterable[dict], traces: set[str]) -> dict[str, dict[str, list[dict]]]:
    """Spans grouped by trace and then by name, restricted to ``traces``."""
    grouped: dict[str, dict[str, list[dict]]] = defaultdict(lambda: defaultdict(list))
    for event in events:
        if event.get("trace") in traces:
            grouped[event["trace"]][event["name"]].append(event)
    return grouped
