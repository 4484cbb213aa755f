"""Span-based tracing: named timed sections emitting structured JSONL events.

Production code is sprinkled with cheap, named spans::

    from repro import telemetry
    with telemetry.span("server.cache_probe", tier="lru"):
        ...

A span does nothing until tracing is configured -- the disabled path is one
``None`` check returning a shared no-op object, mirroring the
:func:`repro.faults.hit` idiom, so spans can stay in hot paths.  Enable via
the API or a command's ``--trace-file``::

    telemetry.configure(trace_file="service.trace.jsonl")

Events are single JSON lines appended to the file and flushed one by one.
A pool task -- a service job or a study task -- writes nothing itself:
:func:`run_captured` collects its events, they ride home in the task's
reply and the parent hands them to :func:`write_events`.  So a forked
worker, whose copy of the writer is never called, needs no tracing of its
own.

Every event carries a **trace id** -- propagated from the enclosing request
(the server stamps one per HTTP request, honouring an incoming
``x-repro-trace-id`` header) -- and a span id / parent span id, so
``repro trace summarize`` can reassemble the tree: HTTP parse, admission,
cache probes, worker kernel, cache write, response.
Ids come from :func:`os.urandom`, never from a seeded RNG stream, so
tracing cannot perturb a reproducible result.

Event schema (one JSON object per line)::

    {"ts": 1699...,          # epoch seconds at span end (float)
     "name": "server.request",
     "trace": "f3a9...",     # 16-hex trace id shared by one request/operation
     "span": "09bc...",      # 16-hex id of this span
     "parent": "77aa...",    # id of the enclosing span, or null
     "dur_ms": 1.84,         # wall-clock duration in milliseconds
     "pid": 12345,           # emitting process (workers differ from server)
     "attrs": {...}}         # span-specific attributes (JSON-safe)
"""

from __future__ import annotations

import contextvars
import json
import os
import threading
import time
from typing import Any, Callable

__all__ = [
    "Span",
    "configure",
    "current_span_id",
    "current_trace_id",
    "disable",
    "enabled",
    "new_trace_id",
    "record",
    "run_captured",
    "set_trace_id",
    "span",
    "write_events",
]

# Current trace id and enclosing span id.  Contextvars follow asyncio tasks,
# so concurrent requests in the server keep distinct trace contexts.  NOTE:
# they do NOT cross ``run_in_executor`` / process-pool boundaries -- worker
# jobs receive their trace id explicitly in the job arguments.
_trace_id: contextvars.ContextVar[str | None] = contextvars.ContextVar("repro_trace", default=None)
_span_id: contextvars.ContextVar[str | None] = contextvars.ContextVar("repro_span", default=None)
# Where a pool task's events go instead of the writer (see run_captured).
_captured: contextvars.ContextVar[list | None] = contextvars.ContextVar("repro_capture", default=None)

_lock = threading.Lock()
_writer: Callable[[dict], None] | None = None


def new_trace_id() -> str:
    """A fresh 16-hex id from OS entropy (never a seeded RNG stream)."""
    return os.urandom(8).hex()


def current_trace_id() -> str | None:
    """The trace id of the current (asyncio/thread) context, if any."""
    return _trace_id.get()


def current_span_id() -> str | None:
    """The enclosing span id of the current context, if any.

    This is what crosses process/network hops: a router forwards it in the
    ``x-repro-parent-span`` header (and the server passes it into worker
    jobs) so the receiving side can parent its root span explicitly,
    stitching one routed request into a single tree.
    """
    return _span_id.get()


def set_trace_id(trace_id: str | None) -> contextvars.Token:
    """Bind the current context to ``trace_id``; returns the reset token."""
    return _trace_id.set(trace_id)


def run_captured(function: Callable[[Any], Any], argument: Any) -> tuple:
    """Run ``function(argument)`` with its span events captured instead of
    written; returns ``(result, error, events)``.

    ``error`` is the exception the call raised (``result`` is then
    ``None``).  Only a set writer builds events, so with tracing off
    ``events`` stays empty.  A pool task runs through here to send its
    events home in its reply (:func:`repro.service.worker.run_job`,
    :func:`repro.studies.runner.run_study`).
    """
    events: list[dict] = []
    token = _captured.set(events)
    try:
        return function(argument), None, events
    except Exception as error:  # noqa: BLE001 - handed to the caller
        return None, error, events
    finally:
        _captured.reset(token)


def enabled() -> bool:
    return _writer is not None


class _NoopSpan:
    """The shared disabled-path span: every operation is a no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def set(self, **attrs) -> None:
        return None


_NOOP = _NoopSpan()


class Span:
    """One live timed section; created by :func:`span` when tracing is on."""

    __slots__ = (
        "name", "attrs", "trace", "span_id", "_start",
        "_parent_token", "_trace_token", "_parent_override",
    )

    def __init__(
        self,
        name: str,
        trace: str | None,
        attrs: dict,
        parent: str | None = None,
    ) -> None:
        self.name = name
        self.attrs = attrs
        self.trace = trace if trace is not None else (_trace_id.get() or new_trace_id())
        self.span_id = new_trace_id()
        self._start = 0.0
        self._parent_token: contextvars.Token | None = None
        self._trace_token: contextvars.Token | None = None
        self._parent_override = parent

    def __enter__(self) -> "Span":
        # Bind this span as the context's parent for anything opened inside
        # it, and pin the trace id so nested spans inherit it.
        self._trace_token = _trace_id.set(self.trace)
        self._parent_token = _span_id.set(self.span_id)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        duration = time.perf_counter() - self._start
        if self._parent_token is not None:
            _span_id.reset(self._parent_token)
        if self._trace_token is not None:
            _trace_id.reset(self._trace_token)
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        parent = self._parent_override
        if parent is None:
            parent = _span_id.get()
        _emit(
            name=self.name,
            trace=self.trace,
            span_id=self.span_id,
            parent=parent,
            duration_seconds=duration,
            attrs=self.attrs,
        )

    def set(self, **attrs) -> None:
        """Attach attributes discovered mid-span (status code, group size)."""
        self.attrs.update(attrs)


def span(name: str, *, trace_id: str | None = None, parent_id: str | None = None, **attrs):
    """Open a named span; a shared no-op when tracing is disabled.

    ``trace_id`` overrides the context's trace id (the explicit-propagation
    path for worker jobs); ``parent_id`` overrides the context's enclosing
    span (the explicit-propagation path for cross-process hops -- a span id
    carried by a header or a job envelope); attributes land in the event's
    ``attrs``.
    """
    if _writer is None:
        return _NOOP
    return Span(name, trace_id, attrs, parent=parent_id)


def record(
    name: str, duration_seconds: float, *, trace_id: str | None = None, **attrs
) -> None:
    """Emit a span event for an interval measured elsewhere.

    For durations that cannot wrap a ``with`` block -- the server learns a
    request's admission-queue wait only once a running slot is acquired.
    """
    if _writer is None:
        return
    trace = trace_id if trace_id is not None else (_trace_id.get() or new_trace_id())
    _emit(
        name=name,
        trace=trace,
        span_id=new_trace_id(),
        parent=_span_id.get() if trace_id is None else None,
        duration_seconds=duration_seconds,
        attrs=attrs,
    )


def _emit(
    *,
    name: str,
    trace: str,
    span_id: str,
    parent: str | None,
    duration_seconds: float,
    attrs: dict,
) -> None:
    writer = _writer
    if writer is None:
        return
    event = {
        "ts": time.time(),
        "name": name,
        "trace": trace,
        "span": span_id,
        "parent": parent,
        "dur_ms": round(duration_seconds * 1000.0, 6),
        "pid": os.getpid(),
        "attrs": attrs,
    }
    captured = _captured.get()
    if captured is not None:
        captured.append(event)
        return
    _write(writer, event)


def write_events(events: list) -> None:
    """Write events emitted elsewhere as they are (a pool job's, sent home in
    its reply): ``ts``, ``pid`` and ``parent`` stay the emitter's."""
    writer = _writer
    if writer is not None:
        for event in events:
            _write(writer, event)


def _write(writer: Callable[[dict], None], event: dict) -> None:
    try:
        writer(event)
    except Exception:
        # Telemetry must never take down the traced operation; a full disk
        # or closed sink degrades to dropped events, not failures.
        pass


class _FileWriter:
    """A writer appending each event to a JSONL file as one flushed line."""

    def __init__(self, path: str | os.PathLike) -> None:
        self._stream = open(path, "a", encoding="utf-8")

    def __call__(self, event: dict) -> None:
        self._stream.write(json.dumps(event, separators=(",", ":")) + "\n")
        self._stream.flush()

    def close(self) -> None:
        self._stream.close()


def configure(
    trace_file: str | os.PathLike | None = None,
    *,
    sink: Callable[[dict], None] | None = None,
) -> None:
    """Enable tracing into ``trace_file`` (JSONL) or a callable ``sink``.

    Exactly one destination must be given.  The file is opened in append
    mode, so successive runs accumulate in one file.
    """
    global _writer
    if (trace_file is None) == (sink is None):
        raise ValueError("configure() needs exactly one of trace_file and sink")
    writer = sink if sink is not None else _FileWriter(trace_file)
    with _lock:
        _close_writer_locked()
        _writer = writer


def disable() -> None:
    """Disable tracing, closing the writer."""
    with _lock:
        _close_writer_locked()


def _close_writer_locked() -> None:
    """Release a writer that owns resources (a file, a shipper's thread)."""
    global _writer
    close = getattr(_writer, "close", None)
    if callable(close):
        try:
            close()
        except Exception:
            pass
    _writer = None
