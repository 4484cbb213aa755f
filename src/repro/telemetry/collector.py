"""Cross-process trace collection: a span shipper and its collector sink.

PR 7's tracing writes JSONL files -- one per process, stitched by hand.  In
a fleet (N shards x W workers behind R routers) that means dozens of files
on as many hosts, so this module moves trace events over the wire instead:

* :class:`SpanShipper` -- a :func:`repro.telemetry.tracing.configure` sink
  installed on shards.  ``shipper(event)`` appends to a
  **bounded queue and returns immediately**: the request path never blocks
  on trace shipping, and when the queue is full the event is *dropped and
  counted* (``spans_dropped``), never queued unboundedly.  A daemon thread
  drains the queue in batches and POSTs them to a collector; successful
  shipments count into ``spans_shipped``, failed batches into
  ``spans_dropped`` -- the two counters are the loss accounting the smoke
  run asserts on (``shipped + dropped == emitted``, ``dropped == 0``).
* :class:`TraceCollector` -- the receiving side, owned by routers behind
  ``POST /v1/traces``: validates each event, keeps a bounded in-memory ring
  and optionally appends to a JSONL file, which then feeds
  ``repro trace summarize`` exactly like a local trace file -- except it
  holds the *whole* router->shard->worker tree for each routed request.

Pool workers ship nothing themselves: a job's spans ride home in its
reply and the shard's shipper sends them on
(:func:`repro.service.worker.run_job`).

The POSTs go through :class:`repro.service.client.ServiceClient` with
``retries=0`` -- the flush loop owns the retry -- imported when a shipper
is built.  Nothing here touches a seeded RNG stream, preserving the
determinism contract.
"""

from __future__ import annotations

import json
import os
import threading
from collections import deque
from typing import Callable

from repro import telemetry
from repro.telemetry.tracing import configure

__all__ = ["SpanShipper", "TraceCollector", "configure_shipping"]

#: Keys an event must carry to be accepted by a collector: the minimum for
#: ``repro trace summarize`` to place it in a tree.
_REQUIRED_KEYS = ("name", "trace", "span", "dur_ms")


class SpanShipper:
    """A tracing sink that batches span events to a collector endpoint.

    The calling contract is the writer protocol of
    :func:`repro.telemetry.tracing.configure`: ``shipper(event)`` must be
    cheap and non-blocking.  It takes one lock, appends (or drops) and
    returns; all I/O happens on a daemon thread that wakes every
    ``flush_interval`` seconds or as soon as a full batch is queued.
    """

    def __init__(
        self,
        endpoint: str,
        *,
        capacity: int = 4096,
        batch_size: int = 256,
        flush_interval: float = 0.25,
        timeout: float = 5.0,
        registry=None,
        transport: Callable[[list], bool] | None = None,
    ) -> None:
        if capacity <= 0 or batch_size <= 0:
            raise ValueError("capacity and batch_size must be positive")
        from repro.service.client import ServiceClient, split_base_url

        self.endpoint = endpoint
        self.host, self.port = split_base_url(endpoint)
        self.capacity = int(capacity)
        self.batch_size = int(batch_size)
        self.flush_interval = float(flush_interval)
        self.timeout = float(timeout)
        self._registry = registry
        self._client = ServiceClient(self.host, self.port, timeout=self.timeout, retries=0)
        self._transport = transport
        self._queue: deque = deque()
        self._lock = threading.Lock()
        self._flush_lock = threading.Lock()
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------ #
    # The hot path: called by tracing._emit for every finished span
    # ------------------------------------------------------------------ #
    def __call__(self, event: dict) -> None:
        with self._lock:
            if len(self._queue) >= self.capacity:
                self._count("spans_dropped")
                return
            self._queue.append(event)
            depth = len(self._queue)
        if self._thread is None:
            self._ensure_thread()
        if depth >= self.batch_size:
            self._wake.set()

    def _count(self, name: str, amount: int = 1) -> None:
        registry = self._registry if self._registry is not None else telemetry.global_registry()
        registry.inc(name, amount)

    def _ensure_thread(self) -> None:
        # Started by the first event, so a shipper that never ships starts
        # no thread.  Pool workers forked from a shard inherit a copy whose
        # thread handle is not running; they never call it, because a
        # job's events ride home in its reply.
        with self._lock:
            if self._thread is not None or self._stop.is_set():
                return
            self._thread = threading.Thread(
                target=self._run, name="repro-span-shipper", daemon=True
            )
            self._thread.start()

    # ------------------------------------------------------------------ #
    # The drain side (daemon thread)
    # ------------------------------------------------------------------ #
    def _run(self) -> None:
        while not self._stop.is_set():
            self._wake.wait(self.flush_interval)
            self._wake.clear()
            self.flush()
        self.flush()
        self._client.close()

    def _deliver(self, batch: list) -> bool:
        """One shipment of ``batch``; any failure reads as ``False``."""
        try:
            if self._transport is not None:
                return bool(self._transport(batch))
            self._client.request("POST", "/v1/traces", {"events": batch})
            return True
        except Exception:
            return False

    def flush(self) -> int:
        """Ship the events queued when the call started; returns the number shipped.

        Flushes run one at a time, so batches reach the collector in queue
        order.  Events queued meanwhile wait for the next flush, so a POST
        that itself emits spans (an in-process collector) cannot keep one
        flush looping.
        """
        shipped = 0
        with self._flush_lock:
            with self._lock:
                remaining = len(self._queue)
            while remaining:
                with self._lock:
                    batch = [
                        self._queue.popleft()
                        for _ in range(min(self.batch_size, remaining))
                    ]
                remaining -= len(batch)
                # One retry separates a transient failure (a reset or a
                # timeout mid-POST) from a genuinely dead collector.
                if self._deliver(batch) or self._deliver(batch):
                    self._count("spans_shipped", len(batch))
                    shipped += len(batch)
                else:
                    # A dead collector degrades to counted loss, never
                    # blocking or unbounded growth; the next batch dials
                    # again.
                    self._count("spans_dropped", len(batch))
        return shipped

    def close(self, timeout: float = 5.0) -> None:
        """Stop the drain thread after a final flush (idempotent)."""
        self._stop.set()
        self._wake.set()
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout)
        else:
            self.flush()
        self._client.close()


class TraceCollector:
    """The receiving side of span shipping (``POST /v1/traces``).

    Keeps the most recent ``capacity`` events in memory (a deque ring: old
    events age out, ingestion never fails for space) and, when ``path`` is
    given, appends every accepted event to a JSONL file with the exact
    on-disk schema of ``REPRO_TRACE_FILE`` -- so the collector file drops
    straight into ``repro trace summarize``.
    """

    def __init__(self, path: str | os.PathLike | None = None, capacity: int = 65536) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._lock = threading.Lock()
        self._events: deque = deque(maxlen=int(capacity))
        self.path = os.fspath(path) if path is not None else None
        self._stream = open(self.path, "a", encoding="utf-8") if self.path else None
        self.batches = 0
        self.received = 0
        self.rejected = 0

    def ingest(self, payload) -> tuple[int, int]:
        """Accept a shipped payload; returns ``(accepted, rejected)``.

        The payload is ``{"events": [...]}`` (a bare list also works).
        Events missing the summarize-critical keys are rejected and
        counted, not fatal: one malformed event must not sink its batch.
        """
        if isinstance(payload, dict):
            events = payload.get("events")
        else:
            events = payload
        if not isinstance(events, list):
            raise ValueError("trace payload must be a list or {'events': [...]}")
        accepted: list[dict] = []
        rejected = 0
        for event in events:
            if isinstance(event, dict) and all(key in event for key in _REQUIRED_KEYS):
                accepted.append(event)
            else:
                rejected += 1
        with self._lock:
            self.batches += 1
            self.received += len(accepted)
            self.rejected += rejected
            self._events.extend(accepted)
            if self._stream is not None and accepted:
                for event in accepted:
                    self._stream.write(
                        json.dumps(event, separators=(",", ":")) + "\n"
                    )
                self._stream.flush()
        return len(accepted), rejected

    def events(self) -> list[dict]:
        """A copy of the in-memory ring, oldest first."""
        with self._lock:
            return list(self._events)

    def stats(self) -> dict:
        with self._lock:
            return {
                "batches": self.batches,
                "received": self.received,
                "rejected": self.rejected,
                "buffered": len(self._events),
                "path": self.path,
            }

    def close(self) -> None:
        with self._lock:
            if self._stream is not None:
                try:
                    self._stream.close()
                except OSError:
                    pass
                self._stream = None


def configure_shipping(endpoint: str, **options) -> SpanShipper:
    """Arm tracing with a :class:`SpanShipper` posting to ``endpoint``.

    The shipping analogue of ``telemetry.configure(trace_file=...)``; the
    service's pool jobs send their spans home to this process's shipper.
    """
    shipper = SpanShipper(endpoint, **options)
    configure(sink=shipper)
    return shipper
