"""Observability for the reproduction: metrics, tracing spans, summaries.

Two independent facilities with one design contract -- **deterministic-safe
and near-free when idle**:

* :mod:`repro.telemetry.metrics` -- typed counters, gauges and fixed-bucket
  latency histograms in a lock-consistent :class:`MetricsRegistry`;
  snapshots merge across processes and fleets.
* :mod:`repro.telemetry.tracing` -- named spans emitting JSONL trace
  events with propagated trace ids; one ``None`` check when disabled
  (the :func:`repro.faults.hit` idiom), armed via
  ``configure(trace_file=...)`` or the ``REPRO_TRACE_FILE`` env var that
  :func:`configure` exports to spawned study workers.

A service pool job sends its telemetry home in its reply: its kernel time
and the span events :func:`capture_events` collected while it ran, which
the server observes and hands to :func:`write_events`
(:func:`repro.service.worker.run_job`).

Neither facility ever touches a seeded RNG stream or a result payload:
with telemetry on or off, every evaluation produces byte-identical results
and cache digests (pinned in ``tests/telemetry/test_determinism.py``).

Besides per-server registries (each :class:`~repro.service.server.EvaluationServer`
owns one), the module keeps a **process-global registry** for code that has
no registry in scope: a shard's span shipper counts ``spans_shipped`` and
``spans_dropped`` there, and the server merges it into ``/metrics``.
"""

from __future__ import annotations

import os
import platform
import time

from repro.telemetry.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    histogram_quantile,
    histogram_summary,
    merge_snapshots,
    parse_prometheus,
    render_prometheus,
)
from repro.telemetry.tracing import (
    Span,
    capture_events,
    configure,
    current_span_id,
    current_trace_id,
    disable,
    enabled,
    new_trace_id,
    record,
    set_trace_id,
    span,
    write_events,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "MetricsRegistry",
    "Span",
    "capture_events",
    "configure",
    "current_span_id",
    "current_trace_id",
    "disable",
    "enabled",
    "global_registry",
    "histogram_quantile",
    "histogram_summary",
    "merge_snapshots",
    "new_trace_id",
    "parse_prometheus",
    "record",
    "render_prometheus",
    "reset_global_registry",
    "set_process_gauges",
    "set_trace_id",
    "span",
    "write_events",
]

_global_registry = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The process-global registry: the span shipper's counters.

    In the server process its snapshot is merged into ``/metrics``.
    """
    return _global_registry


def reset_global_registry() -> MetricsRegistry:
    """Replace the process-global registry with a fresh one (tests only)."""
    global _global_registry
    _global_registry = MetricsRegistry()
    return _global_registry


#: Stamped at import: how long *this process* has been alive, as opposed to
#: the server/router ``uptime_seconds`` gauge which measures serving time.
_PROCESS_START = time.time()


def _rss_bytes() -> int | None:
    """Resident set size, best effort: /proc (exact) then getrusage (peak)."""
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as stream:
            return int(stream.read().split()[1]) * (os.sysconf("SC_PAGESIZE"))
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # ru_maxrss is KiB on Linux, bytes on macOS.
        return usage * 1024 if platform.system() == "Linux" else usage
    except Exception:
        return None


def set_process_gauges(registry: MetricsRegistry) -> None:
    """Refresh the build/process gauges every registry exposes.

    Called on each ``/metrics`` render, so fleet views can spot a leaking
    shard (``process_rss_bytes``), a spinning one (``process_cpu_seconds``)
    or a silently restarted one (``process_uptime_seconds`` snapping back
    to zero).  ``build_info`` follows the Prometheus idiom of a constant
    ``1`` sample; the version/python strings ride as non-numeric gauges,
    visible in the JSON scope and skipped by the text exposition.
    """
    from repro import __version__

    rss = _rss_bytes()
    if rss is not None:
        registry.set_gauge("process_rss_bytes", rss)
    times = os.times()
    registry.set_gauge("process_cpu_seconds", round(times.user + times.system, 3))
    registry.set_gauge(
        "process_uptime_seconds", round(time.time() - _PROCESS_START, 3)
    )
    registry.set_gauge("build_info", 1)
    registry.set_gauge("build_version", __version__)
    registry.set_gauge("build_python", platform.python_version())
