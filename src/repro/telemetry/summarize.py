"""Offline trace analysis: turn a JSONL trace capture into timing breakdowns.

Reads the event stream written by :mod:`repro.telemetry.tracing` (from
``repro serve --trace-file`` or ``repro study run --trace-file``) and
renders two views:

* a **per-span-name table** -- count, total, mean, p50/p95/p99 and max
  duration for every span name in the capture (exact percentiles: the
  raw durations are all on disk, no bucketing needed offline);
* a **per-request breakdown** -- for each trace that contains a root
  ``server.request`` span, where its wall-clock went: queue wait, worker
  kernel time, cache probes and writes;
* **counters** -- count attributes summed over every span that carries
  them (the study runner's ``distributions_computed`` /
  ``distributions_shared``).

Since the observability plane ships spans across processes, one capture
(or several -- :func:`summarize_files` concatenates router, shard and
collector files before analysis) can hold the *whole* fleet-side story of
a routed request.  When a trace carries a ``router.request`` root, that
root becomes the request's wall clock and the breakdown gains **per-hop**
columns: time inside the router (``router_ms``), inside the shard server
(``shard_ms``), inside the worker kernel (``kernel_ms``), and the residual
between consecutive hops (``network_ms`` -- wire time plus anything not
spanned).  :func:`build_trace_tree` reassembles the parent-linked span
tree for one trace, which the stitched-trace golden test walks
router->shard->worker.

Everything here is read-only analysis over plain dicts, shared by the
``repro trace summarize`` CLI and the tests.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from typing import Any, Iterable, Mapping

__all__ = [
    "build_trace_tree",
    "format_summary",
    "load_events",
    "summarize_events",
    "summarize_files",
]

#: Span names folded into the per-request breakdown columns.  Each column
#: sums every matching span within the request's trace.
_REQUEST_COMPONENTS = {
    "queue_wait_ms": ("server.queue_wait",),
    "kernel_ms": ("worker.kernel",),
    "cache_ms": (
        "server.cache_probe",
        "server.shared_tier_probe",
        "cache.read",
        "cache.write",
    ),
}

#: Span attributes that count work; the summary sums each over the capture.
_COUNTER_ATTRS = ("distributions_computed", "distributions_shared")


def load_events(path: str | os.PathLike) -> list[dict]:
    """Parse a JSONL trace file, skipping blank or malformed lines.

    Malformed lines are tolerated (a torn multi-process write loses one
    event, not the analysis) but counted: the returned list's events are
    valid dicts only.
    """
    events: list[dict] = []
    with open(path, "r", encoding="utf-8") as stream:
        for line in stream:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(event, dict) and "name" in event and "dur_ms" in event:
                events.append(event)
    return events


def _percentile(durations: list[float], quantile: float) -> float:
    """Exact percentile by linear interpolation over sorted raw durations."""
    if len(durations) == 1:
        return durations[0]
    position = quantile * (len(durations) - 1)
    lower = int(position)
    fraction = position - lower
    if lower + 1 >= len(durations):
        return durations[-1]
    return durations[lower] + (durations[lower + 1] - durations[lower]) * fraction


def summarize_events(events: Iterable[Mapping[str, Any]]) -> dict:
    """Aggregate parsed trace events into span tables and request breakdowns."""
    events = list(events)
    by_name: dict[str, list[float]] = defaultdict(list)
    by_trace: dict[str, list[Mapping[str, Any]]] = defaultdict(list)
    counters: dict[str, int] = {}
    for event in events:
        by_name[str(event["name"])].append(float(event["dur_ms"]))
        trace = event.get("trace")
        if trace:
            by_trace[str(trace)].append(event)
        attrs = event.get("attrs") or {}
        for name in _COUNTER_ATTRS:
            if name in attrs:
                counters[name] = counters.get(name, 0) + int(attrs[name])

    spans = {}
    for name, durations in sorted(by_name.items()):
        durations.sort()
        total = sum(durations)
        spans[name] = {
            "count": len(durations),
            "total_ms": total,
            "mean_ms": total / len(durations),
            "p50_ms": _percentile(durations, 0.50),
            "p95_ms": _percentile(durations, 0.95),
            "p99_ms": _percentile(durations, 0.99),
            "max_ms": durations[-1],
        }

    requests = []
    stitched = 0
    for trace, trace_events in by_trace.items():
        router_roots = [e for e in trace_events if e["name"] == "router.request"]
        server_roots = [e for e in trace_events if e["name"] == "server.request"]
        roots = router_roots or server_roots
        if not roots:
            continue
        root = roots[0]
        attrs = root.get("attrs") or {}
        breakdown: dict[str, Any] = {
            "trace": trace,
            "dur_ms": float(root["dur_ms"]),
            "path": attrs.get("path"),
            "status": attrs.get("status"),
        }
        for column, names in _REQUEST_COMPONENTS.items():
            breakdown[column] = sum(
                float(event["dur_ms"]) for event in trace_events if event["name"] in names
            )
        # Per-hop columns: only meaningful once a trace crosses processes
        # (router events stitched next to shard/worker events).
        router_ms = sum(float(e["dur_ms"]) for e in router_roots)
        shard_ms = sum(float(e["dur_ms"]) for e in server_roots)
        breakdown["router_ms"] = router_ms
        breakdown["shard_ms"] = shard_ms
        if router_roots and server_roots:
            stitched += 1
            # Residual between hop envelopes: wire plus unspanned time.
            breakdown["network_ms"] = max(0.0, router_ms - shard_ms)
        else:
            breakdown["network_ms"] = 0.0
        requests.append(breakdown)
    requests.sort(key=lambda entry: entry["dur_ms"], reverse=True)

    return {
        "events": len(events),
        "traces": len(by_trace),
        "stitched": stitched,
        "spans": spans,
        "requests": requests,
        "counters": counters,
    }


def summarize_files(paths: Iterable[str | os.PathLike]) -> dict:
    """Stitch several captures (router + shards + collector) into one summary."""
    events: list[dict] = []
    for path in paths:
        events.extend(load_events(path))
    return summarize_events(events)


def build_trace_tree(events: Iterable[Mapping[str, Any]], trace: str) -> list[dict]:
    """The parent-linked span tree of one trace, roots first.

    Events whose ``parent`` is absent from the capture become roots (their
    parent finished in an uncaptured process), so a partially shipped trace
    still renders as a forest instead of vanishing.  Children are ordered
    by timestamp; each node carries ``name``/``span``/``dur_ms``/``pid``
    and its nested ``children``.
    """
    trace_events = sorted(
        (e for e in events if e.get("trace") == trace and e.get("span")),
        key=lambda e: e.get("ts", 0.0),
    )
    nodes = {
        e["span"]: {
            "name": e.get("name"),
            "span": e["span"],
            "parent": e.get("parent"),
            "dur_ms": float(e.get("dur_ms", 0.0)),
            "pid": e.get("pid"),
            "attrs": e.get("attrs") or {},
            "children": [],
        }
        for e in trace_events
    }
    roots = []
    for node in nodes.values():
        parent = node["parent"]
        if parent is not None and parent in nodes:
            nodes[parent]["children"].append(node)
        else:
            roots.append(node)
    return roots


def _row(columns: Iterable[Any], widths: Iterable[int]) -> str:
    cells = []
    for value, width in zip(columns, widths):
        text = f"{value:.3f}" if isinstance(value, float) else str(value)
        cells.append(text.rjust(width) if isinstance(value, (int, float)) else text.ljust(width))
    return "  ".join(cells).rstrip()


def format_summary(summary: Mapping[str, Any], *, top: int = 10) -> str:
    """Render a summary as the ``repro trace summarize`` report text."""
    header_line = f"events: {summary['events']}    traces: {summary['traces']}"
    if summary.get("stitched"):
        header_line += f"    stitched: {summary['stitched']}"
    lines = [header_line, ""]
    spans = summary["spans"]
    if spans:
        header = ("span", "count", "total_ms", "mean_ms", "p50_ms", "p95_ms", "p99_ms", "max_ms")
        name_width = max(len(header[0]), *(len(name) for name in spans))
        widths = (name_width, 7, 10, 9, 9, 9, 9, 9)
        lines.append(_row(header, widths))
        for name, stats in spans.items():
            lines.append(
                _row(
                    (
                        name,
                        stats["count"],
                        stats["total_ms"],
                        stats["mean_ms"],
                        stats["p50_ms"],
                        stats["p95_ms"],
                        stats["p99_ms"],
                        stats["max_ms"],
                    ),
                    widths,
                )
            )
    counters = summary.get("counters")
    if counters:
        lines.append("")
        lines.append("counters: " + "  ".join(f"{name}={value}" for name, value in counters.items()))
    requests = summary["requests"]
    if requests:
        lines.append("")
        lines.append(f"slowest requests (top {min(top, len(requests))} of {len(requests)}):")
        stitched = bool(summary.get("stitched"))
        header = (
            "trace", "dur_ms", "queue_wait_ms", "kernel_ms", "cache_ms",
        )
        widths: tuple[int, ...] = (16, 9, 13, 9, 9)
        if stitched:
            header += ("router_ms", "shard_ms", "network_ms")
            widths += (10, 9, 11)
        header += ("status", "path")
        widths += (6, 24)
        lines.append(_row(header, widths))
        for entry in requests[:top]:
            columns = [
                entry["trace"],
                entry["dur_ms"],
                entry["queue_wait_ms"],
                entry["kernel_ms"],
                entry["cache_ms"],
            ]
            if stitched:
                columns += [
                    entry.get("router_ms", 0.0),
                    entry.get("shard_ms", 0.0),
                    entry.get("network_ms", 0.0),
                ]
            columns += [
                "" if entry["status"] is None else entry["status"],
                entry["path"] or "",
            ]
            lines.append(_row(columns, widths))
    return "\n".join(lines)
