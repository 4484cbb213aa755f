"""``repro top``: a stdlib-only live terminal view of the fleet.

Polls a router's ``/metrics?scope=fleet`` (falling back to the local scope
when the target is a plain shard) and ``/v1/slo``,
and renders one screenful: throughput and error rate over the last poll
interval, fleet latency quantiles with the slowest-trace exemplar, the
cache-tier mix, admission state, per-shard rows and SLO burn.  Rendering
is a pure function of two samples (:func:`render_dashboard`), so tests and
``--once`` share the exact code path with the live loop; live mode merely
redraws with ANSI clear-home between polls.  No curses, no third-party
deps -- a dumb pipe gets plain text.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Mapping

from repro.service.client import ServiceClient, ServiceError

__all__ = ["fetch_sample", "render_dashboard", "run_top"]


def fetch_sample(
    host: str, port: int, *, scope: str = "fleet", timeout: float = 5.0
) -> dict:
    """One poll: the metrics document (+SLO report when served) + a stamp.

    A failed GET -- an error status, a body that is not JSON, a dead
    target -- reads as ``None``.
    """
    with ServiceClient(host, port, timeout=timeout, retries=0) as client:

        def get(path: str) -> dict | None:
            try:
                return client.request("GET", path)
            except (ServiceError, OSError):
                return None

        metrics = get(f"/metrics?scope={scope}")
        used_scope = scope
        if metrics is None and scope != "local":
            # Federation off, or the target is a bare shard: degrade to local.
            metrics = get("/metrics")
            used_scope = "local"
        slo = get("/v1/slo")
    return {
        "at": time.time(),
        "scope": used_scope,
        "metrics": metrics,
        "slo": slo,
        "target": f"{host}:{port}",
    }


def _rate(
    sample: Mapping, previous: Mapping | None, counter: str
) -> float | None:
    """Per-second delta of a roll-up counter between two samples."""
    if not previous or not previous.get("metrics") or not sample.get("metrics"):
        return None
    elapsed = sample["at"] - previous["at"]
    if elapsed <= 0.0:
        return None
    now = sample["metrics"].get(counter, 0)
    then = previous["metrics"].get(counter, 0)
    if not isinstance(now, (int, float)) or not isinstance(then, (int, float)):
        return None
    return max(0.0, (now - then) / elapsed)


def _ms(value) -> str:
    if not isinstance(value, (int, float)):
        return "-"
    return f"{value * 1000.0:.1f}ms"


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def _bytes(value) -> str:
    if not isinstance(value, (int, float)) or value <= 0:
        return "-"
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.0f}{unit}" if unit == "B" else f"{value:.1f}{unit}"
        value /= 1024.0
    return "-"


def render_dashboard(
    sample: Mapping[str, Any], previous: Mapping[str, Any] | None = None
) -> str:
    """One screenful of fleet state; pure so ``--once`` and tests share it."""
    metrics = sample.get("metrics")
    lines: list[str] = []
    if not metrics:
        return f"repro top -- {sample.get('target', '?')}: no /metrics response\n"
    targets = metrics.get("targets") if isinstance(metrics.get("targets"), dict) else {}
    healthy = metrics.get("healthy_shards")
    total_shards = metrics.get("shards") if isinstance(metrics.get("shards"), int) else None
    header = f"repro top -- {sample.get('target', '?')} scope={sample.get('scope', '?')}"
    if targets:
        header += f" targets={len(targets)}"
    if isinstance(healthy, int):
        header += f" healthy={healthy}"
        if isinstance(total_shards, int):
            header += f"/{total_shards}"
    lines.append(header)

    requests = metrics.get("requests_total", 0)
    errors = metrics.get("errors_total", 0)
    rate = _rate(sample, previous, "requests_total")
    error_rate = _rate(sample, previous, "errors_total")
    throughput = (
        f"throughput {rate:.1f} req/s (errors {error_rate or 0.0:.1f}/s)"
        if rate is not None
        else f"requests {requests} (errors {errors})"
    )
    lines.append(throughput)

    histograms = metrics.get("histograms", {})
    request_seconds = histograms.get("request_seconds") or {}
    if request_seconds.get("count"):
        latency = (
            f"latency p50 {_ms(request_seconds.get('p50'))}"
            f"  p95 {_ms(request_seconds.get('p95'))}"
            f"  p99 {_ms(request_seconds.get('p99'))}"
            f"  max {_ms(request_seconds.get('max'))}"
            f"  n={request_seconds.get('count')}"
        )
        lines.append(latency)
        exemplar = request_seconds.get("exemplar")
        if isinstance(exemplar, dict):
            lines.append(
                f"slowest trace {exemplar.get('trace')} ({_ms(exemplar.get('value'))})"
                "  -> repro trace summarize <trace-file>"
            )

    tiers = (
        ("lru", "cache_hits_lru"),
        ("disk", "cache_hits_disk"),
        ("remote", "cache_hits_remote"),
        ("router", "router_cache_hits"),
        ("miss", "cache_misses"),
    )
    tier_counts = [(label, metrics.get(name, 0)) for label, name in tiers]
    tier_total = sum(count for _, count in tier_counts)
    if tier_total:
        mix = "  ".join(
            f"{label} {count} ({100.0 * count / tier_total:.0f}%)"
            for label, count in tier_counts
            if count
        )
        lines.append(f"cache mix: {mix}")

    admission = []
    for label, name in (
        ("inflight", "inflight_requests"),
        ("running", "running_requests"),
        ("queued", "queued_requests"),
        ("draining", "draining"),
    ):
        value = metrics.get(name)
        if isinstance(value, (int, float)):
            admission.append(f"{label} {_fmt(value)}")
    shipped, dropped = metrics.get("spans_shipped", 0), metrics.get("spans_dropped", 0)
    if shipped or dropped:
        admission.append(f"spans {shipped} shipped/{dropped} dropped")
    if admission:
        lines.append("  ".join(admission))

    if targets:
        lines.append("")
        lines.append(
            f"{'target':<24} {'role':<7} {'age':>6} {'requests':>9} "
            f"{'errors':>7} {'p99':>9} {'rss':>9}"
        )
        for target in sorted(targets):
            entry = targets[target]
            counters = entry.get("counters", {})
            gauges = entry.get("gauges", {})
            hist = entry.get("histograms", {}).get("request_seconds") or {}
            lines.append(
                f"{target:<24} {entry.get('role', '?'):<7} "
                f"{entry.get('age_seconds', 0):>5.1f}s "
                f"{counters.get('requests_total', 0):>9} "
                f"{counters.get('errors_total', 0):>7} "
                f"{_ms(hist.get('p99')):>9} "
                f"{_bytes(gauges.get('process_rss_bytes')):>9}"
            )

    slo = sample.get("slo")
    if isinstance(slo, dict) and slo.get("objectives"):
        lines.append("")
        lines.append("slo:")
        for row in slo["objectives"]:
            scope_row = row.get("window") or row.get("cumulative")
            if not isinstance(scope_row, dict):
                lines.append(f"  {row.get('name', '?'):<22} (no data)")
                continue
            marker = "ok" if scope_row.get("met") else "BREACH"
            compliance = scope_row.get("compliance")
            lines.append(
                f"  {row.get('name', '?'):<22} "
                f"compliance {compliance if compliance is not None else '-'} "
                f"burn {scope_row.get('burn_rate', 0)}x "
                f"budget left {scope_row.get('budget_remaining', 1.0)} "
                f"[{marker}]"
            )
    return "\n".join(lines) + "\n"


def run_top(
    host: str,
    port: int,
    *,
    interval: float = 2.0,
    once: bool = False,
    iterations: int | None = None,
    scope: str = "fleet",
    timeout: float = 5.0,
    out: Callable[[str], None] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> int:
    """The ``repro top`` loop; returns a process exit code.

    ``--once`` (or ``iterations``) bounds the loop for CI; live mode
    clears the screen between redraws and exits cleanly on Ctrl-C.
    """
    emit = out if out is not None else lambda text: print(text, end="", flush=True)
    previous = None
    count = 0
    limit = 1 if once else iterations
    try:
        while True:
            sample = fetch_sample(host, port, scope=scope, timeout=timeout)
            screen = render_dashboard(sample, previous)
            if once or iterations is not None:
                emit(screen)
            else:
                emit("\x1b[2J\x1b[H" + screen)
            if sample.get("metrics") is None and (once or iterations is not None):
                return 1
            previous = sample
            count += 1
            if limit is not None and count >= limit:
                return 0
            sleep(interval)
    except KeyboardInterrupt:
        return 0
