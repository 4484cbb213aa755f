"""Metrics federation: merge every shard's scrape into one fleet snapshot.

Registries are *exactly* mergeable (fixed histogram bucket bounds, integer
counts, ``repr(float)`` sums in the text exposition), and the router
already visits every shard on the probe schedule.  Federation is the
composition of the two: the router scrapes ``/metrics?format=prom`` from
each shard (and each peer router) alongside its health probes, parses the
text back into snapshot form, and a :class:`MetricsFederation` keeps the
latest scrape per target.  The fleet view is then pure arithmetic::

    roll-up = merge_snapshots(router-local, scrape(shard-1), ..., scrape(peer-N))

which is byte-for-byte the snapshot a single combined registry would have
produced (``tests/telemetry/test_federation.py`` pins this partitioned-
merge invariance with hypothesis).  The router serves the result at
``/metrics?scope=fleet`` in JSON (roll-up at the top level -- a strict
superset of the local ``/metrics`` schema -- plus a ``targets`` table of
the per-target ingredients) and in the Prometheus text format (roll-up series
plus per-target ``repro_fleet_target_*`` gauges carrying ``target=``/
``role=`` labels).

Scrapes are snapshots of *monotonic* state, so a stale entry is merely
old, never wrong; staleness is surfaced as ``age_seconds`` per target
rather than hidden by eviction.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Mapping

from repro.telemetry.metrics import (
    histogram_summary,
    merge_snapshots,
    parse_prometheus,
    PREFIX,
    render_prometheus,
)

__all__ = ["MetricsFederation"]

#: Snapshot keys that carry metric state; everything else in a per-target
#: entry (role, age) is annotation and ignored by merges.
_METRIC_KEYS = ("counters", "gauges", "histograms")


class MetricsFederation:
    """Latest-scrape-per-target bookkeeping plus exact fleet roll-ups."""

    def __init__(self, clock: Callable[[], float] = time.time) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        #: target -> {"snapshot", "role", "updated"}
        self._targets: dict[str, dict] = {}
        self.scrapes = 0

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #
    def update(self, target: str, snapshot: Mapping, *, role: str = "shard") -> None:
        """Adopt a freshly parsed scrape of ``target``."""
        entry = {
            "snapshot": {key: snapshot.get(key, {}) for key in _METRIC_KEYS},
            "role": role,
            "updated": self._clock(),
        }
        with self._lock:
            self._targets[target] = entry
            self.scrapes += 1

    def update_from_prometheus(self, target: str, text: str, *, role: str = "shard") -> None:
        """Adopt a raw ``/metrics?format=prom`` body scraped from ``target``."""
        self.update(target, parse_prometheus(text), role=role)

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def targets(self) -> dict[str, dict]:
        """Per-target entries (shallow copies), keyed by target address."""
        with self._lock:
            return {target: dict(entry) for target, entry in self._targets.items()}

    def fleet_snapshot(self, local: Mapping | None = None) -> dict:
        """The roll-up: every scraped target merged with the local snapshot."""
        entries = self.targets()
        snapshots = [entry["snapshot"] for entry in entries.values()]
        if local is not None:
            snapshots.append(local)
        return merge_snapshots(*snapshots)

    def document(self, local: Mapping | None = None) -> dict:
        """The ``/metrics?scope=fleet`` JSON body.

        The top level is the roll-up in exactly the local ``/metrics``
        shape (counters and gauges flat, ``histograms`` summarised), so
        every consumer of the local schema reads a fleet scope unchanged.
        The additive ``targets`` table carries the per-target ingredients
        -- the roll-up equals their merge, which CI pins exactly.  (Named
        ``targets``, not ``shards``: the router already serves a ``shards``
        *gauge* in the flat namespace.)
        """
        now = self._clock()
        entries = self.targets()
        rollup = self.fleet_snapshot(local)
        shards: dict[str, dict] = {}
        for target, entry in entries.items():
            snapshot = entry["snapshot"]
            shards[target] = {
                "role": entry["role"],
                "updated": entry["updated"],
                "age_seconds": round(max(0.0, now - entry["updated"]), 6),
                "counters": dict(snapshot.get("counters", {})),
                "gauges": dict(snapshot.get("gauges", {})),
                "histograms": {
                    name: histogram_summary(data)
                    for name, data in snapshot.get("histograms", {}).items()
                },
            }
        if local is not None:
            shards["self"] = {
                "role": "router",
                "updated": now,
                "age_seconds": 0.0,
                "counters": dict(local.get("counters", {})),
                "gauges": dict(local.get("gauges", {})),
                "histograms": {
                    name: histogram_summary(data)
                    for name, data in local.get("histograms", {}).items()
                },
            }
        return {
            **rollup.get("counters", {}),
            **rollup.get("gauges", {}),
            "histograms": {
                name: histogram_summary(data)
                for name, data in rollup.get("histograms", {}).items()
            },
            "scope": "fleet",
            "target_count": len(shards),
            "targets": shards,
        }

    def prometheus(self, local: Mapping | None = None) -> str:
        """The ``/metrics?scope=fleet&format=prom`` body.

        Roll-up series first (plain, so the fleet scope round-trips through
        :func:`parse_prometheus` like a local scrape), then per-target
        presence/staleness gauges with ``target=``/``role=`` labels -- the
        only labelled series besides histogram ``le`` buckets.
        """
        now = self._clock()
        lines = [render_prometheus(self.fleet_snapshot(local)).rstrip("\n")]
        entries = self.targets()
        if local is not None:
            entries["self"] = {"role": "router", "updated": now}
        lines.append(f"# TYPE {PREFIX}fleet_target_up gauge")
        for target in sorted(entries):
            role = entries[target]["role"]
            lines.append(
                f'{PREFIX}fleet_target_up{{target="{target}",role="{role}"}} 1'
            )
        lines.append(f"# TYPE {PREFIX}fleet_target_scrape_age_seconds gauge")
        for target in sorted(entries):
            age = max(0.0, now - entries[target]["updated"])
            lines.append(
                f'{PREFIX}fleet_target_scrape_age_seconds{{target="{target}"}} '
                f"{round(age, 6)}"
            )
        return "\n".join(lines) + "\n"
