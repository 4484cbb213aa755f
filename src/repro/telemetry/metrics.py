"""Typed metrics: counters, gauges and fixed-bucket latency histograms.

A :class:`MetricsRegistry` is a named collection of metric instruments
behind **one lock**, so a snapshot is a single consistent pass: every value
in one ``/metrics`` response was read at the same instant, never a counter
from before an increment next to a gauge from after it.

Three instrument types, mirroring the Prometheus data model (the registry
renders the classic text exposition format via :func:`render_prometheus`):

* :class:`Counter` -- a monotonically increasing total;
* :class:`Gauge` -- a point-in-time value (queue depth, in-flight requests),
  with a ``set_max`` high-water-mark helper;
* :class:`Histogram` -- observations bucketed by **fixed upper bounds**, plus
  running count/sum/min/max and an optional *exemplar* (the trace id of the
  slowest traced observation, so a bad p99 links straight to a stitched
  trace).  Fixed buckets make histograms *merge-able*:
  adding two registries' bucket counts is exact, which is how a router
  rolls its shards' scrapes up into one fleet view.
  Quantiles (p50/p95/p99) are derived from the buckets by linear
  interpolation -- resolution is bucket-width, which is the documented
  trade for mergeability.

Snapshots are plain JSON-safe dicts, so they pickle across process
boundaries and serialise into ``/metrics`` unchanged.  The whole module is
stdlib-only and never touches any random state, so instrumenting a code
path cannot perturb a seeded result.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Iterable, Mapping

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "merge_snapshots",
    "render_prometheus",
]

#: Default latency bucket upper bounds in **seconds**: 50 us to 100 s in
#: roughly x2.5 steps.  Fine enough to resolve a warm cache hit (a few
#: hundred microseconds) and wide enough for a cold million-replication
#: Monte Carlo point (tens of seconds) on one scale.  The bounds are fixed,
#: so snapshots from every process merge exactly.
DEFAULT_LATENCY_BUCKETS = (
    0.00005, 0.0001, 0.00025, 0.0005,
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0,
)


class Counter:
    """A monotonically increasing total. Mutate only via the owning registry."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0


class Gauge:
    """A point-in-time value (queue depth, in-flight count, high-water mark)."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0


class Histogram:
    """Fixed-bucket latency histogram with running count/sum/min/max.

    ``buckets`` are inclusive upper bounds in ascending order; an implicit
    ``+Inf`` bucket catches everything above the last bound.  ``counts`` has
    ``len(buckets) + 1`` entries (the last is the overflow bucket).
    """

    __slots__ = (
        "name", "help", "buckets", "counts", "count", "sum", "min", "max", "exemplar",
    )

    def __init__(
        self,
        name: str,
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
        help: str = "",
    ) -> None:
        bounds = tuple(float(bound) for bound in buckets)
        if not bounds:
            raise ValueError(f"histogram {name!r} needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"histogram {name!r} bucket bounds must be strictly increasing")
        self.name = name
        self.help = help
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None
        #: Trace id + value of the slowest *traced* observation, or None.
        self.exemplar: dict | None = None

    def _observe(self, value: float, trace_id: str | None = None) -> None:
        value = float(value)
        index = _bucket_index(self.buckets, value)
        self.counts[index] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if trace_id is not None and (
            self.exemplar is None or value >= self.exemplar["value"]
        ):
            self.exemplar = {"trace": trace_id, "value": value}

    def snapshot(self) -> dict:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "exemplar": dict(self.exemplar) if self.exemplar else None,
        }


def _bucket_index(buckets: tuple[float, ...], value: float) -> int:
    """Index of the first bucket whose upper bound holds ``value``
    (``len(buckets)``: the overflow bucket)."""
    return bisect_left(buckets, value)


def histogram_quantile(snapshot: Mapping[str, Any], quantile: float) -> float | None:
    """Estimate a quantile from a histogram snapshot by linear interpolation.

    Returns ``None`` for an empty histogram.  Resolution is bucket width;
    the overflow bucket reports the last finite bound (there is no upper
    edge to interpolate toward), clamped by the observed ``max`` when known.
    """
    if not 0.0 <= quantile <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {quantile}")
    count = snapshot["count"]
    if not count:
        return None
    target = quantile * count
    cumulative = 0
    buckets = snapshot["buckets"]
    observed_max = snapshot.get("max")
    for index, bucket_count in enumerate(snapshot["counts"]):
        if not bucket_count:
            continue
        if cumulative + bucket_count >= target:
            if index >= len(buckets):  # overflow bucket
                return observed_max if observed_max is not None else buckets[-1]
            lower = buckets[index - 1] if index else 0.0
            upper = buckets[index]
            fraction = (target - cumulative) / bucket_count
            estimate = lower + (upper - lower) * max(0.0, min(1.0, fraction))
            if observed_max is not None:
                estimate = min(estimate, observed_max)
            return estimate
        cumulative += bucket_count
    return observed_max if observed_max is not None else buckets[-1]


class MetricsRegistry:
    """A named, lock-consistent collection of counters, gauges and histograms.

    All mutation and the whole-registry snapshot share one lock, so
    ``snapshot()`` is a *consistent cut*: no value in it can be newer than
    another.  Instruments are created on first use (``counter(name)`` etc.)
    or eagerly via :meth:`register_counters`; re-requesting a name returns
    the existing instrument, and requesting it as a different type raises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------ #
    # Instrument registration
    # ------------------------------------------------------------------ #
    def _check_free(self, name: str, kind: str) -> None:
        for other_kind, table in (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("histogram", self._histograms),
        ):
            if other_kind != kind and name in table:
                raise ValueError(f"metric {name!r} is already registered as a {other_kind}")

    def counter(self, name: str, help: str = "") -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                self._check_free(name, "counter")
                instrument = self._counters[name] = Counter(name, help)
            return instrument

    def gauge(self, name: str, help: str = "") -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                self._check_free(name, "gauge")
                instrument = self._gauges[name] = Gauge(name, help)
            return instrument

    def histogram(
        self, name: str, buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS, help: str = ""
    ) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                self._check_free(name, "histogram")
                instrument = self._histograms[name] = Histogram(name, buckets, help)
            return instrument

    def register_counters(self, names: Iterable[str]) -> None:
        """Eagerly create counters so they appear in snapshots at zero."""
        for name in names:
            self.counter(name)

    # ------------------------------------------------------------------ #
    # Mutation (always under the registry lock)
    # ------------------------------------------------------------------ #
    def inc(self, name: str, amount: int = 1) -> None:
        instrument = self._counters.get(name) or self.counter(name)
        with self._lock:
            instrument.value += amount

    def set_gauge(self, name: str, value) -> None:
        instrument = self._gauges.get(name) or self.gauge(name)
        with self._lock:
            instrument.value = value

    def set_max(self, name: str, value) -> None:
        """Raise a gauge to ``value`` if it is below it (high-water mark)."""
        instrument = self._gauges.get(name) or self.gauge(name)
        with self._lock:
            if value > instrument.value:
                instrument.value = value

    def observe(self, name: str, value: float, trace_id: str | None = None) -> None:
        instrument = self._histograms.get(name) or self.histogram(name)
        with self._lock:
            instrument._observe(value, trace_id)

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def __getitem__(self, name: str):
        """Current value of a counter or gauge (test and debugging sugar)."""
        with self._lock:
            if name in self._counters:
                return self._counters[name].value
            if name in self._gauges:
                return self._gauges[name].value
        raise KeyError(name)

    def __contains__(self, name: str) -> bool:
        return name in self._counters or name in self._gauges or name in self._histograms

    def snapshot(self) -> dict:
        """One consistent cut of the whole registry, as a JSON-safe dict.

        Every value is read under a single lock acquisition, so counters
        and gauges in one snapshot are mutually consistent -- the queue
        gauge can never show a request the inflight gauge already released.
        """
        with self._lock:
            return {
                "counters": {name: c.value for name, c in self._counters.items()},
                "gauges": {name: g.value for name, g in self._gauges.items()},
                "histograms": {name: h.snapshot() for name, h in self._histograms.items()},
            }

    def merge(self, snapshot: Mapping[str, Any]) -> None:
        """Fold a snapshot (e.g. a shard's scrape) into this registry.

        Counters and histogram counts/sums add; gauges take the maximum
        (a high-water mark by the time it arrives); histogram min/max
        combine when the snapshot knows them.
        """
        for name, value in snapshot.get("counters", {}).items():
            instrument = self.counter(name)
            with self._lock:
                instrument.value += value
        for name, value in snapshot.get("gauges", {}).items():
            instrument = self.gauge(name)
            with self._lock:
                current = instrument.value
                try:
                    if current is None or value > current:
                        instrument.value = value
                except TypeError:
                    # Non-numeric gauge (config string, None): latest wins.
                    instrument.value = value
        for name, data in snapshot.get("histograms", {}).items():
            instrument = self.histogram(name, buckets=data["buckets"])
            with self._lock:
                if tuple(data["buckets"]) != instrument.buckets:
                    raise ValueError(
                        f"cannot merge histogram {name!r}: bucket bounds differ"
                    )
                for index, count in enumerate(data["counts"]):
                    instrument.counts[index] += count
                instrument.count += data["count"]
                instrument.sum += data["sum"]
                for edge, better in (("min", min), ("max", max)):
                    incoming = data.get(edge)
                    if incoming is not None:
                        current = getattr(instrument, edge)
                        setattr(
                            instrument,
                            edge,
                            incoming if current is None else better(current, incoming),
                        )
                exemplar = data.get("exemplar")
                if exemplar is not None and (
                    instrument.exemplar is None
                    or exemplar["value"] >= instrument.exemplar["value"]
                ):
                    instrument.exemplar = dict(exemplar)


def merge_snapshots(*snapshots: Mapping[str, Any]) -> dict:
    """Merge snapshots into a fresh combined snapshot (none are mutated)."""
    combined = MetricsRegistry()
    for snapshot in snapshots:
        combined.merge(snapshot)
    return combined.snapshot()


def histogram_summary(snapshot: Mapping[str, Any]) -> dict:
    """A histogram snapshot with derived p50/p95/p99 attached (for JSON)."""
    return {
        **{key: snapshot[key] for key in ("buckets", "counts", "count", "sum", "min", "max")},
        "exemplar": snapshot.get("exemplar"),
        "p50": histogram_quantile(snapshot, 0.50),
        "p95": histogram_quantile(snapshot, 0.95),
        "p99": histogram_quantile(snapshot, 0.99),
    }


def _format_value(value: float) -> str:
    """Prometheus number spelling: integers without a trailing ``.0``."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(float(value))


def render_prometheus(snapshot: Mapping[str, Any], prefix: str = "repro_") -> str:
    """Render a registry snapshot in the Prometheus text exposition format.

    Counters and gauges become single samples; histograms become the
    classic ``_bucket{le=...}`` (cumulative), ``_sum`` and ``_count``
    series.  Non-numeric gauges (configuration strings, ``None``) are
    skipped -- Prometheus samples are numbers; booleans render as 0/1.
    """
    lines: list[str] = []
    for name, value in sorted(snapshot.get("counters", {}).items()):
        metric = f"{prefix}{name}"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_format_value(value)}")
    for name, value in sorted(snapshot.get("gauges", {}).items()):
        if not isinstance(value, (bool, int, float)) or value is None:
            continue
        metric = f"{prefix}{name}"
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_format_value(value)}")
    for name, data in sorted(snapshot.get("histograms", {}).items()):
        metric = f"{prefix}{name}"
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for bound, count in zip(data["buckets"], data["counts"]):
            cumulative += count
            lines.append(f'{metric}_bucket{{le="{_format_value(float(bound))}"}} {cumulative}')
        cumulative += data["counts"][-1]
        lines.append(f'{metric}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{metric}_sum {_format_value(data['sum'])}")
        lines.append(f"{metric}_count {data['count']}")
    return "\n".join(lines) + "\n"


def parse_prometheus(text: str, prefix: str = "repro_") -> dict:
    """Parse :func:`render_prometheus` output back into a snapshot-like dict.

    Supports the subset this module emits: the only *structural* label is
    ``le`` (histogram buckets); any other labelled sample -- e.g. the
    per-shard series a fleet scope adds -- is preserved verbatim under a
    ``"labeled"`` key instead of being mistaken for a bucket.  Exists so
    tests can pin a lossless round trip, and so the CI smoke job can
    sanity-check a scrape without a Prometheus server.
    """
    snapshot: dict = {"counters": {}, "gauges": {}, "histograms": {}}
    types: dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            metric, _, kind = rest.partition(" ")
            types[metric] = kind
            continue
        if line.startswith("#"):
            continue
        sample, _, raw = line.rpartition(" ")
        value = float(raw)
        if "{" in sample:
            metric, _, label = sample.partition("{")
            if not (metric.endswith("_bucket") and label.startswith('le="')):
                snapshot.setdefault("labeled", {})[sample] = (
                    int(value) if value.is_integer() else value
                )
                continue
            base = metric[: metric.rindex("_bucket")]
            name = base[len(prefix):]
            entry = snapshot["histograms"].setdefault(
                name, {"buckets": [], "cumulative": []}
            )
            bound = label[len('le="'):-2]
            if bound != "+Inf":
                entry["buckets"].append(float(bound))
            entry["cumulative"].append(value)
            continue
        if sample.endswith("_sum") and types.get(sample[: -len("_sum")]) == "histogram":
            name = sample[len(prefix):-len("_sum")]
            snapshot["histograms"].setdefault(name, {})["sum"] = value
            continue
        if sample.endswith("_count") and types.get(sample[: -len("_count")]) == "histogram":
            name = sample[len(prefix):-len("_count")]
            snapshot["histograms"].setdefault(name, {})["count"] = int(value)
            continue
        name = sample[len(prefix):]
        kind = types.get(sample, "gauge")
        target = "counters" if kind == "counter" else "gauges"
        parsed = int(value) if value.is_integer() else value
        snapshot[target][name] = parsed
    for entry in snapshot["histograms"].values():
        cumulative = entry.pop("cumulative", [])
        counts = [
            int(now - then) for now, then in zip(cumulative, [0.0] + cumulative[:-1])
        ]
        entry["counts"] = counts
        entry.setdefault("min", None)
        entry.setdefault("max", None)
        entry.setdefault("exemplar", None)
    return snapshot
