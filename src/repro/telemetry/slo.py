"""Declarative SLOs evaluated from federated metrics: budgets and burn rates.

PR 9's chaos soak asserted reliability ad hoc ("errors == 0", "p99 ratio
< 20x").  This module replaces those with the vocabulary operators actually
use -- an **objective** ("99.9% of requests succeed", "99% of requests
finish under 500 ms, judged over a 5-minute window"), its **error budget**
(the tolerated bad fraction, ``1 - target``), and the **burn rate** (how
fast the fleet is consuming that budget: ``bad_fraction / budget``, the
dimensionless multiple of sustainable consumption -- 1.0 means "exactly on
budget", 10 means "the whole window's budget gone in a tenth of it").

Two layers:

* :func:`evaluate_objectives` -- a pure function from objectives plus one
  metrics snapshot (local or federated; both carry ``requests_total``/
  ``errors_total`` counters and ``request_seconds`` histograms) to report
  rows.  Latency compliance interpolates inside the bucket containing the
  threshold, the same arithmetic as ``histogram_quantile``.
* :class:`SLOEngine` -- windowing on top: the router feeds it a fleet
  snapshot per probe-merge beat, the engine keeps a time-stamped ring of
  reduced measurements and reports both *cumulative* (since start) and
  *windowed* (last ``window_seconds``) compliance, serving ``/v1/slo``.

:func:`gate` turns a report into a pass/fail verdict ("the degraded phase
may burn at most X" -- the chaos-soak and loadgen gates).
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Any, Callable, Iterable, Mapping

__all__ = [
    "DEFAULT_OBJECTIVES",
    "Objective",
    "SLOEngine",
    "evaluate_objectives",
    "gate",
    "load_objectives",
    "parse_objectives",
]


class Objective:
    """One declarative objective: availability or a latency threshold."""

    __slots__ = ("name", "kind", "target", "histogram", "threshold_s", "window_s")

    def __init__(
        self,
        name: str,
        kind: str,
        target: float,
        *,
        histogram: str = "request_seconds",
        threshold_ms: float | None = None,
        window_seconds: float = 300.0,
    ) -> None:
        if kind not in ("availability", "latency"):
            raise ValueError(f"objective kind must be availability|latency, got {kind!r}")
        if not 0.0 < float(target) < 1.0:
            raise ValueError(f"objective target must be in (0, 1), got {target}")
        if kind == "latency" and (threshold_ms is None or float(threshold_ms) <= 0.0):
            raise ValueError("latency objectives need a positive threshold_ms")
        if float(window_seconds) <= 0.0:
            raise ValueError("window_seconds must be positive")
        self.name = str(name)
        self.kind = kind
        self.target = float(target)
        self.histogram = str(histogram)
        self.threshold_s = float(threshold_ms) / 1000.0 if threshold_ms else None
        self.window_s = float(window_seconds)

    @property
    def budget(self) -> float:
        """The error budget: the tolerated bad fraction."""
        return 1.0 - self.target

    def describe(self) -> dict:
        description: dict = {
            "name": self.name,
            "kind": self.kind,
            "target": self.target,
            "error_budget": round(self.budget, 12),
            "window_seconds": self.window_s,
        }
        if self.kind == "latency":
            description["histogram"] = self.histogram
            description["threshold_ms"] = self.threshold_s * 1000.0
        return description


#: The stock fleet objectives: three nines of availability, and 99% of
#: requests under 500 ms -- generous enough that a healthy soak passes and
#: a crashed-shard window shows a visible (gated) burn.
DEFAULT_OBJECTIVES = (
    Objective("availability", "availability", 0.999),
    Objective("latency-p99-500ms", "latency", 0.99, threshold_ms=500.0),
)


def parse_objectives(data) -> tuple[Objective, ...]:
    """Objectives from config JSON: a list of dicts or ``{"objectives": [...]}``."""
    if isinstance(data, Mapping):
        data = data.get("objectives")
    if not isinstance(data, list) or not data:
        raise ValueError("SLO config must be a non-empty list of objectives")
    objectives = []
    for entry in data:
        if not isinstance(entry, Mapping):
            raise ValueError(f"objective entries must be objects, got {entry!r}")
        known = {"name", "kind", "target", "histogram", "threshold_ms", "window_seconds"}
        unknown = set(entry) - known
        if unknown:
            raise ValueError(f"unknown objective fields: {sorted(unknown)}")
        kwargs = {key: entry[key] for key in ("histogram", "threshold_ms", "window_seconds") if key in entry}
        objectives.append(
            Objective(
                entry.get("name", entry.get("kind", "objective")),
                entry.get("kind", "availability"),
                entry.get("target", 0.999),
                **kwargs,
            )
        )
    return tuple(objectives)


def load_objectives(path) -> tuple[Objective, ...]:
    """Objectives from a JSON file (the ``repro route --slo-config`` format)."""
    with open(path, "r", encoding="utf-8") as stream:
        return parse_objectives(json.load(stream))


def _count_at_or_below(histogram: Mapping[str, Any], threshold: float) -> float:
    """Observations <= ``threshold``, interpolating inside the split bucket."""
    buckets = histogram.get("buckets", [])
    counts = histogram.get("counts", [])
    good = 0.0
    lower = 0.0
    for bound, count in zip(buckets, counts):
        if threshold >= bound:
            good += count
        else:
            if threshold > lower and bound > lower:
                good += count * (threshold - lower) / (bound - lower)
            return good
        lower = bound
    # Threshold beyond the last finite bound: overflow observations count
    # as bad (their true values are unknown, >= the last bound).
    return good


def _measure(objective: Objective, snapshot: Mapping[str, Any]) -> tuple[float, float]:
    """Reduce a snapshot to ``(bad, total)`` for one objective."""
    if objective.kind == "availability":
        counters = snapshot.get("counters", {})
        total = float(counters.get("requests_total", 0))
        bad = float(counters.get("errors_total", 0))
        return min(bad, total), total
    histogram = snapshot.get("histograms", {}).get(objective.histogram)
    if not histogram or not histogram.get("count"):
        return 0.0, 0.0
    total = float(histogram["count"])
    good = _count_at_or_below(histogram, objective.threshold_s)
    return max(0.0, total - good), total


def _row(
    objective: Objective,
    bad: float,
    total: float,
    *,
    window_seconds: float | None = None,
) -> dict:
    """One report row: compliance, budget consumption, burn rate."""
    row: dict = {
        "total": round(total, 6),
        "bad": round(bad, 6),
        "compliance": None,
        "met": True,
        "burn_rate": 0.0,
        "budget_consumed": 0.0,
        "budget_remaining": 1.0,
    }
    if window_seconds is not None:
        row["window_seconds"] = round(window_seconds, 3)
    if total <= 0.0:
        return row
    bad_fraction = bad / total
    compliance = 1.0 - bad_fraction
    burn_rate = bad_fraction / objective.budget
    # Budget consumed relative to the objective's window: burning at rate r
    # for a fraction w/W of the window consumes r*w/W of the budget.
    if window_seconds is not None:
        consumed = burn_rate * min(1.0, window_seconds / objective.window_s)
    else:
        consumed = burn_rate
    row.update(
        compliance=round(compliance, 9),
        met=compliance >= objective.target,
        burn_rate=round(burn_rate, 6),
        budget_consumed=round(consumed, 6),
        budget_remaining=round(1.0 - consumed, 6),
    )
    return row


def evaluate_objectives(
    objectives: Iterable[Objective],
    snapshot: Mapping[str, Any],
    *,
    window_seconds: float | None = None,
) -> list[dict]:
    """Evaluate objectives against one metrics snapshot (local or fleet)."""
    rows = []
    for objective in objectives:
        bad, total = _measure(objective, snapshot)
        rows.append(
            {
                **objective.describe(),
                **_row(objective, bad, total, window_seconds=window_seconds),
            }
        )
    return rows


def gate(
    rows: Iterable[Mapping[str, Any]], *, max_burn_rate: float
) -> dict:
    """Pass/fail verdict: every objective's burn rate within the allowance."""
    violations = [
        {
            "name": row.get("name"),
            "burn_rate": row.get("burn_rate"),
            "max_burn_rate": max_burn_rate,
        }
        for row in rows
        if (row.get("burn_rate") or 0.0) > max_burn_rate
    ]
    return {
        "passed": not violations,
        "max_burn_rate": max_burn_rate,
        "violations": violations,
    }


#: The most samples an :class:`SLOEngine` keeps; the oldest drop first.
MAX_SAMPLES = 4096


class SLOEngine:
    """Windowed SLO evaluation over a stream of (fleet) snapshots.

    ``observe(snapshot)`` reduces the snapshot to per-objective ``(bad,
    total)`` cumulative pairs and appends them to a time-stamped ring;
    ``report()`` differences the newest sample against the oldest one
    inside each objective's window, yielding *windowed* burn rates next to
    the *cumulative* ones.  Reductions are tiny (two floats per objective),
    so the ring holds minutes of history at probe cadence for free.
    """

    def __init__(
        self,
        objectives: Iterable[Objective] | None = None,
        *,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.objectives = tuple(objectives or ()) or DEFAULT_OBJECTIVES
        self._clock = clock
        self._lock = threading.Lock()
        self._samples: deque = deque(maxlen=MAX_SAMPLES)

    def observe(self, snapshot: Mapping[str, Any]) -> None:
        measures = {
            objective.name: _measure(objective, snapshot)
            for objective in self.objectives
        }
        with self._lock:
            self._samples.append((self._clock(), measures))

    def report(self) -> dict:
        """The ``/v1/slo`` body: cumulative and windowed rows per objective."""
        with self._lock:
            samples = list(self._samples)
        now = self._clock()
        if not samples:
            return {
                "objectives": [
                    {**objective.describe(), "cumulative": None, "window": None}
                    for objective in self.objectives
                ],
                "samples": 0,
            }
        latest_ts, latest = samples[-1]
        rows = []
        for objective in self.objectives:
            bad, total = latest.get(objective.name, (0.0, 0.0))
            cumulative = _row(objective, bad, total)
            window = None
            baseline = None
            for ts, measures in samples:
                if ts >= latest_ts - objective.window_s:
                    baseline = (ts, measures)
                    break
            if baseline is not None and baseline[0] < latest_ts:
                base_bad, base_total = baseline[1].get(objective.name, (0.0, 0.0))
                window = _row(
                    objective,
                    max(0.0, bad - base_bad),
                    max(0.0, total - base_total),
                    window_seconds=latest_ts - baseline[0],
                )
            rows.append(
                {**objective.describe(), "cumulative": cumulative, "window": window}
            )
        return {
            "objectives": rows,
            "samples": len(samples),
            "updated_age_seconds": round(max(0.0, now - latest_ts), 6),
        }
