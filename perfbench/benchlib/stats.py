"""Exact order statistics over raw samples.

Latency is kept as raw per-call samples and summarised here with
nearest-rank percentiles, never through the telemetry histograms (whose
buckets start at 1 ms, above a warm request's latency).
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence


def percentile(samples: Sequence[float], level: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``level``
    percent of the samples at or below it (``level`` in (0, 100])."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < level <= 100.0:
        raise ValueError(f"level must be in (0, 100], got {level}")
    ordered = sorted(samples)
    rank = math.ceil(level / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def spread(values: Sequence[float]) -> dict:
    """Median, quartiles, IQR as a share of the median, and max/min ratio.

    Quartiles are ``statistics.quantiles(values, n=4)`` (the exclusive
    method), the same figures the benchmark's bounds are checked against.
    """
    values = [float(value) for value in values]
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    low, high = min(values), max(values)
    return {
        "n": len(values),
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / median if median else float("nan"),
        "max_min_ratio": high / low if low else float("inf"),
    }
