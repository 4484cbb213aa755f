"""Streaming (single-pass) summary statistics.

The chunked Monte Carlo path of :mod:`repro.montecarlo` needs summary
statistics of simulation output whose memory footprint does not grow with the
number of replications.  This module provides the two accumulators used for
that purpose:

* :class:`StreamingMoments` -- count, mean, variance, min/max and exact-zero
  counting via the numerically stable Chan et al. pairwise-update formulas
  (batched Welford): each batch is summarised on its own and combined
  exactly with the running totals.
* :class:`StreamingHistogram` -- a fixed-bin histogram over a known value
  range, with exact tracking of the probability mass at zero and of
  out-of-range values, supporting approximate CDF / quantile / exceedance
  queries.

Both accumulators are plain mutable objects (unlike the frozen value types in
the rest of :mod:`repro.stats`) because their whole purpose is in-place
accumulation.
"""

from __future__ import annotations

import numpy as np

__all__ = ["StreamingMoments", "StreamingHistogram"]


class StreamingMoments:
    """Single-pass mean/variance/extrema accumulator (batched Welford).

    Updates use the Chan-Golub-LeVeque pairwise combination formula, which is
    numerically stable for long streams of batches of any size.  ``zeros`` counts observations exactly equal to zero, which
    for PFD samples is the empirical probability of a fault-free product.
    """

    __slots__ = ("count", "_mean", "_m2", "_min", "_max", "zeros")

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self.zeros = 0

    def update(self, values: np.ndarray) -> None:
        """Fold a batch of observations into the accumulator."""
        array = np.asarray(values, dtype=float).ravel()
        if array.size == 0:
            return
        batch_count = int(array.size)
        batch_mean = float(np.mean(array))
        batch_m2 = float(np.sum((array - batch_mean) ** 2))
        self._combine(
            batch_count,
            batch_mean,
            batch_m2,
            float(np.min(array)),
            float(np.max(array)),
            int(np.count_nonzero(array == 0.0)),
        )

    def _combine(
        self,
        count: int,
        mean: float,
        m2: float,
        minimum: float,
        maximum: float,
        zeros: int,
    ) -> None:
        if self.count == 0:
            self.count, self._mean, self._m2 = count, mean, m2
            self._min, self._max, self.zeros = minimum, maximum, zeros
            return
        total = self.count + count
        delta = mean - self._mean
        self._m2 += m2 + delta * delta * (self.count * count / total)
        self._mean += delta * (count / total)
        self.count = total
        self._min = min(self._min, minimum)
        self._max = max(self._max, maximum)
        self.zeros += zeros

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def mean(self) -> float:
        """Sample mean of all observations seen so far."""
        if self.count == 0:
            raise ValueError("no observations accumulated")
        return self._mean

    def variance(self, ddof: int = 1) -> float:
        """Sample variance (``ddof=1`` by default, matching EmpiricalDistribution)."""
        if self.count <= ddof:
            return 0.0
        return self._m2 / (self.count - ddof)

    def std(self, ddof: int = 1) -> float:
        """Sample standard deviation."""
        return float(np.sqrt(self.variance(ddof)))

    def standard_error(self) -> float:
        """Standard error of the sample mean."""
        if self.count < 2:
            return float("inf")
        return self.std() / float(np.sqrt(self.count))

    @property
    def minimum(self) -> float:
        """Smallest observation seen."""
        if self.count == 0:
            raise ValueError("no observations accumulated")
        return self._min

    @property
    def maximum(self) -> float:
        """Largest observation seen."""
        if self.count == 0:
            raise ValueError("no observations accumulated")
        return self._max

    def fraction_zero(self) -> float:
        """Fraction of observations exactly equal to zero."""
        if self.count == 0:
            raise ValueError("no observations accumulated")
        return self.zeros / self.count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.count == 0:
            return "StreamingMoments(empty)"
        return (
            f"StreamingMoments(count={self.count}, mean={self._mean:.6g}, "
            f"std={self.std():.6g})"
        )


class StreamingHistogram:
    """Fixed-bin histogram accumulator over a known value range.

    Parameters
    ----------
    low, high:
        Range covered by the bins.  For PFD samples the natural range is
        ``[0, sum(q_i)]`` -- the PFD of a version can never exceed the total
        failure-region probability.
    bins:
        Number of equal-width bins.

    Values exactly equal to zero are tracked separately (``zero_count``), so
    the large atom at PFD = 0 is represented exactly rather than smeared over
    the first bin.  Values outside ``[low, high]`` are counted in
    ``underflow`` / ``overflow`` and excluded from the bins.
    """

    __slots__ = ("edges", "counts", "zero_count", "underflow", "overflow", "total", "_inv_width")

    def __init__(self, low: float, high: float, bins: int = 4096) -> None:
        if not np.isfinite(low) or not np.isfinite(high) or not low < high:
            raise ValueError(f"need finite low < high, got [{low}, {high}]")
        if bins < 1:
            raise ValueError(f"bins must be positive, got {bins}")
        self.edges = np.linspace(float(low), float(high), int(bins) + 1)
        self.counts = np.zeros(int(bins), dtype=np.int64)
        self.zero_count = 0
        self.underflow = 0
        self.overflow = 0
        self.total = 0
        self._inv_width = float(bins) / (float(high) - float(low))

    def update(self, values: np.ndarray) -> None:
        """Fold a batch of observations into the histogram.

        Bins are equal-width, so the bin index is computed arithmetically
        (one multiply per value) rather than by a binary search per value --
        the histogram update is on the hot path of the streaming Monte Carlo
        engine, where a ``searchsorted``-based update dominated the per-chunk
        cost.  A value lying exactly on an interior bin edge may therefore be
        attributed to either neighbouring bin (float rounding of the
        multiply), which is within the histogram's one-bin resolution
        contract.
        """
        array = np.asarray(values, dtype=float).ravel()
        if array.size == 0:
            return
        bins = self.counts.size
        self.total += int(array.size)
        zeros = int(np.count_nonzero(array == 0.0))
        self.zero_count += zeros
        if zeros == array.size:
            return
        low, high = self.edges[0], self.edges[-1]
        # Clip in float space first: arbitrarily large magnitudes (and
        # infinities) must saturate at the edge bins rather than overflow
        # the integer cast.
        position = (array - low) * self._inv_width
        np.clip(position, 0.0, bins - 1, out=position)
        invalid = np.isnan(position)
        nans = int(np.count_nonzero(invalid))
        if nans:
            position[invalid] = 0.0
        index = position.astype(np.int64)
        binned = np.bincount(index, minlength=bins)
        # Every value was binned (out-of-range values clip to the first or
        # last bin); the zero atom, NaNs and the under/overflow tallies are
        # tracked separately, so pull them back out.  The corrections are
        # count adjustments only and each value belongs to exactly one of
        # them (NaN compares false against every bound below).
        if nans:
            binned[0] -= nans
        if zeros:
            zero_index = min(max(int((0.0 - low) * self._inv_width), 0), bins - 1)
            binned[zero_index] -= zeros
        underflow = int(np.count_nonzero((array < low) & (array != 0.0)))
        if underflow:
            self.underflow += underflow
            binned[0] -= underflow
        overflow = int(np.count_nonzero((array > high) & (array != 0.0)))
        if overflow:
            self.overflow += overflow
            binned[bins - 1] -= overflow
        self.counts += binned

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def prob_zero(self) -> float:
        """Exact fraction of observations equal to zero."""
        if self.total == 0:
            raise ValueError("no observations accumulated")
        return self.zero_count / self.total

    def cdf(self, x: float) -> float:
        """Approximate ``P(X <= x)`` (exact at bin edges and for the zero atom).

        Observations inside the bin containing ``x`` are attributed by the
        conservative convention that the whole bin lies at its upper edge, so
        the returned value is a lower bound on the empirical CDF that becomes
        exact as ``x`` crosses each bin edge.
        """
        if self.total == 0:
            raise ValueError("no observations accumulated")
        if x < 0.0:
            return 0.0
        covered = self.zero_count
        # Out-of-range values are treated as sitting just outside the edge
        # they crossed: underflow just below the low edge, overflow just
        # above the top edge.
        if x >= self.edges[0]:
            covered += self.underflow
        full_bins = int(np.searchsorted(self.edges[1:], x, side="right"))
        covered += int(self.counts[:full_bins].sum())
        if x > self.edges[-1]:
            covered += self.overflow
        return covered / self.total

    def exceedance_probability(self, threshold: float) -> float:
        """Approximate ``P(X > threshold)`` (upper bound; exact at bin edges)."""
        return 1.0 - self.cdf(threshold)

    def quantile(self, level: float) -> float:
        """Approximate quantile: upper edge of the bin where the CDF crosses ``level``."""
        if not 0.0 <= level <= 1.0:
            raise ValueError(f"level must be in [0, 1], got {level}")
        if self.total == 0:
            raise ValueError("no observations accumulated")
        target = level * self.total
        if self.zero_count >= target:
            return 0.0
        # Underflow mass sits just below the low edge (see :meth:`cdf`).
        covered = self.zero_count + self.underflow
        if covered >= target:
            return float(self.edges[0])
        cumulative = covered + np.cumsum(self.counts)
        index = int(np.searchsorted(cumulative, target, side="left"))
        if index >= self.counts.size:
            return float(self.edges[-1])
        return float(self.edges[index + 1])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StreamingHistogram(bins={self.counts.size}, total={self.total}, "
            f"zero={self.zero_count})"
        )
