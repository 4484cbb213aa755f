"""Empirical statistics for Monte Carlo output.

The analytic results of the paper are validated throughout the test-suite and
benchmark harness against Monte Carlo simulation of the fault creation process.
This module provides the empirical estimators used for that comparison:
empirical CDFs and quantiles, and non-parametric bootstrap confidence
intervals for arbitrary statistics of simulation output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.stats.normal import normal_quantile

__all__ = [
    "EmpiricalDistribution",
    "empirical_cdf",
    "empirical_quantile",
    "bootstrap_confidence_interval",
    "standard_error_of_mean",
]


def empirical_cdf(samples: np.ndarray, x: float) -> float:
    """Fraction of ``samples`` less than or equal to ``x``."""
    array = np.asarray(samples, dtype=float)
    if array.size == 0:
        raise ValueError("samples must be non-empty")
    return float(np.mean(array <= x))


def empirical_quantile(samples: np.ndarray, level: float) -> float:
    """Empirical quantile (inverse CDF) of ``samples`` at probability ``level``."""
    if not 0.0 <= level <= 1.0:
        raise ValueError(f"level must be in [0, 1], got {level}")
    array = np.asarray(samples, dtype=float)
    if array.size == 0:
        raise ValueError("samples must be non-empty")
    return float(np.quantile(array, level, method="inverted_cdf"))


def standard_error_of_mean(samples: np.ndarray) -> float:
    """Standard error of the sample mean (sample std over sqrt(n))."""
    array = np.asarray(samples, dtype=float)
    if array.size < 2:
        return float("inf")
    return float(np.std(array, ddof=1) / np.sqrt(array.size))


def bootstrap_confidence_interval(
    samples: np.ndarray,
    statistic: Callable[[np.ndarray], float],
    rng: np.random.Generator,
    confidence: float = 0.95,
    n_resamples: int = 1000,
) -> tuple[float, float]:
    """Percentile-bootstrap confidence interval for ``statistic(samples)``.

    Parameters
    ----------
    samples:
        One-dimensional array of i.i.d. observations.
    statistic:
        Function mapping a sample array to a scalar (e.g. ``np.mean``,
        ``np.std`` or a quantile).
    rng:
        Random generator for the resampling.
    confidence:
        Coverage of the interval (two-sided).
    n_resamples:
        Number of bootstrap resamples.
    """
    array = np.asarray(samples, dtype=float)
    if array.size == 0:
        raise ValueError("samples must be non-empty")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if n_resamples < 1:
        raise ValueError(f"n_resamples must be positive, got {n_resamples}")
    estimates = np.empty(n_resamples, dtype=float)
    for index in range(n_resamples):
        resample = array[rng.integers(0, array.size, size=array.size)]
        estimates[index] = float(statistic(resample))
    alpha = (1.0 - confidence) / 2.0
    return (float(np.quantile(estimates, alpha)), float(np.quantile(estimates, 1.0 - alpha)))


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Empirical distribution of a set of observed values.

    A light wrapper over a sample array with the summary queries used when
    comparing simulation to the paper's analytic results: mean, standard
    deviation, CDF, quantiles and exceedance probabilities.
    """

    samples: np.ndarray

    def __post_init__(self) -> None:
        array = np.asarray(self.samples, dtype=float)
        if array.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {array.shape}")
        if array.size == 0:
            raise ValueError("samples must be non-empty")
        object.__setattr__(self, "samples", array)

    @property
    def size(self) -> int:
        """Number of observations."""
        return int(self.samples.size)

    def mean(self) -> float:
        """Sample mean."""
        return float(np.mean(self.samples))

    def std(self, ddof: int = 1) -> float:
        """Sample standard deviation (``ddof=1`` by default)."""
        if self.samples.size <= ddof:
            return 0.0
        return float(np.std(self.samples, ddof=ddof))

    def variance(self, ddof: int = 1) -> float:
        """Sample variance (``ddof=1`` by default)."""
        if self.samples.size <= ddof:
            return 0.0
        return float(np.var(self.samples, ddof=ddof))

    def cdf(self, x: float) -> float:
        """Empirical CDF at ``x``."""
        return empirical_cdf(self.samples, x)

    def quantile(self, level: float) -> float:
        """Empirical quantile at ``level``."""
        return empirical_quantile(self.samples, level)

    def exceedance_probability(self, threshold: float) -> float:
        """Fraction of observations strictly greater than ``threshold``."""
        return float(np.mean(self.samples > threshold))

    def prob_zero(self, atol: float = 0.0) -> float:
        """Fraction of observations equal to zero (within ``atol``)."""
        return float(np.mean(np.isclose(self.samples, 0.0, atol=atol)))

    def mean_standard_error(self) -> float:
        """Standard error of the sample mean."""
        return standard_error_of_mean(self.samples)

    def mean_confidence_interval(self, confidence: float = 0.95) -> tuple[float, float]:
        """Normal-theory confidence interval for the mean."""
        if not 0.0 < confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1), got {confidence}")
        half_width = normal_quantile(0.5 + confidence / 2.0) * self.mean_standard_error()
        center = self.mean()
        return (center - half_width, center + half_width)
