"""Poisson-binomial distribution.

The number of potential faults actually present in a randomly developed
version -- the paper's random variable ``N1`` -- is a sum of independent but
*non-identically distributed* Bernoulli variables with success probabilities
``p_1 .. p_n``; this is the Poisson-binomial distribution.  The number of
*common* faults in an independently developed pair of versions, ``N2``, is
Poisson-binomial with success probabilities ``p_i**2`` (Section 2.2 of the
paper).

The exact probability mass function is computed with the standard dynamic
programming recursion, which is numerically stable (it only adds and multiplies
probabilities in ``[0, 1]``) and costs ``O(n^2)`` time and ``O(n)`` memory --
perfectly adequate for the fault counts of interest (up to a few thousand
potential faults).  A normal approximation and a refined (second-order,
skewness-corrected) normal approximation are also provided so the quality of
such approximations can be studied, mirroring the paper's use of the central
limit theorem in Section 5.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["PoissonBinomial"]


def _validate_probabilities(probabilities: np.ndarray) -> np.ndarray:
    array = np.asarray(probabilities, dtype=float)
    if array.ndim != 1:
        raise ValueError(f"probabilities must be a 1-D array, got shape {array.shape}")
    if array.size == 0:
        raise ValueError("probabilities must contain at least one entry")
    if np.any(~np.isfinite(array)):
        raise ValueError("probabilities must be finite")
    if np.any((array < 0.0) | (array > 1.0)):
        raise ValueError("probabilities must lie in [0, 1]")
    return array


@dataclass(frozen=True)
class PoissonBinomial:
    """Distribution of a sum of independent Bernoulli(p_i) variables.

    Parameters
    ----------
    probabilities:
        Success probability of each Bernoulli component, each in ``[0, 1]``.

    Notes
    -----
    Instances are immutable; the exact PMF is computed lazily and cached.
    """

    probabilities: np.ndarray
    _pmf_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "probabilities", _validate_probabilities(self.probabilities))

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        """Number of Bernoulli components (the paper's ``n``, number of potential faults)."""
        return int(self.probabilities.size)

    def mean(self) -> float:
        """Expected count, ``sum_i p_i``."""
        return float(np.sum(self.probabilities))

    def variance(self) -> float:
        """Variance of the count, ``sum_i p_i (1 - p_i)``."""
        p = self.probabilities
        return float(np.sum(p * (1.0 - p)))

    def std(self) -> float:
        """Standard deviation of the count."""
        return float(np.sqrt(self.variance()))

    def skewness(self) -> float:
        """Standardised third central moment (0 when the variance is 0)."""
        p = self.probabilities
        variance = self.variance()
        if variance == 0.0:
            return 0.0
        third = float(np.sum(p * (1.0 - p) * (1.0 - 2.0 * p)))
        return third / variance**1.5

    # ------------------------------------------------------------------ #
    # Exact distribution
    # ------------------------------------------------------------------ #
    def pmf(self) -> np.ndarray:
        """Exact probability mass function over counts ``0 .. n``.

        Uses the dynamic-programming recursion: after processing component
        ``i`` the vector holds the distribution of the partial sum.  The result
        is cached on first use and returned as a read-only view (no defensive
        copy per call); use ``pmf().copy()`` if a writable array is needed.
        """
        cached = self._pmf_cache.get("pmf")
        if cached is not None:
            return cached
        distribution = np.zeros(self.n + 1, dtype=float)
        distribution[0] = 1.0
        for probability in self.probabilities:
            shifted = np.empty_like(distribution)
            shifted[0] = 0.0
            shifted[1:] = distribution[:-1]
            distribution = distribution * (1.0 - probability) + shifted * probability
        # Guard against tiny negative values from floating-point cancellation.
        distribution = np.clip(distribution, 0.0, None)
        total = distribution.sum()
        if total > 0:
            distribution = distribution / total
        distribution.setflags(write=False)
        self._pmf_cache["pmf"] = distribution
        return distribution

    def cdf(self) -> np.ndarray:
        """Exact cumulative distribution function over counts ``0 .. n`` (read-only, cached)."""
        cached = self._pmf_cache.get("cdf")
        if cached is None:
            cached = np.cumsum(self.pmf())
            cached.setflags(write=False)
            self._pmf_cache["cdf"] = cached
        return cached

    def prob_zero(self) -> float:
        """``P(count = 0) = prod_i (1 - p_i)`` -- the probability of a fault-free version."""
        return float(np.prod(1.0 - self.probabilities))

    def prob_positive(self) -> float:
        """``P(count > 0)`` -- the probability of at least one fault (the paper's risk)."""
        return 1.0 - self.prob_zero()

    def prob_at_least(self, k: int) -> float:
        """``P(count >= k)`` computed from the exact PMF."""
        if k <= 0:
            return 1.0
        if k > self.n:
            return 0.0
        return float(np.sum(self.pmf()[k:]))

    def prob_exactly(self, k: int) -> float:
        """``P(count = k)`` computed from the exact PMF."""
        if k < 0 or k > self.n:
            return 0.0
        return float(self.pmf()[k])

    # ------------------------------------------------------------------ #
    # Approximations
    # ------------------------------------------------------------------ #
    def normal_approximation_cdf(self, k: float, continuity_correction: bool = True) -> float:
        """Normal approximation to ``P(count <= k)``.

        Used to study how well central-limit-theorem style reasoning (the basis
        of the paper's Section 5) describes the fault-count distribution.
        """
        from scipy import stats as sps

        variance = self.variance()
        if variance == 0.0:
            return 1.0 if k >= self.mean() else 0.0
        x = k + 0.5 if continuity_correction else k
        z = (x - self.mean()) / np.sqrt(variance)
        return float(sps.norm.cdf(z))

    def refined_normal_approximation_cdf(self, k: float) -> float:
        """Second-order (skewness-corrected) normal approximation to ``P(count <= k)``.

        Implements the refined normal approximation of Volkova (1996), commonly
        used for Poisson-binomial tail estimates.  More accurate than the plain
        normal approximation when the component probabilities are small and the
        distribution is noticeably skewed.
        """
        from scipy import stats as sps

        variance = self.variance()
        if variance == 0.0:
            return 1.0 if k >= self.mean() else 0.0
        sigma = np.sqrt(variance)
        gamma = self.skewness()
        x = (k + 0.5 - self.mean()) / sigma
        value = sps.norm.cdf(x) + gamma * (1.0 - x**2) * sps.norm.pdf(x) / 6.0
        return float(min(1.0, max(0.0, value)))

    def poisson_approximation_prob_zero(self) -> float:
        """Poisson (Le Cam) approximation to ``P(count = 0)``, ``exp(-sum p_i)``.

        Relevant to the paper's "very high-quality software" regime (Section 4)
        where all ``p_i`` are small and the fault count is approximately
        Poisson with mean ``sum p_i``.
        """
        return float(np.exp(-np.sum(self.probabilities)))

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #
    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` independent counts by simulating every Bernoulli component."""
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        if size == 0:
            return np.zeros(0, dtype=int)
        uniforms = rng.random((size, self.n))
        return np.sum(uniforms < self.probabilities[np.newaxis, :], axis=1).astype(int)

    # ------------------------------------------------------------------ #
    # Derived distributions used by the paper
    # ------------------------------------------------------------------ #
    def squared(self) -> "PoissonBinomial":
        """Distribution with every success probability squared.

        This is exactly the relationship between the single-version fault count
        ``N1`` (probabilities ``p_i``) and the common-fault count ``N2`` of an
        independently developed pair (probabilities ``p_i**2``), Section 2.2.
        """
        return PoissonBinomial(self.probabilities**2)

    def powered(self, exponent: int) -> "PoissonBinomial":
        """Distribution with every success probability raised to ``exponent``.

        Generalises :meth:`squared` to ``r``-version systems: a fault is common
        to all ``r`` independently developed versions with probability
        ``p_i**r``.
        """
        if exponent < 1:
            raise ValueError(f"exponent must be >= 1, got {exponent}")
        return PoissonBinomial(self.probabilities**exponent)
