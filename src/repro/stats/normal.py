"""Normal-distribution helpers for Section 5 of the paper.

Section 5 approximates the distribution of the PFD (a sum of many independent
two-point variables) with a normal distribution and expresses reliability
claims as confidence bounds of the form ``mu + k * sigma``.  This module
provides:

* the package's one home of the standard-normal CDF and quantile function
  (scalars or arrays, through ``scipy.special`` -- never ``scipy.stats``,
  whose import costs several times more), and wrappers with the vocabulary
  used in the paper ("confidence level", "k factor");
* :class:`NormalApproximation`, a small value object bundling a mean and a
  standard deviation with bound / confidence queries;
* a Berry-Esseen bound on the approximation error, so users can judge how much
  the central-limit-theorem step can be trusted for a given fault model
  (the paper itself warns that "we will not know in practice how good an
  approximation it is in a specific case").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "normal_cdf",
    "normal_quantile",
    "k_factor_for_confidence",
    "confidence_for_k_factor",
    "NormalApproximation",
    "berry_esseen_bound",
]

#: Absolute constant in the Berry-Esseen inequality for sums of independent,
#: non-identically distributed variables (Shevtsova, 2010).
BERRY_ESSEEN_CONSTANT = 0.5600


def normal_cdf(x):
    """Standard normal cumulative distribution function.

    A float for a scalar ``x``, an array for an array; equal to
    ``scipy.stats.norm.cdf``, which is ``scipy.special.ndtr`` underneath.
    """
    from scipy.special import ndtr

    value = ndtr(x)
    return float(value) if np.ndim(value) == 0 else value


def normal_quantile(level):
    """Standard normal quantile (inverse CDF) at probability ``level``.

    A float for a scalar ``level``, an array for an array; every level must
    lie in (0, 1).  Equal to ``scipy.stats.norm.ppf``, which is
    ``scipy.special.ndtri`` underneath.
    """
    from scipy.special import ndtri

    levels = np.asarray(level, dtype=float)
    if not np.all((levels > 0.0) & (levels < 1.0)):
        raise ValueError(f"level must be in (0, 1), got {level}")
    value = ndtri(levels)
    return float(value) if value.ndim == 0 else value


def k_factor_for_confidence(confidence: float) -> float:
    """The ``k`` such that ``P(Theta <= mu + k sigma) = confidence``.

    The paper works with statements like "the 99% confidence level corresponds
    to ``mu + 2.33 sigma``"; this function returns that 2.33.
    """
    return normal_quantile(confidence)


def confidence_for_k_factor(k: float) -> float:
    """The confidence level attached to the bound ``mu + k sigma``.

    E.g. ``confidence_for_k_factor(3) == 0.99865...`` as quoted in Section 5.1.
    """
    return normal_cdf(k)


@dataclass(frozen=True)
class NormalApproximation:
    """A normal approximation ``N(mean, std**2)`` to a PFD distribution.

    Provides the Section 5 bound and confidence queries.  ``std`` may be zero
    (a degenerate, perfectly predictable process); bounds then collapse to the
    mean.
    """

    mean: float
    std: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.mean):
            raise ValueError(f"mean must be finite, got {self.mean}")
        if not np.isfinite(self.std) or self.std < 0.0:
            raise ValueError(f"std must be finite and non-negative, got {self.std}")

    def bound(self, k: float) -> float:
        """The upper bound ``mean + k * std`` (the paper's ``mu + k sigma``)."""
        return self.mean + k * self.std

    def bound_for_confidence(self, confidence: float) -> float:
        """Upper bound holding with the given confidence under the approximation."""
        return self.bound(k_factor_for_confidence(confidence))

    def confidence_of_bound(self, threshold: float) -> float:
        """``P(Theta <= threshold)`` under the normal approximation."""
        if self.std == 0.0:
            return 1.0 if threshold >= self.mean else 0.0
        return normal_cdf((threshold - self.mean) / self.std)

    def exceedance_probability(self, threshold: float) -> float:
        """``P(Theta > threshold)`` under the normal approximation."""
        return 1.0 - self.confidence_of_bound(threshold)

    def percentile(self, level: float) -> float:
        """The ``level`` percentile of the approximating normal distribution."""
        if self.std == 0.0:
            return self.mean
        return self.mean + normal_quantile(level) * self.std


def berry_esseen_bound(
    third_absolute_moments: np.ndarray, variances: np.ndarray
) -> float:
    """Berry-Esseen bound on the normal-approximation error of a sum.

    For a sum of independent, zero-mean variables with variances ``sigma_i^2``
    and third absolute central moments ``rho_i``, the maximum absolute error of
    the normal approximation to the sum's CDF is at most
    ``C * sum(rho_i) / (sum(sigma_i^2))**1.5`` with ``C`` =
    :data:`BERRY_ESSEEN_CONSTANT`.

    For the fault-creation model the ``i``-th summand is ``q_i`` with
    probability ``p_i`` and 0 otherwise, so after centring:

    * ``sigma_i^2 = p_i (1 - p_i) q_i^2``
    * ``rho_i     = p_i (1 - p_i) (p_i^2 + (1 - p_i)^2) q_i^3``

    Returns ``inf`` when the total variance is zero (the bound is vacuous).
    """
    rho = np.asarray(third_absolute_moments, dtype=float)
    var = np.asarray(variances, dtype=float)
    if rho.shape != var.shape:
        raise ValueError("third_absolute_moments and variances must have the same shape")
    if np.any(rho < 0.0) or np.any(var < 0.0):
        raise ValueError("moments must be non-negative")
    total_variance = float(np.sum(var))
    if total_variance <= 0.0:
        return float("inf")
    return float(BERRY_ESSEEN_CONSTANT * np.sum(rho) / total_variance**1.5)
