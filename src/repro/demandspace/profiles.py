"""Operational profiles over a demand space.

Each demand "has a certain (possibly unknown) probability of happening during
the operation of the controlled system" (Section 2.1).  An operational profile
is that probability distribution.  The fault-creation model's ``q_i``
parameters are the profile probabilities of the corresponding failure regions.

Profiles provided:

* :class:`ProductProfile` -- independent per-dimension marginals over a
  continuous demand space (uniform or truncated-normal marginals);
* :class:`MixtureProfile` -- finite mixtures of profiles, for multi-modal plant
  behaviour (e.g. distinct classes of plant upsets);
* :class:`GridProfile` -- a discretised profile over an explicit grid of
  demands, used for deterministic numerical integration;
* :class:`EmpiricalProfile` -- a profile defined by a finite set of recorded
  demands (a stand-in for plant operating logs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.demandspace.space import ContinuousDemandSpace, DiscreteDemandSpace

if TYPE_CHECKING:
    from scipy import stats as sps

__all__ = [
    "OperationalProfile",
    "UniformMarginal",
    "TruncatedNormalMarginal",
    "ProductProfile",
    "MixtureProfile",
    "GridProfile",
    "EmpiricalProfile",
]


class OperationalProfile:
    """Abstract base class: a probability distribution over demands."""

    @property
    def dimension(self) -> int:
        """Dimensionality of the demands generated by the profile."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` demands; returns an array of shape ``(size, dimension)``."""
        raise NotImplementedError


@dataclass(frozen=True)
class UniformMarginal:
    """Uniform marginal distribution on ``[lower, upper]``."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not self.lower < self.upper:
            raise ValueError(f"lower ({self.lower}) must be below upper ({self.upper})")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(self.lower, self.upper, size=size)

    def cdf(self, x: np.ndarray) -> np.ndarray:
        """Marginal CDF evaluated element-wise."""
        x = np.asarray(x, dtype=float)
        return np.clip((x - self.lower) / (self.upper - self.lower), 0.0, 1.0)

    def interval_probability(self, low: float, high: float) -> float:
        """Probability of the interval ``[low, high]`` under the marginal."""
        if high < low:
            return 0.0
        return float(self.cdf(np.asarray(high)) - self.cdf(np.asarray(low)))


@dataclass(frozen=True)
class TruncatedNormalMarginal:
    """Normal distribution truncated to ``[lower, upper]``.

    Models sensed plant variables that cluster around a nominal operating point
    but are physically bounded -- the typical situation for protection-system
    demand variables.
    """

    mean: float
    std: float
    lower: float
    upper: float

    def __post_init__(self) -> None:
        if self.std <= 0.0:
            raise ValueError(f"std must be positive, got {self.std}")
        if not self.lower < self.upper:
            raise ValueError(f"lower ({self.lower}) must be below upper ({self.upper})")

    def _distribution(self) -> sps.rv_continuous:
        from scipy import stats as sps

        a = (self.lower - self.mean) / self.std
        b = (self.upper - self.mean) / self.std
        return sps.truncnorm(a, b, loc=self.mean, scale=self.std)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self._distribution().rvs(size=size, random_state=rng)

    def cdf(self, x: np.ndarray) -> np.ndarray:
        """Marginal CDF evaluated element-wise."""
        return self._distribution().cdf(np.asarray(x, dtype=float))

    def interval_probability(self, low: float, high: float) -> float:
        """Probability of the interval ``[low, high]`` under the marginal."""
        if high < low:
            return 0.0
        distribution = self._distribution()
        return float(distribution.cdf(high) - distribution.cdf(low))


@dataclass(frozen=True)
class ProductProfile(OperationalProfile):
    """Independent per-dimension marginals over a continuous demand space."""

    space: ContinuousDemandSpace
    marginals: tuple

    def __init__(self, space: ContinuousDemandSpace, marginals: Sequence):
        if len(marginals) != space.dimension:
            raise ValueError(
                f"expected {space.dimension} marginals, got {len(marginals)}"
            )
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "marginals", tuple(marginals))

    @property
    def dimension(self) -> int:
        return self.space.dimension

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        columns = [marginal.sample(rng, size) for marginal in self.marginals]
        return np.stack(columns, axis=1)

    def box_probability(self, lower: np.ndarray, upper: np.ndarray) -> float:
        """Analytic probability of an axis-aligned box (product of interval masses)."""
        lower = np.atleast_1d(np.asarray(lower, dtype=float))
        upper = np.atleast_1d(np.asarray(upper, dtype=float))
        if lower.size != self.dimension or upper.size != self.dimension:
            raise ValueError("box bounds must match the profile dimension")
        probability = 1.0
        for index, marginal in enumerate(self.marginals):
            probability *= marginal.interval_probability(lower[index], upper[index])
        return float(probability)

    @staticmethod
    def uniform(space: ContinuousDemandSpace) -> "ProductProfile":
        """The uniform profile over a continuous demand space."""
        marginals = [
            UniformMarginal(float(space.lower[i]), float(space.upper[i]))
            for i in range(space.dimension)
        ]
        return ProductProfile(space, marginals)


@dataclass(frozen=True)
class MixtureProfile(OperationalProfile):
    """A finite mixture of operational profiles.

    Models plants whose demands arise from qualitatively different upset
    classes, each with its own distribution and relative frequency.
    """

    components: tuple[OperationalProfile, ...]
    weights: np.ndarray

    def __init__(self, components: Sequence[OperationalProfile], weights: Sequence[float]):
        if len(components) == 0:
            raise ValueError("mixture requires at least one component")
        if len(components) != len(weights):
            raise ValueError("components and weights must have the same length")
        weight_array = np.asarray(weights, dtype=float)
        if np.any(weight_array < 0.0):
            raise ValueError("weights must be non-negative")
        total = weight_array.sum()
        if total <= 0.0:
            raise ValueError("weights must not all be zero")
        dimensions = {component.dimension for component in components}
        if len(dimensions) != 1:
            raise ValueError("all mixture components must share the same dimension")
        object.__setattr__(self, "components", tuple(components))
        object.__setattr__(self, "weights", weight_array / total)

    @property
    def dimension(self) -> int:
        return self.components[0].dimension

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        if size == 0:
            return np.zeros((0, self.dimension))
        choices = rng.choice(len(self.components), size=size, p=self.weights)
        demands = np.zeros((size, self.dimension))
        for index, component in enumerate(self.components):
            mask = choices == index
            count = int(mask.sum())
            if count:
                demands[mask] = component.sample(rng, count)
        return demands


@dataclass(frozen=True)
class GridProfile(OperationalProfile):
    """A profile over an explicit, finite grid of demand points.

    Enables exact computation of region probabilities by summation, which the
    test-suite uses as ground truth for Monte Carlo estimates.
    """

    space: DiscreteDemandSpace
    probabilities: np.ndarray

    def __post_init__(self) -> None:
        probabilities = np.asarray(self.probabilities, dtype=float)
        if probabilities.ndim != 1 or probabilities.size != self.space.size:
            raise ValueError(
                f"probabilities must have length {self.space.size}, got {probabilities.shape}"
            )
        if np.any(probabilities < 0.0):
            raise ValueError("probabilities must be non-negative")
        total = probabilities.sum()
        if total <= 0.0:
            raise ValueError("probabilities must not all be zero")
        object.__setattr__(self, "probabilities", probabilities / total)

    @property
    def dimension(self) -> int:
        return self.space.dimension

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        indices = rng.choice(self.space.size, size=size, p=self.probabilities)
        return self.space.points[indices]

    def region_probability(self, region) -> float:
        """Exact probability that a demand falls inside ``region``."""
        membership = region.contains(self.space.points)
        return float(np.sum(self.probabilities[membership]))

    @staticmethod
    def uniform(space: DiscreteDemandSpace) -> "GridProfile":
        """Uniform profile over a discrete demand space."""
        return GridProfile(space, np.full(space.size, 1.0 / space.size))


@dataclass(frozen=True)
class EmpiricalProfile(OperationalProfile):
    """A profile defined by resampling a finite set of recorded demands.

    Stands in for plant operating records: sampling draws demands with
    replacement from the recorded set.
    """

    demands: np.ndarray

    def __post_init__(self) -> None:
        demands = np.asarray(self.demands, dtype=float)
        if demands.ndim == 1:
            demands = demands.reshape(-1, 1)
        if demands.ndim != 2 or demands.shape[0] == 0:
            raise ValueError("demands must be a non-empty 2-D array")
        object.__setattr__(self, "demands", demands)

    @property
    def dimension(self) -> int:
        return int(self.demands.shape[1])

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        indices = rng.integers(0, self.demands.shape[0], size=size)
        return self.demands[indices]

    def region_probability(self, region) -> float:
        """Fraction of the recorded demands inside ``region``."""
        membership = region.contains(self.demands)
        return float(np.mean(membership))
