"""High-level system facades.

:class:`SingleVersionSystem` and :class:`OneOutOfTwoSystem` wrap a
:class:`~repro.core.fault_model.FaultModel` and expose the paper's quantities
-- mean PFD, standard deviation, probability of (common) faults, exact and
approximate PFD distributions, confidence bounds -- behind one object each, so
example scripts and the assessment module can speak in terms of *systems*
rather than formulas.  Both share the implementation through a common base
parameterised by the number of independently developed versions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.fault_model import FaultModel
from repro.core.moments import pfd_moments
from repro.core.no_common_faults import (
    fault_count_distribution,
    prob_any_common_fault,
    prob_fault_free_r_versions,
)
from repro.core.normal_approximation import berry_esseen_error, normal_approximation
from repro.core.pfd_distribution import (
    exact_pfd_distribution,
    pfd_exceedance_probability,
    pfd_percentile,
)
from repro.stats.discrete import DiscreteDistribution
from repro.stats.normal import NormalApproximation
from repro.stats.poisson_binomial import PoissonBinomial

__all__ = ["SingleVersionSystem", "OneOutOfTwoSystem", "OneOutOfRSystem"]


@dataclass(frozen=True)
class OneOutOfRSystem:
    """A 1-out-of-r system of ``versions`` independently developed versions.

    With ``versions = 1`` this is a single-version (non-diverse) system; with
    ``versions = 2`` it is the paper's dual-channel protection system of
    Fig. 1, in which the system fails on a demand only if *every* channel
    fails on it.
    """

    model: FaultModel
    versions: int

    def __post_init__(self) -> None:
        if self.versions < 1:
            raise ValueError(f"versions must be a positive integer, got {self.versions}")

    # -- moments ------------------------------------------------------- #
    def mean_pfd(self) -> float:
        """Mean probability of failure on demand."""
        return pfd_moments(self.model, self.versions).mean

    def variance_pfd(self) -> float:
        """Variance of the probability of failure on demand."""
        return pfd_moments(self.model, self.versions).variance

    def std_pfd(self) -> float:
        """Standard deviation of the probability of failure on demand."""
        return pfd_moments(self.model, self.versions).std

    # -- fault counts --------------------------------------------------- #
    def prob_fault_free(self) -> float:
        """Probability that no fault is common to all channels."""
        return prob_fault_free_r_versions(self.model, self.versions)

    def prob_any_fault(self) -> float:
        """Probability that at least one fault is common to all channels."""
        return prob_any_common_fault(self.model, self.versions)

    def fault_count_distribution(self) -> PoissonBinomial:
        """Distribution of the number of faults common to all channels."""
        return fault_count_distribution(self.model, self.versions)

    # -- distributions and bounds --------------------------------------- #
    def pfd_distribution(self, max_support: int | None = 4096) -> DiscreteDistribution:
        """Distribution of the system PFD: the conservative upper end of its bracket.

        It is exact when the full support fits ``max_support``; otherwise it
        stochastically dominates the PFD, so its quantiles and exceedances
        never understate the true ones.
        """
        return exact_pfd_distribution(self.model, self.versions, max_support).upper()

    def normal_approximation(self) -> NormalApproximation:
        """Normal approximation to the PFD distribution (Section 5)."""
        return normal_approximation(self.model, self.versions)

    def normal_bound(self, confidence: float) -> float:
        """Confidence bound on the PFD under the normal approximation."""
        return self.normal_approximation().bound_for_confidence(confidence)

    def exact_bound(self, confidence: float, max_support: int | None = 4096) -> float:
        """Confidence bound on the PFD: the upper end of the exact percentile's bracket."""
        return pfd_percentile(self.model, confidence, self.versions, max_support)

    def prob_pfd_exceeds(self, threshold: float, max_support: int | None = 4096) -> float:
        """Probability that the system PFD exceeds a required bound ``theta_R``.

        The upper end of its bracket: never below the true probability.
        """
        return pfd_exceedance_probability(self.model, threshold, self.versions, max_support)

    def normal_approximation_error_bound(self) -> float:
        """Berry-Esseen bound on the normal-approximation error for this system."""
        return berry_esseen_error(self.model, self.versions)

    # -- sampling -------------------------------------------------------- #
    def sample_pfd(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Sample system PFD values by simulating the fault creation process.

        Each sample develops ``versions`` versions independently and sums the
        ``q_i`` of the faults common to all of them.
        """
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        present_probability = self.model.p ** self.versions
        uniforms = rng.random((size, self.model.n))
        common = uniforms < present_probability[np.newaxis, :]
        return common @ self.model.q


class SingleVersionSystem(OneOutOfRSystem):
    """A single-version (non-diverse) system."""

    def __init__(self, model: FaultModel):
        super().__init__(model=model, versions=1)


class OneOutOfTwoSystem(OneOutOfRSystem):
    """The paper's 1-out-of-2, two-version diverse system (Fig. 1)."""

    def __init__(self, model: FaultModel):
        super().__init__(model=model, versions=2)

    def single_channel(self) -> SingleVersionSystem:
        """The corresponding single-version system, for gain comparisons."""
        return SingleVersionSystem(self.model)
