"""Result containers for Monte Carlo simulation of the fault creation process."""

from __future__ import annotations

from dataclasses import dataclass

from repro.montecarlo.streaming import StreamingSimulationResult
from repro.stats.empirical import EmpiricalDistribution

__all__ = ["SimulationResult", "PairSimulationResult"]


@dataclass(frozen=True)
class SimulationResult:
    """Simulated PFD values for one kind of system (single version or 1-out-of-r).

    Attributes
    ----------
    pfds:
        Empirical distribution of the simulated PFD values.
    fault_counts:
        Empirical distribution of the simulated (common-)fault counts.
    replications:
        Number of simulated developments.
    """

    pfds: EmpiricalDistribution
    fault_counts: EmpiricalDistribution
    replications: int

    def mean_pfd(self) -> float:
        """Sample mean of the simulated PFD."""
        return self.pfds.mean()

    def std_pfd(self) -> float:
        """Sample standard deviation of the simulated PFD."""
        return self.pfds.std()

    def prob_any_fault(self) -> float:
        """Fraction of replications containing at least one fault."""
        return 1.0 - self.fault_counts.prob_zero()

    def prob_pfd_exceeds(self, threshold: float) -> float:
        """Fraction of replications whose PFD exceeds ``threshold``."""
        return self.pfds.exceedance_probability(threshold)

    def pfd_percentile(self, level: float) -> float:
        """Empirical percentile of the simulated PFD."""
        return self.pfds.quantile(level)

    def mean_pfd_confidence_interval(self, confidence: float = 0.95) -> tuple[float, float]:
        """Normal-theory confidence interval for the mean PFD."""
        return self.pfds.mean_confidence_interval(confidence)


@dataclass(frozen=True)
class PairSimulationResult:
    """Joint simulation results for single versions and the 1-out-of-2 system.

    Because both sets of statistics come from the same simulated developments,
    paired comparisons (e.g. the risk ratio of eq. (10)) have lower variance
    than comparing two independent simulations.  The sides are
    :class:`SimulationResult` samples or, from the streaming engine paths,
    :class:`~repro.montecarlo.streaming.StreamingSimulationResult` tallies.
    """

    single: SimulationResult | StreamingSimulationResult
    system: SimulationResult | StreamingSimulationResult

    def mean_ratio(self) -> float:
        """Simulated ``mu_2 / mu_1``."""
        denominator = self.single.mean_pfd()
        if denominator == 0.0:
            return 1.0
        return self.system.mean_pfd() / denominator

    def std_ratio(self) -> float:
        """Simulated ``sigma_2 / sigma_1``."""
        denominator = self.single.std_pfd()
        if denominator == 0.0:
            return 1.0
        return self.system.std_pfd() / denominator

    def risk_ratio(self) -> float:
        """Simulated ``P(N_2 > 0) / P(N_1 > 0)`` (eq. (10))."""
        denominator = self.single.prob_any_fault()
        if denominator == 0.0:
            return 1.0
        return self.system.prob_any_fault() / denominator

    def bound_ratio(self, k: float) -> float:
        """Simulated ``(mu_2 + k sigma_2) / (mu_1 + k sigma_1)``."""
        denominator = self.single.mean_pfd() + k * self.single.std_pfd()
        if denominator == 0.0:
            return 1.0
        return (self.system.mean_pfd() + k * self.system.std_pfd()) / denominator

    def summary(self) -> dict:
        """Dictionary of the headline simulated quantities."""
        return {
            "replications": self.single.replications,
            "mean_single": self.single.mean_pfd(),
            "mean_system": self.system.mean_pfd(),
            "std_single": self.single.std_pfd(),
            "std_system": self.system.std_pfd(),
            "mean_ratio": self.mean_ratio(),
            "std_ratio": self.std_ratio(),
            "risk_ratio": self.risk_ratio(),
        }
