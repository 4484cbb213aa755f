"""Streaming result container for chunked Monte Carlo simulation.

It mirrors :class:`repro.montecarlo.results.SimulationResult` (and pairs the
same way, in a :class:`~repro.montecarlo.results.PairSimulationResult`) but
is backed by the constant-memory accumulators of
:mod:`repro.stats.streaming` instead of full sample arrays, so it scales to
arbitrarily many replications.  Summary statistics (means, standard
deviations, zero-probabilities and the gain ratios built from them) are exact;
CDF, exceedance and percentile queries come from a fixed-bin histogram and are
exact to within one bin width (the atom at PFD = 0 is tracked exactly).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.stats.normal import normal_quantile
from repro.stats.streaming import StreamingHistogram, StreamingMoments

__all__ = ["StreamingSimulationResult"]


@dataclass(frozen=True)
class StreamingSimulationResult:
    """Streaming summaries for one kind of system (single version or 1-out-of-r).

    Attributes
    ----------
    pfds:
        Streaming moments (mean, variance, extrema, exact zero count) of the
        simulated PFD values.
    pfd_histogram:
        Fixed-bin histogram of the simulated PFD values over
        ``[0, sum(q_i)]``.
    fault_counts:
        Streaming moments of the simulated (common-)fault counts; its zero
        count is the number of fault-free replications.
    replications:
        Number of simulated developments.
    """

    pfds: StreamingMoments
    pfd_histogram: StreamingHistogram
    fault_counts: StreamingMoments
    replications: int

    def mean_pfd(self) -> float:
        """Sample mean of the simulated PFD."""
        return self.pfds.mean()

    def std_pfd(self) -> float:
        """Sample standard deviation of the simulated PFD."""
        return self.pfds.std()

    def prob_any_fault(self) -> float:
        """Fraction of replications containing at least one fault."""
        return 1.0 - self.fault_counts.fraction_zero()

    def prob_pfd_zero(self) -> float:
        """Fraction of replications with PFD exactly zero."""
        return self.pfds.fraction_zero()

    def prob_pfd_exceeds(self, threshold: float) -> float:
        """Fraction of replications whose PFD exceeds ``threshold`` (histogram resolution)."""
        return self.pfd_histogram.exceedance_probability(threshold)

    def pfd_percentile(self, level: float) -> float:
        """Empirical percentile of the simulated PFD (histogram resolution)."""
        return self.pfd_histogram.quantile(level)

    def mean_pfd_confidence_interval(self, confidence: float = 0.95) -> tuple[float, float]:
        """Normal-theory confidence interval for the mean PFD."""
        if not 0.0 < confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1), got {confidence}")
        half_width = normal_quantile(0.5 + confidence / 2.0) * self.pfds.standard_error()
        center = self.mean_pfd()
        return (center - half_width, center + half_width)
