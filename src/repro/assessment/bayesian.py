"""Bayesian assessment of a system's PFD from operational evidence.

The paper's conclusions recommend "combining this kind of models with
inference from observations during a specific project ... it would seem a good
idea to apply a family of prior distributions for a product's reliability
parameters that are based on this plausible physical model rather than chosen
... for computational convenience only."

:class:`BayesianPfdAssessment` implements exactly that: the *prior* for the
system PFD is the (discrete) distribution implied by the fault-creation model,
and observing ``t`` failure-free demands re-weights each possible PFD value
``theta`` by the likelihood ``(1 - theta)^t`` (demands are assumed independent
given the PFD).  Observed failures are supported through the general binomial
likelihood.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.fault_model import FaultModel
from repro.core.pfd_distribution import exact_pfd_distribution
from repro.stats.discrete import DiscreteDistribution

__all__ = ["BayesianPfdAssessment"]


@dataclass(frozen=True)
class BayesianPfdAssessment:
    """Bayesian inference on a system's PFD with a model-derived prior.

    Parameters
    ----------
    prior:
        Discrete prior distribution over possible PFD values, normally the
        conservative upper end of the bracket that
        :func:`repro.core.pfd_distribution.exact_pfd_distribution` computes.
    """

    prior: DiscreteDistribution

    @staticmethod
    def from_model(
        model: FaultModel, versions: int = 2, max_support: int | None = 4096
    ) -> "BayesianPfdAssessment":
        """Build the assessment with the fault-creation model's PFD distribution as prior.

        The prior is the upper end of the PFD bracket -- the distribution
        itself when its full support fits ``max_support``, otherwise one
        that never puts less mass above any PFD value -- so posterior bounds
        err on the conservative side.
        """
        bracket = exact_pfd_distribution(model, versions, max_support)
        return BayesianPfdAssessment(prior=bracket.upper())

    def posterior(self, demands: int, failures: int = 0) -> DiscreteDistribution:
        """Posterior PFD distribution after observing operational demands.

        Parameters
        ----------
        demands:
            Number of observed demands.
        failures:
            Number of observed system failures among them (default 0, the
            failure-free case emphasised by the paper).
        """
        if demands < 0:
            raise ValueError(f"demands must be non-negative, got {demands}")
        if not 0 <= failures <= demands:
            raise ValueError(
                f"failures must be between 0 and demands ({demands}), got {failures}"
            )
        support = self.prior.support
        successes = demands - failures
        # Likelihood of each candidate PFD value under a binomial observation.
        likelihood = np.where(
            (support > 0.0) | (failures == 0),
            np.power(support, failures) * np.power(1.0 - support, successes),
            0.0,
        )
        weights = self.prior.probabilities * likelihood
        total = weights.sum()
        if total <= 0.0:
            raise ValueError(
                "the observations have zero probability under every prior support point; "
                "the prior and the evidence are incompatible"
            )
        return DiscreteDistribution(support, weights / total)

    def posterior_mean(self, demands: int, failures: int = 0) -> float:
        """Posterior mean PFD."""
        return self.posterior(demands, failures).mean()

    def posterior_bound(self, confidence: float, demands: int, failures: int = 0) -> float:
        """Posterior confidence bound on the PFD (posterior quantile)."""
        return self.posterior(demands, failures).quantile(confidence)

    def prob_requirement_met(self, required_bound: float, demands: int, failures: int = 0) -> float:
        """Posterior probability that the PFD does not exceed ``required_bound``."""
        if required_bound < 0.0:
            raise ValueError(f"required_bound must be non-negative, got {required_bound}")
        posterior = self.posterior(demands, failures)
        return float(posterior.cdf(required_bound))

    def demands_needed_for_confidence(
        self, required_bound: float, confidence: float, max_demands: int = 10_000_000
    ) -> int | None:
        """Smallest number of failure-free demands establishing the requirement.

        Returns the smallest ``t`` such that the posterior probability of
        ``PFD <= required_bound`` after ``t`` failure-free demands reaches
        ``confidence``, or ``None`` if even ``max_demands`` failure-free
        demands would not suffice (e.g. because the prior puts too much mass
        exactly at large PFD values).
        """
        if not 0.0 < confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1), got {confidence}")
        if self.prob_requirement_met(required_bound, 0) >= confidence:
            return 0
        low, high = 0, 1
        # Exponential search for an upper bracket, then bisection.
        while high <= max_demands and self.prob_requirement_met(required_bound, high) < confidence:
            low, high = high, high * 2
        if high > max_demands:
            if self.prob_requirement_met(required_bound, max_demands) < confidence:
                return None
            high = max_demands
        while low + 1 < high:
            middle = (low + high) // 2
            if self.prob_requirement_met(required_bound, middle) >= confidence:
                high = middle
            else:
                low = middle
        return high
