"""Statistical substrate for the fault-creation-process model.

This subpackage provides the probability machinery that the core model in
:mod:`repro.core` is built on:

* :class:`~repro.stats.poisson_binomial.PoissonBinomial` -- the distribution of
  the number of faults present in a version (a sum of independent, non-identical
  Bernoulli variables).
* :class:`~repro.stats.discrete.DiscreteDistribution` -- finite discrete
  distributions with convolution, and
  :class:`~repro.stats.discrete.DistributionBracket` -- the guaranteed
  lower and upper bounds the exact distribution of the probability of
  failure on demand (PFD) is computed as.
* :mod:`~repro.stats.normal` -- normal-distribution helpers used by the paper's
  Section 5 (confidence bounds under the normal approximation), including a
  Berry-Esseen error bound for judging the approximation quality.
* :mod:`~repro.stats.empirical` -- empirical CDFs, quantiles and bootstrap
  confidence intervals for Monte Carlo output.
* :mod:`~repro.stats.streaming` -- single-pass accumulators (moments and
  histograms) for chunked Monte Carlo at replication counts where storing
  every sample is impractical.
* :mod:`~repro.stats.rng` -- reproducible random-generator management.

Importing this package loads numpy only.  The scipy-backed helpers (the
normal CDF and quantile, the Poisson-binomial normal approximations and
normal-theory confidence intervals) import scipy on their first call, so a
process that never uses them never pays for scipy.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "repro.stats.discrete": ("DiscreteDistribution", "DistributionBracket"),
    "repro.stats.empirical": (
        "EmpiricalDistribution", "bootstrap_confidence_interval", "empirical_cdf",
        "empirical_quantile",
    ),
    "repro.stats.normal": (
        "NormalApproximation", "berry_esseen_bound", "normal_cdf", "normal_quantile",
    ),
    "repro.stats.poisson_binomial": ("PoissonBinomial",),
    "repro.stats.rng": ("default_rng",),
    "repro.stats.streaming": ("StreamingHistogram", "StreamingMoments"),
})
