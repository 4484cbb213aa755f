"""Core model: the fault creation process of Popov & Strigini (DSN 2001).

This subpackage implements the paper's primary contribution -- a probabilistic
model of how design faults are created in independently developed software
versions, and what that implies for the reliability of a 1-out-of-2 diverse
system:

* :mod:`~repro.core.fault_model` -- the model parameters ``{p_i, q_i}``
  (Section 2.2);
* :mod:`~repro.core.moments` -- means and variances of the probability of
  failure on demand (PFD) of one-version and r-version systems
  (Section 3, eqs. (1)-(3), (5)-(8));
* :mod:`~repro.core.bounds` -- the inequality lemmas on means, standard
  deviations and confidence bounds (eqs. (4), (9), (11), (12));
* :mod:`~repro.core.no_common_faults` -- the probability of no common faults
  and the risk ratio of eq. (10) (Section 4);
* :mod:`~repro.core.process_improvement` -- effects of process improvement on
  the gain from diversity (Section 4.2, Appendices A and B);
* :mod:`~repro.core.normal_approximation` -- confidence bounds under the
  normal approximation (Section 5);
* :mod:`~repro.core.pfd_distribution` -- the exact distribution of the PFD;
* :mod:`~repro.core.gain` and :mod:`~repro.core.system` -- assessor-facing
  summaries and high-level system facades.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "repro.core.bounds": (
        "confidence_bound_from_bound", "confidence_bound_from_moments", "mean_gain_factor",
        "pmax_gain_table", "std_gain_factor",
    ),
    "repro.core.fault_model": ("FaultClass", "FaultModel"),
    "repro.core.gain": ("DiversityGainSummary", "diversity_gain_summary"),
    "repro.core.moments": (
        "PfdMoments", "pfd_moments", "r_version_mean", "r_version_variance",
        "single_version_mean", "single_version_std", "single_version_variance",
        "two_version_mean", "two_version_std", "two_version_variance",
    ),
    "repro.core.no_common_faults": (
        "fault_count_distribution", "prob_any_common_fault", "prob_any_fault",
        "prob_fault_free_pair", "prob_fault_free_version", "risk_ratio", "success_ratio",
    ),
    "repro.core.normal_approximation": (
        "berry_esseen_error", "bound_difference", "bound_gain_ratio",
        "normal_approximation",
    ),
    "repro.core.pfd_distribution": ("exact_pfd_distribution", "pfd_exceedance_probability"),
    "repro.core.process_improvement": (
        "proportional_improvement_derivative", "risk_ratio_gradient",
        "risk_ratio_partial_derivative", "single_fault_reversal_point",
        "two_fault_reversal_point",
    ),
    "repro.core.system": ("OneOutOfTwoSystem", "SingleVersionSystem"),
})
