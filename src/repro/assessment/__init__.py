"""Assessor-facing utilities (Sections 5 and 7 of the paper).

The paper's declared audience is safety assessors and regulators who must
translate process evidence into reliability claims.  This subpackage packages
the model's outputs in that vocabulary:

* :mod:`~repro.assessment.confidence` -- formal confidence claims of the form
  "P(PFD <= bound) >= confidence";
* :mod:`~repro.assessment.sil` -- mapping PFD bounds to Safety Integrity
  Levels (the standards-based practice the paper contrasts itself with);
* :mod:`~repro.assessment.beta_factor` -- the common-cause beta-factor view of
  the diversity gain, including the guaranteed bound the paper highlights as
  being of practical use;
* :mod:`~repro.assessment.bayesian` -- Bayesian updating of the model-derived
  PFD distribution with operational evidence (failure-free demands), the
  extension the paper's conclusions call for;
* :mod:`~repro.assessment.report` -- a complete textual / JSON assessment
  report combining all of the above (also exposed by the ``python -m repro``
  command line).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "repro.assessment.bayesian": ("BayesianPfdAssessment",),
    "repro.assessment.beta_factor": ("beta_factor", "guaranteed_beta_factor"),
    "repro.assessment.confidence": ("ConfidenceClaim", "claim_from_system"),
    "repro.assessment.report": ("AssessmentReport", "SystemAssessment", "assess"),
    "repro.assessment.sil": (
        "SIL_BANDS", "SafetyIntegrityLevel", "required_pfd_bound", "sil_claim_for_system",
        "sil_for_pfd",
    ),
})
