"""Sensitivity of the model's predictions to its assumptions (Section 6).

The paper defends three simplifying assumptions -- independent fault
introduction, non-overlapping failure regions, and a one-to-one mapping from
faults to failure regions -- and argues their violation does not invalidate
the model's practical conclusions.  This subpackage provides the machinery to
*check* those arguments quantitatively:

* :mod:`~repro.sensitivity.correlation` -- compare the independent-model
  predictions with simulation under positively / negatively correlated fault
  introduction (Section 6.1);
* :mod:`~repro.sensitivity.overlap` -- evaluate versions whose failure
  regions overlap in the demand space, where the PFD is the measure of the
  *union* of the regions present, and quantify how pessimistic the
  non-overlap sum is (Section 6.2);
* :mod:`~repro.sensitivity.robustness` -- convenience sweeps combining both.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "repro.sensitivity.correlation": (
        "CorrelationSensitivityResult", "correlation_sensitivity",
    ),
    "repro.sensitivity.overlap": ("OverlapSensitivityResult", "OverlappingRegionModel"),
    "repro.sensitivity.robustness": ("RobustnessReport", "robustness_report"),
})
