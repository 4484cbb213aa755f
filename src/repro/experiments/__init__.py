"""Experiment substrate: synthetic multi-version experiments and canonical scenarios.

* :mod:`~repro.experiments.knight_leveson` -- a synthetic stand-in for the
  Knight-Leveson N-version programming experiment, used for the Section 7
  qualitative check ("diversity reduced not only the sample mean of the PFD of
  the 27 program versions produced, but also -- greatly -- its standard
  deviation");
* :mod:`~repro.experiments.scenarios` -- the parameterised fault models,
  failure-region layouts and profiles shared by the examples, tests and
  benchmark harness.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "repro.experiments.knight_leveson": (
        "NVersionExperimentResult", "SyntheticNVersionExperiment",
    ),
    "repro.experiments.scenarios": (
        "ProtectionSystemScenario", "SCENARIOS", "ScenarioEntry", "fig2_failure_regions",
        "get_scenario", "high_quality_scenario", "many_small_faults_scenario",
        "protection_system_model", "protection_system_scenario", "scenario_names",
    ),
})
