"""repro: a reproduction of Popov & Strigini (DSN 2001).

"The Reliability of Diverse Systems: a Contribution using Modelling of the
Fault Creation Process" models how design faults arise in independently
developed software versions and what that implies for 1-out-of-2 diverse
(two-channel) systems.  This package implements the model, its analytical
results, the substrates needed to exercise it (demand spaces, version
generation, adjudication, Monte Carlo simulation, the Eckhardt-Lee /
Littlewood-Miller baselines), and assessor-facing utilities.

Quick start -- the unified evaluation API::

    import numpy as np
    from repro import FaultModel, evaluate, evaluate_batch

    model = FaultModel(p=np.array([0.05, 0.02, 0.01]),
                       q=np.array([1e-4, 5e-4, 2e-3]))

    # One dispatch path for every method: moments, exact, normal, bounds,
    # montecarlo, tail-quantile, ... (``repro methods`` lists them all).
    result = evaluate(model, "moments")
    print(result["mean_system"], result["std_system"])
    print(evaluate(model, "tail-quantile", level=0.999)["tail_quantile"])

    # Many methods on one model, each returning a typed,
    # JSON-round-trippable EvaluationResult.
    for res in evaluate_batch(model, ["moments", "bounds",
                                      ("montecarlo", {"replications": 50_000})],
                              seed=7):
        print(res.method, res.metric_dict())

Registering a custom method makes it available everywhere at once -- the
CLI (``repro evaluate``/``repro methods``), study specs and
:func:`repro.evaluate`::

    from repro.api import OptionSpec, register_method

    @register_method("mean-only",
                     options=(OptionSpec("versions", "int", 2),),
                     description="just the system mean")
    def _mean_only(model, options, rng):
        from repro.core.moments import pfd_moments
        return {"mean": pfd_moments(model, int(options["versions"])).mean}

The lower-level facades remain available for direct use::

    from repro import OneOutOfTwoSystem, diversity_gain_summary

    system = OneOutOfTwoSystem(model)
    print(system.mean_pfd(), system.normal_bound(0.99))
    print(diversity_gain_summary(model).as_dict())

The subpackages map onto the paper as follows:

==============================  =====================================================
Subpackage                      Paper sections
==============================  =====================================================
:mod:`repro.api`                unified evaluation API (registry, typed results)
:mod:`repro.core`               Sections 2-5, Appendices A-B (the contribution)
:mod:`repro.stats`              probability machinery (Poisson-binomial, CLT, bounds)
:mod:`repro.demandspace`        Section 2.1, Fig. 2 (demands, failure regions)
:mod:`repro.versions`           Section 2.2, Section 6.1 (fault creation process)
:mod:`repro.adjudication`       Fig. 1 (1-out-of-2 and general M-out-of-N systems)
:mod:`repro.montecarlo`         simulation used to validate every analytic result
:mod:`repro.elm`                Eckhardt-Lee and Littlewood-Miller baselines
:mod:`repro.sensitivity`        Section 6 (assumption violations)
:mod:`repro.assessment`         Sections 5, 7 (assessor-facing outputs)
:mod:`repro.experiments`        Section 7 (synthetic Knight-Leveson check), scenarios
:mod:`repro.studies`            declarative parameter-sweep studies (cached, parallel)
:mod:`repro.service`            evaluation service (async HTTP server)
==============================  =====================================================
"""

from repro._lazy import lazy_exports

__version__ = "1.1.0"

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "repro.api.evaluate": ("evaluate", "evaluate_batch", "evaluate_sweep"),
    "repro.api.registry": (
        "BatchUnsupported", "MethodDefinition", "MethodRegistry", "OptionSpec",
        "default_registry", "register_batch", "register_method",
    ),
    "repro.api.results": ("EvaluationRequest", "EvaluationResult"),
    "repro.core.bounds": (
        "confidence_bound_from_bound", "confidence_bound_from_moments", "mean_gain_factor",
        "pmax_gain_table", "std_gain_factor",
    ),
    "repro.core.fault_model": ("FaultClass", "FaultModel"),
    "repro.core.gain": ("DiversityGainSummary", "diversity_gain_summary"),
    "repro.core.moments": (
        "PfdMoments", "pfd_moments", "single_version_mean", "single_version_std",
        "two_version_mean", "two_version_std",
    ),
    "repro.core.no_common_faults": (
        "fault_count_distribution", "prob_any_common_fault", "prob_any_fault",
        "prob_fault_free_pair", "prob_fault_free_version", "risk_ratio", "success_ratio",
    ),
    "repro.core.normal_approximation": ("normal_approximation",),
    "repro.core.pfd_distribution": ("exact_pfd_distribution",),
    "repro.core.process_improvement": (
        "proportional_improvement_derivative", "risk_ratio_partial_derivative",
        "single_fault_reversal_point", "two_fault_reversal_point",
    ),
    "repro.core.system": ("OneOutOfTwoSystem", "SingleVersionSystem"),
    "repro.montecarlo.engine": ("MonteCarloEngine",),
    "repro.stats.poisson_binomial": ("PoissonBinomial",),
    "repro.versions.generation": ("IndependentDevelopmentProcess",),
})
__all__.append("__version__")
