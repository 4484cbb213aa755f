"""Built-in evaluation methods, registered on the default registry.

Each method is a plain function ``(model, options, rng) -> dict`` decorated
with :func:`~repro.api.registry.register_method`.  ``options`` arrives fully
resolved (every schema default filled in, every override validated);
``rng`` is a :class:`numpy.random.Generator` for seed-consuming methods and
``None`` otherwise.  Heavy imports live inside the functions so importing
the registry stays cheap.

The option schemas here are the *canonical* ones: study cache keys hash the
resolved options, so renaming an option, changing a default or adding a new
option to an existing method invalidates every warm cache entry for it.
Extend by registering a *new* method (see ``tail-quantile`` at the bottom
for the template) rather than widening an existing schema.
"""

from __future__ import annotations

import importlib
import math
from typing import TYPE_CHECKING, Any

from repro.api.registry import BatchUnsupported, OptionSpec, register_batch, register_method

if TYPE_CHECKING:
    import numpy as np

__all__: list[str] = []

#: The modules the built-in methods import when they run.  A process about
#: to fork evaluation workers imports them first (:func:`import_kernels`),
#: so the workers inherit them instead of each compiling them again.
KERNEL_MODULES = (
    "repro.core.bounds",
    "repro.core.moments",
    "repro.core.normal_approximation",
    "repro.core.pfd_distribution",
    "repro.montecarlo.engine",
    "repro.montecarlo.sweep",
    "repro.stats.batched",
    "repro.stats.normal",
    "repro.versions.correlated",
)


def import_kernels() -> None:
    """Import every module in :data:`KERNEL_MODULES` (numpy only: no scipy)."""
    for name in KERNEL_MODULES:
        importlib.import_module(name)


def _variation_scales(variations) -> tuple[np.ndarray, np.ndarray]:
    """Split sweep variations into ``(p_scales, q_scales)`` arrays."""
    import numpy as np

    p_scales = np.array([variation["p_scale"] for variation in variations])
    q_scales = np.array([variation["q_scale"] for variation in variations])
    return p_scales, q_scales


def _max_support(options: dict) -> int | None:
    max_support = options["max_support"]
    return None if max_support is None else int(max_support)


def _reach(options: dict) -> float | None:
    """The highest quantile level an ``exact`` or ``tail-quantile`` record reads.

    That is ``level``, floored at the 0.99 that ``tail-quantile`` always
    reads, so at default options both methods share one distribution.  A
    record with a ``threshold`` reads an exceedance, which can lie at any
    level: ``None`` keeps the full lattice.
    """
    if options["threshold"] is not None:
        return None
    return max(float(options["level"]), 0.99)


def _exact_bracket(model, options: dict):
    from repro.core.pfd_distribution import exact_pfd_distribution

    return exact_pfd_distribution(
        model,
        int(options["versions"]),
        max_support=_max_support(options),
        reach=_reach(options),
    )


def _swept_brackets(model, variations, options: dict):
    """``(point model, PFD bracket)`` per sweep variation.

    Runs :func:`repro.stats.batched.batched_scaled_pfd`, the per-point
    scalar kernel, so each pair is exactly what a lone evaluation of
    ``model.rescaled(p_scale, q_scale)`` computes.
    """
    from repro.stats.batched import batched_scaled_pfd

    p_scales, q_scales = _variation_scales(variations)
    brackets = batched_scaled_pfd(
        model,
        p_scales,
        q_scales,
        versions=int(options["versions"]),
        max_support=_max_support(options),
        reach=_reach(options),
    )
    points = (model.rescaled(v["p_scale"], v["q_scale"]) for v in variations)
    return zip(points, brackets)


_VERSIONS = OptionSpec(
    "versions",
    "int",
    2,
    minimum=1,
    help="number of independently developed versions, combined 1-out-of-r",
)
_CONFIDENCE = OptionSpec("confidence", "float", 0.99, help="confidence level for the bounds")
_MAX_SUPPORT = OptionSpec(
    "max_support",
    "int",
    4096,
    allow_none=True,
    minimum=2,
    help=(
        "largest full support computed exactly; larger models are bracketed on a "
        "lattice of 4 * max_support cells, folded only up to the highest quantile "
        "level read unless a threshold is set (null keeps the full support)"
    ),
)


@register_method(
    "moments",
    options=(_VERSIONS,),
    description="mean/std of the PFD, expected fault counts and P(PFD = 0)",
)
def _moments_method(model, options: dict, rng) -> dict:
    from repro.core.moments import expected_fault_count, pfd_moments
    from repro.core.pfd_distribution import prob_pfd_zero

    versions = int(options["versions"])
    single = pfd_moments(model, 1)
    system = pfd_moments(model, versions)
    return {
        "mean_single": single.mean,
        "std_single": single.std,
        "mean_system": system.mean,
        "std_system": system.std,
        "mean_ratio": system.mean / single.mean if single.mean else 1.0,
        "expected_faults_single": expected_fault_count(model, 1),
        "expected_faults_system": expected_fault_count(model, versions),
        "prob_pfd_zero_single": prob_pfd_zero(model, 1),
        "prob_pfd_zero_system": prob_pfd_zero(model, versions),
    }


@register_method(
    "exact",
    options=(
        _VERSIONS,
        _MAX_SUPPORT,
        OptionSpec(
            "level", "float", 0.99, minimum=0, maximum=1, help="percentile level to report"
        ),
        OptionSpec(
            "threshold",
            "float",
            None,
            allow_none=True,
            help="also report P(PFD > threshold) when set",
        ),
    ),
    description="exact PFD distribution: mean, std, a percentile and optional exceedance",
)
def _exact_method(model, options: dict, rng) -> dict:
    return _exact_record(model, _exact_bracket(model, options), options)


def _bracketed(name: str, bounds: tuple[float, float]) -> dict:
    """A bracketed readout: the conservative upper value plus ``_lo`` / ``_hi``."""
    low, high = bounds
    return {name: high, f"{name}_lo": low, f"{name}_hi": high}


def _exact_record(model, bracket, options: dict) -> dict:
    """The ``exact`` metrics of ``model``'s PFD ``bracket``.

    The mean and standard deviation are the closed forms
    (:func:`~repro.core.moments.pfd_moments`).  The percentile and the
    exceedance report the bracket's conservative upper value plus its
    ``_lo`` / ``_hi`` ends; the percentile is 0 whenever its level is at or
    below the closed-form ``P(PFD = 0)``
    (:func:`~repro.core.pfd_distribution.pfd_quantiles`).
    """
    from repro.core.moments import pfd_moments
    from repro.core.pfd_distribution import pfd_quantiles, prob_pfd_zero

    versions = int(options["versions"])
    level = float(options["level"])
    moments = pfd_moments(model, versions)
    (percentile,) = pfd_quantiles(bracket, [level], prob_pfd_zero(model, versions))
    record = {
        "exact_mean": moments.mean,
        "exact_std": moments.std,
        "exact_percentile_level": level,
        **_bracketed("exact_percentile", percentile),
        "exact_support": bracket.support_size,
    }
    if options["threshold"] is not None:
        threshold = float(options["threshold"])
        record["exact_threshold"] = threshold
        record.update(_bracketed("exact_exceedance", bracket.survival(threshold)))
    return record


@register_batch("exact")
def _exact_batch(model, variations, options: dict, rng) -> list[dict]:
    """Swept ``exact``: the scalar kernel per point, records built as in the scalar method.

    Every record is byte-identical to ``evaluate(model.rescaled(p_scale,
    q_scale), "exact", ...)`` for its point, whatever else the sweep holds.
    """
    return [
        _exact_record(point, bracket, options)
        for point, bracket in _swept_brackets(model, variations, options)
    ]


@register_method(
    "normal",
    options=(_VERSIONS, _CONFIDENCE),
    description="Section 5 normal-approximation bounds with Berry-Esseen error",
)
def _normal_method(model, options: dict, rng) -> dict:
    from repro.core.normal_approximation import (
        berry_esseen_error,
        bound_gain_ratio,
        normal_approximation,
    )
    from repro.stats.normal import k_factor_for_confidence

    versions = int(options["versions"])
    confidence = float(options["confidence"])
    k = k_factor_for_confidence(confidence)
    single = normal_approximation(model, 1)
    system = normal_approximation(model, versions)
    return {
        "confidence": confidence,
        "k_factor": k,
        "normal_bound_single": single.bound(k),
        "normal_bound_system": system.bound(k),
        "normal_bound_ratio": bound_gain_ratio(model, k) if versions == 2 else (
            system.bound(k) / single.bound(k) if single.bound(k) else 1.0
        ),
        "berry_esseen_single": berry_esseen_error(model, 1),
        "berry_esseen_system": berry_esseen_error(model, versions),
    }


@register_method(
    "bounds",
    options=(_CONFIDENCE,),
    description="guaranteed p_max bounds (eq. 12) for the 1-out-of-2 system",
)
def _bounds_method(model, options: dict, rng) -> dict:
    from repro.core.bounds import (
        confidence_bound_from_moments,
        mean_gain_factor,
        std_gain_factor,
    )
    from repro.core.moments import pfd_moments
    from repro.stats.normal import k_factor_for_confidence

    confidence = float(options["confidence"])
    k = k_factor_for_confidence(confidence)
    single = pfd_moments(model, 1)
    single_bound = single.bound(k)
    guaranteed = confidence_bound_from_moments(single.mean, single.std, model.p_max, k)
    return {
        "confidence": confidence,
        "p_max": model.p_max,
        "mean_gain_factor": mean_gain_factor(model.p_max),
        "std_gain_factor": std_gain_factor(model.p_max),
        "bound_single": single_bound,
        "guaranteed_bound_system": guaranteed,
        "guaranteed_bound_ratio": guaranteed / single_bound if single_bound else 1.0,
    }


@register_method(
    "montecarlo",
    options=(
        _VERSIONS,
        OptionSpec(
            "replications", "int", 10_000, minimum=1, help="number of simulated developments"
        ),
        OptionSpec(
            "correlation", "float", 0.0, help="copula correlation between the versions"
        ),
    ),
    requires_seed=True,
    description="Monte Carlo simulation of the development process (streaming summaries)",
)
def _montecarlo_method(model, options: dict, rng) -> dict:
    """A lone ``montecarlo``: its one-point sweep within the memory budget, else the dense engine.

    An independent-process request whose one-point sweep expects at most
    :data:`~repro.montecarlo.engine.BLOCK_CELLS` sparse entries returns the
    record of that sweep at ``p_scale = q_scale = 1``, bit for bit what the
    batched kernel gives the point.  The sparse kernel holds every entry at
    once (about 91 bytes each) where the dense engine holds one block, so a
    larger request, and every correlated one, runs
    :class:`~repro.montecarlo.engine.MonteCarloEngine`.
    """
    from repro.montecarlo.engine import BLOCK_CELLS, MonteCarloEngine
    from repro.montecarlo.sweep import expected_entry_count, simulate_scaled_sweep

    versions = int(options["versions"])
    replications = int(options["replications"])
    correlation = float(options["correlation"])
    if (
        correlation == 0.0
        and expected_entry_count(model, replications, versions, [1.0]) <= BLOCK_CELLS
    ):
        (point,) = simulate_scaled_sweep(
            model, replications, [(1.0, 1.0)], versions=versions, rng=rng
        )
        return _sweep_record(options, point)
    process = None
    if correlation != 0.0:
        from repro.versions.correlated import CopulaDevelopmentProcess

        process = CopulaDevelopmentProcess(model=model, correlation=correlation)
    engine = MonteCarloEngine(model, process=process)
    if versions == 2:
        pair = engine.simulate_paired_streaming(replications, rng=rng)
        return _mc_record(
            options,
            pair.summary(),
            {
                "single": pair.single.pfds.standard_error(),
                "system": pair.system.pfds.standard_error(),
            },
        )
    result = engine.simulate_systems_streaming(replications, versions=versions, rng=rng)
    return _mc_record(
        options,
        _system_statistics(
            result.mean_pfd(), result.std_pfd(), result.prob_any_fault(), result.prob_pfd_zero()
        ),
        {"system": result.pfds.standard_error()},
    )


def _mc_record(options: dict, statistics: dict, standard_errors: dict) -> dict:
    """One ``montecarlo`` record: the run's size and correlation, its statistics, its means' SEs.

    ``statistics`` is a paired ``summary()`` (its ``replications`` dropped)
    or :func:`_system_statistics`; ``standard_errors`` maps ``single`` /
    ``system`` to the standard error of that mean, ``mc_mean_<name>_se``.
    One replication gives an infinite standard error, which JSON cannot
    hold, so it is recorded as null.
    """
    record: dict[str, Any] = {
        "mc_replications": int(options["replications"]),
        "mc_correlation": float(options["correlation"]),
    }
    record.update(
        {f"mc_{key}": value for key, value in statistics.items() if key != "replications"}
    )
    record.update(
        {
            f"mc_mean_{name}_se": value if math.isfinite(value) else None
            for name, value in standard_errors.items()
        }
    )
    return record


def _system_statistics(mean: float, std: float, any_fault: float, pfd_zero: float) -> dict:
    """The 1-out-of-r system's mean, std, P(any fault) and P(PFD = 0)."""
    return {
        "mean_system": mean,
        "std_system": std,
        "prob_any_fault": any_fault,
        "prob_pfd_zero": pfd_zero,
    }


def _sweep_record(options: dict, point) -> dict:
    """The record of one sweep point: paired for two versions, the system's otherwise."""
    if point.versions == 2:
        return _mc_record(
            options,
            point.summary(),
            {"single": point.mean_single_se, "system": point.mean_system_se},
        )
    return _mc_record(
        options,
        _system_statistics(
            point.mean_system,
            point.std_system,
            point.prob_any_fault_system,
            point.prob_pfd_zero_system,
        ),
        {"system": point.mean_system_se},
    )


@register_batch(
    "montecarlo", applies=lambda options: float(options["correlation"]) == 0.0
)
def _montecarlo_batch(model, variations, options: dict, rng) -> list[dict]:
    """Batched ``montecarlo``: shared-demand (common-random-numbers) sweeps.

    One nested development history is sampled and every sweep point scored
    against the levels it reaches
    (:func:`repro.montecarlo.sweep.simulate_scaled_sweep`); a point's record
    does not depend on its siblings, and noise is shared across the sweep,
    which makes cross-point comparisons lower-variance.  A lone request
    that takes the sparse kernel is its one-point sweep at scale 1, so the
    point at ``p_scale = q_scale = 1`` equals the lone request for the
    model.  A point at another scale still differs from the lone request
    for the rescaled model: the nested draws are not invariant under
    :meth:`FaultModel.rescaled`.  The kernel serves the independent
    development process only (its declared ``applies`` rule): correlated
    sweeps run point by point, and so do sweeps beyond the sparse kernel's
    memory budget.
    """
    from repro.montecarlo.sweep import (
        MAX_SWEEP_ENTRIES,
        expected_entry_count,
        simulate_scaled_sweep,
    )

    versions = int(options["versions"])
    replications = int(options["replications"])
    p_scales, _ = _variation_scales(variations)
    if expected_entry_count(model, replications, versions, p_scales) > MAX_SWEEP_ENTRIES:
        raise BatchUnsupported("sweep exceeds the shared-demand memory budget")
    points = simulate_scaled_sweep(
        model, replications, variations, versions=versions, rng=rng
    )
    return [_sweep_record(options, point) for point in points]


@register_method(
    "tail-quantile",
    options=(
        _VERSIONS,
        _MAX_SUPPORT,
        OptionSpec(
            "level", "float", 0.99, minimum=0, maximum=1, help="quantile level to report"
        ),
        OptionSpec(
            "threshold",
            "float",
            None,
            allow_none=True,
            help="also report the exceedance probability P(PFD > threshold) when set",
        ),
    ),
    description="tail of the exact PFD distribution: quantiles and exceedance probabilities",
)
def _tail_quantile_method(model, options: dict, rng) -> dict:
    """P(PFD > x) and quantiles straight from the exact distribution.

    This method exists to prove the registry's extensibility claim: it was
    added with *only* this registration and is reachable from the CLI
    (``repro evaluate --method tail-quantile``), study specs and
    :func:`repro.evaluate` without touching any dispatch code.
    """
    return _tail_record(model, _exact_bracket(model, options), options)


def _tail_record(model, bracket, options: dict) -> dict:
    """The ``tail-quantile`` metrics of ``model``'s PFD ``bracket``.

    ``tail_prob_zero`` is the closed form ``P(PFD = 0)``
    (:func:`~repro.core.pfd_distribution.prob_pfd_zero`), and every quantile
    at a level at or below it is 0.  Each quantile and the exceedance report
    the bracket's conservative upper value plus its ``_lo`` / ``_hi`` ends.
    """
    from repro.core.pfd_distribution import pfd_quantiles, prob_pfd_zero

    level = float(options["level"])
    prob_zero = prob_pfd_zero(model, int(options["versions"]))
    names = ("tail_quantile", "tail_median", "tail_q90", "tail_q99")
    quantiles = pfd_quantiles(bracket, (level, 0.5, 0.9, 0.99), prob_zero)
    record = {"tail_level": level}
    for name, bounds in zip(names, quantiles):
        record.update(_bracketed(name, bounds))
    record["tail_prob_zero"] = prob_zero
    record["tail_support"] = bracket.support_size
    if options["threshold"] is not None:
        threshold = float(options["threshold"])
        record["tail_threshold"] = threshold
        record.update(_bracketed("tail_exceedance", bracket.survival(threshold)))
    return record


@register_batch("tail-quantile")
def _tail_quantile_batch(model, variations, options: dict, rng) -> list[dict]:
    """Swept ``tail-quantile``: the scalar kernel per point, like swept ``exact``.

    Every record is byte-identical to the lone per-point evaluation.
    """
    return [
        _tail_record(point, bracket, options)
        for point, bracket in _swept_brackets(model, variations, options)
    ]
