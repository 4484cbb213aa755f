"""Sweep-group evaluation: resolve the model, dispatch one method via the API.

A study point carries axis assignments (``params``) and a method.  Each
parameter is consumed by exactly one of three layers:

* **base factory parameters** -- keyword arguments of the base scenario's
  factory (e.g. ``n`` or ``model_seed`` for ``many-small-faults``);
* **model transforms** -- ``p_scale`` (``FaultModel.scaled``, the Appendix B
  process-quality knob) and ``q_scale`` (uniform failure-region scaling),
  applied after the base model is built;
* **method options** -- anything the point's method accepts per its
  :class:`~repro.api.registry.MethodRegistry` schema (``versions``,
  ``replications``, ``correlation``, ...); an axis value overrides the
  method's statically configured option.

Anything else is rejected up front by :func:`split_point_params`, so a typo
in a sweep axis fails before any evaluation starts.

The evaluation itself is one :func:`repro.api.evaluate.sweep_outcomes`
call per group -- the study subsystem owns *which* points to run and how
to cache them, not how any method works.
"""

from __future__ import annotations

import inspect
from typing import Any, Mapping

from repro import faults
from repro.api.evaluate import sweep_outcomes
from repro.api.registry import default_registry
from repro.core.fault_model import FaultModel
from repro.grouping import MODEL_TRANSFORM_DEFAULTS, MODEL_TRANSFORM_PARAMS
from repro.studies.spec import MethodSpec

__all__ = [
    "canonical_model_params",
    "evaluate_study_group",
    "resolve_model",
    "split_point_params",
]


def _base_factory_parameters(base: Mapping) -> tuple[str, ...]:
    if "scenario" not in base:
        return ()
    from repro.experiments.scenarios import SCENARIOS

    factory_params = SCENARIOS[base["scenario"]].parameters()
    # ``rng`` is exposed to specs as ``model_seed`` (an integer, JSON-friendly).
    return tuple("model_seed" if name == "rng" else name for name in factory_params)


def split_point_params(
    base: Mapping,
    params: Mapping[str, Any],
    method: MethodSpec,
    ignorable: frozenset[str] | set[str] = frozenset(),
) -> tuple[dict, dict, dict, dict]:
    """Partition axis assignments into (factory kwargs, transforms, options, ignored).

    ``ignorable`` names parameters that other methods of the same study
    consume; for this method they are collected into the *ignored* bucket
    (and excluded from the point's cache key by the runner).  A parameter no
    layer consumes raises ``ValueError``.
    """
    factory_names = _base_factory_parameters(base)
    method_names = default_registry().get(method.name).option_names
    factory_kwargs: dict[str, Any] = {}
    transforms: dict[str, Any] = {}
    method_overrides: dict[str, Any] = {}
    ignored: dict[str, Any] = {}
    for name, value in params.items():
        if name in MODEL_TRANSFORM_PARAMS:
            transforms[name] = value
        elif name in factory_names:
            factory_kwargs["rng" if name == "model_seed" else name] = value
        elif name in method_names:
            method_overrides[name] = value
        elif name in ignorable:
            ignored[name] = value
        else:
            accepted = sorted(set(factory_names) | set(MODEL_TRANSFORM_PARAMS) | set(method_names))
            raise ValueError(
                f"parameter {name!r} is not understood by the base "
                f"({base.get('scenario', 'inline model')}) or method {method.name!r}; "
                f"accepted here: {', '.join(accepted)}"
            )
    return factory_kwargs, transforms, method_overrides, ignored


def canonical_model_params(base: Mapping, factory_kwargs: Mapping, transforms: Mapping) -> dict:
    """Model-level parameters with every default folded in, spec-facing names.

    This is what the cache payload records: scenario-factory defaults (e.g.
    ``n=200`` for ``many-small-faults`` when no ``n`` axis is swept) and the
    neutral transform defaults are materialised, so (a) the key covers
    everything the resolved model depends on -- changing a factory default
    later cannot serve stale entries -- and (b) a default written out
    explicitly (a one-value ``n`` axis, ``p_scale: [1.0]``) hashes
    identically to leaving it implicit.
    """
    params = dict(MODEL_TRANSFORM_DEFAULTS)
    params.update(transforms)
    if "scenario" in base:
        from repro.experiments.scenarios import SCENARIOS, factory_signature

        signature = factory_signature(SCENARIOS[base["scenario"]].factory)
        for name, parameter in signature.parameters.items():
            key = "model_seed" if name == "rng" else name
            if name in factory_kwargs:
                params[key] = factory_kwargs[name]
            elif parameter.default is not inspect.Parameter.empty:
                params[key] = parameter.default
    return params


def resolve_model(base: Mapping, factory_kwargs: Mapping, transforms: Mapping) -> FaultModel:
    """Build the point's fault model from the base and the model-level params."""
    if "scenario" in base:
        from repro.experiments.scenarios import get_scenario

        model = get_scenario(base["scenario"], **factory_kwargs)
    else:
        model = FaultModel.from_dict(base["model"])
    return model.rescaled(
        p_scale=float(transforms.get("p_scale", 1.0)),
        q_scale=float(transforms.get("q_scale", 1.0)),
    )


def evaluate_study_group(
    base: Mapping,
    shared_params: Mapping[str, Any],
    method: MethodSpec,
    variations,
    group_entropy: tuple[int, ...],
    point_entropies,
) -> list[tuple[str, Any]]:
    """Run one batchable group of sweep points and return per-point outcomes.

    A group shares everything but the model transforms: ``shared_params``
    are the non-transform axis assignments (factory parameters and method
    option overrides, identical across the group) and ``variations`` the
    per-point ``p_scale`` / ``q_scale`` values.  The base model is resolved
    *once* and the whole group dispatches through the sweep core
    :func:`repro.api.evaluate.sweep_outcomes`: a batched kernel serving
    the resolved options evaluates every point in one call (a stochastic
    one against one shared nested world seeded from ``group_entropy``);
    every other group evaluates point by point, each stochastic point
    seeded from its ``point_entropies`` entry -- bitwise-identical to
    :func:`repro.evaluate` of the rescaled model with that seed.  Every
    point's value depends on that point alone, so the runner sends each
    group with its cache misses only.

    Returns ``("ok", metrics)`` / ``("error", message)`` per variation, in
    order, so one bad sweep point cannot discard its siblings.  The
    ``studies.point`` fault site is hit once per point before anything
    runs; a point it fails is left out of the sweep.
    """
    factory_kwargs, transforms, overrides, _ = split_point_params(base, shared_params, method)
    if transforms:
        raise ValueError(
            f"group parameters must not contain model transforms, got {sorted(transforms)}"
        )
    outcomes: list[tuple[str, Any]] = [None] * len(variations)
    live = []
    for index in range(len(variations)):
        try:
            faults.hit("studies.point")
        except Exception as error:  # noqa: BLE001 - an injected failure of this point
            outcomes[index] = ("error", f"{type(error).__name__}: {error}")
        else:
            live.append(index)
    model = resolve_model(base, factory_kwargs, {})
    _, results = sweep_outcomes(
        model,
        method.name,
        [variations[index] for index in live],
        options={**dict(method.options), **overrides},
        seed=tuple(group_entropy),
        variation_seeds=[tuple(point_entropies[index]) for index in live],
    )
    for index, (status, outcome) in zip(live, results):
        outcomes[index] = (status, outcome.metric_dict() if status == "ok" else outcome)
    return outcomes
