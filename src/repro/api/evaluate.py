"""Top-level evaluation entry points: one dispatch path for every consumer.

:func:`evaluate` runs a single registered method against a model and returns
a typed :class:`~repro.api.results.EvaluationResult`; :func:`evaluate_batch`
runs many requests against the same model in the calling process, sharing
exact PFD distributions between them; :func:`sweep_outcomes` runs *one*
method across many model variations (``p_scale`` / ``q_scale`` sweep
points), dispatching to the method's batched kernel when it registered one
(:func:`~repro.api.registry.register_batch`) and falling back to scalar
per-variation evaluation otherwise; :func:`evaluate_sweep` wraps it.  The
CLI's ``evaluate`` subcommand, the study runner and the service worker are
thin layers over these functions, so a method registered once behaves
identically everywhere.
"""

from __future__ import annotations

import time
from typing import Any, Mapping, Sequence

import numpy as np

from repro.api.registry import (
    BatchUnsupported,
    MethodDefinition,
    MethodRegistry,
    default_registry,
)
from repro.api.results import EvaluationRequest, EvaluationResult
from repro.core.model_content import parse_transform
from repro.stats.rng import DEFAULT_SEED

__all__ = ["evaluate", "evaluate_batch", "evaluate_sweep", "sweep_outcomes"]


def _normalise_entropy(seed) -> tuple[int, ...] | None:
    """Turn a seed spelling into SeedSequence entropy (``None`` for a live rng)."""
    if seed is None:
        return (DEFAULT_SEED,)
    if isinstance(seed, (bool, float)):
        raise ValueError(f"seed must be an integer, a sequence of integers or a Generator, got {seed!r}")
    if isinstance(seed, (int, np.integer)):
        return (int(seed),)
    if isinstance(seed, np.random.Generator):
        return None
    if isinstance(seed, Sequence) and seed and all(
        isinstance(part, (int, np.integer)) and not isinstance(part, bool) for part in seed
    ):
        return tuple(int(part) for part in seed)
    raise ValueError(
        f"seed must be an integer, a sequence of integers or a Generator, got {seed!r}"
    )


def _run_definition(
    definition: MethodDefinition,
    model,
    resolved: dict,
    seed,
) -> EvaluationResult:
    """Evaluate a resolved method call and wrap the outcome."""
    rng = None
    entropy = None
    if definition.requires_seed:
        entropy = _normalise_entropy(seed)
        if entropy is None:
            rng = seed  # a live Generator; its state cannot be recorded
        else:
            # Matches the study runner's historical seeding exactly:
            # Generator(SeedSequence(list(entropy))) -- cached Monte Carlo
            # records stay byte-identical across the old and new dispatch.
            rng = np.random.default_rng(np.random.SeedSequence(list(entropy)))
    start = time.perf_counter()
    metrics = definition.evaluate(model, resolved, rng)
    elapsed = time.perf_counter() - start
    if not isinstance(metrics, Mapping):
        raise TypeError(
            f"method {definition.name!r} must return a mapping of metrics, "
            f"got {type(metrics).__name__}"
        )
    return EvaluationResult(
        method=definition.name,
        options=resolved,
        metrics=dict(metrics),
        seed_entropy=entropy,
        elapsed_seconds=elapsed,
    )


def evaluate(
    model,
    method: str,
    *,
    seed=None,
    registry: MethodRegistry | None = None,
    options: Mapping[str, Any] | None = None,
    **kwargs,
) -> EvaluationResult:
    """Evaluate one registered method on a fault model.

    Parameters
    ----------
    model:
        The :class:`~repro.core.fault_model.FaultModel` to evaluate.
    method:
        A registered method name (see ``repro methods`` or
        :meth:`MethodRegistry.names`).
    seed:
        Randomness for seed-consuming methods: an integer, a sequence of
        integers (SeedSequence entropy) or a live
        :class:`numpy.random.Generator`.  ``None`` uses the library default
        seed, so "no seed" still means "reproducible".  Deterministic
        methods ignore it.
    registry:
        Registry to dispatch through (default: the library-wide one).
    options:
        Method options as a mapping.  Use this spelling for options whose
        names collide with this function's own parameters (``seed``,
        ``registry``, ``options``) -- programmatic callers like the CLI
        always route through it.
    **kwargs:
        Method options as keyword arguments (the convenient spelling);
        merged over ``options``.  Unknown options and wrong types raise
        ``ValueError``.

    Examples
    --------
    >>> from repro import evaluate  # doctest: +SKIP
    >>> evaluate(model, "tail-quantile", level=0.999)["tail_quantile"]  # doctest: +SKIP
    """
    target = registry if registry is not None else default_registry()
    definition = target.get(method)
    resolved = target.resolve_options(method, {**dict(options or {}), **kwargs})
    return _run_definition(definition, model, resolved, seed)


def evaluate_batch(
    model,
    requests: Sequence,
    *,
    seed=None,
    registry: MethodRegistry | None = None,
) -> list[EvaluationResult]:
    """Evaluate many methods on one model, in the calling process.

    Parameters
    ----------
    model:
        The fault model shared by every request.
    requests:
        Any mix of method names, ``(method, options)`` pairs, mappings with
        a ``"method"`` key and :class:`EvaluationRequest` objects.
    seed:
        Integer seed (or sequence of integers) for the batch (``None`` =
        the library default).  Every request is seeded from it exactly as
        ``evaluate(model, method, seed=seed, options=...)`` is, so an
        element's result does not depend on its position or its siblings.
    registry:
        Registry to dispatch through (default: the library-wide one).

    Identical requests evaluate once and the result fans out to each of
    them: same method, options and seed means the same result.  The batch
    runs inside one :func:`~repro.core.pfd_distribution.shared_distributions`
    scope, so requests reading the same exact PFD distribution compute it
    once.

    Returns the results in request order.
    """
    target = registry if registry is not None else default_registry()
    coerced = [EvaluationRequest.coerce(request) for request in requests]
    # Validate the whole batch before evaluating anything: one typo must not
    # waste the expensive requests queued ahead of it.
    for request in coerced:
        target.resolve_options(request.method, request.option_dict())
    if _normalise_entropy(seed) is None:
        raise ValueError("evaluate_batch needs an integer seed (a live Generator cannot be shared)")
    from repro.core.pfd_distribution import shared_distributions

    computed: dict[EvaluationRequest, EvaluationResult] = {}
    with shared_distributions():
        for request in coerced:
            if request not in computed:
                computed[request] = evaluate(
                    model, request.method, seed=seed, registry=target,
                    options=request.option_dict(),
                )
    return [computed[request] for request in coerced]


# --------------------------------------------------------------------- #
# Sweeps: one method, many model variations
# --------------------------------------------------------------------- #
def sweep_outcomes(
    model,
    method: str,
    variations: Sequence,
    *,
    options: Mapping[str, Any] | None = None,
    seed=None,
    variation_seeds: Sequence | None = None,
    registry: MethodRegistry | None = None,
) -> tuple[bool, list[tuple[str, Any]]]:
    """The one sweep core: ``method`` at every variation of ``model``, one outcome per point.

    :func:`evaluate_sweep` and the study runner's group tasks both dispatch
    through here.  Returns ``(batched,
    outcomes)``: ``outcomes[i]`` is ``("ok", EvaluationResult)`` or
    ``("error", "ValueError: ...")`` for variation ``i``, and ``batched``
    says whether the method's batched kernel produced the valid points
    (``False``: no kernel serves these options, the kernel declined, or no
    point was valid).

    Each variation is a mapping with optional ``p_scale`` / ``q_scale`` keys
    (1.0 when absent); any other key raises ``ValueError`` before anything
    runs.  Every point is checked by
    :func:`repro.core.model_content.parse_transform` -- typed as the service
    wire types it, then held to the rules of :meth:`FaultModel.rescaled`
    with the same messages -- before any kernel runs.  An invalid point
    becomes its own error outcome and its siblings are still computed, so
    a sweep gives every point the outcome its one-point sweep gives.

    When the method's batched kernel serves the resolved options
    (:meth:`~repro.api.registry.MethodDefinition.batches`), the valid points
    are evaluated in one kernel call sharing a single random stream derived
    from ``seed`` -- for stochastic methods this is the common-random-numbers
    mode: every point scored against the same sampled developments (see
    :mod:`repro.montecarlo.sweep`).  Otherwise each point is evaluated on
    its own rescaled model; stochastic methods then draw from
    ``variation_seeds[i]`` when given (the study runner passes its
    content-keyed per-point entropies) and from ``seed`` itself otherwise,
    so each point equals ``evaluate(model.rescaled(...), method,
    seed=seed)``.  A result's ``seed_entropy`` is the entropy its stream
    actually came from (``None`` for deterministic methods and live
    generators), and its ``elapsed_seconds`` the sweep time amortised over
    the points.
    """
    target = registry if registry is not None else default_registry()
    definition = target.get(method)
    resolved = target.resolve_options(method, options)
    variations = tuple(variations)
    if variation_seeds is not None and len(variation_seeds) != len(variations):
        raise ValueError(
            f"variation_seeds ({len(variation_seeds)}) must match variations ({len(variations)})"
        )
    start = time.perf_counter()
    # The model's float lists, taken once: each point's check builds no model.
    p, q = model.p.tolist(), model.q.tolist()
    outcomes: list[tuple[str, Any, tuple[int, ...] | None]] = [None] * len(variations)
    valid: dict[int, dict] = {}
    for index, variation in enumerate(variations):
        if not isinstance(variation, Mapping):
            raise ValueError(
                f"a sweep variation must be a mapping with p_scale/q_scale, got {variation!r}"
            )
        unknown = sorted(set(variation) - {"p_scale", "q_scale"})
        if unknown:
            raise ValueError(
                f"sweep variations accept only p_scale/q_scale, got {', '.join(unknown)}"
            )
        try:
            p_scale, q_scale = parse_transform(variation, p, q, model.strict)
        except ValueError as error:
            outcomes[index] = ("error", f"ValueError: {error}", None)
        else:
            valid[index] = {"p_scale": p_scale, "q_scale": q_scale}
    batched = False
    if valid and definition.batches(resolved):
        entropy = _normalise_entropy(seed)
        rng = None
        if definition.requires_seed:
            rng = seed if entropy is None else np.random.default_rng(
                np.random.SeedSequence(list(entropy))
            )
        try:
            metric_rows = definition.evaluate_batch(
                model, tuple(valid.values()), resolved, rng
            )
        except BatchUnsupported:
            metric_rows = None
        if metric_rows is not None:
            rows = list(metric_rows)
            if len(rows) != len(valid):
                raise TypeError(
                    f"batched evaluator of {method!r} returned {len(rows)} records "
                    f"for {len(valid)} variations"
                )
            shared = entropy if definition.requires_seed else None
            for index, metrics in zip(valid, rows):
                if not isinstance(metrics, Mapping):
                    raise TypeError(
                        f"batched evaluator of {method!r} must yield metric mappings, "
                        f"got {type(metrics).__name__}"
                    )
                outcomes[index] = ("ok", metrics, shared)
            batched = True
    if not batched:
        # Scalar path (no batched kernel, or it declined): one rescaled
        # model per point.
        entropy = _normalise_entropy(seed) if definition.requires_seed else None
        for index, variation in valid.items():
            point_seed = point_entropy = None
            if definition.requires_seed:
                if variation_seeds is not None:
                    point_seed = point_entropy = tuple(int(part) for part in variation_seeds[index])
                elif entropy is None:
                    point_seed = seed  # a live Generator, consumed sequentially
                else:
                    point_seed = point_entropy = entropy
            try:
                transformed = model.rescaled(variation["p_scale"], variation["q_scale"])
                result = _run_definition(definition, transformed, resolved, point_seed)
            except Exception as error:  # noqa: BLE001 - reported per variation
                outcomes[index] = ("error", f"{type(error).__name__}: {error}", None)
            else:
                outcomes[index] = ("ok", result.metrics, point_entropy)
    elapsed = (time.perf_counter() - start) / max(len(variations), 1)
    return batched, [
        (
            status,
            EvaluationResult(
                method=method,
                options=resolved,
                metrics=payload,
                seed_entropy=entropy,
                elapsed_seconds=elapsed,
            )
            if status == "ok"
            else payload,
        )
        for status, payload, entropy in outcomes
    ]


def evaluate_sweep(
    model,
    method: str,
    variations: Sequence,
    *,
    seed=None,
    registry: MethodRegistry | None = None,
    options: Mapping[str, Any] | None = None,
    **kwargs,
) -> list[EvaluationResult]:
    """Evaluate one method across many model variations, batched when possible.

    A wrapper of :func:`sweep_outcomes` that raises on the first failed
    point instead of returning it.

    Parameters
    ----------
    model:
        The base :class:`~repro.core.fault_model.FaultModel`; every
        variation applies on top of it.
    method:
        A registered method name.  Methods whose definition carries a
        batched kernel (``supports_batch``; currently ``exact``,
        ``tail-quantile`` and ``montecarlo``, the last for uncorrelated
        developments only) evaluate the whole sweep in one kernel call;
        any other sweep falls back to per-variation scalar evaluation with
        no semantic difference.  The ``exact`` and
        ``tail-quantile`` kernels loop the scalar kernel, so their records
        equal per-point :func:`evaluate` records byte for byte; only the
        stochastic ``montecarlo`` kernel changes values (shared stream).
    variations:
        Sweep points: mappings with optional ``p_scale`` (every ``p_i``
        multiplied, the Appendix B process-quality knob) and ``q_scale``
        (every ``q_i`` multiplied) keys, both defaulting to 1.0.  A scale
        is a number (not a string or a boolean), finite and non-negative,
        and the rescaled model must be valid (:meth:`FaultModel.rescaled`).
    seed:
        Randomness for seed-consuming methods.  Batched stochastic methods
        share *one* stream derived from it across the whole sweep (common
        random numbers: every point scored against the same nested sampled
        world -- faster, and cross-point comparisons have lower variance,
        but points are dependent and the values differ from per-point
        independent streams).  A point's value still depends only on the
        seed and that point: it equals the point's one-point sweep.  The
        scalar fallback seeds every variation from ``seed`` itself, so a
        point equals ``evaluate(model.rescaled(...), method, seed=seed)``,
        as :func:`evaluate_batch` seeds each of its requests.
    options, **kwargs:
        Method options, shared by every variation (same spelling rules as
        :func:`evaluate`).

    Returns one :class:`EvaluationResult` per variation, in input order;
    ``elapsed_seconds`` is amortised (total sweep time / points).  Raises
    ``ValueError("sweep variation i: ...")`` on the first invalid or failed
    point.

    Examples
    --------
    >>> from repro import evaluate_sweep  # doctest: +SKIP
    >>> results = evaluate_sweep(model, "exact",
    ...                          [{"p_scale": k} for k in (0.25, 0.5, 1.0)])  # doctest: +SKIP
    """
    target = registry if registry is not None else default_registry()
    resolved = target.resolve_options(method, {**dict(options or {}), **kwargs})
    _, outcomes = sweep_outcomes(
        model, method, variations, options=resolved, seed=seed, registry=target
    )
    for index, (status, outcome) in enumerate(outcomes):
        if status == "error":
            raise ValueError(f"sweep variation {index}: {outcome}")
    return [result for _, result in outcomes]
