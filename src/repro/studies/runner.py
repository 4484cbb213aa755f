"""Parallel, cache-aware execution of a study.

The runner turns a :class:`~repro.studies.spec.StudySpec` into a
:class:`~repro.studies.results.StudyResult`:

1. expand the spec into points (:mod:`repro.studies.grid`) and validate every
   axis parameter against the base and methods up front;
2. compute each point's content-addressed digest and probe the cache --
   hits are served without any computation;
3. evaluate the misses as group tasks (points differing only in
   ``p_scale`` / ``q_scale``, see :func:`_plan_groups`), sequentially or
   across worker processes, each point with its own reproducible random
   stream;
4. store fresh metric records in the cache and assemble the tidy result
   table in canonical point order.

Two properties make re-runs incremental:

* **content-keyed caching** -- a point's cache key covers only what its
  evaluation depends on: the base model content, the axis values *its
  method consumes*, the normalised method options, the study seed (for
  stochastic methods only) and the cache format version.  An axis that only
  feeds other methods (e.g. a ``confidence`` sweep in a study that also
  runs ``moments``) does not perturb the keys of the methods that ignore
  it, and a seed change leaves deterministic methods' entries valid;
* **content-keyed seeding** -- every point's random stream is a child of the
  study's single :class:`numpy.random.SeedSequence` root keyed by the
  point's digest rather than its position in the expansion, so adding or
  removing a sweep value never shifts any other point's stream.

Together: editing one axis recomputes exactly the new points, and a warm
re-run recomputes nothing and reproduces the table byte for byte.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro import telemetry
from repro.api.registry import default_registry
from repro.cache import ResultCache, canonical_json, payload_digest
from repro.grouping import (
    MODEL_TRANSFORM_PARAMS,
    evaluation_payload,
    group_digest,
    group_payload,
)
from repro.studies.grid import StudyPoint, expand_points
from repro.studies.methods import (
    canonical_model_params,
    evaluate_study_group,
    split_point_params,
)
from repro.studies.results import StudyResult
from repro.studies.spec import StudySpec

__all__ = [
    "PlannedPoint",
    "plan_study",
    "point_seed_entropy",
    "run_study",
]


@dataclass(frozen=True)
class PlannedPoint:
    """One expanded, validated point with its cache identity."""

    point: StudyPoint
    consumed_params: tuple[tuple[str, Any], ...]
    payload: dict
    digest: str


def point_seed_entropy(spec: StudySpec, digest: str) -> tuple[int, int]:
    """``SeedSequence`` entropy keyed by a content digest: (study seed, key).

    The digest may be a point's (its own stream) or a batch group's (the
    group's shared demand stream).  Either is keyed by *content*, not by
    membership, so a sweep point's stream does not depend on which sibling
    points happened to be cache misses alongside it.
    """
    return (spec.seed, int(digest[:16], 16))


def plan_study(spec: StudySpec) -> list[PlannedPoint]:
    """Expand and validate the study; return the planned points in order.

    Raises ``ValueError`` on the first axis parameter no layer consumes, so a
    bad spec fails before any evaluation starts.
    """
    registry = default_registry()
    option_names = {
        method.name: set(registry.get(method.name).option_names) for method in spec.methods
    }
    other_options = {
        method.name: frozenset(
            set().union(*option_names.values()) - option_names[method.name]
        )
        for method in spec.methods
    }
    planned: list[PlannedPoint] = []
    for point in expand_points(spec):
        factory_kwargs, transforms, overrides, ignored = split_point_params(
            spec.base, point.param_dict(), point.method, other_options[point.method.name]
        )
        consumed = tuple(item for item in point.params if item[0] not in ignored)
        # Every default is materialised -- scenario-factory defaults into
        # "params", the registry's canonical resolved options (statically
        # configured options plus any axis overrides, mirroring the
        # evaluation's merge) into "method" -- so the key covers everything
        # the evaluation depends on and a value spelled out explicitly
        # hashes the same as the implicit default.  Deterministic methods
        # carry no entropy, so their keys (and cached records) survive a
        # study-seed change.
        payload = evaluation_payload(
            spec.base,
            canonical_model_params(spec.base, factory_kwargs, transforms),
            point.method.name,
            registry.resolve_options(
                point.method.name, {**dict(point.method.options), **overrides}
            ),
            spec.seed if registry.get(point.method.name).requires_seed else None,
        )
        planned.append(
            PlannedPoint(
                point=point,
                consumed_params=consumed,
                payload=payload,
                digest=payload_digest(payload),
            )
        )
    return planned


def _evaluate_group(arguments: tuple) -> list[tuple[str, Any]]:
    """Group worker entry point: one pickle per task of one or more groups.

    ``arguments`` is ``(base, groups, trace_id, parent_span)``; every group
    shares ``base`` and, when there are several, the point models (a
    bundle, see :func:`_plan_groups`).  The caller's trace id and enclosing
    span id ride in explicitly, as a service job's do, and parent the
    task's ``study.group`` span.  A bundle runs inside one
    :func:`~repro.core.pfd_distribution.shared_distributions` scope, so each
    distinct exact PFD distribution is computed once for all its groups;
    the task's span reports the scope's misses and hits as
    ``distributions_computed`` / ``distributions_shared``.  A lone group
    has nothing to share and runs without a scope.

    Returns one ``("ok", metrics)`` / ``("error", message)`` outcome per
    variation, group by group: failures are values rather than raised, so
    one bad point neither aborts the pool mid-stream nor discards completed
    evaluations queued behind it.  A failure that escapes a group's per-point
    handling (e.g. a broken base model) is fanned out to every variation of
    that group, so the runner's bookkeeping stays aligned and sibling
    groups still complete.
    """
    from repro.core.pfd_distribution import shared_distributions

    base, groups, trace_id, parent_span = arguments
    outcomes: list[tuple[str, Any]] = []
    scope = shared_distributions() if len(groups) > 1 else contextlib.nullcontext()
    with telemetry.span(
        "study.group",
        trace_id=trace_id,
        parent_id=parent_span,
        method=",".join(method.name for _, method, *_ in groups),
        group_size=sum(len(variations) for _, _, variations, *_ in groups),
    ) as span, scope as distributions:
        for shared_params, method, variations, group_entropy, point_entropies in groups:
            try:
                outcomes.extend(
                    evaluate_study_group(
                        base,
                        dict(shared_params),
                        method,
                        variations,
                        group_entropy,
                        point_entropies,
                    )
                )
            except Exception as error:  # noqa: BLE001 - reported with point context by run_study
                outcomes.extend([("error", f"{type(error).__name__}: {error}")] * len(variations))
        if distributions is not None:
            span.set(
                distributions_computed=distributions.computed,
                distributions_shared=distributions.shared,
            )
    return outcomes


def _scales(entry: PlannedPoint) -> tuple[float, float]:
    params = entry.payload["params"]
    return (params["p_scale"], params["q_scale"])


def _plan_groups(
    spec: StudySpec, planned: list[PlannedPoint], pending: dict, jobs: int = 1
) -> list[tuple]:
    """Partition the cache misses into worker tasks, heaviest first.

    Pending points sharing everything except the ``p_scale`` / ``q_scale``
    transforms form one *group*, evaluated against one resolved base model.
    Every group carries only its cache misses: a swept point's value
    depends on that point alone (a ``montecarlo`` point reads only its own
    levels of the shared nested world, see :mod:`repro.montecarlo.sweep`),
    so cached siblings are never recomputed.

    A group whose resolved options make its batch kernel share a sampled
    world across its points
    (:meth:`~repro.api.registry.MethodDefinition.shares_work`: an
    uncorrelated ``montecarlo`` group) is one task: splitting it would
    sample the world once per part.  Every other group computes each point
    on its own (``exact``, whose swept values equal per-point values,
    methods without a batch kernel, and a correlated ``montecarlo`` group,
    each point on its digest-keyed stream).  Such groups that resolve the
    same point models -- the same base and factory parameters; method
    options such as ``level`` are not part of the key -- form one
    *bundle*.  The union of a bundle's variations is split into up to
    ``jobs`` chunks, and one task runs every group of the bundle over its
    chunk, so a point's ``exact`` and ``tail-quantile`` records (at any
    level or threshold) read one shared distribution
    (:func:`_evaluate_group`).  Heaviest tasks are dispatched
    first so the process pool drains evenly.

    Returns one ``(members, arguments)`` pair per task: ``members`` lists
    the ``(digest, planned index)`` of every point the task computes, in
    the order :func:`_evaluate_group` returns their outcomes, and
    ``arguments`` carry the caller's trace id and enclosing span id.
    """
    registry = default_registry()
    groups: dict[str, dict] = {}
    for digest, index in pending.items():
        entry = planned[index]
        key = group_digest(entry.payload)
        group = groups.get(key)
        if group is None:
            shared_stream = registry.get(entry.point.method.name).shares_work(
                entry.payload["method"]
            )
            shared = tuple(
                item for item in entry.consumed_params if item[0] not in MODEL_TRANSFORM_PARAMS
            )
            group = groups[key] = {
                "shared": shared,
                "method": entry.point.method,
                "members": [],
                "entropy": point_seed_entropy(spec, key),
                "weight": int(entry.payload["method"].get("replications", 1)),
                # The study's one base plus these params build the point models.
                "bundle": None if shared_stream else canonical_json(
                    group_payload(entry.payload)["params"]
                ),
            }
        group["members"].append((digest, index))
    # A task is a list of (group, members) pairs.
    tasks: list[list[tuple[dict, list]]] = []
    bundles: dict[str, list[dict]] = {}
    for group in groups.values():
        if group["bundle"] is not None:
            bundles.setdefault(group["bundle"], []).append(group)
        else:
            tasks.append([(group, group["members"])])
    for bundle in bundles.values():
        scales = list(
            dict.fromkeys(
                _scales(planned[index]) for group in bundle for _, index in group["members"]
            )
        )
        # Per-point digest seeding makes the split invisible in the results.
        parts = min(jobs, len(scales))
        size, remainder = divmod(len(scales), parts)
        offset = 0
        for part in range(parts):
            take = size + (1 if part < remainder else 0)
            chunk = set(scales[offset : offset + take])
            offset += take
            task = []
            for group in bundle:
                chosen = [
                    member for member in group["members"] if _scales(planned[member[1]]) in chunk
                ]
                if chosen:
                    task.append((group, chosen))
            tasks.append(task)
    tasks.sort(
        key=lambda task: sum(len(members) * group["weight"] for group, members in task),
        reverse=True,
    )
    # The caller's trace id and enclosing span ride in every task.
    context = (telemetry.current_trace_id(), telemetry.current_span_id())
    work = []
    for task in tasks:
        task_members: list[tuple[str, int]] = []
        arguments = []
        for group, members in task:
            variations = tuple(
                {"p_scale": p_scale, "q_scale": q_scale}
                for p_scale, q_scale in (_scales(planned[index]) for _, index in members)
            )
            entropies = tuple(point_seed_entropy(spec, digest) for digest, _ in members)
            task_members.extend(members)
            arguments.append(
                (group["shared"], group["method"], variations, group["entropy"], entropies)
            )
        work.append((task_members, (dict(spec.base), tuple(arguments), *context)))
    return work


def _assemble_row(planned: PlannedPoint, metrics: dict[str, Any]) -> dict[str, Any]:
    """One tidy table row: identity, full axis assignment, then metrics."""
    return {
        "point_id": planned.digest[:12],
        "method": planned.point.method.name,
        **planned.point.param_dict(),
        **metrics,
    }


def run_study(
    spec: StudySpec,
    cache_dir: str | None = None,
    jobs: int = 1,
    force: bool = False,
    progress: Callable[[int, int, int], None] | None = None,
    keep_going: bool = False,
) -> StudyResult:
    """Execute the study and return its result table.

    Cache misses are grouped by batchable axis -- points differing only in
    ``p_scale`` / ``q_scale`` -- and each group resolves its base model
    once (:func:`_plan_groups`).  An uncorrelated ``montecarlo`` group is
    one task scoring its missing points against one shared nested world
    (common random numbers; see :mod:`repro.montecarlo.sweep`); each
    point's value depends on that point alone, so extending a sweep and
    re-running warm gives the table of a cold run.  Every other group
    computes each point on its own and is bundled by point model and
    chunked across the workers: one task runs every method of a bundle
    over its chunk and computes each exact PFD distribution once, so a
    point's ``exact`` and ``tail-quantile`` records share one kernel run.
    ``exact`` / ``tail-quantile`` records (their kernels loop the scalar
    kernel), methods without a batched kernel and correlated
    ``montecarlo`` points (each on its digest-keyed stream) equal the
    per-point :func:`repro.evaluate` records of their rescaled models.
    A shared-world group the kernel declines at runtime (past its memory
    budget) runs point by point inside its single task.

    Parameters
    ----------
    spec:
        The validated study specification.
    cache_dir:
        Content-addressed result cache directory; ``None`` disables caching.
    jobs:
        Worker processes for the uncached points (1 = run in-process).
        Results are identical for any value; the pool is capped at the
        machine's CPU count, since extra workers on an oversubscribed
        machine only add scheduling overhead.
    force:
        Recompute every point even on a cache hit (fresh records still
        overwrite the cache, keeping it warm for the next run).
    progress:
        Optional callback ``(done, total, computed)`` invoked after every
        resolved evaluation (``total`` counts distinct evaluations, which is
        fewer than the point count when points differ only in axes their
        method ignores).
    keep_going:
        When true, a failing point does not abort the study: the run
        completes, the failed points become typed error rows in the result
        table (``status="error"`` plus ``error_type`` / ``error`` columns,
        no metric columns) and the summary records the ``failed`` count.
        Failures are never cached, so a warm re-run recomputes exactly the
        failed points -- the natural repair loop for long sweeps.  With the
        default ``keep_going=False`` the first failure raises (completed
        evaluations are still cached), preserving the strict behaviour.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be a positive integer, got {jobs}")
    # One trace for the whole run, its pool tasks' spans included: the
    # caller's, or a fresh one.
    token = telemetry.set_trace_id(telemetry.current_trace_id() or telemetry.new_trace_id())
    try:
        return _run_study(spec, cache_dir, jobs, force, progress, keep_going)
    finally:
        token.var.reset(token)


def _run_study(
    spec: StudySpec,
    cache_dir: str | None,
    jobs: int,
    force: bool,
    progress: Callable[[int, int, int], None] | None,
    keep_going: bool,
) -> StudyResult:
    with telemetry.span("study.plan", study=spec.name):
        planned = plan_study(spec)
    distinct = len({entry.digest for entry in planned})
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    metrics_by_digest: dict[str, dict[str, Any]] = {}
    errors_by_digest: dict[str, dict[str, Any]] = {}
    resolved = 0
    cached_count = 0
    # Points whose ignored axes differ share a digest; evaluate each
    # distinct digest once and fan the metrics out to every point using it.
    pending: dict[str, int] = {}
    probe_started = time.perf_counter()
    for index, entry in enumerate(planned):
        if entry.digest in metrics_by_digest or entry.digest in pending:
            continue
        cached = None if (cache is None or force) else cache.load(entry.digest)
        if cached is not None:
            metrics_by_digest[entry.digest] = cached["metrics"]
            cached_count += 1
            resolved += 1
            if progress is not None:
                progress(resolved, distinct, 0)
        else:
            pending[entry.digest] = index
    telemetry.record(
        "study.cache_probe",
        time.perf_counter() - probe_started,
        points=len(planned),
        hits=cached_count,
        misses=len(pending),
    )

    # Worker processes beyond the machine's cores only add scheduling and
    # fork overhead (results are identical for any ``jobs`` by
    # construction), so parallelism is capped at the CPU count throughout.
    import os

    effective_jobs = min(jobs, max(1, os.cpu_count() or 1))
    # Grouping is only planned when there is work: a fully warm run must not
    # pay the per-point group hashing.
    groups = _plan_groups(spec, planned, pending, effective_jobs) if pending else []
    if pending:
        executor = None
        dispatch_started = time.perf_counter()
        # On a single-core machine (or with one task) the run stays
        # in-process.
        workers = min(effective_jobs, len(groups))
        work = [arguments for _, arguments in groups]
        # A task's span events come home in its reply, in process or not.
        run_task = functools.partial(telemetry.run_captured, _evaluate_group)
        if workers > 1:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            from repro.api.methods import import_kernels

            # Forked workers inherit this process's modules and tracer:
            # import the kernels once here rather than once in every worker.
            import_kernels()
            executor = ProcessPoolExecutor(
                max_workers=workers, mp_context=multiprocessing.get_context("fork")
            )
            fresh = executor.map(run_task, work)
        else:
            fresh = map(run_task, work)
        failures: list[tuple[str, int, str]] = []
        try:
            # Task by task: its span events, then each point's outcome.
            for (members, _), (outcomes, error, events) in zip(groups, fresh):
                telemetry.write_events(events)
                if error is not None:
                    raise error
                for (digest, index), (status, outcome) in zip(members, outcomes):
                    if status == "error":
                        failures.append((digest, index, outcome))
                        continue
                    metrics_by_digest[digest] = outcome
                    resolved += 1
                    if cache is not None:
                        cache.store(digest, planned[index].payload, outcome)
                    if progress is not None:
                        progress(resolved, distinct, resolved - cached_count)
        finally:
            if executor is not None:
                executor.shutdown()
            telemetry.record(
                "study.dispatch",
                time.perf_counter() - dispatch_started,
                tasks=len(groups),
                workers=workers,
            )
        if failures and not keep_going:
            _, index, message = failures[0]
            entry = planned[index]
            params = ", ".join(f"{key}={value}" for key, value in entry.point.params) or "(no axes)"
            salvage = "completed evaluations were cached; " if cache is not None else ""
            raise ValueError(
                f"{len(failures)} of {len(pending)} evaluation(s) failed ({salvage}"
                f"fix the spec and re-run). First failure: point {entry.digest[:12]} "
                f"(method {entry.point.method.name}, {params}): {message}"
            )
        # keep_going: failed points become typed error rows.  Failures are
        # deliberately *not* cached, so the next (warm) run recomputes only
        # them -- everything that succeeded serves from the cache.
        for digest, _, message in failures:
            error_type, separator, detail = message.partition(": ")
            errors_by_digest[digest] = {
                "status": "error",
                "error_type": error_type if separator else "Error",
                "error": detail if separator else message,
            }

    axis_sizes = {axis.name: len(axis.values) for axis in spec.grid + spec.zipped}
    summary = {
        "study": spec.name,
        "description": spec.description,
        "points": len(planned),
        "evaluations": cached_count + len(pending),
        "computed": len(pending),
        "cached": cached_count,
        "jobs": jobs,
        "keep_going": keep_going,
        "failed": len(errors_by_digest),
        "dispatched_tasks": len(groups),
        "seed": spec.seed,
        "methods": [method.name for method in spec.methods],
        "axes": axis_sizes,
        "cache_dir": cache_dir,
    }
    with telemetry.span("study.aggregate", study=spec.name, points=len(planned)):
        rows = tuple(
            _assemble_row(
                entry, metrics_by_digest.get(entry.digest) or errors_by_digest[entry.digest]
            )
            for entry in planned
        )
        return StudyResult(name=spec.name, records=rows, summary=summary)
