"""Throughput benchmark entry point: emits a ``BENCH_perf.json`` record.

Runs the performance-critical workloads (Monte Carlo engines, the exact-PFD
kernel, studies, serving, the cluster, telemetry and start-up) and writes one
JSON record with wall time, throughput and peak RSS per workload, so future
changes have a perf trajectory to regress against.  Each workload runs in its
*own subprocess*: peak RSS (``ru_maxrss``) is a process-wide high-water mark.

Every ratio that ``--check`` gates is timed one way, by :func:`alternate`:
its sides run in :data:`ROUNDS` rounds (``dispatch``: five), in reverse order
on every other round, and the gate reads the median per-round ratio.  Its
:func:`speedup` summary (per-round ratios, each side's per-round and median
seconds and spread) sits in the workload's ``gate_rounds`` under the gated
key, and a failed check prints it.  The engine gates (:data:`ALTERNATED`)
run one subprocess per side per round.

Usage::

    python benchmarks/run_benchmarks.py               # full record -> BENCH_perf.json
    python benchmarks/run_benchmarks.py --quick       # smaller sizes (CI-friendly)
    python benchmarks/run_benchmarks.py --quick --check   # CI gate: fail on regressions
    python benchmarks/run_benchmarks.py --output path/to/record.json

``--workload NAME --json`` is the internal per-subprocess mode.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

#: Timing of the *seed* (pre-fast-core) implementation of
#: ``exact_pfd_distribution``, measured once on seed commit 2ed04c8 on this
#: container class; kept as the fixed reference the fast core is compared
#: against (re-running the seed algorithm at n=2000 takes >6 minutes, which
#: is the point).
SEED_CONVOLUTION_REFERENCE = [
    {"n": 200, "max_support": 4096, "seconds": 38.06},
    {"n": 500, "max_support": 1024, "seconds": 3.33},
    {"n": 2000, "max_support": 4096, "seconds": 373.06},
]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: Rounds of every alternated ratio gate (see :func:`alternate`).
ROUNDS = 3


def alternate(sides: dict, rounds: int = ROUNDS) -> dict[str, list[dict]]:
    """Each side's measurements after ``rounds`` rounds, in reverse order on odd rounds.

    ``sides`` maps a name to a callable of the round index that runs that
    side once and returns its measurement, a dict with its ``seconds``.
    Run once each, in one order, a ratio carries whatever the host drifted
    by between its sides; reversing the order every other round spreads
    that drift over both, and a median of per-round ratios
    (:func:`speedup`) ignores one disturbed round.
    """
    runs = {name: [] for name in sides}
    for index in range(rounds):
        for name in list(sides) if index % 2 == 0 else list(sides)[::-1]:
            runs[name].append(sides[name](index))
    return runs


def speedup(runs: dict[str, list[dict]], side: str, reference: str) -> dict:
    """``reference`` seconds / ``side`` seconds in each of :func:`alternate`'s rounds.

    The per-round ratios and their median, and under ``seconds`` each
    side's per-round and median seconds and their spread, (slowest -
    fastest) / median.
    """
    seconds = {name: [run["seconds"] for run in runs[name]] for name in (side, reference)}
    ratios = [theirs / ours for ours, theirs in zip(seconds[side], seconds[reference])]
    return {
        "side": side,
        "reference": reference,
        "round_ratios": [round(ratio, 4) for ratio in ratios],
        "median_ratio": round(statistics.median(ratios), 4),
        "seconds": {
            name: {
                "rounds": [round(value, 6) for value in values],
                "median": round(statistics.median(values), 6),
                "spread": round((max(values) - min(values)) / statistics.median(values), 3),
            }
            for name, values in seconds.items()
        },
    }


# --------------------------------------------------------------------- #
# Workloads (each runs in a fresh subprocess)
# --------------------------------------------------------------------- #
#: The engine workloads on the n=200 scenario: name -> (engine method, its
#: extra arguments, quick and full replications, the result figure kept).
#: Both sides of each engine gate (:data:`ALTERNATED`) run the same
#: replications, so their seconds divide as their throughputs do.  Full
#: ``paired`` is the acceptance workload: 10M replications at n=200 within
#: a ~500 MB peak RSS, where a dense draw would need three ``(10M, 200)``
#: float64 uniform matrices.
ENGINE_WORKLOADS = {
    "single": ("simulate_single_streaming", {}, (500_000, 2_000_000), "mean_pfd"),
    "paired": ("simulate_paired", {}, (1_000_000, 10_000_000), "risk_ratio"),
    "paired_streaming": ("simulate_paired_streaming", {}, (1_000_000, 10_000_000), "risk_ratio"),
    "one_out_of_r": (
        "simulate_systems_streaming", {"versions": 3}, (500_000, 2_000_000), "mean_pfd"
    ),
}


def workload_engine(name: str, quick: bool) -> dict:
    """Monte Carlo engine throughput: one :data:`ENGINE_WORKLOADS` entry."""
    from repro.experiments.scenarios import many_small_faults_scenario
    from repro.montecarlo.engine import CHUNK_ROWS, MonteCarloEngine

    method, options, (quick_size, full_size), figure = ENGINE_WORKLOADS[name]
    replications = quick_size if quick else full_size
    engine = MonteCarloEngine(many_small_faults_scenario(n=200))
    start = time.perf_counter()
    result = getattr(engine, method)(replications, rng=7, **options)
    elapsed = time.perf_counter() - start
    return {
        "replications": replications,
        **options,
        "n": 200,
        "chunk_size": CHUNK_ROWS,
        "seconds": round(elapsed, 4),
        "replications_per_second": round(replications / elapsed),
        "peak_rss_mb": round(_peak_rss_mb(), 1),
        figure: getattr(result, figure)(),
    }


#: Levels at which the convolution record reports relative bracket widths.
BRACKET_LEVELS = (0.9, 0.99, 0.999)


def workload_convolution(quick: bool) -> dict:
    """The exact-PFD kernel -- two integer lattice folds -- across model sizes.

    For each ``n`` and versions 1 and 2 (``max_support=4096``, a lattice of
    16,384 cells) the record holds the best of three kernel times and the
    relative width ``(hi - lo) / hi`` of the bracket of the 0.9, 0.99 and
    0.999 quantiles (0 where the quantile is the closed-form zero).
    ``cold_mix_model`` times the kernel on the benchmark's ``cold_mix``
    model shape (100 random faults, versions 2, default options), median
    over five models.
    """
    import numpy as np

    from repro.core.fault_model import FaultModel
    from repro.core.pfd_distribution import exact_pfd_distribution, pfd_quantiles, prob_pfd_zero
    from repro.experiments.scenarios import many_small_faults_scenario

    def best_seconds(model, versions: int) -> float:
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            exact_pfd_distribution(model, versions, max_support=4096)
            best = min(best, time.perf_counter() - start)
        return best

    sizes = [100, 200, 500, 1000, 2000] if quick else [100, 200, 500, 1000, 2000, 5000]
    rows = []
    for n in sizes:
        model = many_small_faults_scenario(n=n)
        for versions in (1, 2):
            bracket = exact_pfd_distribution(model, versions, max_support=4096)
            quantiles = pfd_quantiles(bracket, BRACKET_LEVELS, prob_pfd_zero(model, versions))
            rows.append(
                {
                    "n": n,
                    "versions": versions,
                    "max_support": 4096,
                    "seconds": round(best_seconds(model, versions), 4),
                    "support": bracket.support_size,
                    **{
                        f"width_{level}": (high - low) / high if high else 0.0
                        for level, (low, high) in zip(BRACKET_LEVELS, quantiles)
                    },
                }
            )
    cold_models = [
        FaultModel.random(np.random.default_rng(seed), n=100, p_range=(0.001, 0.1), total_impact=0.5)
        for seed in range(5)
    ]
    cold_seconds = sorted(best_seconds(model, 2) for model in cold_models)[len(cold_models) // 2]
    return {
        "pair": rows,
        "cold_mix_model": {"n": 100, "versions": 2, "seconds": round(cold_seconds, 4)},
        "peak_rss_mb": round(_peak_rss_mb(), 1),
    }


def workload_study(quick: bool) -> dict:
    """Declarative study runner: cold (parallel) versus warm (fully cached) pass."""
    import tempfile

    from repro.studies import StudySpec, run_study

    n_values = [50, 100, 200] if quick else [50, 100, 200, 500]
    replications = 5_000 if quick else 50_000
    spec = StudySpec.from_dict(
        {
            "name": "bench-study",
            "base": {"scenario": "many-small-faults"},
            "sweep": {
                "grid": [
                    {"name": "n", "values": n_values},
                    {"name": "p_scale", "logspace": [0.125, 1.0, 5]},
                ]
            },
            "methods": [
                {"name": "moments"},
                {"name": "bounds"},
                {"name": "exact", "max_support": 1024},
                {"name": "montecarlo", "replications": replications},
            ],
            "seed": 20010704,
        }
    )
    with tempfile.TemporaryDirectory() as tmp:
        cache_dir = f"{tmp}/cache"
        start = time.perf_counter()
        cold = run_study(spec, cache_dir=cache_dir, jobs=4)
        cold_elapsed = time.perf_counter() - start
        start = time.perf_counter()
        warm = run_study(spec, cache_dir=cache_dir, jobs=4)
        warm_elapsed = time.perf_counter() - start
    if warm.summary["computed"] != 0 or warm.records != cold.records:
        raise RuntimeError("warm study run failed to reproduce the cold run from cache")
    return {
        "points": cold.summary["points"],
        "evaluations": cold.summary["computed"],
        "jobs": 4,
        "cold_seconds": round(cold_elapsed, 3),
        "warm_seconds": round(warm_elapsed, 4),
        "cold_points_per_second": round(cold.summary["points"] / cold_elapsed, 1),
        "warm_speedup": round(cold_elapsed / warm_elapsed, 1),
        "peak_rss_mb": round(_peak_rss_mb(), 1),
    }


def _evaluate_point(arguments: tuple) -> dict:
    """One study point through ``repro.evaluate`` (module-level for the pool)."""
    from repro import evaluate
    from repro.studies.methods import resolve_model, split_point_params

    base, params, method, seed = arguments
    factory_kwargs, transforms, overrides, _ = split_point_params(base, params, method)
    model = resolve_model(base, factory_kwargs, transforms)
    options = {**dict(method.options), **overrides}
    return evaluate(model, method.name, seed=seed, **options).metric_dict()


def _dense_point(arguments: tuple) -> dict:
    """One ``montecarlo`` study point on the dense engine (module-level for the pool).

    ``MonteCarloEngine(model.rescaled(k)).simulate_paired_streaming`` with
    the point's digest seed.  This is a retired serving path: it is what
    ``repro.evaluate`` ran for every lone ``montecarlo`` before a request
    within the sparse kernel's memory budget became its one-point sweep,
    and no such request runs it now.  It stays here as the fixed reference
    of the ``sweep1000`` gate, which the lone path no longer provides.
    """
    import numpy as np

    from repro.montecarlo.engine import MonteCarloEngine
    from repro.studies.methods import resolve_model, split_point_params

    base, params, method, seed = arguments
    factory_kwargs, transforms, overrides, _ = split_point_params(base, params, method)
    model = resolve_model(base, factory_kwargs, transforms)
    replications = int({**dict(method.options), **overrides}["replications"])
    rng = np.random.default_rng(np.random.SeedSequence(list(seed)))
    summary = MonteCarloEngine(model).simulate_paired_streaming(replications, rng=rng).summary()
    return {f"mc_{key}": value for key, value in summary.items()}


def _run_per_point(
    spec, cache_dir: str, jobs: int, evaluate_point=_evaluate_point
) -> tuple[int, dict]:
    """A study dispatched one task per point: the per-point reference side.

    Plans the study, evaluates every pending point as its own pool task
    (``evaluate_point``: by default ``repro.evaluate`` on the rescaled model
    with the point's digest seed), and stores one cache entry per record --
    the work a study did before groups were its one dispatch path.  The
    pool has ``jobs`` workers capped at the CPU count, as
    :func:`repro.studies.run_study` caps its own.  Returns ``(tasks,
    metrics by digest)``.
    """
    from concurrent.futures import ProcessPoolExecutor

    from repro.api.methods import import_kernels
    from repro.cache import ResultCache
    from repro.studies import plan_study, point_seed_entropy

    cache = ResultCache(cache_dir)
    pending = {}
    for entry in plan_study(spec):
        if cache.load(entry.digest) is None:
            pending.setdefault(entry.digest, entry)
    work = [
        (dict(spec.base), dict(entry.consumed_params), entry.point.method,
         point_seed_entropy(spec, digest))
        for digest, entry in pending.items()
    ]
    import_kernels()
    fresh = {}
    with ProcessPoolExecutor(max_workers=min(jobs, os.cpu_count() or 1)) as pool:
        # Stored as they arrive, while the workers compute the rest.
        for (digest, entry), metrics in zip(pending.items(), pool.map(evaluate_point, work)):
            cache.store(digest, entry.payload, metrics)
            fresh[digest] = metrics
    return len(work), fresh


def workload_sweep1000(quick: bool) -> dict:
    """1000-point sweep: grouped study dispatch versus per-point tasks, per method.

    One ``p_scale`` axis with 500 values (50 quick) evaluated by ``exact``
    and ``montecarlo``.  Each method runs as its own study over fresh
    caches (jobs=4), once through ``run_study`` (grouped) and once one task
    per point (:func:`_run_per_point`), in :func:`alternate` rounds;
    ``{method}_speedup`` is the median per-round ratio of reference to
    grouped seconds.  Exact sweeps run the scalar kernel per point either
    way (the records are checked equal), so ``exact_speedup``, against the
    ``per_point`` side, only says that grouping is no slower.  A lone
    ``montecarlo`` within the sparse kernel's budget is its own one-point
    sweep, so the ``per_point`` side runs the sweep kernel too;
    ``montecarlo_speedup`` is read against a third side that does not move
    with it, ``dense_per_point`` (:func:`_dense_point`: the dense engine per
    point, a retired path that serving no longer takes for these points),
    and ``montecarlo_lone_speedup`` (ungated) against ``per_point``, the
    path serving does take.  ``speedup`` is the combined grouped /
    ``per_point`` figure over both methods' median times.

    ``exact_tail_shared_speedup`` compares one ``exact`` + ``tail-quantile``
    study over 50 of the sweep's ``p_scale`` points with the two
    single-method studies over the same points, at the default
    ``max_support`` where the kernel dominates: the combined study computes
    each point's exact distribution once and both methods read it.  Both
    sides run in-process, so the ratio measures the kernel work saved
    rather than pool start-up.
    """
    import shutil
    import tempfile

    from repro.studies import StudySpec, plan_study, run_study

    points = 50 if quick else 500
    replications = 2_000 if quick else 10_000
    jobs = 4
    methods = {
        "exact": {"name": "exact", "max_support": 256},
        "montecarlo": {"name": "montecarlo", "replications": replications},
    }
    # Each method's sides, the gated reference second.
    sides_of = {
        "exact": ("grouped", "per_point"),
        "montecarlo": ("grouped", "dense_per_point", "per_point"),
    }
    def spec(name: str, axis: dict, methods: list) -> StudySpec:
        return StudySpec.from_dict(
            {
                "name": name,
                "base": {"scenario": "many-small-faults"},
                "sweep": {"grid": [{"name": "p_scale", **axis}]},
                "methods": methods,
                "seed": 20010704,
            }
        )

    # Untimed, so the first timed pass does not pay the process's first-run
    # costs (about half a second, as much as a whole quick exact pass).
    warmup = spec("bench-sweep1000-warmup", {"values": [0.5, 1.0]}, list(methods.values()))
    run_study(warmup, jobs=jobs)
    with tempfile.TemporaryDirectory() as tmp:
        _run_per_point(warmup, f"{tmp}/warmup", jobs)

        # A side: ``run(cache_dir)`` timed on a fresh cache, removed after:
        # entries pile up otherwise, and each round's stores run slower.
        def timed(label: str, run):
            def one_round(index: int) -> dict:
                cache_dir = f"{tmp}/{label}-{index}"
                start = time.perf_counter()
                result = run(cache_dir)
                seconds = time.perf_counter() - start
                shutil.rmtree(cache_dir)
                return {"seconds": seconds, "result": result}

            return one_round

        def method_side(name: str, side: str):
            def run(cache_dir: str) -> tuple[int, object]:
                """``(dispatched tasks, records)``."""
                if side == "grouped":
                    result = run_study(sweeps[name], cache_dir=cache_dir, jobs=jobs)
                    tasks, computed = result.summary["dispatched_tasks"], result.summary["computed"]
                    records = result.records
                else:
                    point = _dense_point if side == "dense_per_point" else _evaluate_point
                    tasks, records = _run_per_point(sweeps[name], cache_dir, jobs, point)
                    computed = len(records)
                if computed != points:
                    raise RuntimeError(f"{name} {side}: computed {computed} of {points} points")
                return tasks, records

            return timed(f"{name}-{side}", run)

        sweeps = {
            name: spec(f"bench-sweep1000-{name}", {"logspace": [0.05, 1.0, points]}, [method])
            for name, method in methods.items()
        }
        runs = {
            name: alternate({side: method_side(name, side) for side in sides_of[name]})
            for name in methods
        }
        digests = [entry.digest for entry in plan_study(sweeps["exact"])]
        for grouped, per_point in zip(runs["exact"]["grouped"], runs["exact"]["per_point"]):
            records = dict(zip(digests, grouped["result"][1]))
            for digest, metrics in per_point["result"][1].items():
                if {key: records[digest][key] for key in metrics} != metrics:
                    raise RuntimeError("exact: a grouped record differs from its per-point record")
        axis = {"logspace": [0.05, 1.0, 50]}
        pair = [{"name": "exact"}, {"name": "tail-quantile"}]

        def studies(label: str, sweeps: list):
            def run(cache_dir: str) -> None:
                for position, sweep in enumerate(sweeps):
                    run_study(sweep, cache_dir=f"{cache_dir}/{position}")

            return timed(label, run)

        shared = alternate(
            {
                "shared": studies("shared", [spec("bench-sweep1000-shared", axis, pair)]),
                "separate": studies(
                    "separate",
                    [spec(f"bench-sweep1000-{m['name']}-alone", axis, [m]) for m in pair],
                ),
            }
        )
    summaries = {
        f"{name}_speedup": speedup(runs[name], "grouped", sides_of[name][1]) for name in methods
    }
    summaries["montecarlo_lone_speedup"] = speedup(runs["montecarlo"], "grouped", "per_point")
    summaries["exact_tail_shared_speedup"] = speedup(shared, "shared", "separate")
    grouped_elapsed, per_point_elapsed = (
        sum(statistics.median(run["seconds"] for run in runs[name][side]) for name in methods)
        for side in ("grouped", "per_point")
    )
    total_points = points * len(methods)
    return {
        "points": total_points,
        "replications": replications,
        "jobs": jobs,
        "rounds": ROUNDS,
        "grouped_seconds": round(grouped_elapsed, 3),
        "per_point_seconds": round(per_point_elapsed, 3),
        "grouped_points_per_second": round(total_points / grouped_elapsed, 1),
        "per_point_points_per_second": round(total_points / per_point_elapsed, 1),
        "speedup": round(per_point_elapsed / grouped_elapsed, 1),
        **{key: round(summary["median_ratio"], 2) for key, summary in summaries.items()},
        **{f"{name}_speedup_reference": sides_of[name][1] for name in methods},
        **{
            f"dispatched_tasks_{side}": sum(runs[name][side][0]["result"][0] for name in methods)
            for side in ("grouped", "per_point")
        },
        **{
            f"exact_tail_{label}_seconds": round(seconds["median"], 3)
            for label, seconds in summaries["exact_tail_shared_speedup"]["seconds"].items()
        },
        "gate_rounds": summaries,
        "peak_rss_mb": round(_peak_rss_mb(), 1),
    }


def workload_service_throughput(quick: bool) -> dict:
    """Evaluation service: a concurrent burst versus serial references.

    A sweep-style workload (one montecarlo point per request across a
    ``p_scale`` axis, one model and one seed) run three ways in each of
    :func:`alternate`'s rounds: ``burst``, N concurrent clients against a
    fresh server, each request computed on arrival in the server's worker
    threads, then the burst again, warm (answered from the LRU with zero
    recomputation, enforced here); ``dense_serial``, the dense engine
    in-process on each point's rescaled model in turn; and ``serial``, the N
    requests one at a time against a fresh server.

    ``speedup``, the gated ratio, reads the burst against ``dense_serial``:
    a fixed reference that the sparse lone path does not move, though the
    server no longer runs it for these requests.  ``lone_speedup``
    (ungated) reads the burst against ``serial``, the same requests with no
    concurrency, so it shows what the worker threads overlap.  The server
    counters are the last round's.
    """
    from concurrent.futures import ThreadPoolExecutor

    import numpy as np

    from repro.experiments.scenarios import many_small_faults_scenario
    from repro.montecarlo.engine import MonteCarloEngine
    from repro.service import EvaluationServer, ServiceClient, start_in_background

    points = 16 if quick else 32
    replications = 20_000 if quick else 50_000
    model = many_small_faults_scenario(n=100)
    scales = [0.1 + 0.9 * index / (points - 1) for index in range(points)]

    def request(client: ServiceClient, scale: float):
        options = {"replications": replications}
        return client.evaluate(model, "montecarlo", options=options, seed=7, p_scale=scale)

    def concurrent(client: ServiceClient) -> float:
        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=points) as pool:
            list(pool.map(lambda scale: request(client, scale), scales))
        return time.perf_counter() - start

    def burst(_) -> dict:
        server = EvaluationServer(lru_size=4 * points)
        with start_in_background(server) as handle:
            client = ServiceClient(port=handle.port)
            seconds = concurrent(client)
            after_cold = client.metrics()
            warm_seconds = concurrent(client)
            after_warm = client.metrics()
        recomputed = after_warm["evaluations_computed"] - after_cold["evaluations_computed"]
        if recomputed != 0:
            raise RuntimeError(f"warm burst recomputed {recomputed} evaluations")
        return {
            "seconds": seconds,
            "warm_seconds": warm_seconds,
            "warm_recomputed": recomputed,
            "warm_cache_hits": after_warm["cache_hits_lru"] - after_cold["cache_hits_lru"],
        }

    def dense_serial(_) -> dict:
        # What each serial request computed before a lone montecarlo within
        # the sparse kernel's budget became its one-point sweep, without the
        # wire.
        start = time.perf_counter()
        for scale in scales:
            rng = np.random.default_rng(np.random.SeedSequence([7]))
            MonteCarloEngine(model.rescaled(scale)).simulate_paired_streaming(replications, rng=rng)
        return {"seconds": time.perf_counter() - start}

    def serial(_) -> dict:
        server = EvaluationServer(lru_size=4 * points)
        with start_in_background(server) as handle:
            client = ServiceClient(port=handle.port)
            start = time.perf_counter()
            for scale in scales:
                request(client, scale)
            return {"seconds": time.perf_counter() - start}

    runs = alternate({"burst": burst, "dense_serial": dense_serial, "serial": serial})
    summaries = {
        "speedup": speedup(runs, "burst", "dense_serial"),
        "lone_speedup": speedup(runs, "burst", "serial"),
    }
    median = {side: statistics.median(run["seconds"] for run in runs[side]) for side in runs}
    warm_seconds = statistics.median(run["warm_seconds"] for run in runs["burst"])
    return {
        "points": points,
        "replications": replications,
        "burst_seconds": round(median["burst"], 3),
        "serial_seconds": round(median["serial"], 3),
        "dense_serial_seconds": round(median["dense_serial"], 3),
        "warm_seconds": round(warm_seconds, 4),
        **{key: round(summary["median_ratio"], 1) for key, summary in summaries.items()},
        "speedup_reference": "dense_serial",
        "warm_speedup": round(median["serial"] / warm_seconds, 1),
        "burst_requests_per_second": round(points / median["burst"], 1),
        "serial_requests_per_second": round(points / median["serial"], 1),
        **{key: runs["burst"][-1][key] for key in ("warm_recomputed", "warm_cache_hits")},
        "gate_rounds": summaries,
        "peak_rss_mb": round(_peak_rss_mb(), 1),
    }


def _echo_job(arguments):
    """The trivial pool job of ``pool_handoff``: hand-off cost only."""
    return arguments


def _process_cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds of one live process (Linux ``/proc``)."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def workload_pool_handoff(quick: bool) -> dict:
    """CPU per trivial job through the server's worker pool.

    The same ``worker.run_job`` envelope around an echo function, awaited
    one job at a time from an asyncio loop, through the server's pool
    (:class:`repro.service.pool.WorkerPool`: forked workers on direct
    pipes) and through a fork-context ``ProcessPoolExecutor`` via
    ``run_in_executor`` (the hand-off it replaced), each with one worker.
    Parent CPU counts every thread of this process (the executor's manager
    and queue-feeder threads too); worker CPU is read from ``/proc`` for the
    child processes the first job started.  A record, not a gate.
    """
    import asyncio
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    from repro.service import EvaluationServer, worker

    jobs = 500 if quick else 2000
    payload = list(range(64))

    def measure(submit) -> dict:
        async def run() -> tuple[float, float, float]:
            before = {child.pid for child in multiprocessing.active_children()}
            await submit(payload)  # the first job starts the worker
            pids = [
                child.pid
                for child in multiprocessing.active_children()
                if child.pid not in before
            ]
            parent = time.process_time()
            workers = sum(_process_cpu_seconds(pid) for pid in pids)
            wall = time.perf_counter()
            for _ in range(jobs):
                await submit(payload)
            wall = time.perf_counter() - wall
            workers = sum(_process_cpu_seconds(pid) for pid in pids) - workers
            return time.process_time() - parent, workers, wall

        parent, workers, wall = asyncio.run(run())
        return {
            "parent_cpu_us_per_job": round(parent / jobs * 1e6, 1),
            "worker_cpu_us_per_job": round(workers / jobs * 1e6, 1),
            "wall_us_per_job": round(wall / jobs * 1e6, 1),
        }

    server = EvaluationServer(workers=1)
    try:
        pool = measure(lambda arguments: server._run_in_pool(_echo_job, arguments))
    finally:
        asyncio.run(server.aclose(drain_seconds=0.0))

    executor = ProcessPoolExecutor(max_workers=1, mp_context=multiprocessing.get_context("fork"))

    async def executor_submit(arguments):
        job = (_echo_job, arguments, None, None)
        loop = asyncio.get_running_loop()
        result, _, _, _ = await loop.run_in_executor(executor, worker.run_job, job)
        return result

    try:
        executor_record = measure(executor_submit)
    finally:
        executor.shutdown()
    return {
        "jobs": jobs,
        "worker_pool": pool,
        "process_pool_executor": executor_record,
        "parent_cpu_ratio": round(
            executor_record["parent_cpu_us_per_job"] / max(pool["parent_cpu_us_per_job"], 0.1), 1
        ),
        "peak_rss_mb": round(_peak_rss_mb(), 1),
    }


#: First port of ``cluster_loadgen``'s shards: the single shard takes the
#: base, the two routed shards the next two ports.  The ring hashes
#: ``host:port``, so fixed ports keep the payloads :func:`_even_split`
#: draws for them the same from run to run.
CLUSTER_BASE_PORT = 24650


def _free_ports(base: int, count: int, attempts: int = 20) -> list[int]:
    """``count`` consecutive bindable ports from ``base``, stepping by 10 when busy."""
    import socket

    for attempt in range(attempts):
        ports = [base + 10 * attempt + offset for offset in range(count)]
        bindable = True
        for port in ports:
            with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
                probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                try:
                    probe.bind(("127.0.0.1", port))
                except OSError:
                    bindable = False
                    break
        if bindable:
            return ports
    raise RuntimeError(f"no {count} free consecutive ports near {base}")


def _even_split(seed: int, distinct: int, shards: list[str], **workload) -> list[dict]:
    """``distinct`` loadgen payloads, an equal share owned by each shard.

    Walks a longer seeded :func:`~repro.cluster.loadgen.build_workload`
    draw and keeps, in draw order, the first ``distinct / len(shards)``
    payloads whose digest each shard owns on the router's ring.
    The split is even by construction, whatever the digests are.
    """
    from repro.cluster.loadgen import build_workload
    from repro.cluster.ring import ConsistentHashRing
    from repro.service.protocol import parse_evaluate_payload

    # ShardRouter's ring for these shards (the same default virtual nodes).
    ring = ConsistentHashRing(shards)
    share = distinct // len(shards)
    owned = {shard: [] for shard in shards}
    for item in build_workload(seed, 8 * distinct, **workload):
        key = parse_evaluate_payload({**item, "model": item["model"].to_dict()}).digest()
        items = owned[ring.owner(key)]
        if len(items) < share:
            items.append(item)
    if any(len(items) < share for items in owned.values()):
        raise RuntimeError(f"no even split of {distinct} keys over {shards}")
    return [item for shard in shards for item in owned[shard]]


def workload_cluster_loadgen(quick: bool) -> dict:
    """Routed 2-shard cluster versus one shard under the open-loop loadgen.

    Every shard gets a single-process worker pool (``workers=1``), so two
    shards behind the router are two real worker processes and the routed
    cold phase measures scale-out compute throughput.  The two cold sides
    run in :func:`alternate` rounds, each on freshly started servers, and
    serve the same requests, so ``routed_speedup`` is the median per-round
    ratio of single to routed seconds.

    Each payload's digest is owned by one routed shard, and
    :func:`_even_split` gives each shard half of them, so the two worker
    processes get equal work.  At these replication counts every drawn
    payload's one-point sweep expects more sparse entries than the engine's
    ``BLOCK_CELLS`` budget (170k-485k quick, 287k-808k full, against 131k),
    so each request runs the dense engine for a few hundred milliseconds,
    far above the in-process router, shard and client work per request:
    the phase measures compute.

    After the last round's routed cold phase, the warm phase re-runs the
    identical schedule through that router and must be answered entirely
    from cache tiers (the gate diffs the shards' ``evaluations_computed``
    across it).  The duplicate-heavy phase stresses coalescing across
    shards and must come back error-free.

    The 1.5x routed-vs-single gate only applies when the machine actually
    has >= 2 CPUs (recorded in the ``cpus`` field); on a single-core runner
    two worker processes time-slice one core and the ratio is meaningless.
    """
    import os

    from repro.cluster import ShardRouter
    from repro.cluster.loadgen import LoadGenerator, duplicate_schedule
    from repro.service import EvaluationServer, ServiceClient, start_in_background

    # Sixteen keys even at quick size: each side's phase then lasts several
    # seconds, long enough to average out the host's second-to-second swings
    # in single-process speed (eight-key quick rounds read 1.16-2.4 on a
    # 2-vCPU host where one full-size sixteen-key run read 1.88-1.89).
    distinct = 16
    replications = 240_000 if quick else 400_000
    seed = 20010704
    # Offered far above service capacity: the open-loop schedule submits the
    # whole phase immediately and throughput measures compute, not the clock.
    rate = 1_000.0
    single_port, *shard_ports = _free_ports(CLUSTER_BASE_PORT, 3)
    shard_names = [f"127.0.0.1:{port}" for port in shard_ports]
    payloads = _even_split(
        seed, distinct, shard_names, n_faults=100, replications=replications
    )
    duplicates = duplicate_schedule(seed, payloads, factor=4)

    def drive(port: int, name: str, schedule) -> dict:
        generator = LoadGenerator(port=port, rate=rate, workers=distinct)
        try:
            report = generator.run_phase(name, schedule)
        finally:
            generator.close()
        if report["errors"]:
            raise RuntimeError(f"{name} phase had {report['errors']} errors: {report}")
        return report

    def shard() -> EvaluationServer:
        return EvaluationServer(workers=1, lru_size=4 * distinct)

    def single_side(_) -> dict:
        with start_in_background(shard(), port=single_port) as handle:
            return drive(handle.port, "cold", payloads)

    after = {}

    def routed_side(index: int) -> dict:
        """The routed cold phase; in the last round, the warm and duplicate phases too."""
        shards = shard(), shard()

        def computed() -> list[int]:
            return [server.registry["evaluations_computed"] for server in shards]

        with start_in_background(shards[0], port=shard_ports[0]), start_in_background(
            shards[1], port=shard_ports[1]
        ), start_in_background(ShardRouter(shard_names, lru_size=4 * distinct)) as routed:
            cold = drive(routed.port, "cold", payloads)
            split = computed()
            if split != [distinct // 2] * 2:
                raise RuntimeError(f"routing did not split the keys evenly: {split}")
            if index < ROUNDS - 1:
                return cold
            warm = drive(routed.port, "warm", payloads)
            warm_recomputed = sum(computed()) - sum(split)
            duplicates_report = drive(routed.port, "duplicates", duplicates)
            health = ServiceClient(port=routed.port).health()
        if warm_recomputed != 0:
            raise RuntimeError(f"warm phase recomputed {warm_recomputed} evaluations")
        if any(not state["healthy"] for state in health["shards"].values()):
            raise RuntimeError(f"router ejected a shard during the run: {health}")
        after.update(
            warm=warm,
            warm_recomputed=warm_recomputed,
            duplicates=duplicates_report,
            shard_computed=split,
        )
        return cold

    runs = alternate({"single": single_side, "routed": routed_side})
    summary = speedup(runs, "routed", "single")
    return {
        "distinct": distinct,
        "replications": replications,
        "cpus": os.cpu_count(),
        "routed_speedup": round(summary["median_ratio"], 2),
        "warm_rps": after["warm"]["throughput_rps"],
        "warm_recomputed": after["warm_recomputed"],
        "warm_served": after["warm"]["served"],
        "duplicates_rps": after["duplicates"]["throughput_rps"],
        "duplicates_served": after["duplicates"]["served"],
        "shard_ports": shard_ports,
        "shard_computed": after["shard_computed"],
        "cold_latency_ms": runs["routed"][-1]["latency_ms"],
        "warm_latency_ms": after["warm"]["latency_ms"],
        "gate_rounds": {"routed_speedup": summary},
        "peak_rss_mb": round(_peak_rss_mb(), 1),
    }


def workload_chaos_soak(quick: bool) -> dict:
    """Replicated kill-and-restart soak: fault tolerance as a benchmark.

    Runs :func:`repro.cluster.loadgen.run_soak` -- three in-process shards
    behind an R=2 router, every payload warmed and fanned out, then open-loop
    load while the busiest shard is killed (~30% in) and restarted (~65% in).
    The harness itself enforces byte-identity against the in-process API;
    the gates here hold the PR's headline robustness claims: the degraded
    phase (primary dead, replica answering) recomputes *nothing*, at least
    one read served from a fallback replica, and the readmitted shard
    resumed its exact pre-kill placement.  Latency-degradation ratios are
    recorded for trend-tracking, not gated (they are scheduler-sensitive).
    """
    from repro.cluster.loadgen import run_soak

    soak_seconds = 9.0 if quick else 24.0
    report = run_soak(
        seed=20010704,
        distinct=8,
        shards=3,
        replication=2,
        rate=24.0,
        workers=8,
        soak_seconds=soak_seconds,
        kill_shard_at=round(soak_seconds * 0.3, 1),
        restart_shard_at=round(soak_seconds * 0.65, 1),
        replications=20_000 if quick else 60_000,
        n_faults=40,
        probe_interval_ms=100.0,
        # The SLO gate over every soak phase: a degraded phase legitimately
        # burns error budget (typed errors while the primary dies), so the
        # threshold is generous -- it catches systemic failure (a whole
        # phase erroring burns at 1000x against the 0.999 objective).
        slo_max_burn=100.0,
    )
    totals = report["totals"]
    if report["events"]["chaos_errors"]:
        raise RuntimeError(f"chaos thread failed: {report['events']['chaos_errors']}")
    if totals["byte_mismatches"] or totals["untyped_failures"]:
        raise RuntimeError(
            f"soak responses diverged: {totals['byte_mismatches']} mismatches, "
            f"{totals['untyped_failures']} untyped failures"
        )
    return {
        "soak_seconds": soak_seconds,
        "requests": totals["requests"],
        "errors": totals["errors"],
        "degraded_recomputed": totals["degraded_recomputed"],
        "recomputed_after_kill": totals["recomputed_after_kill"],
        "replica_writes": report["router"]["replica_writes"],
        "replica_read_fallbacks": report["router"]["replica_read_fallbacks"],
        "health": {
            "ejects": report["router"]["shard_ejects"],
            "readmits": report["router"]["shard_readmits"],
        },
        "placement_restored": report["placement_restored"],
        "slo_gate_passed": report["slo"]["gate"]["passed"],
        "slo_worst_burn": max(
            (row["burn_rate"] for rows in report["slo"]["phases"].values()
             for row in rows),
            default=0.0,
        ),
        "fleet_rollup_matches": report["fleet"]["rollup_matches_targets"],
        "latency_degradation": report["latency_degradation"],
        "phase_latency_ms": {
            phase["phase"]: phase["latency_ms"] for phase in report["phases"]
        },
        "peak_rss_mb": round(_peak_rss_mb(), 1),
    }


def workload_dispatch(quick: bool) -> dict:
    """Registry-dispatch overhead of ``repro.evaluate`` versus a direct call.

    Times the same resolved ``exact`` evaluation two ways: calling the
    registered function directly, and going through the full dispatch path
    (registry lookup, option resolution, typed-result wrapping).  Each of
    ``repeats`` :func:`alternate` rounds times one block of ``calls`` calls
    per path, and ``overhead_percent`` is (median per-round dispatched /
    direct ratio - 1) x 100.  The unified-API acceptance target is <5%
    overhead; the measured number is recorded so regressions in the
    dispatch layer show up in the perf trajectory.
    """
    from repro.api import default_registry, evaluate
    from repro.experiments.scenarios import many_small_faults_scenario

    model = many_small_faults_scenario(n=200)
    registry = default_registry()
    definition = registry.get("exact")
    resolved = registry.resolve_options("exact", {"max_support": 1024})
    calls = 20 if quick else 50
    repeats = 5
    # Warm the per-model caches so both loops measure identical work.
    definition.evaluate(model, resolved, None)
    evaluate(model, "exact", max_support=1024)

    def time_block(run) -> dict:
        start = time.perf_counter()
        for _ in range(calls):
            run()
        return {"seconds": time.perf_counter() - start}

    runs = alternate(
        {
            "direct": lambda _: time_block(lambda: definition.evaluate(model, resolved, None)),
            "dispatched": lambda _: time_block(lambda: evaluate(model, "exact", max_support=1024)),
        },
        rounds=repeats,
    )
    summary = speedup(runs, "direct", "dispatched")
    return {
        "method": "exact",
        "n": 200,
        "max_support": 1024,
        "calls": calls,
        "repeats": repeats,
        **{
            f"{side}_us_per_call": round(summary["seconds"][side]["median"] / calls * 1e6, 1)
            for side in ("direct", "dispatched")
        },
        "overhead_percent": round((summary["median_ratio"] - 1.0) * 100.0, 2),
        "overhead_budget_percent": 5.0,
        "gate_rounds": {"overhead_percent": summary},
        "peak_rss_mb": round(_peak_rss_mb(), 1),
    }


def workload_telemetry_overhead(quick: bool) -> dict:
    """Disabled-telemetry overhead of the instrumented evaluation path.

    The tracer's contract is that an un-configured span costs one ``None``
    check, so instrumentation can live in hot paths permanently.  Raw
    wall-clock deltas between "telemetry on" and "telemetry off" runs of a
    multi-millisecond evaluation drown in scheduler noise, so the gate uses
    a *computed* ratio instead: measure the per-span disabled-path cost in
    a tight loop (nanoseconds, very stable), count how many spans one
    evaluation actually crosses (sink mode), and express their product as a
    percentage of the evaluation's own wall time.  That percentage is the
    true price of leaving the instrumentation in, and must stay under the
    2% budget.
    """
    from repro import telemetry
    from repro.api import evaluate
    from repro.experiments.scenarios import many_small_faults_scenario
    from repro.telemetry import tracing

    model = many_small_faults_scenario(n=100)
    replications = 20_000 if quick else 100_000
    calls = 10 if quick else 20
    repeats = 5

    def one():
        return evaluate(model, "montecarlo", seed=7, replications=replications)

    one()  # warm caches and imports before any timing

    # 1. Per-span cost of the disabled path (shared no-op object).
    tracing.disable(export_env=False)
    loops = 200_000
    start = time.perf_counter()
    for _ in range(loops):
        with telemetry.span("bench.noop", key="value"):
            pass
    disabled_span_ns = (time.perf_counter() - start) / loops * 1e9

    # 2. Per-span cost when armed (sink mode), for the trajectory record.
    sunk: list = []
    tracing.configure(sink=sunk.append)
    start = time.perf_counter()
    for _ in range(10_000):
        with telemetry.span("bench.noop", key="value"):
            pass
    enabled_span_us = (time.perf_counter() - start) / 10_000 * 1e6

    # 3. Spans one instrumented evaluation actually crosses.
    sunk.clear()
    one()
    spans_per_evaluate = len(sunk)
    tracing.disable(export_env=False)

    # 4. The evaluation's own wall time, telemetry disabled (best block).
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            one()
        best = min(best, time.perf_counter() - start)
    seconds_per_call = best / calls

    overhead_percent = (
        spans_per_evaluate * disabled_span_ns / 1e9 / seconds_per_call * 100.0
    )
    return {
        "method": "montecarlo",
        "n": 100,
        "replications": replications,
        "disabled_span_ns": round(disabled_span_ns, 1),
        "enabled_span_us": round(enabled_span_us, 2),
        "spans_per_evaluate": spans_per_evaluate,
        "evaluate_ms_per_call": round(seconds_per_call * 1e3, 3),
        "overhead_percent": round(overhead_percent, 5),
        "overhead_budget_percent": 2.0,
        "peak_rss_mb": round(_peak_rss_mb(), 1),
    }


def workload_telemetry_fleet_overhead(quick: bool) -> dict:
    """Cost of the fleet observability plane on the routed serving path.

    The plane adds two moving parts on top of PR-7 tracing: span *shipping*
    on every finished span (the only per-request hot-path cost -- one lock
    plus a deque append) and the router's scrape+merge beat (off the
    request path, once per probe interval).  Raw wall-clock A/B of routed
    requests drowns in socket and scheduler noise, so the gate computes the
    hot-path price the way ``telemetry_overhead`` does: the per-span
    enqueue cost of an armed shipper (tight loop, nanoseconds, stable)
    times the spans one served request emits, as a percentage of a warm
    routed request's own wall time.  The scrape beat is reported as the
    fraction of one core it consumes (parse + store + roll-up per beat,
    amortised over the probe interval) -- it must stay far from saturating
    the probe thread.  Loss accounting rides along: every span enqueued
    during the measurement must ship, none dropped.
    """
    from repro.cluster import ShardRouter
    from repro.experiments.scenarios import many_small_faults_scenario
    from repro.service import EvaluationServer, ServiceClient, start_in_background
    from repro.telemetry import tracing
    from repro.telemetry.collector import SpanShipper
    from repro.telemetry.federation import MetricsFederation
    from repro.telemetry.metrics import MetricsRegistry, render_prometheus

    model = many_small_faults_scenario(n=100)
    replications = 20_000 if quick else 100_000
    warm_calls = 20 if quick else 50
    repeats = 5

    # 1. Per-span hot-path cost of an armed shipper: enqueue only, the
    #    transport is a no-op so the number is pure queue mechanics.
    registry = MetricsRegistry()
    shipper = SpanShipper(
        "127.0.0.1:1",
        transport=lambda batch: True,
        capacity=1_000_000,
        batch_size=1_000_000,
        flush_interval=3600.0,
        registry=registry,
    )
    event = {"name": "bench.ship", "trace": "t", "span": "s", "dur_ms": 1.0}
    loops = 100_000 if quick else 200_000
    start = time.perf_counter()
    for _ in range(loops):
        shipper(event)
    enqueue_ns = (time.perf_counter() - start) / loops * 1e9
    shipper.flush()
    shipper.close()
    spans_shipped = registry["spans_shipped"]
    spans_dropped = registry["spans_dropped"] if "spans_dropped" in registry else 0

    shard = EvaluationServer()
    with start_in_background(shard) as handle:
        router = ShardRouter([f"127.0.0.1:{handle.port}"])
        with start_in_background(router) as front:
            client = ServiceClient(port=front.port)

            def one():
                return client.evaluate_detail(
                    model, "montecarlo", options={"replications": replications}, seed=7
                )

            one()  # cold: populate caches so the timed calls are warm hits

            # 2. Spans one warm routed request emits (router + shard live in
            #    this process, so a sink sees the whole tree).
            sunk: list = []
            tracing.configure(sink=sunk.append)
            probe_calls = 5
            for _ in range(probe_calls):
                one()
            spans_per_request = len(sunk) / probe_calls
            tracing.disable(export_env=False)

            # 3. The warm request's own wall time, shipping off (best block).
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                for _ in range(warm_calls):
                    one()
                best = min(best, time.perf_counter() - start)
            seconds_per_call = best / warm_calls

            # 4. The scrape+merge beat, measured against real shard output:
            #    parse the shard's prometheus page, store it, roll the fleet
            #    up -- the exact work the probe loop does once per interval.
            shard_page = render_prometheus(shard.registry.snapshot())
            local = router.registry.snapshot()
            federation = MetricsFederation()
            beats = 200
            start = time.perf_counter()
            for _ in range(beats):
                federation.update_from_prometheus("127.0.0.1:1", shard_page)
                federation.fleet_snapshot(local)
            scrape_ms_per_beat = (time.perf_counter() - start) / beats * 1e3
            client.close()

    hot_path_percent = (
        spans_per_request * enqueue_ns / 1e9 / seconds_per_call * 100.0
    )
    scrape_cpu_percent = scrape_ms_per_beat / (router.probe_interval * 1e3) * 100.0
    return {
        "method": "montecarlo",
        "n": 100,
        "replications": replications,
        "ship_enqueue_ns": round(enqueue_ns, 1),
        "spans_per_request": spans_per_request,
        "warm_request_ms": round(seconds_per_call * 1e3, 3),
        "hot_path_percent": round(hot_path_percent, 5),
        "hot_path_budget_percent": 5.0,
        "scrape_ms_per_beat": round(scrape_ms_per_beat, 3),
        "probe_interval_ms": round(router.probe_interval * 1e3, 1),
        "scrape_cpu_percent": round(scrape_cpu_percent, 3),
        "spans_shipped": spans_shipped,
        "spans_dropped": spans_dropped,
        "peak_rss_mb": round(_peak_rss_mb(), 1),
    }


#: Entry points timed by ``cold_start``: the numpy floor, the two repro
#: entry points every CLI and study process starts with, then the modules
#: ``repro serve`` and ``repro route`` start.
COLD_START_IMPORTS = (
    "numpy",
    "repro.cli",
    "repro.studies",
    "repro.service.server",
    "repro.cluster.router",
)

_COLD_START_PROBE = (
    "import json, resource, sys; sys.path.insert(0, sys.argv[1]); import {module}; "
    "usage = resource.getrusage(resource.RUSAGE_SELF); "
    "print(json.dumps({{'cpu_s': usage.ru_utime + usage.ru_stime, "
    "'max_rss_mb': usage.ru_maxrss / 1024.0, "
    "'scipy_loaded': any(name.split('.')[0] == 'scipy' for name in sys.modules)}}))"
)


def workload_cold_start(quick: bool) -> dict:
    """Start-up cost of a fresh interpreter importing each entry point.

    Every CLI call, shard, router, pool worker and study process pays this
    before its first evaluation.  Each import runs in its own fresh
    subprocess, once in each of :func:`alternate`'s rounds; the record keeps
    the best CPU and RSS of the rounds and whether any run loaded scipy
    (only the normal-approximation methods need it, and they import it on
    first use).  ``cli_vs_numpy_cpu_ratio`` is the median per-round ratio
    of ``repro.cli``'s CPU seconds to ``numpy``'s.
    """
    src = str(REPO_ROOT / "src")

    def probe(module: str) -> dict:
        completed = subprocess.run(
            [sys.executable, "-c", _COLD_START_PROBE.format(module=module), src],
            capture_output=True, text=True, check=True, timeout=300,
        )
        sample = json.loads(completed.stdout)
        return {**sample, "seconds": sample["cpu_s"]}

    samples = alternate(
        {module: lambda _, module=module: probe(module) for module in COLD_START_IMPORTS}
    )
    summary = speedup(samples, "numpy", "repro.cli")
    imports = {
        module: {
            "cpu_s": round(min(sample["cpu_s"] for sample in runs), 3),
            "max_rss_mb": round(min(sample["max_rss_mb"] for sample in runs), 1),
            "scipy_loaded": any(sample["scipy_loaded"] for sample in runs),
        }
        for module, runs in samples.items()
    }
    return {
        "runs": ROUNDS,
        "imports": imports,
        "cli_vs_numpy_cpu_ratio": round(summary["median_ratio"], 2),
        "gate_rounds": {"cli_vs_numpy_cpu_ratio": summary},
        "peak_rss_mb": round(_peak_rss_mb(), 1),
    }


WORKLOADS = {
    **{name: functools.partial(workload_engine, name) for name in ENGINE_WORKLOADS},
    "convolution": workload_convolution,
    "study": workload_study,
    "sweep1000": workload_sweep1000,
    "service_throughput": workload_service_throughput,
    "pool_handoff": workload_pool_handoff,
    "cluster_loadgen": workload_cluster_loadgen,
    "chaos_soak": workload_chaos_soak,
    "dispatch": workload_dispatch,
    "telemetry_overhead": workload_telemetry_overhead,
    "telemetry_fleet_overhead": workload_telemetry_fleet_overhead,
    "cold_start": workload_cold_start,
}


# --------------------------------------------------------------------- #
# Regression gate (--check)
# --------------------------------------------------------------------- #
def check_record(record: dict) -> dict[str, list[str]]:
    """Machine-independent throughput invariants for the CI gate.

    Absolute wall-times vary wildly across runners, so every check is a
    *ratio* within one record: a failure means a relative regression (one
    path got slower than its sibling), not a slow machine.  Returns each
    failed check's label with the lines that explain it: every value its
    predicate read and, for a ratio gate, the per-round ratios and both
    sides' per-round seconds (the workload's ``gate_rounds``), so a failed
    run shows whether the host or the code moved.
    """
    workloads = record.get("workloads", {})
    reads: list[tuple[str, str]] = []

    def value(workload: str, key: str):
        reads.append((workload, key))
        entry = workloads.get(workload, {})
        if "error" in entry:
            return None
        return entry.get(key)

    checks = [
        # The streaming paired path must not regress behind the
        # sample-collecting one again (it does strictly less work).  Both
        # engine gates read the median ratio of the alternated rounds.
        (
            "paired_streaming >= 85% of paired throughput",
            lambda: value("paired_streaming", "median_ratio") >= 0.85,
        ),
        # 1-out-of-3 does ~3x the per-replication work of a single version;
        # below a quarter of the single rate the kernel has regressed.
        (
            "one_out_of_r >= 25% of single throughput",
            lambda: value("one_out_of_r", "median_ratio") >= 0.25,
        ),
        # Shared-demand Monte Carlo sweeps must stay well ahead of the dense
        # engine run point by point (a retired path kept as a fixed
        # reference: per-point dispatch of a lone request within the sparse
        # kernel's budget runs the sweep kernel too); exact sweeps
        # run the scalar kernel per point either way, so grouping them must
        # merely not be slower.
        (
            "sweep1000 montecarlo grouped >= 3x dense per-point",
            lambda: value("sweep1000", "montecarlo_speedup") >= 3.0,
        ),
        (
            "sweep1000 exact grouped >= 0.8x per-point",
            lambda: value("sweep1000", "exact_speedup") >= 0.8,
        ),
        # One exact + tail-quantile study convolves each point once; the
        # two single-method studies convolve it twice (about 2x).
        (
            "sweep1000 exact+tail-quantile shared >= 1.5x separate",
            lambda: value("sweep1000", "exact_tail_shared_speedup") >= 1.5,
        ),
        # A concurrent burst of served requests must beat the dense engine
        # run serially on the sweep-style workload (a retired path kept as a
        # fixed reference; ``lone_speedup``, against the same requests sent
        # one at a time, is not gated); the workload itself already
        # enforces that the warm burst recomputed nothing.
        (
            "service_throughput burst >= 2x dense serial",
            lambda: value("service_throughput", "speedup") >= 2.0,
        ),
        (
            "service_throughput warm pass recomputes nothing",
            lambda: value("service_throughput", "warm_recomputed") == 0,
        ),
        # Two routed single-worker shards must beat one on the shard-parallel
        # cold workload -- but only where two worker processes can actually
        # run in parallel; on a 1-CPU runner they time-slice one core and the
        # ratio says nothing, so the gate degrades to "the router is not a
        # bottleneck" (>= 0.75x).  The workload itself already enforces the
        # machine-independent invariants: zero errors, both shards computed,
        # no mid-run ejection.
        (
            "cluster_loadgen routed >= 1.5x single-shard (>=2 cpus)",
            lambda: value("cluster_loadgen", "routed_speedup")
            >= (1.5 if (value("cluster_loadgen", "cpus") or 0) >= 2 else 0.75),
        ),
        # The routed warm phase must be answered entirely from cache tiers.
        (
            "cluster_loadgen warm phase recomputes nothing",
            lambda: value("cluster_loadgen", "warm_recomputed") == 0,
        ),
        # The soak's headline: with R=2, killing the primary loses no warm
        # cache -- the degraded phase is answered by the fanned-out replica
        # without a single recompute.
        (
            "chaos_soak degraded phase recomputes nothing",
            lambda: value("chaos_soak", "degraded_recomputed") == 0,
        ),
        (
            "chaos_soak served at least one replica fallback read",
            lambda: value("chaos_soak", "replica_read_fallbacks") >= 1,
        ),
        # The restarted shard must resume its exact pre-kill placement (and
        # actually receive traffic for its keys again).
        (
            "chaos_soak readmitted shard resumed its placement",
            lambda: value("chaos_soak", "placement_restored") is True,
        ),
        # The declarative SLO gate over every soak phase (availability +
        # latency objectives against each phase's own histogram) must pass.
        (
            "chaos_soak SLO burn-rate gate passed",
            lambda: value("chaos_soak", "slo_gate_passed") is True,
        ),
        # The federated fleet roll-up taken mid-soak must equal the merge
        # of the per-shard scrapes exactly.
        (
            "chaos_soak fleet roll-up equals per-target merge",
            lambda: value("chaos_soak", "fleet_rollup_matches") is True,
        ),
        # The exact kernel's bracket stays narrow where the gated workloads
        # run: a deterministic figure, so any regression is the kernel's.
        (
            "convolution bracket width at n=200, level 0.99 <= 1% (versions 1 and 2)",
            lambda: all(
                row["width_0.99"] <= 0.01
                for row in value("convolution", "pair")
                if row["n"] == 200
            )
            and sum(row["n"] == 200 for row in value("convolution", "pair")) == 2,
        ),
        # Warm study runs must stay essentially free.  A broken cache makes
        # warm ~= cold (ratio ~1); the floor sits well above that while
        # leaving room for the fixed per-run cost (plan + cache probing)
        # that dominates the now-fast quick-size cold runs.
        ("study warm_speedup >= 5x", lambda: value("study", "warm_speedup") >= 5.0),
        # Dispatch overhead sanity: the registry layer adds microseconds to
        # a ~3 ms evaluation, so the measured percentage is host noise: the
        # median of 5 alternated rounds read -9.9%..+5.3% over 20 quick runs
        # on a 2-vCPU container (single rounds -34%..+42%).  The gate
        # therefore only catches a *broken* dispatch layer -- per-call
        # overhead comparable to the evaluation itself (a 2x dispatched side
        # reads ~+105%) -- while overhead_percent tracks the trajectory.
        (
            "dispatch overhead sane (< 25%)",
            lambda: value("dispatch", "overhead_percent") < 25.0,
        ),
        # Disabled telemetry must stay near-free: the computed cost of every
        # span an evaluation crosses (spans x disabled-path ns) within 2% of
        # the evaluation itself.  A computed ratio, not an on/off wall-clock
        # diff, so it is immune to scheduler noise yet catches a disabled
        # path that grew real work.
        (
            "telemetry_overhead disabled-path <= 2% of an evaluation",
            lambda: value("telemetry_overhead", "overhead_percent") <= 2.0,
        ),
        (
            "telemetry_overhead instrumentation covers the kernel",
            lambda: value("telemetry_overhead", "spans_per_evaluate") >= 1,
        ),
        # The fleet plane's hot-path price (span enqueue x spans/request)
        # must stay within 5% of a warm routed request -- same computed-ratio
        # construction as telemetry_overhead, so it is noise-immune.
        (
            "telemetry_fleet_overhead hot path <= 5% of a warm request",
            lambda: value("telemetry_fleet_overhead", "hot_path_percent")
            <= value("telemetry_fleet_overhead", "hot_path_budget_percent"),
        ),
        # Loss accounting: every span enqueued during the measurement
        # shipped; a single drop means the bounded queue is mis-sized.
        (
            "telemetry_fleet_overhead shipped every span (zero drops)",
            lambda: value("telemetry_fleet_overhead", "spans_dropped") == 0,
        ),
        # The scrape+merge beat runs on the probe thread once per interval;
        # it must stay far from saturating a core (amortised < 5%).
        (
            "telemetry_fleet_overhead scrape beat stays off the hot path",
            lambda: value("telemetry_fleet_overhead", "scrape_cpu_percent") < 5.0,
        ),
        # Only the normal-approximation methods need scipy, and they import
        # it on first use; an entry point that loads it at import time pays
        # ~1 s CPU and ~60 MB in every process.  The CPU ratio to a bare
        # numpy import is taken within one record, so it holds on any host.
        (
            "cold_start repro.cli import loads no scipy",
            lambda: value("cold_start", "imports")["repro.cli"]["scipy_loaded"] is False,
        ),
        (
            "cold_start repro.studies import loads no scipy",
            lambda: value("cold_start", "imports")["repro.studies"]["scipy_loaded"] is False,
        ),
        (
            "cold_start repro.service.server import loads no scipy",
            lambda: value("cold_start", "imports")["repro.service.server"]["scipy_loaded"]
            is False,
        ),
        (
            "cold_start repro.cluster.router import loads no scipy",
            lambda: value("cold_start", "imports")["repro.cluster.router"]["scipy_loaded"]
            is False,
        ),
        (
            "cold_start repro.cli import CPU <= 4x import numpy",
            lambda: value("cold_start", "cli_vs_numpy_cpu_ratio") <= 4.0,
        ),
    ]
    failures = {}
    for label, predicate in checks:
        reads.clear()
        try:
            ok = bool(predicate())
        except TypeError:  # a workload errored out; report it as a failure
            ok = False
        if not ok:
            failures[label] = [
                line for workload, key in dict.fromkeys(reads)
                for line in _explain(workloads.get(workload, {}), workload, key)
            ]
    return failures


def _explain(entry: dict, workload: str, key: str) -> list[str]:
    """The value a check read and, for a ratio gate, its rounds."""
    if "error" in entry:
        return [f"{workload}: error: {entry['error'][-500:]}"]
    summary = entry.get("gate_rounds", {}).get(key, {})
    return [f"{workload}.{key} = {json.dumps(entry.get(key))[:300]}"] + [
        f"  {label}: {json.dumps(summary[label])}"
        for label in ("round_ratios", "seconds")
        if label in summary
    ]


# --------------------------------------------------------------------- #
# Orchestration
# --------------------------------------------------------------------- #
#: Engine ratio gates: gated workload -> the workload its throughput is
#: divided by.  Their sides run in :func:`alternate` rounds, one subprocess
#: per run, so each ``peak_rss_mb`` still measures one side.
ALTERNATED = {"paired_streaming": "paired", "one_out_of_r": "single"}


def _run_alternated(gated: str, reference: str, quick: bool) -> dict:
    """Both sides' records after :data:`ROUNDS` alternated rounds.

    A side's record is its first run's, with the median ``seconds`` and
    ``replications_per_second``, the largest ``peak_rss_mb`` and every
    round's seconds; the gated side also records the per-round throughput
    ratios, their median and, under ``rounds``, the full speedup summary.
    """
    runs = alternate(
        {name: lambda _, name=name: _run_in_subprocess(name, quick) for name in (gated, reference)}
    )
    failed = [run for side in runs.values() for run in side if "error" in run]
    if failed:
        return {gated: failed[0], reference: failed[0]}
    summary = speedup(runs, gated, reference)
    records = {
        name: {
            **side[0],
            "seconds": summary["seconds"][name]["median"],
            "replications_per_second": round(
                statistics.median(run["replications_per_second"] for run in side)
            ),
            "peak_rss_mb": max(run["peak_rss_mb"] for run in side),
            "round_seconds": [run["seconds"] for run in side],
        }
        for name, side in runs.items()
    }
    records[gated].update(
        ratio_to=reference,
        round_ratios=[round(ratio, 3) for ratio in summary["round_ratios"]],
        median_ratio=round(summary["median_ratio"], 3),
        gate_rounds={"median_ratio": summary},
    )
    return records


def _run_in_subprocess(name: str, quick: bool) -> dict:
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--json"]
    if quick:
        command.append("--quick")
    completed = subprocess.run(command, capture_output=True, text=True, timeout=3600)
    if completed.returncode != 0:
        return {"error": completed.stderr.strip()[-2000:]}
    return json.loads(completed.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default=str(REPO_ROOT / "BENCH_perf.json"))
    parser.add_argument("--quick", action="store_true", help="smaller, CI-friendly sizes")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="run one workload in-process")
    parser.add_argument("--json", action="store_true", help="print the single workload as JSON")
    parser.add_argument(
        "--check",
        action="store_true",
        help=(
            "exit non-zero when a throughput invariant fails (machine-independent "
            "ratios within the record; used by CI so perf regressions fail visibly)"
        ),
    )
    arguments = parser.parse_args(argv)

    if arguments.workload:
        record = WORKLOADS[arguments.workload](arguments.quick)
        print(json.dumps(record, indent=None if arguments.json else 2))
        return 0

    import numpy

    record = {
        "schema": "bench-perf-v1",
        "mode": "quick" if arguments.quick else "full",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed_convolution_reference": SEED_CONVOLUTION_REFERENCE,
        "workloads": {},
    }
    for name in WORKLOADS:
        if name in ALTERNATED.values():
            continue  # runs in its gated side's rounds
        if name in ALTERNATED:
            print(f"running {name} / {ALTERNATED[name]} x {ROUNDS} rounds ...", flush=True)
            runs = _run_alternated(name, ALTERNATED[name], arguments.quick)
        else:
            print(f"running {name} ...", flush=True)
            runs = {name: _run_in_subprocess(name, arguments.quick)}
        for run_name, run in runs.items():
            record["workloads"][run_name] = run
            print(f"  {run_name} -> {json.dumps(run)[:200]}", flush=True)
    fast = {
        row["n"]: row["seconds"]
        for row in record["workloads"]["convolution"].get("pair", [])
        if row["versions"] == 1
    }
    speedups = [
        {
            "n": ref["n"],
            "max_support": ref["max_support"],
            "seed_seconds": ref["seconds"],
            "fast_seconds": fast.get(ref["n"]),
            "speedup": round(ref["seconds"] / fast[ref["n"]], 1) if fast.get(ref["n"]) else None,
        }
        for ref in SEED_CONVOLUTION_REFERENCE
        if ref["max_support"] == 4096
    ]
    record["convolution_speedup_vs_seed"] = speedups
    output = Path(arguments.output)
    output.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {output}")
    if arguments.check:
        failures = check_record(record)
        for failure, lines in failures.items():
            print(f"CHECK FAILED: {failure}")
            for line in lines:
                print(f"  {line}")
        if failures:
            return 1
        print("all throughput checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
