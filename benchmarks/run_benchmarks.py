"""Throughput benchmark entry point: emits a ``BENCH_perf.json`` record.

Runs the performance-critical workloads (chunked/streaming Monte Carlo for
single versions, paired 1-out-of-2 systems and 1-out-of-r systems, plus the
exact-PFD kernel with its bracket widths) and writes one JSON record with
replications-per-second, wall time and peak RSS per workload, so future
changes have a perf trajectory to regress against.

Each workload runs in its *own subprocess*: peak RSS (``ru_maxrss``) is a
process-wide high-water mark, so isolating workloads is the only way to
attribute memory honestly.

Usage::

    python benchmarks/run_benchmarks.py               # full record -> BENCH_perf.json
    python benchmarks/run_benchmarks.py --quick       # smaller sizes (CI-friendly)
    python benchmarks/run_benchmarks.py --quick --check   # CI gate: fail on regressions
    python benchmarks/run_benchmarks.py --output path/to/record.json

``--workload NAME --json`` is the internal per-subprocess mode.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
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


# --------------------------------------------------------------------- #
# Workloads (each runs in a fresh subprocess)
# --------------------------------------------------------------------- #
def workload_single(quick: bool) -> dict:
    """Streaming single-version throughput on the n=200 scenario."""
    from repro.experiments.scenarios import many_small_faults_scenario
    from repro.montecarlo.engine import MonteCarloEngine

    replications = 500_000 if quick else 2_000_000
    engine = MonteCarloEngine(many_small_faults_scenario(n=200), chunk_size=100_000)
    start = time.perf_counter()
    result = engine.simulate_single_streaming(replications, rng=7)
    elapsed = time.perf_counter() - start
    return {
        "replications": replications,
        "n": 200,
        "chunk_size": 100_000,
        "seconds": round(elapsed, 3),
        "replications_per_second": round(replications / elapsed),
        "peak_rss_mb": round(_peak_rss_mb(), 1),
        "mean_pfd": result.mean_pfd(),
    }


def workload_paired(quick: bool) -> dict:
    """Chunked ``simulate_paired`` (full sample collection) on the n=200 scenario.

    The full (non-quick) size is the acceptance workload: 10M replications at
    n=200 must fit a ~500 MB peak-RSS budget; a dense draw would need three
    ``(10M, 200)`` float64 uniform matrices (~48 GB transient, >30 GB at
    once).
    """
    from repro.experiments.scenarios import many_small_faults_scenario
    from repro.montecarlo.engine import MonteCarloEngine

    replications = 1_000_000 if quick else 10_000_000
    engine = MonteCarloEngine(many_small_faults_scenario(n=200), chunk_size=25_000)
    start = time.perf_counter()
    result = engine.simulate_paired(replications, rng=7)
    elapsed = time.perf_counter() - start
    return {
        "replications": replications,
        "n": 200,
        "chunk_size": 25_000,
        "seconds": round(elapsed, 3),
        "replications_per_second": round(replications / elapsed),
        "peak_rss_mb": round(_peak_rss_mb(), 1),
        "risk_ratio": result.risk_ratio(),
    }


def workload_paired_streaming(quick: bool) -> dict:
    """Constant-memory streaming variant of the paired workload.

    Runs at the same chunk size as :func:`workload_paired` so the two
    numbers isolate the streaming-vs-sample-collection difference (the
    ``--check`` gate compares their throughputs); chunk size itself is a
    separate memory knob.
    """
    from repro.experiments.scenarios import many_small_faults_scenario
    from repro.montecarlo.engine import MonteCarloEngine

    replications = 1_000_000 if quick else 10_000_000
    engine = MonteCarloEngine(many_small_faults_scenario(n=200), chunk_size=25_000)
    start = time.perf_counter()
    result = engine.simulate_paired_streaming(replications, rng=7)
    elapsed = time.perf_counter() - start
    return {
        "replications": replications,
        "n": 200,
        "chunk_size": 25_000,
        "seconds": round(elapsed, 3),
        "replications_per_second": round(replications / elapsed),
        "peak_rss_mb": round(_peak_rss_mb(), 1),
        "risk_ratio": result.risk_ratio(),
    }


def workload_one_out_of_r(quick: bool) -> dict:
    """Streaming 1-out-of-3 system throughput on the n=200 scenario."""
    from repro.experiments.scenarios import many_small_faults_scenario
    from repro.montecarlo.engine import MonteCarloEngine

    replications = 500_000 if quick else 2_000_000
    engine = MonteCarloEngine(many_small_faults_scenario(n=200), chunk_size=100_000)
    start = time.perf_counter()
    result = engine.simulate_systems_streaming(replications, versions=3, rng=7)
    elapsed = time.perf_counter() - start
    return {
        "replications": replications,
        "versions": 3,
        "n": 200,
        "chunk_size": 100_000,
        "seconds": round(elapsed, 3),
        "replications_per_second": round(replications / elapsed),
        "peak_rss_mb": round(_peak_rss_mb(), 1),
        "mean_pfd": result.mean_pfd(),
    }


def workload_parallel(quick: bool) -> dict:
    """Process-parallel streaming paired throughput (jobs=4)."""
    from repro.experiments.scenarios import many_small_faults_scenario
    from repro.montecarlo.engine import MonteCarloEngine

    replications = 1_000_000 if quick else 4_000_000
    engine = MonteCarloEngine(
        many_small_faults_scenario(n=200), chunk_size=100_000, jobs=4
    )
    start = time.perf_counter()
    engine.simulate_paired_streaming(replications, rng=7)
    elapsed = time.perf_counter() - start
    return {
        "replications": replications,
        "n": 200,
        "jobs": 4,
        "chunk_size": 100_000,
        "seconds": round(elapsed, 3),
        "replications_per_second": round(replications / elapsed),
        "peak_rss_mb": round(_peak_rss_mb(), 1),
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


def workload_sweep1000(quick: bool) -> dict:
    """1000-point sweep: batched (grouped) versus per-point dispatch, per method.

    One ``p_scale`` axis with 500 values evaluated by ``exact`` and
    ``montecarlo`` (2 x 500 = 1000 points, 100 in quick mode).  Each method
    runs as its own study, twice over fresh caches (jobs=4): grouped
    (``batch=True``) and one task per point (``batch=False``).  Monte Carlo
    gains from grouping -- every point is scored against one shared demand
    stream -- so ``montecarlo_speedup`` is large.  Exact sweeps run the
    scalar kernel per point either way, so ``exact_speedup`` only says that
    grouping is no slower than per-point dispatch.  ``speedup`` is the
    combined figure over both methods.

    ``exact_tail_shared_speedup`` compares one ``exact`` + ``tail-quantile``
    study over 50 of the sweep's ``p_scale`` points with the two
    single-method studies over the same points, each on a fresh cache, at
    the default ``max_support`` where the kernel dominates: the combined
    study computes each point's exact distribution once and both methods
    read it.  Both sides run in-process, best of three, so the ratio
    measures the kernel work saved rather than pool start-up.
    """
    import tempfile

    from repro.studies import StudySpec, run_study

    points = 50 if quick else 500
    replications = 2_000 if quick else 10_000
    methods = {
        "exact": {"name": "exact", "max_support": 256},
        "montecarlo": {"name": "montecarlo", "replications": replications},
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
    run_study(spec("bench-sweep1000-warmup", {"values": [0.5, 1.0]}, list(methods.values())), jobs=4)
    seconds: dict[tuple[str, bool], float] = {}
    tasks: dict[bool, int] = {True: 0, False: 0}
    with tempfile.TemporaryDirectory() as tmp:
        for name, method in methods.items():
            sweep = spec(f"bench-sweep1000-{name}", {"logspace": [0.05, 1.0, points]}, [method])
            computed = set()
            for batch in (True, False):
                start = time.perf_counter()
                result = run_study(
                    sweep, cache_dir=f"{tmp}/{name}-{batch}", jobs=4, batch=batch
                )
                seconds[name, batch] = time.perf_counter() - start
                tasks[batch] += result.summary["dispatched_tasks"]
                computed.add(result.summary["computed"])
            if len(computed) != 1:
                raise RuntimeError(f"{name}: batched and scalar passes evaluated different point counts")
        axis = {"logspace": [0.05, 1.0, 50]}
        pair = [{"name": "exact"}, {"name": "tail-quantile"}]
        studies = {
            "shared": [spec("bench-sweep1000-shared", axis, pair)],
            "separate": [
                spec(f"bench-sweep1000-{method['name']}-alone", axis, [method]) for method in pair
            ],
        }
        best: dict[str, float] = {}
        for repeat in range(3):
            for label, sweeps in studies.items():
                start = time.perf_counter()
                for position, sweep in enumerate(sweeps):
                    run_study(sweep, cache_dir=f"{tmp}/{label}-{repeat}-{position}")
                elapsed = time.perf_counter() - start
                best[label] = min(best.get(label, elapsed), elapsed)
    batched_elapsed = sum(seconds[name, True] for name in methods)
    scalar_elapsed = sum(seconds[name, False] for name in methods)
    total_points = points * len(methods)
    return {
        "points": total_points,
        "replications": replications,
        "jobs": 4,
        "batched_seconds": round(batched_elapsed, 3),
        "scalar_seconds": round(scalar_elapsed, 3),
        "batched_points_per_second": round(total_points / batched_elapsed, 1),
        "scalar_points_per_second": round(total_points / scalar_elapsed, 1),
        "speedup": round(scalar_elapsed / batched_elapsed, 1),
        **{
            f"{name}_speedup": round(seconds[name, False] / seconds[name, True], 2)
            for name in methods
        },
        "dispatched_tasks_batched": tasks[True],
        "dispatched_tasks_scalar": tasks[False],
        "exact_tail_shared_seconds": round(best["shared"], 3),
        "exact_tail_separate_seconds": round(best["separate"], 3),
        "exact_tail_shared_speedup": round(best["separate"] / best["shared"], 2),
        "peak_rss_mb": round(_peak_rss_mb(), 1),
    }


def workload_service_throughput(quick: bool) -> dict:
    """Evaluation service: micro-batched concurrent serving versus a serial loop.

    A sweep-style workload (one montecarlo point per request across a
    ``p_scale`` axis) fired at a live server three ways: N concurrent
    clients (grouped by the micro-batcher into shared-demand kernel calls),
    the same N requests one at a time (each a lone group taking the scalar
    path -- the serial baseline the ``--check`` gate compares against), and
    the concurrent burst again (warm: answered from the LRU with zero
    recomputation, enforced here).
    """
    from concurrent.futures import ThreadPoolExecutor

    from repro.experiments.scenarios import many_small_faults_scenario
    from repro.service import EvaluationServer, ServiceClient, start_in_background

    points = 16 if quick else 32
    replications = 20_000 if quick else 50_000
    window_ms = 25.0
    model = many_small_faults_scenario(n=100)
    scales = [0.1 + 0.9 * index / (points - 1) for index in range(points)]

    def burst(client: ServiceClient, seed: int) -> float:
        def one(scale: float):
            return client.evaluate(
                model,
                "montecarlo",
                options={"replications": replications},
                seed=seed,
                p_scale=scale,
            )

        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=points) as pool:
            list(pool.map(one, scales))
        return time.perf_counter() - start

    server = EvaluationServer(batch_window_ms=window_ms, lru_size=4 * points)
    with start_in_background(server) as handle:
        client = ServiceClient(port=handle.port)
        batched_elapsed = burst(client, seed=7)
        after_cold = client.metrics()
        warm_elapsed = burst(client, seed=7)
        after_warm = client.metrics()
    recomputed = after_warm["evaluations_computed"] - after_cold["evaluations_computed"]
    if recomputed != 0:
        raise RuntimeError(f"warm burst recomputed {recomputed} evaluations")
    if after_cold["batched_groups"] < 1:
        raise RuntimeError("concurrent burst produced no batched group")

    # Serial baseline against a fresh server: same requests, one at a time,
    # no cache or grouping carry-over.  Window 0 so lone requests dispatch
    # immediately -- the baseline measures scalar evaluation throughput, not
    # batching-window latency.
    serial_server = EvaluationServer(batch_window_ms=0.0, lru_size=4 * points)
    with start_in_background(serial_server) as handle:
        client = ServiceClient(port=handle.port)
        start = time.perf_counter()
        for scale in scales:
            client.evaluate(
                model,
                "montecarlo",
                options={"replications": replications},
                seed=7,
                p_scale=scale,
            )
        serial_elapsed = time.perf_counter() - start

    return {
        "points": points,
        "replications": replications,
        "batch_window_ms": window_ms,
        "batched_seconds": round(batched_elapsed, 3),
        "serial_seconds": round(serial_elapsed, 3),
        "warm_seconds": round(warm_elapsed, 4),
        "speedup": round(serial_elapsed / batched_elapsed, 1),
        "warm_speedup": round(serial_elapsed / warm_elapsed, 1),
        "batched_requests_per_second": round(points / batched_elapsed, 1),
        "serial_requests_per_second": round(points / serial_elapsed, 1),
        "batched_groups": after_cold["batched_groups"],
        "max_group_size": after_cold["max_group_size"],
        "warm_recomputed": recomputed,
        "warm_cache_hits": after_warm["cache_hits_lru"] - after_cold["cache_hits_lru"],
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
        job = (_echo_job, arguments, None, None, True)
        loop = asyncio.get_running_loop()
        result, _ = await loop.run_in_executor(executor, worker.run_job, job)
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


def workload_cluster_loadgen(quick: bool) -> dict:
    """Routed 2-shard cluster versus one shard under the open-loop loadgen.

    Every shard gets a single-process worker pool (``workers=1``), so two
    shards behind the router are two real worker processes and the routed
    cold phase measures scale-out compute throughput.  The warm phase re-runs
    the identical schedule through the router and must be answered entirely
    from cache tiers: the gate diffs the shards' ``evaluations_computed``
    across it.  The duplicate-heavy phase stresses coalescing across shards
    and must come back error-free.

    The 1.5x routed-vs-single gate only applies when the machine actually
    has >= 2 CPUs (recorded in the ``cpus`` field); on a single-core runner
    two worker processes time-slice one core and the ratio is meaningless.
    """
    import os

    from repro.cluster import ShardRouter
    from repro.cluster.loadgen import LoadGenerator, build_workload, duplicate_schedule
    from repro.service import EvaluationServer, ServiceClient, start_in_background

    distinct = 8 if quick else 16
    replications = 60_000 if quick else 200_000
    seed = 20010704
    # Offered far above service capacity: the open-loop schedule submits the
    # whole phase immediately and throughput measures compute, not the clock.
    rate = 1_000.0
    payloads = build_workload(seed, distinct, n_faults=100, replications=replications)
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
        return EvaluationServer(workers=1, batch_window_ms=0.0, lru_size=4 * distinct)

    with start_in_background(shard()) as handle:
        single_cold = drive(handle.port, "cold", payloads)

    shard_a, shard_b = shard(), shard()
    with start_in_background(shard_a) as ha, start_in_background(shard_b) as hb:
        router = ShardRouter(
            [f"127.0.0.1:{ha.port}", f"127.0.0.1:{hb.port}"], lru_size=4 * distinct
        )
        with start_in_background(router) as routed:
            client = ServiceClient(port=routed.port)
            routed_cold = drive(routed.port, "cold", payloads)
            computed_after_cold = (
                shard_a.registry["evaluations_computed"]
                + shard_b.registry["evaluations_computed"]
            )
            routed_warm = drive(routed.port, "warm", payloads)
            computed_after_warm = (
                shard_a.registry["evaluations_computed"]
                + shard_b.registry["evaluations_computed"]
            )
            routed_duplicates = drive(routed.port, "duplicates", duplicates)
            router_health = client.health()
    warm_recomputed = computed_after_warm - computed_after_cold
    if warm_recomputed != 0:
        raise RuntimeError(f"warm phase recomputed {warm_recomputed} evaluations")
    shard_split = [
        shard_a.registry["evaluations_computed"],
        shard_b.registry["evaluations_computed"],
    ]
    if min(shard_split) == 0:
        raise RuntimeError(f"routing collapsed onto one shard: {shard_split}")
    if any(not state["healthy"] for state in router_health["shards"].values()):
        raise RuntimeError(f"router ejected a shard during the run: {router_health}")
    return {
        "distinct": distinct,
        "replications": replications,
        "cpus": os.cpu_count(),
        "single_cold_rps": single_cold["throughput_rps"],
        "routed_cold_rps": routed_cold["throughput_rps"],
        "routed_speedup": round(
            routed_cold["throughput_rps"] / single_cold["throughput_rps"], 2
        ),
        "warm_rps": routed_warm["throughput_rps"],
        "warm_recomputed": warm_recomputed,
        "warm_served": routed_warm["served"],
        "duplicates_rps": routed_duplicates["throughput_rps"],
        "duplicates_served": routed_duplicates["served"],
        "shard_computed": shard_split,
        "cold_latency_ms": routed_cold["latency_ms"],
        "warm_latency_ms": routed_warm["latency_ms"],
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
        "fleet_rollup_matches": report["fleet"]["rollup_matches_targets"]
        if report.get("fleet")
        else None,
        "latency_degradation": report["latency_degradation"],
        "phase_latency_ms": {
            phase["phase"]: phase["latency_ms"] for phase in report["phases"]
        },
        "peak_rss_mb": round(_peak_rss_mb(), 1),
    }


def workload_dispatch(quick: bool) -> dict:
    """Registry-dispatch overhead of ``repro.evaluate`` versus a direct call.

    Times the same resolved ``exact`` evaluation twice: calling the
    registered function directly, and going through the full dispatch path
    (registry lookup, option resolution, typed-result wrapping).  The
    unified-API acceptance target is <5% overhead; the measured number is
    recorded so regressions in the dispatch layer show up in the perf
    trajectory.
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

    def time_block(run) -> float:
        start = time.perf_counter()
        for _ in range(calls):
            run()
        return time.perf_counter() - start

    # Alternate the two paths and keep each path's best block: back-to-back
    # single blocks confound the comparison with CPU-frequency drift.
    direct = dispatched = float("inf")
    for _ in range(repeats):
        direct = min(direct, time_block(lambda: definition.evaluate(model, resolved, None)))
        dispatched = min(dispatched, time_block(lambda: evaluate(model, "exact", max_support=1024)))
    return {
        "method": "exact",
        "n": 200,
        "max_support": 1024,
        "calls": calls,
        "repeats": repeats,
        "direct_us_per_call": round(direct / calls * 1e6, 1),
        "dispatched_us_per_call": round(dispatched / calls * 1e6, 1),
        "overhead_percent": round((dispatched - direct) / direct * 100.0, 2),
        "overhead_budget_percent": 5.0,
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

    shard = EvaluationServer(batch_window_ms=0.0)
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


#: Entry points timed by ``cold_start``: the numpy floor, then the two repro
#: entry points every CLI, service and study process starts with.
COLD_START_IMPORTS = ("numpy", "repro.cli", "repro.studies")

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
    subprocess, three times; the record keeps the best CPU and RSS of the
    three and whether any run loaded scipy (only the normal-approximation
    methods need it, and they import it on first use).
    """
    runs = 3
    src = str(REPO_ROOT / "src")
    imports = {}
    for module in COLD_START_IMPORTS:
        samples = []
        for _ in range(runs):
            completed = subprocess.run(
                [sys.executable, "-c", _COLD_START_PROBE.format(module=module), src],
                capture_output=True, text=True, check=True, timeout=300,
            )
            samples.append(json.loads(completed.stdout))
        imports[module] = {
            "cpu_s": round(min(sample["cpu_s"] for sample in samples), 3),
            "max_rss_mb": round(min(sample["max_rss_mb"] for sample in samples), 1),
            "scipy_loaded": any(sample["scipy_loaded"] for sample in samples),
        }
    return {
        "runs": runs,
        "imports": imports,
        "cli_vs_numpy_cpu_ratio": round(
            imports["repro.cli"]["cpu_s"] / imports["numpy"]["cpu_s"], 2
        ),
        "peak_rss_mb": round(_peak_rss_mb(), 1),
    }


WORKLOADS = {
    "single": workload_single,
    "paired": workload_paired,
    "paired_streaming": workload_paired_streaming,
    "one_out_of_r": workload_one_out_of_r,
    "parallel": workload_parallel,
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
def check_record(record: dict) -> list[str]:
    """Machine-independent throughput invariants for the CI gate.

    Absolute wall-times vary wildly across runners, so every check is a
    *ratio* within one record: a failure means a relative regression (one
    path got slower than its sibling), not a slow machine.
    """
    workloads = record.get("workloads", {})

    def value(workload: str, key: str):
        entry = workloads.get(workload, {})
        if "error" in entry:
            return None
        return entry.get(key)

    checks = [
        # The streaming paired path must not regress behind the
        # sample-collecting one again (it does strictly less work).
        (
            "paired_streaming >= 85% of paired throughput",
            lambda: value("paired_streaming", "replications_per_second")
            >= 0.85 * value("paired", "replications_per_second"),
        ),
        # 1-out-of-3 does ~3x the per-replication work of a single version;
        # below a quarter of the single rate the kernel has regressed.
        (
            "one_out_of_r >= 25% of single throughput",
            lambda: value("one_out_of_r", "replications_per_second")
            >= 0.25 * value("single", "replications_per_second"),
        ),
        # Shared-demand Monte Carlo sweeps must stay well ahead of per-point
        # dispatch; exact sweeps run the scalar kernel per point either
        # way, so grouping them must merely not be slower.
        (
            "sweep1000 montecarlo batched >= 3x scalar",
            lambda: value("sweep1000", "montecarlo_speedup") >= 3.0,
        ),
        (
            "sweep1000 exact batched >= 0.8x scalar",
            lambda: value("sweep1000", "exact_speedup") >= 0.8,
        ),
        # One exact + tail-quantile study convolves each point once; the
        # two single-method studies convolve it twice (about 2x).
        (
            "sweep1000 exact+tail-quantile shared >= 1.5x separate",
            lambda: value("sweep1000", "exact_tail_shared_speedup") >= 1.5,
        ),
        # Micro-batched concurrent serving must beat a serial request loop on
        # the sweep-style workload (the service's reason to exist); the
        # workload itself already enforces that the warm burst recomputed
        # nothing and that at least one batched group formed.
        (
            "service_throughput batched >= 2x serial",
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
        # a ~3 ms evaluation, so the measured percentage is dominated by
        # scheduler noise (observed spread: roughly -5%..+5% on shared
        # runners).  The gate therefore only catches a *broken* dispatch
        # layer -- per-call overhead comparable to the evaluation itself --
        # while the recorded overhead_percent tracks the fine trajectory.
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
            "cold_start repro.cli import CPU <= 4x import numpy",
            lambda: value("cold_start", "cli_vs_numpy_cpu_ratio") <= 4.0,
        ),
    ]
    failures = []
    for label, predicate in checks:
        try:
            ok = bool(predicate())
        except TypeError:  # a workload errored out; report it as a failure
            ok = False
        if not ok:
            failures.append(label)
    return failures


# --------------------------------------------------------------------- #
# Orchestration
# --------------------------------------------------------------------- #
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
        print(f"running {name} ...", flush=True)
        record["workloads"][name] = _run_in_subprocess(name, arguments.quick)
        print(f"  -> {json.dumps(record['workloads'][name])[:200]}", flush=True)
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
        for failure in failures:
            print(f"CHECK FAILED: {failure}")
        if failures:
            return 1
        print("all throughput checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
