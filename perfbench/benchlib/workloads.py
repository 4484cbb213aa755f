"""The benchmark's workloads: ``warm_hits``, ``cold_mix`` and ``study_sweep``.

Each workload function runs one phase -- set-up, a timed window of
``seconds``, correctness checks, teardown -- and returns a :class:`Phase`.
``traced=True`` starts the program with the layer wrappers installed and
adds the per-layer figures.  Load comes from one closed loop in this process
with two callers (the machine's core count): each caller sends its next
request only after the previous one returned.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from benchlib import layers, payloads, spans
from benchlib.fleet import HOST, Fleet, peak_rss_mb, pick_ports
from benchlib.stats import percentile

CALLERS = 2
#: Rates and CPU per call are medians over this many equal slices of a
#: loop's duration.
RATE_SLICES = 5
#: Topology starts per run; ``setup_s`` uses their median.
SETUP_REPEATS = 3
#: ``warm_hits`` warm-up callers (set-up only; the window uses ``CALLERS``).
WARMUP_CALLERS = 8
#: ``cold_mix`` responses re-checked against in-process ``repro.evaluate``.
COLD_SAMPLE = 160
#: ``cold_mix`` results re-read after the window (all still in the router LRU).
READ_BACK = 512
#: ``study_sweep`` warm re-runs per cold run.
WARM_RERUNS = 8
#: Base ports per workload (``fleet.pick_ports`` steps past busy ones), below
#: the kernel's ephemeral range (32768-60999 by default) so that no outgoing
#: connection can be holding one when a topology restarts.
PORTS = {"warm_hits": 24410, "cold_mix": 24510}

#: The gated end-to-end metrics.  Times are CPU time summed over the
#: benchmark's and the program's processes: on a shared host the hypervisor's
#: steal moves wall time by up to 2-3x between runs, CPU time far less.
END_TO_END = {
    "setup_s": "s",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
}

#: Wall-clock figures: printed by every run and reported by a traced run (from
#: its untraced half) next to the layer times, but too unsteady to gate.
WALL = {
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "throughput_rps": "1/s",
}

#: Processes whose CPU time is split out per layer in a traced run.
CPU_ROLES = ("client", "router", "shard", "worker", "study")

#: Span-derived per-layer times: metric stem -> (span name, inclusive).  Self
#: time unless ``inclusive``; per request (summed over its calls) on the
#: serving workloads, per call on ``study_sweep``.
SPAN_TIMES = {
    "client.encode_us": ("client.encode", False),
    "client.decode_us": ("client.decode", False),
    "router.http_read_us": ("router.http_read", False),
    "router.http_write_us": ("router.http_write", False),
    "shard.http_read_us": ("shard.http_read", False),
    "shard.http_write_us": ("shard.http_write", False),
    "router.parse_us": ("router.parse", False),
    "shard.parse_us": ("shard.parse", False),
    "router.digest_us": ("router.digest", False),
    "shard.digest_us": ("shard.digest", False),
    "router.lru_get_us": ("router.lru_get", False),
    "shard.lru_get_us": ("shard.lru_get", False),
    "shard.lru_put_us": ("shard.lru_put", False),
    "shard.request_us": ("shard.request", False),
    "metrics.observe_us": ("metrics.observe", False),
    "router.request_us": ("router.request", False),
    "router.hop_us": ("router.hop", True),
    "router.network_us": ("router.hop", False),
    "router.replica_write_us": ("router.replica_write", False),
    "batcher.submit_us": ("batcher.submit", False),
    "batcher.window_wait_us": ("batcher.window_wait", False),
    "worker.handoff_us": ("worker.handoff", False),
    "worker.kernel_us": ("worker.kernel", False),
    "api.evaluate_us": ("api.evaluate", False),
    "kernel.exact_us": ("kernel.exact", False),
    "kernel.moments_us": ("kernel.moments", False),
    "study.plan_ms": ("study.plan", False),
    "disk.store_us": ("disk.store", False),
    "disk.load_us": ("disk.load", False),
}

#: Per-call kernel rates: metric stem -> (span name, unit); the call's
#: duration divided by its replications and/or points.
KERNEL_RATES = {
    "kernel.mc_ns_per_rep": ("kernel.mc", "ns"),
    "kernel.batched_pmf_us_per_point": ("kernel.batched_pmf", "us"),
    "kernel.mc_sweep_ns_per_rep_point": ("kernel.mc_sweep", "ns"),
}

#: The program's own spans, read from its trace file (``study_sweep`` only).
PROGRAM_SPANS = {"study.dispatch_ms": "study.dispatch", "study.aggregate_ms": "study.aggregate"}

#: Per-layer values reported once: counts and ratios.
SINGLE_VALUES = {
    "client.reconnects": "count",
    "router.cache_hit_ratio": "ratio",
    "shard.lru_hit_ratio": "ratio",
    "shard.key_share_max": "ratio",
    "shard.group_fallbacks": "count",
    "shard.pool_restarts": "count",
    "shard.deadline_timeouts": "count",
    "shard.rejected": "count",
    "metrics.observes_per_request": "count",
    "router.replica_writes_per_computed": "ratio",
    "router.failovers": "count",
    "router.hop_retries": "count",
    "batcher.group_size_mean": "count",
    "kernel.exact_support": "count",
    "exact_std_rel_err_max": "ratio",
    "study.points_per_task": "count",
    "study.warm_points_per_s": "1/s",
    "trace_overhead_pct": "%",
}

_SCALE = {"us": 1e6, "ms": 1e3, "ns": 1e9}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit (times as p50 and p99)."""
    stems = {stem: stem.rsplit("_", 1)[1] for stem in [*SPAN_TIMES, *PROGRAM_SPANS]}
    stems["unattributed_us"] = "us"
    stems.update({stem: unit for stem, (_, unit) in KERNEL_RATES.items()})
    units = dict(WALL)
    for stem, unit in stems.items():
        units[f"{stem}.p50"] = unit
        units[f"{stem}.p99"] = unit
    units.update({f"{role}.cpu_ms_per_op": "ms" for role in CPU_ROLES})
    units.update(SINGLE_VALUES)
    return units


@dataclass
class Phase:
    """One phase's outcome: the checks, the counts and the metrics."""

    correct: bool = True
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    #: CPU ms per op of each process role in the window.
    cpu: dict = field(default_factory=dict)
    #: Workload-specific figures printed with the table: name -> (value, unit).
    extras: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.correct = False
            self.problems.append(message)


# --------------------------------------------------------------------------- #
# The closed-loop load
# --------------------------------------------------------------------------- #
@dataclass
class Loop:
    latencies: list = field(default_factory=list)
    completions: list = field(default_factory=list)
    responses: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    started: float = 0.0
    elapsed: float = 0.0
    #: ``(time, {role: CPU seconds used so far})`` at the start, at each
    #: slice boundary and at the end of a timed loop.
    cpu_marks: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    def rate(self) -> float:
        """Completed calls per second: the median over ``RATE_SLICES`` equal
        slices of the loop's duration, so a burst of interference in one
        slice does not move the figure."""
        width = self.elapsed / RATE_SLICES
        counts = [0] * RATE_SLICES
        for done in self.completions:
            counts[min(int((done - self.started) / width), RATE_SLICES - 1)] += 1
        return statistics.median(count / width for count in counts)


def closed_loop(client, pick, seconds: float | None, total: int | None = None,
                callers: int = CALLERS, cpu=None) -> Loop:
    """Run ``callers`` closed-loop callers until ``seconds`` pass or ``total``
    calls were made.  ``pick(caller, k)`` gives ``(key, payload)``; every
    completed call keeps its latency and ``(key, record, served)``.  With
    ``cpu`` (a function returning CPU seconds used so far per process role)
    and ``seconds``, the loop also keeps ``cpu_marks``."""
    loop = Loop()
    lock = threading.Lock()
    counter = itertools.count()
    stop = threading.Event()
    if cpu is not None:
        loop.cpu_marks.append((time.perf_counter(), cpu()))
    loop.started = time.perf_counter()
    deadline = None if seconds is None else loop.started + seconds

    def sample() -> None:
        for index in range(1, RATE_SLICES):
            if stop.wait(loop.started + index * seconds / RATE_SLICES - time.perf_counter()):
                return
            loop.cpu_marks.append((time.perf_counter(), cpu()))

    def caller(index: int) -> None:
        latencies, completions, responses, failures = [], [], [], 0
        for k in itertools.count():
            if deadline is not None and time.perf_counter() >= deadline:
                break
            if total is not None:
                k = next(counter)
                if k >= total:
                    break
            key, payload = pick(index, k)
            t0 = time.perf_counter()
            try:
                result, served = client.evaluate_detail(
                    payload.model, payload.method, **payload.call_arguments()
                )
            except Exception as error:  # noqa: BLE001 - counted as a failed call
                failures += 1
                with lock:
                    loop.errors.append(f"{type(error).__name__}: {error}")
                continue
            done = time.perf_counter()
            latencies.append(done - t0)
            completions.append(done)
            responses.append((key, result, served))
        with lock:
            loop.latencies.extend(latencies)
            loop.completions.extend(completions)
            loop.responses.extend(responses)
            loop.attempted += len(latencies) + failures
            loop.failed += failures

    threads = [threading.Thread(target=caller, args=(index,)) for index in range(callers)]
    sampler = None
    if cpu is not None and seconds is not None:
        sampler = threading.Thread(target=sample)
        sampler.start()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    loop.elapsed = time.perf_counter() - loop.started
    if sampler is not None:
        stop.set()
        sampler.join()
    if cpu is not None:
        loop.cpu_marks.append((time.perf_counter(), cpu()))
    # Records are compared after the window, so their conversion is not
    # charged to the client.
    loop.responses = [(key, result.to_dict(), served) for key, result, served in loop.responses]
    return loop


def _latency_metrics(phase: Phase, loop: Loop) -> None:
    samples_ms = [value * 1000.0 for value in loop.latencies]
    phase.metrics["latency_p50_ms"] = percentile(samples_ms, 50)
    phase.metrics["latency_p99_ms"] = percentile(samples_ms, 99)
    phase.metrics["throughput_rps"] = loop.rate()
    phase.notes.append(f"latency samples: {len(samples_ms)} calls in {loop.elapsed:.2f} s")


def _cpu_metrics(phase: Phase, loop: Loop) -> None:
    """``cpu_ms_per_op``: CPU per completed call, the median over the
    window's slices (so a burst of contention in one slice does not move
    it); and the whole window's CPU per call split by process role."""
    (_, first), (_, last) = loop.cpu_marks[0], loop.cpu_marks[-1]
    calls = max(len(loop.latencies), 1)
    phase.cpu = {role: (used - first.get(role, 0.0)) * 1000.0 / calls
                 for role, used in last.items()}
    per_slice = []
    for (t0, before), (t1, after) in zip(loop.cpu_marks, loop.cpu_marks[1:]):
        done = sum(t0 <= completed < t1 for completed in loop.completions)
        if done:
            used = sum(value - before.get(role, 0.0) for role, value in after.items())
            per_slice.append(used * 1000.0 / done)
    phase.metrics["cpu_ms_per_op"] = statistics.median(per_slice)


def _cpu_reader(fleet: Fleet, client_offset=lambda: 0.0):
    """CPU seconds used so far per role: the topology's, plus this process's
    as ``client`` less ``client_offset()`` (the benchmark's own work)."""
    return lambda: {**fleet.cpu_seconds(), "client": time.process_time() - client_offset()}


def _delta(after: dict, before: dict, name: str) -> float:
    return float(after.get(name, 0) or 0) - float(before.get(name, 0) or 0)


def _sum_delta(afters: list, befores: list, name: str) -> float:
    return sum(_delta(a, b, name) for a, b in zip(afters, befores))


def _counter_layers(phase: Phase, client, before: tuple, after: tuple) -> None:
    (router_before, shards_before), (router_after, shards_after) = before, after
    out = phase.layers
    out["client.reconnects"] = float(client.stats["reconnects"])
    routed = _delta(router_after, router_before, "routed_requests")
    hits = _delta(router_after, router_before, "router_cache_hits")
    out["router.cache_hit_ratio"] = hits / (hits + routed) if hits + routed else 0.0
    requests = _sum_delta(shards_after, shards_before, "evaluate_requests")
    lru_hits = _sum_delta(shards_after, shards_before, "cache_hits_lru")
    out["shard.lru_hit_ratio"] = lru_hits / requests if requests else 0.0
    for name in ("group_fallbacks", "pool_restarts", "deadline_timeouts"):
        out[f"shard.{name}"] = _sum_delta(shards_after, shards_before, name)
    out["shard.rejected"] = _sum_delta(shards_after, shards_before, "rejected_saturated") + \
        _sum_delta(shards_after, shards_before, "rejected_draining")
    computed = _sum_delta(shards_after, shards_before, "evaluations_computed")
    writes = _delta(router_after, router_before, "replica_writes")
    out["router.replica_writes_per_computed"] = writes / computed if computed else 0.0
    for name in ("failovers", "hop_retries"):
        out[f"router.{name}"] = _delta(router_after, router_before, name)
    groups = _sum_delta(shards_after, shards_before, "dispatched_groups")
    grouped = computed + _sum_delta(shards_after, shards_before, "coalesced_requests")
    out["batcher.group_size_mean"] = grouped / groups if groups else 0.0


def _snapshot(fleet: Fleet) -> tuple:
    return fleet.router_metrics(), fleet.shard_metrics()


def _start_fleet(workload: str, workdir: Path, shard_args, router_args, spans_dir,
                 phase: Phase, repeats: int) -> tuple[Fleet, float]:
    """Start the topology ``repeats`` times (all but the last stopped again);
    returns the running fleet and the median CPU seconds its processes used
    from spawn to healthy."""
    ports = pick_ports(PORTS[workload], 3)
    times, cpu = [], []
    fleet = None
    for repeat in range(repeats):
        last = repeat == repeats - 1
        fleet = Fleet(workdir, ports, shard_args, router_args,
                      spans_dir=spans_dir if last else None)
        try:
            times.append(fleet.start())
            cpu.append(sum(fleet.cpu_seconds().values()))
        except BaseException:
            fleet.stop()
            raise
        if not last:
            fleet.stop()
    phase.notes.append(
        "topology start (spawn -> healthy): "
        + ", ".join(f"{t:.3f} s wall / {c:.2f} s CPU" for t, c in zip(times, cpu))
        + f" on ports {ports}"
    )
    return fleet, statistics.median(cpu)


def _cpu_now(fleet: Fleet) -> float:
    """CPU seconds used so far by the topology and this process."""
    return sum(_cpu_reader(fleet)().values())


# --------------------------------------------------------------------------- #
# Traced-run analysis (serving workloads)
# --------------------------------------------------------------------------- #
def _serving_span_layers(phase: Phase, events: list[dict]) -> None:
    spans.analyse(events)
    calls = {event["trace"]: event for event in events if event["name"] == "client.call"}
    grouped = spans.per_trace(events, set(calls))
    out = phase.layers
    for stem, (name, inclusive) in SPAN_TIMES.items():
        scale = _SCALE[stem.rsplit("_", 1)[1]]
        values = []
        for by_name in grouped.values():
            members = by_name.get(name)
            if members:
                key = (lambda e: e["t1"] - e["t0"]) if inclusive else (lambda e: e["self"])
                values.append(sum(key(event) for event in members) * scale)
        _put_percentiles(out, stem, values)
    _kernel_rates(out, [event for event in events if event["trace"] in calls])
    unattributed = []
    observes = 0
    for trace, by_name in grouped.items():
        call = calls[trace]
        named = 0.0
        for name, members in by_name.items():
            if name == "metrics.observe":
                observes += len(members)
            if name in ("client.call", "client.exchange") or name in layers.OFF_PATH:
                continue
            named += sum(e["self"] for e in members if call["t0"] <= e["t0"] <= call["t1"])
        unattributed.append((call["t1"] - call["t0"] - named) * 1e6)
    _put_percentiles(out, "unattributed_us", unattributed)
    out["metrics.observes_per_request"] = observes / len(calls) if calls else 0.0


def _kernel_rates(out: dict, events: list[dict]) -> None:
    for stem, (name, unit) in KERNEL_RATES.items():
        values = [(e["t1"] - e["t0"]) * _SCALE[unit] / _work_units(e)
                  for e in events if e["name"] == name and _work_units(e)]
        _put_percentiles(out, stem, values)


def _work_units(event: dict) -> float:
    attrs = event.get("attrs") or {}
    if event["name"] == "kernel.batched_pmf":
        return attrs.get("points", 0)
    if event["name"] == "kernel.mc_sweep":
        return attrs.get("reps", 0) * attrs.get("points", 0)
    return attrs.get("reps", 0)


def _put_percentiles(out: dict, stem: str, values: list) -> None:
    out[f"{stem}.p50"] = percentile(values, 50) if values else 0.0
    out[f"{stem}.p99"] = percentile(values, 99) if values else 0.0


# --------------------------------------------------------------------------- #
# warm_hits
# --------------------------------------------------------------------------- #
def warm_hits(seed: int, seconds: float, workdir: Path, traced: bool = False,
              cache: dict | None = None, repeats: int = SETUP_REPEATS) -> Phase:
    """Read-only front-end traffic over a warm working set (see module docs)."""
    from repro.service.client import ServiceClient

    phase = Phase()
    cache = cache if cache is not None else {}
    if "expected" not in cache:
        cache["payloads"] = payloads.working_set(seed)
        cache["expected"] = [payloads.reference(payload) for payload in cache["payloads"]]
    working, expected = cache["payloads"], cache["expected"]
    spans_dir, undo, recorder = _tracing(workdir, traced, "client")
    fleet = None
    try:
        fleet, start_cpu = _start_fleet(
            "warm_hits", workdir, ["--workers", "0"], [], spans_dir, phase, repeats)
        client = ServiceClient(HOST, fleet.router_port, timeout=60.0, retries=0)
        # Warm-up: every working-set payload computed once, through the
        # router, by enough callers that the shards' batch windows overlap.
        warm_cpu = _cpu_now(fleet)
        warmup = closed_loop(client, lambda caller, k: (k, working[k]), None,
                             total=len(working), callers=WARMUP_CALLERS)
        phase.metrics["setup_s"] = start_cpu + _cpu_now(fleet) - warm_cpu
        phase.check(warmup.failed == 0, f"{warmup.failed} warm-up calls failed: {warmup.errors[:3]}")
        for key, record, _ in warmup.responses:
            phase.check(payloads.comparable(record) == expected[key],
                        f"warm-up payload {key} differs from repro.evaluate")
        phase.notes.append(f"warm-up: {len(working)} cold calls in {warmup.elapsed:.2f} s")
        before = _snapshot(fleet)
        entries = [metrics["lru_entries"] for metrics in before[1]]
        phase.notes.append(f"shard keys after warm-up: {entries} (working set {len(working)})")
        phase.layers["shard.key_share_max"] = max(entries) / sum(entries)

        pickers = [random.Random(seed * 1000 + caller) for caller in range(CALLERS)]

        def pick(caller, k):
            index = pickers[caller].randrange(len(working))
            return index, working[index]

        if recorder is not None:
            recorder.spans = []
        loop = closed_loop(client, pick, seconds, cpu=_cpu_reader(fleet))
        _cpu_metrics(phase, loop)
        client_events = recorder.events() if recorder is not None else []
        after = _snapshot(fleet)
        phase.attempted, phase.failed = loop.attempted, loop.failed
        mismatched = sum(payloads.comparable(record) != expected[key]
                         for key, record, _ in loop.responses)
        phase.check(mismatched == 0, f"{mismatched} responses differ from their set-up record")
        recomputed = _sum_delta(after[1], before[1], "evaluations_computed")
        phase.check(recomputed == 0, f"shards computed {recomputed:g} results in the window")
        _latency_metrics(phase, loop)
        phase.metrics["peak_rss_mb"] = fleet.peak_rss_mb()
        if traced:
            _counter_layers(phase, client, before, after)
            exact = [(working[k], record) for k, record in enumerate(expected)
                     if record["method"] == "exact"]
            _exact_layers(phase, exact)
    finally:
        if fleet is not None:
            fleet.stop()
        if undo is not None:
            undo()
    if traced:
        _serving_span_layers(phase, client_events + spans.load_events(spans_dir))
    return phase


def _exact_layers(phase: Phase, exact: list) -> None:
    if not exact:
        return
    phase.layers["exact_std_rel_err_max"] = max(
        payloads.std_rel_error(payload, record) for payload, record in exact
    )
    phase.layers["kernel.exact_support"] = statistics.median(
        record["metrics"]["exact_support"] for _, record in exact
    )


def _tracing(workdir: Path, traced: bool, role: str):
    if not traced:
        return None, None, None
    spans_dir = workdir / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    recorder = spans.Recorder(role, str(spans_dir))
    return str(spans_dir), layers.install(role, recorder), recorder


# --------------------------------------------------------------------------- #
# cold_mix
# --------------------------------------------------------------------------- #
def cold_mix(seed: int, seconds: float, workdir: Path, traced: bool = False,
             cache: dict | None = None, repeats: int = SETUP_REPEATS) -> Phase:
    """Compute-bound traffic: every request a never-seen payload, replicated."""
    from repro.service.client import ServiceClient

    phase = Phase()
    spans_dir, undo, recorder = _tracing(workdir, traced, "client")
    fleet = None
    try:
        fleet, start_cpu = _start_fleet("cold_mix", workdir, ["--workers", "1"],
                                        ["--replication", "2"], spans_dir, phase, repeats)
        client = ServiceClient(HOST, fleet.router_port, timeout=60.0, retries=0)
        # Warm-up: the first request forks each shard's pool; these payloads
        # are outside the index range the window uses.
        warm_cpu = _cpu_now(fleet)
        warmup = closed_loop(
            client, lambda caller, k: (k, payloads.cold_payload(seed, 10**6 + k)), None, total=8
        )
        phase.metrics["setup_s"] = start_cpu + _cpu_now(fleet) - warm_cpu
        phase.check(warmup.failed == 0, f"{warmup.failed} warm-up calls failed: {warmup.errors[:3]}")
        before = _settled_snapshot(fleet)
        generated: dict[int, payloads.Payload] = {}
        generation_cpu = [0.0] * CALLERS

        def pick(caller, k):
            # Making the payload is the benchmark's work, not the client's.
            started = time.thread_time()
            index = next(indices)
            generated[index] = payloads.cold_payload(seed, index)
            generation_cpu[caller] += time.thread_time() - started
            return index, generated[index]

        indices = itertools.count()
        if recorder is not None:
            recorder.spans = []
        loop = closed_loop(client, pick, seconds,
                           cpu=_cpu_reader(fleet, lambda: sum(generation_cpu)))
        client_events = recorder.events() if recorder is not None else []
        phase.attempted, phase.failed = loop.attempted, loop.failed
        _latency_metrics(phase, loop)
        _cpu_metrics(phase, loop)
        after = _settled_snapshot(fleet)
        computed = _sum_delta(after[1], before[1], "evaluations_computed")
        writes = _delta(after[0], before[0], "replica_writes")
        phase.check(computed == len(loop.latencies),
                    f"shards computed {computed:g} results for {len(loop.latencies)} calls")
        phase.check(writes == computed, f"replica_writes {writes:g} != computed {computed:g}")
        phase.check(_delta(after[0], before[0], "replica_write_failures") == 0,
                    "replica writes failed")
        responses = sorted(loop.responses, key=lambda item: item[0])
        sample = random.Random(seed).sample(responses, min(COLD_SAMPLE, len(responses)))
        for key, record, _ in sample:
            phase.check(payloads.comparable(record) == payloads.reference(generated[key]),
                        f"cold payload {key} ({record['method']}) differs from repro.evaluate")
        phase.notes.append(f"checked {len(sample)} of {len(responses)} responses in-process")
        # Read-after-write: the latest results come back from a cache tier,
        # byte-identical to the computed response.
        recent = responses[-READ_BACK:]
        read_back = closed_loop(
            client, lambda caller, k: (k, generated[recent[k][0]]), None, total=len(recent))
        phase.check(read_back.failed == 0, f"{read_back.failed} read-back calls failed")
        for slot, record, served in read_back.responses:
            phase.check(payloads.comparable(record) == payloads.comparable(recent[slot][1]),
                        f"read-back {slot} differs from its computed response")
            phase.check(served.get("cached") is not None, f"read-back {slot} was recomputed")
        phase.metrics["peak_rss_mb"] = fleet.peak_rss_mb()
        if traced:
            _counter_layers(phase, client, before, after)
            exact = [(generated[key], record) for key, record, _ in sample
                     if record["method"] == "exact"]
            _exact_layers(phase, exact)
    finally:
        if fleet is not None:
            fleet.stop()
        if undo is not None:
            undo()
    if traced:
        _serving_span_layers(phase, client_events + spans.load_events(spans_dir))
    return phase


def _settled_snapshot(fleet: Fleet, timeout: float = 10.0) -> tuple:
    """Metrics once the router's asynchronous replica writes caught up with
    every result the shards computed."""
    deadline = time.monotonic() + timeout
    while True:
        router, shards = _snapshot(fleet)
        computed = sum(metrics["evaluations_computed"] for metrics in shards)
        done = router["replica_writes"] + router["replica_write_failures"]
        if done >= computed or time.monotonic() > deadline:
            return router, shards
        time.sleep(0.05)


# --------------------------------------------------------------------------- #
# study_sweep
# --------------------------------------------------------------------------- #
STUDY_JOBS = 2
_SETUP_PROBE = (
    "import json, sys; sys.path.insert(0, sys.argv[1]); "
    "from repro.studies import StudySpec, run_study; "
    "StudySpec.from_dict(json.loads(sys.argv[2]))"
)


def study_spec(seed: int) -> dict:
    """An ``n x model_seed x p_scale`` grid (160 combinations) times four
    methods: 640 points, a cold run of about 2.5 s on two cores, so that a
    run's window holds several cold runs."""
    rng = random.Random(seed)
    return {
        "name": f"perfbench-{seed}",
        "base": {"scenario": "many-small-faults"},
        "sweep": {"grid": [
            {"name": "n", "values": [50, 100, 150, 200]},
            {"name": "model_seed", "values": [rng.randrange(1, 10**6) for _ in range(5)]},
            {"name": "p_scale", "logspace": [0.1, 1.0, 8]},
        ]},
        "methods": [
            {"name": "moments"},
            {"name": "exact"},
            {"name": "tail-quantile"},
            {"name": "montecarlo", "replications": 2000},
        ],
        "seed": seed,
    }


def _rusage_cpu(who: int) -> float:
    """CPU seconds so far of this process (``RUSAGE_SELF``) or of its reaped
    children (``RUSAGE_CHILDREN``)."""
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


class _ChildRss:
    """Samples the summed VmHWM of this process's children (the study's pool
    workers) while it is entered; ``peak`` keeps the largest sum."""

    def __init__(self, interval: float = 0.1) -> None:
        self.peak = 0.0
        self.interval = interval
        self._stop = threading.Event()
        self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            pids = []
            for path in Path("/proc/self/task").glob("*/children"):
                try:
                    pids += path.read_text().split()
                except OSError:
                    continue
            self.peak = max(self.peak, sum(peak_rss_mb(int(pid)) for pid in pids))

    def __enter__(self) -> "_ChildRss":
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()


def study_sweep(seed: int, seconds: float, workdir: Path, traced: bool = False,
                cache: dict | None = None, repeats: int = SETUP_REPEATS) -> Phase:
    """Cold ``run_study(jobs=2)`` into a fresh disk cache, then warm re-runs."""
    phase = Phase()
    spec_data = study_spec(seed)
    src = str(Path(__file__).resolve().parents[2] / "src")
    setup_times = []
    for _ in range(repeats):
        started = _rusage_cpu(resource.RUSAGE_CHILDREN)
        subprocess.run([sys.executable, "-c", _SETUP_PROBE, src, json.dumps(spec_data)],
                       check=True, stdin=subprocess.DEVNULL)
        setup_times.append(_rusage_cpu(resource.RUSAGE_CHILDREN) - started)
    phase.metrics["setup_s"] = statistics.median(setup_times)
    from repro import telemetry
    from repro.studies import StudySpec, run_study

    spec = StudySpec.from_dict(spec_data)
    # One small study first, so the timed cycles do not pay this process's
    # first-run costs (the first of several cold runs is ~10% slower).
    warmup = dict(spec_data, sweep={"grid": [{"name": "n", "values": [20]},
                                             {"name": "p_scale", "values": [0.5, 1.0]}]})
    run_study(StudySpec.from_dict(warmup), cache_dir=str(workdir / "study-warmup"),
              jobs=STUDY_JOBS)
    shutil.rmtree(workdir / "study-warmup")
    spans_dir, undo, recorder = _tracing(workdir, traced, "study")
    program_trace = workdir / "program-trace.jsonl"
    if traced:
        telemetry.configure(str(program_trace))
    cold_times, warm_times, cold_points, warm_points, tasks = [], [], [], [], []
    # Per cold run: (this process's, its pool workers') CPU seconds per point.
    cold_cpu = []
    errors = []
    children = _ChildRss()
    try:
        window_start = time.perf_counter()
        cycle = 0
        while cycle == 0 or time.perf_counter() - window_start < seconds:
            cache_dir = workdir / f"study-cache-{cycle}"
            own, pool = _rusage_cpu(resource.RUSAGE_SELF), _rusage_cpu(resource.RUSAGE_CHILDREN)
            started = time.perf_counter()
            with children:
                cold = run_study(spec, cache_dir=str(cache_dir), jobs=STUDY_JOBS)
            cold_times.append(time.perf_counter() - started)
            cold_points.append(len(cold.records))
            cold_cpu.append(((_rusage_cpu(resource.RUSAGE_SELF) - own) / len(cold.records),
                             (_rusage_cpu(resource.RUSAGE_CHILDREN) - pool) / len(cold.records)))
            tasks.append(cold.summary["points"] / max(cold.summary["dispatched_tasks"], 1))
            phase.check(cold.summary["computed"] == cold.summary["evaluations"],
                        "cold run served points from a cache")
            for _ in range(WARM_RERUNS):
                started = time.perf_counter()
                warm = run_study(spec, cache_dir=str(cache_dir), jobs=STUDY_JOBS)
                warm_times.append(time.perf_counter() - started)
                warm_points.append(len(warm.records))
                phase.check(warm.summary["computed"] == 0, "warm re-run computed points")
                phase.check(warm.records == cold.records, "warm records differ from cold")
            errors.append(_check_study(phase, cold.records))
            shutil.rmtree(cache_dir)
            cycle += 1
        rss = peak_rss_mb(os.getpid()) + children.peak
    finally:
        if traced:
            telemetry.disable()
        if undo is not None:
            undo()
    phase.attempted = len(cold_times) + len(warm_times)
    cold_ms = [value * 1000.0 for value in cold_times]
    phase.metrics["latency_p50_ms"] = percentile(cold_ms, 50)
    phase.metrics["latency_p99_ms"] = percentile(cold_ms, 99)
    # A study's throughput is its cold points per second.
    phase.metrics["throughput_rps"] = statistics.median(
        points / elapsed for points, elapsed in zip(cold_points, cold_times))
    phase.metrics["peak_rss_mb"] = rss
    # An op is one cold study point; the cold run with the median total.
    study_cpu, worker_cpu = sorted(cold_cpu, key=sum)[(len(cold_cpu) - 1) // 2]
    phase.cpu = {"study": study_cpu * 1000.0, "worker": worker_cpu * 1000.0}
    phase.metrics["cpu_ms_per_op"] = (study_cpu + worker_cpu) * 1000.0
    warm_rate = statistics.median(
        points / elapsed for points, elapsed in zip(warm_points, warm_times))
    phase.extras["points_per_s"] = (phase.metrics["throughput_rps"], "1/s")
    phase.extras["warm_points_per_s"] = (warm_rate, "1/s")
    phase.extras["exact_std_rel_err_max"] = (max(errors), "ratio")
    phase.notes.append(
        f"{len(cold_times)} cold and {len(warm_times)} warm run_study calls of "
        f"{cold_points[0]} points; set-up probes "
        f"{', '.join(f'{t:.3f}' for t in setup_times)} s CPU"
    )
    if traced:
        phase.layers["exact_std_rel_err_max"] = max(errors)
        phase.layers["study.points_per_task"] = statistics.median(tasks)
        phase.layers["kernel.exact_support"] = statistics.median(
            row["exact_support"] for row in cold.records if row["method"] == "exact")
        phase.layers["study.warm_points_per_s"] = warm_rate
        _study_span_layers(phase, recorder.events() + spans.load_events(spans_dir),
                           program_trace)
    return phase


def _check_study(phase: Phase, records) -> float:
    """Exact means equal the closed-form moments; returns the max std error."""
    moments, exact = {}, {}
    for row in records:
        key = (row["n"], row["model_seed"], row["p_scale"])
        if row["method"] == "moments":
            moments[key] = row
        elif row["method"] == "exact":
            exact[key] = row
    worst = 0.0
    for key, row in exact.items():
        truth = moments[key]
        mean_error = abs(row["exact_mean"] - truth["mean_system"]) / truth["mean_system"]
        phase.check(mean_error <= 1e-9, f"exact_mean off by {mean_error:.3g} at {key}")
        worst = max(worst, abs(row["exact_std"] - truth["std_system"]) / truth["std_system"])
    return worst


def _study_span_layers(phase: Phase, events: list[dict], program_trace: Path) -> None:
    spans.analyse(events)
    out = phase.layers
    for stem, (name, inclusive) in SPAN_TIMES.items():
        scale = _SCALE[stem.rsplit("_", 1)[1]]
        values = [(e["t1"] - e["t0"] if inclusive else e["self"]) * scale
                  for e in events if e["name"] == name]
        _put_percentiles(out, stem, values)
    _kernel_rates(out, events)
    program = []
    if program_trace.exists():
        with open(program_trace, encoding="utf-8") as handle:
            program = [json.loads(line) for line in handle if line.strip()]
    for stem, name in PROGRAM_SPANS.items():
        _put_percentiles(out, stem, [e["dur_ms"] for e in program if e["name"] == name])


WORKLOADS = {"warm_hits": warm_hits, "cold_mix": cold_mix, "study_sweep": study_sweep}
