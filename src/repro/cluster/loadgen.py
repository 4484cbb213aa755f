"""Deterministic open-loop load generator for the service and cluster tiers.

Drives a live endpoint (a single ``repro serve`` shard or a ``repro route``
router -- the wire protocol is identical) with a reproducible traffic
pattern and reports throughput and latency percentiles from the telemetry
histograms.

Three phases, matching how the cluster is exercised in practice:

* **cold** -- every distinct payload once; on a router this spreads across
  shards by digest, so it measures scale-out compute throughput;
* **warm** -- the same payloads again; every answer must come from a cache
  tier (router LRU, shard LRU/disk, or a peer via the remote tier), which
  the benchmark gate checks by diffing ``evaluations_computed``;
* **duplicates** -- a small payload subset repeated many times and issued
  concurrently, stressing request coalescing and the duplicate-race path.

**Open-loop** means arrivals follow a fixed schedule (``rate`` requests per
second) regardless of completions, and each latency is measured from the
request's *scheduled* arrival, not its actual send -- a slow server shows
up as growing latency instead of silently throttling the generator
(no coordinated omission).

Everything is derived from one integer seed via :class:`random.Random`:
same seed, same models, same schedule, same duplicate subset.

:func:`run_soak` is the **chaos-soak harness** behind
``repro loadgen --soak-seconds``: it self-hosts a replicated cluster
(R-way router over N in-process shards that peer each other's caches),
warms every payload, then runs minutes-long open-loop load while killing
and restarting a shard mid-run.  Every response must be byte-identical to
the direct in-process result or a *typed* failure; the report carries
per-phase (pre-kill / degraded / recovered) latency-degradation ratios,
per-phase recompute counts (with ``--replication 2`` the degraded phase
must recompute **nothing** -- the write-all fan-out already warmed the
surviving replica), and whether the readmitted shard resumed its exact
pre-kill placement.

The soak also speaks the observability plane's vocabulary: every phase is
evaluated against the stock SLOs (:data:`~repro.telemetry.slo.
DEFAULT_OBJECTIVES`) into error-budget/burn-rate rows, ``slo_max_burn``
turns those into a pass/fail gate ("the degraded phase may burn budget at
most X times faster than sustainable"), and the report carries the
router's federated fleet snapshot cross-checked against the per-target
scrapes it was merged from.
"""

from __future__ import annotations

import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Mapping, Sequence

from repro.service.client import ServiceClient, ServiceError
from repro.telemetry.metrics import MetricsRegistry, histogram_summary

__all__ = ["LoadGenerator", "build_workload", "run_loadgen", "run_soak"]

#: ``served["cached"]`` values the service/router emit, plus ``None``
#: (freshly computed); anything new still gets counted, under its own name.
_KNOWN_TIERS = ("computed", "lru", "disk", "remote", "router")


def build_workload(
    seed: int,
    distinct: int = 16,
    *,
    n_faults: int = 40,
    replications: int = 2_000,
    method: str = "montecarlo",
) -> list[dict]:
    """``distinct`` evaluation payloads, reproducible from ``seed``.

    Each payload gets its own model (a fresh ``many-small-faults`` draw) and
    its own evaluation seed, so every payload has its own digest -- the
    shard-parallel regime a router spreads across the ring.  Options
    are small on purpose: the generator measures serving behaviour, not
    kernel throughput.
    """
    from repro.experiments.scenarios import many_small_faults_scenario

    if distinct < 1:
        raise ValueError("build_workload needs distinct >= 1")
    rng = random.Random(seed)
    payloads = []
    for index in range(distinct):
        model_rng = rng.randrange(2**31)
        payloads.append(
            {
                "model": many_small_faults_scenario(n=n_faults, rng=model_rng),
                "method": method,
                "options": {"replications": replications},
                "seed": rng.randrange(2**31),
                "p_scale": round(rng.uniform(0.25, 1.0), 6),
            }
        )
    return payloads


def duplicate_schedule(
    seed: int, payloads: Sequence[Mapping[str, Any]], factor: int = 4
) -> list[Mapping[str, Any]]:
    """The duplicate-heavy phase: a quarter of the payloads, ``factor`` times
    each, in a deterministic shuffle (derived from ``seed``, offset so it
    never mirrors the workload draw)."""
    rng = random.Random(f"{seed}:duplicates")
    subset = list(payloads[: max(1, len(payloads) // 4)])
    schedule = [item for item in subset for _ in range(max(1, factor))]
    rng.shuffle(schedule)
    return schedule


class LoadGenerator:
    """Open-loop traffic against one endpoint, phase by phase.

    The generator owns a :class:`~repro.telemetry.metrics.MetricsRegistry`;
    each phase records into its own ``loadgen_<phase>_seconds`` histogram,
    and the phase report derives p50/p95/p99 from that snapshot via
    :func:`~repro.telemetry.metrics.histogram_summary`.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8760,
        *,
        rate: float = 50.0,
        workers: int = 8,
        timeout: float = 120.0,
        registry: MetricsRegistry | None = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive (requests per second)")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.rate = float(rate)
        self.workers = int(workers)
        self.registry = registry if registry is not None else MetricsRegistry()
        self._clock = clock
        self.client = ServiceClient(
            host=host, port=port, timeout=timeout, retries=0
        )

    def _one(self, item: Mapping[str, Any]) -> tuple[float, dict | None, int | None]:
        """Issue one request; returns ``(done_at, served, error_status)``."""
        try:
            _, served = self.client.evaluate_detail(
                item["model"],
                item["method"],
                options=item.get("options"),
                seed=item.get("seed"),
                p_scale=item.get("p_scale", 1.0),
                q_scale=item.get("q_scale", 1.0),
            )
        except ServiceError as error:
            return self._clock(), None, error.status
        return self._clock(), served, None

    def run_phase(self, name: str, schedule: Sequence[Mapping[str, Any]]) -> dict:
        """Run one phase over ``schedule`` and return its report."""
        if not schedule:
            raise ValueError(f"phase {name!r} has an empty schedule")
        histogram = self.registry.histogram(f"loadgen_{name}_seconds")
        served_counts = {tier: 0 for tier in _KNOWN_TIERS}
        errors = 0
        statuses: dict[int, int] = {}
        outcomes: list[tuple[float, float, dict | None, int | None]] = []
        start = self._clock()
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            pending = []
            for index, item in enumerate(schedule):
                target = start + index / self.rate
                delay = target - self._clock()
                if delay > 0:
                    time.sleep(delay)
                pending.append((target, pool.submit(self._one, item)))
            for target, future in pending:
                done_at, served, status = future.result()
                outcomes.append((target, done_at, served, status))
        finished = max(done for _, done, _, _ in outcomes)
        for target, done_at, served, status in outcomes:
            self.registry.observe(histogram.name, max(0.0, done_at - target))
            if status is not None:
                errors += 1
                statuses[status] = statuses.get(status, 0) + 1
                continue
            tier = (served or {}).get("cached") or "computed"
            served_counts[tier] = served_counts.get(tier, 0) + 1
        elapsed = max(finished - start, 1e-9)
        summary = histogram_summary(histogram.snapshot())
        report = {
            "phase": name,
            "requests": len(schedule),
            "errors": errors,
            "offered_rate_rps": round(self.rate, 1),
            "seconds": round(elapsed, 4),
            "throughput_rps": round(len(schedule) / elapsed, 1),
            "latency_ms": {
                key: None if summary[key] is None else round(summary[key] * 1e3, 2)
                for key in ("p50", "p95", "p99", "max")
            },
            "served": served_counts,
        }
        if statuses:
            report["error_statuses"] = {str(code): count for code, count in sorted(statuses.items())}
        return report

    def close(self) -> None:
        self.client.close()


def run_loadgen(
    host: str = "127.0.0.1",
    port: int = 8760,
    *,
    seed: int = 0,
    distinct: int = 16,
    duplicate_factor: int = 4,
    rate: float = 50.0,
    workers: int = 8,
    replications: int = 2_000,
    n_faults: int = 40,
    phases: Sequence[str] = ("cold", "warm", "duplicates"),
) -> dict:
    """The standard cold/warm/duplicate-heavy run against one endpoint.

    Returns a JSON-safe record: one report per phase plus the workload
    parameters, so two runs with the same seed are comparable line by line.
    """
    payloads = build_workload(
        seed, distinct, n_faults=n_faults, replications=replications
    )
    schedules = {
        "cold": list(payloads),
        "warm": list(payloads),
        "duplicates": duplicate_schedule(seed, payloads, duplicate_factor),
    }
    unknown = [phase for phase in phases if phase not in schedules]
    if unknown:
        raise ValueError(f"unknown phases {unknown}; choose from {sorted(schedules)}")
    generator = LoadGenerator(host, port, rate=rate, workers=workers)
    try:
        reports = [generator.run_phase(phase, schedules[phase]) for phase in phases]
    finally:
        generator.close()
    return {
        "seed": seed,
        "distinct": distinct,
        "duplicate_factor": duplicate_factor,
        "rate_rps": rate,
        "workers": workers,
        "replications": replications,
        "n_faults": n_faults,
        "phases": reports,
    }


# --------------------------------------------------------------------- #
# The chaos-soak harness
# --------------------------------------------------------------------- #
def _free_ports(count: int) -> list[int]:
    """``count`` distinct free TCP ports, reserved together then released.

    Shards must know each other's addresses (``cache_peers``) *before* any
    of them binds, so ephemeral ``port=0`` binding cannot be used; holding
    all sockets open until every port is drawn keeps them distinct.
    """
    import socket

    sockets = []
    try:
        for _ in range(count):
            sock = socket.socket()
            sock.bind(("127.0.0.1", 0))
            sockets.append(sock)
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


def _strip_elapsed(record: Mapping[str, Any]) -> dict:
    return {key: value for key, value in record.items() if key != "elapsed_seconds"}


def run_soak(
    *,
    seed: int = 0,
    distinct: int = 12,
    shards: int = 3,
    replication: int = 2,
    rate: float = 40.0,
    workers: int = 8,
    soak_seconds: float = 30.0,
    kill_shard_at: float | None = None,
    restart_shard_at: float | None = None,
    replications: int = 2_000,
    n_faults: int = 40,
    probe_interval_ms: float = 100.0,
    timeout: float = 30.0,
    slo_max_burn: float | None = None,
) -> dict:
    """Open-loop soak over a self-hosted replicated cluster with a mid-run kill.

    Builds ``shards`` in-process :class:`EvaluationServer` instances (each
    peering the others' ``/v1/cache`` surface) behind one
    :class:`ShardRouter` with ``replication``-way placement, computes every
    payload's expected result directly in-process, warms the cluster (one
    cold pass, then waiting for the write-all fan-out to land), and drives
    ``rate`` req/s for ``soak_seconds``.  At ``kill_shard_at`` seconds the
    busiest shard (most primary keys -- deterministic) is killed; at
    ``restart_shard_at`` it restarts on the same port and rejoins via the
    router's probe loop.

    Every response is checked byte-identical to the expected record; any
    failure must be a typed :class:`ServiceError`.  Returns a JSON-safe
    report with per-phase latency/served/recompute tables, degradation
    ratios against the pre-kill phase, the placement-snapback verdict,
    per-phase SLO rows (gated by ``slo_max_burn`` when given), and the
    router's fleet-federation cross-check.
    """
    from contextlib import suppress

    from repro.api.evaluate import evaluate
    from repro.cluster.router import ShardRouter
    from repro.core.fault_model import FaultModel
    from repro.service.protocol import parse_evaluate_payload
    from repro.service.server import EvaluationServer, start_in_background

    if soak_seconds <= 0.0:
        raise ValueError(f"soak_seconds must be positive, got {soak_seconds}")
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if not 1 <= replication <= shards:
        raise ValueError(
            f"replication must be in 1..{shards} (the shard count), got {replication}"
        )
    if kill_shard_at is None and restart_shard_at is not None:
        raise ValueError("restart_shard_at needs kill_shard_at")
    if kill_shard_at is not None and not 0.0 < kill_shard_at < soak_seconds:
        raise ValueError(
            f"kill_shard_at must fall inside the soak (0..{soak_seconds:g}), "
            f"got {kill_shard_at:g}"
        )
    if restart_shard_at is not None and not kill_shard_at < restart_shard_at < soak_seconds:
        raise ValueError(
            f"restart_shard_at must fall between the kill and the end "
            f"({kill_shard_at:g}..{soak_seconds:g}), got {restart_shard_at:g}"
        )

    payloads = build_workload(
        seed, distinct, n_faults=n_faults, replications=replications
    )
    # Ground truth straight through the in-process API: what every routed
    # response must match byte for byte.
    expected: list[dict] = []
    keys: list[str] = []
    for item in payloads:
        model = item["model"]
        if isinstance(model, Mapping):
            model = FaultModel.from_dict(model)
        scaled = model.rescaled(item.get("p_scale", 1.0), item.get("q_scale", 1.0))
        result = evaluate(
            scaled, item["method"], seed=item.get("seed"), **item.get("options", {})
        )
        expected.append(_strip_elapsed(result.to_dict()))
        keys.append(
            parse_evaluate_payload({**item, "model": model.to_dict()}).digest()
        )

    ports = _free_ports(shards)
    addresses = [f"127.0.0.1:{port}" for port in ports]

    def make_shard(index: int) -> "EvaluationServer":
        return EvaluationServer(
            cache_peers=tuple(
                address for peer, address in enumerate(addresses) if peer != index
            ),
        )

    servers = [make_shard(index) for index in range(shards)]
    handles = [
        start_in_background(server, port=port)
        for server, port in zip(servers, ports)
    ]
    router = ShardRouter(
        addresses,
        replication=replication,
        probe_interval_ms=probe_interval_ms,
        # No router LRU: the soak measures what the shard tier serves under
        # failure, which a router-side cache would mask.
        lru_size=0,
        retries=2,
        timeout=timeout,
    )
    front = start_in_background(router)

    primaries = {index: router.ring.candidates(key)[0] for index, key in enumerate(keys)}
    owned = {address: sum(1 for owner in primaries.values() if owner == address)
             for address in addresses}
    # Deterministic victim: the shard owning the most keys (ties break on
    # ring-order address), so the kill always hits live placement.
    victim = max(addresses, key=lambda address: (owned[address], address))
    victim_index = addresses.index(victim)
    pre_kill_sets = {
        index: router.placement.replica_set(key) for index, key in enumerate(keys)
    }

    clock = time.perf_counter
    registry = MetricsRegistry()
    events: dict[str, Any] = {}
    chaos_errors: list[str] = []
    client = ServiceClient(port=front.port, timeout=timeout, retries=2)

    def one(index: int):
        item = payloads[index]
        try:
            result, served = client.evaluate_detail(
                item["model"],
                item["method"],
                options=item.get("options"),
                seed=item.get("seed"),
                p_scale=item.get("p_scale", 1.0),
                q_scale=item.get("q_scale", 1.0),
            )
        except ServiceError as error:
            return clock(), None, (error.status, error.code), True
        except Exception as error:  # noqa: BLE001 - an UNtyped failure: reported
            return clock(), None, (None, type(error).__name__), False
        matched = _strip_elapsed(result.to_dict()) == expected[index]
        return clock(), served, None, matched

    def router_counters() -> dict:
        return dict(router.registry.snapshot()["counters"])

    try:
        # ---- cold pass: warm every tier, then wait for the fan-out ---- #
        cold_mismatches = 0
        for index in range(len(payloads)):
            _, served, error, matched = one(index)
            if error is not None or not matched:
                cold_mismatches += 1
        expected_writes = len(payloads) * (replication - 1)
        deadline = clock() + 15.0
        while replication > 1 and clock() < deadline:
            counters = router_counters()
            if counters["replica_writes"] + counters["replica_write_failures"] >= expected_writes:
                break
            time.sleep(0.02)
        warm_writes = router_counters()["replica_writes"]

        # ---- the chaos timeline runs beside the open loop ------------- #
        start = clock()

        def chaos() -> None:
            try:
                if kill_shard_at is None:
                    return
                pause = start + kill_shard_at - clock()
                if pause > 0:
                    time.sleep(pause)
                handles[victim_index].stop()
                events["killed_at"] = round(clock() - start, 3)
                if restart_shard_at is None:
                    return
                pause = start + restart_shard_at - clock()
                if pause > 0:
                    time.sleep(pause)
                servers[victim_index] = make_shard(victim_index)
                handles[victim_index] = start_in_background(
                    servers[victim_index], port=ports[victim_index]
                )
                events["restarted_at"] = round(clock() - start, 3)
            except Exception as error:  # noqa: BLE001 - surfaced in the report
                chaos_errors.append(f"{type(error).__name__}: {error}")

        chaos_thread = threading.Thread(target=chaos, daemon=True)

        # ---- the open loop: scheduled arrivals, phase by offset ------- #
        total = max(1, int(round(rate * soak_seconds)))
        order: list[int] = []
        rng = random.Random(f"{seed}:soak")
        while len(order) < total:
            cycle = list(range(len(payloads)))
            rng.shuffle(cycle)
            order.extend(cycle)
        order = order[:total]

        def phase_of(offset: float) -> str:
            if kill_shard_at is None:
                return "steady"
            if offset < kill_shard_at:
                return "pre_kill"
            if restart_shard_at is None or offset < restart_shard_at:
                return "degraded"
            return "recovered"

        outcomes: list[tuple[float, float, dict | None, tuple | None, bool]] = []
        chaos_thread.start()
        with ThreadPoolExecutor(max_workers=workers) as pool:
            pending = []
            for position, payload_index in enumerate(order):
                target = start + position / rate
                delay = target - clock()
                if delay > 0:
                    time.sleep(delay)
                pending.append((target - start, pool.submit(one, payload_index)))
            for offset, future in pending:
                done_at, served, error, matched = future.result()
                outcomes.append((offset, done_at - start, served, error, matched))
        chaos_thread.join(timeout=30.0)

        # ---- per-phase aggregation ------------------------------------ #
        phase_names = (
            ("steady",)
            if kill_shard_at is None
            else ("pre_kill", "degraded", "recovered")
            if restart_shard_at is not None
            else ("pre_kill", "degraded")
        )
        tallies = {
            name: {
                "requests": 0,
                "errors": 0,
                "untyped_failures": 0,
                "byte_mismatches": 0,
                "recomputed": 0,
                "served": {tier: 0 for tier in _KNOWN_TIERS},
                "error_statuses": {},
            }
            for name in phase_names
        }
        for offset, latency, served, error, matched in outcomes:
            tally = tallies[phase_of(offset)]
            tally["requests"] += 1
            registry.observe(
                registry.histogram(f"soak_{phase_of(offset)}_seconds").name,
                max(0.0, latency - offset),
            )
            if error is not None:
                tally["errors"] += 1
                status, code = error
                if not matched:  # matched doubles as "typed" for failures
                    tally["untyped_failures"] += 1
                label = str(status) if status is not None else str(code)
                tally["error_statuses"][label] = tally["error_statuses"].get(label, 0) + 1
                continue
            if not matched:
                tally["byte_mismatches"] += 1
            tier = (served or {}).get("cached") or "computed"
            tally["served"][tier] = tally["served"].get(tier, 0) + 1
            if tier == "computed":
                tally["recomputed"] += 1

        phase_reports = []
        latency_by_phase: dict[str, dict] = {}
        for name in phase_names:
            summary = histogram_summary(
                registry.histogram(f"soak_{name}_seconds").snapshot()
            )
            latency = {
                key: None if summary[key] is None else round(summary[key] * 1e3, 2)
                for key in ("p50", "p95", "p99", "max")
            }
            latency_by_phase[name] = latency
            report = {"phase": name, "latency_ms": latency, **tallies[name]}
            if not report["error_statuses"]:
                del report["error_statuses"]
            phase_reports.append(report)

        baseline = latency_by_phase.get("pre_kill") or latency_by_phase.get("steady")
        degradation = {}
        for name in phase_names:
            if name in ("pre_kill", "steady"):
                continue
            ratios = {}
            for quantile in ("p50", "p99"):
                reference = (baseline or {}).get(quantile)
                observed = latency_by_phase[name].get(quantile)
                ratios[quantile] = (
                    round(observed / reference, 3)
                    if observed is not None and reference
                    else None
                )
            degradation[f"{name}_vs_baseline"] = ratios

        # ---- per-phase SLOs: the declarative form of the old gates ---- #
        from repro.telemetry.slo import DEFAULT_OBJECTIVES, evaluate_objectives, gate

        if kill_shard_at is None:
            phase_durations = {"steady": soak_seconds}
        else:
            phase_durations = {"pre_kill": kill_shard_at}
            if restart_shard_at is not None:
                phase_durations["degraded"] = restart_shard_at - kill_shard_at
                phase_durations["recovered"] = soak_seconds - restart_shard_at
            else:
                phase_durations["degraded"] = soak_seconds - kill_shard_at
        slo_phases = {}
        for name in phase_names:
            tally = tallies[name]
            # Each phase becomes a snapshot in the fleet schema: its error
            # counters plus its latency histogram under the objectives'
            # standard names, so evaluate_objectives needs no special case.
            phase_snapshot = {
                "counters": {
                    "requests_total": tally["requests"],
                    "errors_total": tally["errors"],
                },
                "histograms": {
                    "request_seconds": registry.histogram(
                        f"soak_{name}_seconds"
                    ).snapshot()
                },
            }
            slo_phases[name] = evaluate_objectives(
                DEFAULT_OBJECTIVES,
                phase_snapshot,
                window_seconds=phase_durations[name],
            )
        slo_section: dict[str, Any] = {"phases": slo_phases}
        if slo_max_burn is not None:
            slo_section["gate"] = gate(
                (row for rows in slo_phases.values() for row in rows),
                max_burn_rate=slo_max_burn,
            )
        # The router's own windowed view (fed by its probe-beat fleet
        # snapshots), next to the loadgen-side phase rows.
        slo_section["router_report"] = router.slo.report()

        # ---- fleet federation cross-check ----------------------------- #
        # The rollup the router serves must equal the merge of the
        # per-target scrapes it was built from: summing the per-target
        # counter columns of the fleet document reproduces the flat rollup
        # exactly (fixed bucket bounds make histogram merges exact too; the
        # integration tests cover those -- the soak spot-checks counters).
        fleet_document = router.federation.document(router._metrics_snapshot())
        fleet_targets = fleet_document.get("targets") or {}
        checked = {}
        for counter in ("requests_total", "errors_total", "spans_dropped"):
            rollup = fleet_document.get(counter, 0)
            summed = sum(
                (entry.get("counters") or {}).get(counter, 0)
                for entry in fleet_targets.values()
            )
            checked[counter] = {"rollup": rollup, "summed": summed}
        fleet_section = {
            "targets": sorted(fleet_targets),
            "rollup_matches_targets": all(
                column["rollup"] == column["summed"] for column in checked.values()
            ),
            "counters": checked,
        }

        # ---- placement snapback: the victim owns its keys again ------- #
        placement_restored = None
        if restart_shard_at is not None and not chaos_errors:
            deadline = clock() + max(5.0, probe_interval_ms / 1000.0 * 50.0)
            while clock() < deadline:
                if victim not in router.health.excluded():
                    break
                time.sleep(probe_interval_ms / 1000.0 / 2.0)
            readmitted = victim not in router.health.excluded()
            post_kill_sets = {
                index: router.placement.replica_set(key)
                for index, key in enumerate(keys)
            }
            placement_restored = readmitted and post_kill_sets == pre_kill_sets
            if placement_restored:
                # One request for a victim-owned key must reach the victim
                # again -- placement on paper and placement in traffic agree.
                victim_keys = [i for i, owner in primaries.items() if owner == victim]
                if victim_keys:
                    before = servers[victim_index].registry["requests_total"]
                    _, served, error, matched = one(victim_keys[0])
                    after = servers[victim_index].registry["requests_total"]
                    placement_restored = (
                        error is None and matched and after > before
                    )

        counters = router_counters()
        record = {
            "seed": seed,
            "distinct": distinct,
            "shards": shards,
            "replication": replication,
            "rate_rps": rate,
            "workers": workers,
            "soak_seconds": soak_seconds,
            "kill_shard_at": kill_shard_at,
            "restart_shard_at": restart_shard_at,
            "replications": replications,
            "n_faults": n_faults,
            "victim": victim,
            "victim_primary_keys": owned[victim],
            "events": {**events, "chaos_errors": chaos_errors},
            "cold_mismatches": cold_mismatches,
            "replica_writes_after_warm": warm_writes,
            "phases": phase_reports,
            "latency_degradation": degradation,
            "slo": slo_section,
            "fleet": fleet_section,
            "placement_restored": placement_restored,
            "router": {
                name: counters[name]
                for name in (
                    "replica_writes",
                    "replica_write_failures",
                    "replica_read_fallbacks",
                    "failovers",
                    "shard_ejects",
                    "shard_readmits",
                    "health_merges",
                    "no_healthy_shards",
                )
            },
        }
        totals = {
            "requests": sum(t["requests"] for t in tallies.values()),
            "errors": sum(t["errors"] for t in tallies.values()),
            "untyped_failures": sum(t["untyped_failures"] for t in tallies.values()),
            "byte_mismatches": sum(t["byte_mismatches"] for t in tallies.values()),
            "recomputed_after_kill": sum(
                tallies[name]["recomputed"]
                for name in phase_names
                if name in ("degraded", "recovered")
            ),
            "degraded_recomputed": tallies.get("degraded", {}).get("recomputed", 0),
        }
        record["totals"] = totals
        return record
    finally:
        client.close()
        front.stop()
        for handle in handles:
            with suppress(RuntimeError):
                handle.stop()
