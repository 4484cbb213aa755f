"""The shard router behind ``repro route``: one address over many shards.

Terminates the exact service protocol (:mod:`repro.service.http` framing,
same endpoints, same error bodies) and forwards each request to a backend
``repro serve`` shard:

* ``POST /v1/evaluate`` routes by consistent hash of the request's
  **batch-group digest** (:meth:`ServiceRequest.group_key`).  Only a
  shared-work method (``montecarlo``) needs that: its sweep points land on
  one shard, whose micro-batcher windows them into one kernel call.  Every
  other method's equal-digest requests co-locate under any key, which is
  all the shard's single flight needs.  The original body bytes are
  forwarded untouched -- the router parses only to validate and route --
  so shard-side digests, and therefore cache keys and results, are
  byte-identical to a direct call;
* ``POST /v1/evaluate/batch`` fans out per-shard: elements are grouped by
  their own route key, each sub-batch ships with its elements' original
  positions as ``stream_indices`` (keeping every ``(seed, index)`` random
  stream, and so every byte of every result, identical to the unsplit
  call), and responses reassemble in request order;
* a router-side **read-through LRU** answers repeat ``/v1/evaluate``
  traffic without a hop (``served.cached == "router"``; ``lru_size=0``
  disables it -- soak harnesses do, so cache behaviour under failure is
  the *shards'* behaviour, not the router's);
* **R-way replication** (``--replication R``): each key's home set is the
  first R shards of the ring's candidate walk
  (:class:`~repro.cluster.ring.ReplicatedPlacement`).  Writes are
  **write-all** -- a freshly computed result is asynchronously ``PUT`` to
  the other replicas' ``/v1/cache/<digest>`` surface (``replica_writes``,
  failpoint ``router.replica_write``) as the bytes of a cache entry
  (:func:`_replica_entry`), which the receiving shard checks and writes
  through :mod:`repro.cache` like any other entry -- and reads are
  **read-any**: the forward walk's fallback shard is exactly the next
  replica, which already holds the warm entry, so a shard death loses no
  warm cache
  (``replica_read_fallbacks`` counts requests a non-primary answered);
* a **shared health view**: the eject/readmit table is served over
  ``GET /v1/health/peers`` and, when peer routers are configured
  (``--peer-router``), fetched and merged last-writer-wins once per probe
  interval (``health_merges``), so N stateless routers behind one ring
  agree on ejections within one probe interval.

Failover: an unreachable shard is ejected until a ``/healthz`` probe
succeeds; a saturated one (429/503) is ejected for the server's
``Retry-After`` (or one probe interval) and readmits itself.  Probes are
staggered per shard (:class:`~repro.cluster.health.ProbeSchedule`, failpoint
``health.probe``) so routers don't hit every shard in lockstep.  Ejected
shards' key ranges spill to the next ring candidate; when every candidate
is out, the last upstream 429/503 propagates -- ``Retry-After`` included --
so the client's typed-retry machinery keeps working through the router.
Per-hop retries reuse :class:`repro.service.client.BackoffPolicy`, and
``x-repro-trace-id`` propagates end to end.

The router is also the fleet's **observability plane**:

* **metrics federation** (always on): each successful ``/healthz``
  probe is followed by a ``/metrics?format=prom`` scrape, parsed back into
  snapshot form and folded into a :class:`MetricsFederation`; peer routers
  are scraped on the merge cadence.  ``GET /metrics?scope=fleet`` serves
  the exact roll-up (JSON or Prometheus text) -- the merged view a single
  registry would have held, plus a per-target table;
* a **trace collector** behind ``POST /v1/traces``: shards and their pool
  workers ship span batches here (:mod:`repro.telemetry.collector`), so
  one routed request's router->shard->worker tree lands in one place;
* an **SLO engine** fed a fleet snapshot once per probe interval, serving
  error-budget and burn-rate reports at ``GET /v1/slo``.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import sys
import time
from typing import Any, Sequence

from repro import faults, telemetry
from repro.cluster.health import HealthView, ProbeSchedule
from repro.cluster.ring import (
    ConsistentHashRing,
    ReplicatedPlacement,
    parse_shard_specs,
)
from repro.cluster.transport import ShardTransport
from repro.grouping import evaluation_payload, group_digest
from repro.service.cache import ResponseCache
from repro.service.client import BackoffPolicy, _parse_retry_after
from repro.service.http import (
    HttpApp,
    HttpRequest,
    parse_json_body,
    read_request,
    write_response,
)
from repro.service.protocol import (
    parse_batch_payload,
    parse_evaluate_payload,
)
from repro.telemetry.collector import TraceCollector
from repro.telemetry.federation import MetricsFederation
from repro.telemetry.metrics import MetricsRegistry, parse_prometheus
from repro.telemetry.slo import DEFAULT_OBJECTIVES, SLOEngine

__all__ = ["ShardRouter"]

_COUNTER_NAMES = (
    "requests_total",
    "errors_total",
    "routed_requests",
    "fanout_requests",
    "fanout_subrequests",
    "router_cache_hits",
    "failovers",
    "shard_ejects",
    "shard_readmits",
    "hop_retries",
    "no_healthy_shards",
    "replica_writes",
    "replica_write_failures",
    "replica_read_fallbacks",
    "health_merges",
    "fleet_scrapes",
    "fleet_scrape_failures",
    "trace_batches_received",
    "trace_events_received",
    "trace_events_rejected",
)


def _replica_entry(digest: str, payload_text: str, metrics: dict) -> bytes:
    """The body of a replica ``PUT /v1/cache/<digest>``: a study-shaped entry.

    The payload goes out as the request's canonical text, which its digest
    already encoded, so the model is not encoded again; the body decodes to
    ``{"digest": digest, "payload": payload, "metrics": metrics}``.
    """
    return (
        f'{{"digest": {json.dumps(digest)}, "payload": {payload_text}, '
        f'"metrics": {json.dumps(metrics)}}}'
    ).encode("utf-8")


class ShardRouter(HttpApp):
    """Route service traffic across ``repro serve`` shards.

    Parameters
    ----------
    shards:
        Backend base URLs (``host:port`` or ``http://host:port``), one per
        ``repro serve`` instance, optionally weighted as
        ``host:port@WEIGHT``.  At least one; names must be unique.
    replicas:
        Virtual nodes per weight-1.0 shard on the hash ring.
    replication:
        Replica-set size R: each key's computed results fan out to its
        first R candidate shards, reads fall through the same order.
        1 (the default) is PR-8 behaviour -- no fan-out.
    probe_interval_ms:
        How often each shard is probed via ``/healthz`` (also the
        saturation cooldown when a shard sends no ``Retry-After``, and the
        peer-view merge cadence).
    lru_size:
        Router-side read-through cache capacity (entries); 0 disables the
        router cache entirely.
    retries:
        Full ring walks to attempt per request beyond the first, with
        :class:`BackoffPolicy` delays between walks.
    timeout:
        Per-hop budget in seconds for forwarded requests.
    peer_routers:
        Other routers' base URLs; their ``GET /v1/health/peers`` views are
        merged (last-writer-wins) once per probe interval.
    collector:
        The :class:`TraceCollector` behind ``POST /v1/traces``; a bounded
        in-memory one is created when omitted (pass one with a ``path`` to
        persist shipped spans to a JSONL file).
    slo_objectives:
        Objectives for the ``/v1/slo`` report; defaults to
        :data:`repro.telemetry.slo.DEFAULT_OBJECTIVES`.
    """

    routes = {
        "/healthz": {"GET": "_serve_health"},
        "/v1/health/peers": {"GET": "_serve_health_peers"},
        "/metrics": {"GET": "_serve_metrics"},
        "/v1/traces": {"POST": "_serve_traces"},
        "/v1/slo": {"GET": "_serve_slo"},
        "/v1/methods": {"GET": "_serve_methods"},
        "/v1/evaluate": {"POST": "_route_evaluate"},
        "/v1/evaluate/batch": {"POST": "_route_batch"},
    }
    request_span = "router.request"
    failure = ("routing failed", "routing_failed")
    metrics_scopes = ("local", "fleet")
    default_port = 8100

    def __init__(
        self,
        shards: Sequence[str],
        *,
        replicas: int = 64,
        replication: int = 1,
        probe_interval_ms: float = 500.0,
        lru_size: int = 1024,
        retries: int = 2,
        timeout: float = 120.0,
        peer_routers: Sequence[str] = (),
        collector: TraceCollector | None = None,
        slo_objectives=None,
    ) -> None:
        if probe_interval_ms <= 0.0:
            raise ValueError(f"probe_interval_ms must be positive, got {probe_interval_ms}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if lru_size < 0:
            raise ValueError(f"lru_size must be >= 0 (0 disables), got {lru_size}")
        super().__init__()
        names, weights = parse_shard_specs(shards)
        self.ring = ConsistentHashRing(names, replicas=replicas, weights=weights)
        self.placement = ReplicatedPlacement(self.ring, replication)
        self.health = HealthView(self.ring.shards)
        self.transports = {
            shard: ShardTransport(shard, timeout=timeout) for shard in self.ring.shards
        }
        self.peer_routers = tuple(str(peer) for peer in peer_routers)
        self.peer_transports = {
            peer: ShardTransport(peer, timeout=timeout) for peer in self.peer_routers
        }
        self.probe_interval = probe_interval_ms / 1000.0
        self.probe_timeout = min(2.0, max(0.25, self.probe_interval * 4.0))
        self.retries = retries
        self.backoff = BackoffPolicy()
        self.cache = ResponseCache(max_entries=lru_size) if lru_size > 0 else None
        self.registry = MetricsRegistry()
        self.registry.register_counters(_COUNTER_NAMES)
        self.registry.histogram("request_seconds")
        self.registry.histogram("hop_seconds")
        self.federation = MetricsFederation()
        self.collector = collector if collector is not None else TraceCollector()
        self.slo = SLOEngine(slo_objectives or DEFAULT_OBJECTIVES)
        self._probe_task: asyncio.Task | None = None
        self._replica_tasks: set[asyncio.Task] = set()

    # ----------------------------------------------------------------- #
    # Health probing
    # ----------------------------------------------------------------- #
    async def _probe_shard(self, shard: str) -> None:
        """Probe one shard: readmit it if recovered, eject it if newly dead.

        Cooldown (saturation) ejections are deliberately *not* cut short by
        a healthy probe -- ``/healthz`` bypasses admission control, so a
        saturated shard reads healthy while still rejecting work.  The
        ``health.probe`` failpoint fires before the wire call; an injected
        error reads as a failed probe, so chaos runs can blind the prober.
        """
        awaiting_probe = shard in self.health.needs_probe()
        try:
            faults.hit("health.probe")
            response = await self.transports[shard].request(
                "GET", "/healthz", timeout=self.probe_timeout
            )
            alive = response.status == 200
        except (ConnectionError, OSError, asyncio.TimeoutError, faults.FaultInjected):
            alive = False
        if alive and awaiting_probe:
            if self.health.readmit(shard):
                self.registry.inc("shard_readmits")
        elif not alive and not self.health.is_excluded(shard):
            self.health.eject(shard)
            self.registry.inc("shard_ejects")
        elif alive:
            # No transition, but a fresh observation: recency is what the
            # peer-view merge's last-writer-wins trades on.
            self.health.touch(shard)
        if alive:
            await self._scrape_target(shard, self.transports[shard], role="shard")

    async def _scrape_target(
        self, target: str, transport: ShardTransport, *, role: str
    ) -> None:
        """Scrape one target's ``/metrics?format=prom`` into the federation.

        A failed scrape leaves the previous (stale) entry in place --
        scrapes are snapshots of monotonic state, so old is merely old --
        and counts ``fleet_scrape_failures``; it never affects health.
        """
        try:
            response = await transport.request(
                "GET", "/metrics?format=prom", timeout=self.probe_timeout
            )
            if response.status != 200:
                raise ValueError(f"scrape returned {response.status}")
            snapshot = parse_prometheus(response.body.decode("utf-8"))
        except (ConnectionError, OSError, asyncio.TimeoutError, ValueError, UnicodeDecodeError):
            self.registry.inc("fleet_scrape_failures")
            return
        self.federation.update(target, snapshot, role=role)
        self.registry.inc("fleet_scrapes")

    async def _scrape_peers(self) -> None:
        for peer, transport in self.peer_transports.items():
            await self._scrape_target(peer, transport, role="router")

    async def _merge_peer_views(self) -> None:
        """Fold each peer router's ``/v1/health/peers`` export into ours.

        An unreachable peer is skipped, not ejected -- peers are not
        shards, and our own probes still converge the view within one
        interval; the merge only *accelerates* agreement.
        """
        for peer, transport in self.peer_transports.items():
            try:
                response = await transport.request(
                    "GET", "/v1/health/peers", timeout=self.probe_timeout
                )
            except (ConnectionError, OSError, asyncio.TimeoutError):
                continue
            data = response.json()
            if response.status != 200 or not isinstance(data, dict):
                continue
            view = data.get("view")
            if isinstance(view, dict):
                adopted = self.health.merge(view)
                if adopted:
                    self.registry.inc("health_merges", adopted)

    async def _probe_loop(self) -> None:
        schedule = ProbeSchedule(self.ring.shards, self.probe_interval)
        # One "beat" per probe interval for the cluster-wide chores: peer
        # view merges, peer-router scrapes, and the SLO engine's sample.
        next_beat = time.monotonic() + self.probe_interval
        while True:
            delay = min(
                schedule.seconds_until_next(),
                max(0.0, next_beat - time.monotonic()),
            )
            await asyncio.sleep(delay)
            try:
                for shard in schedule.due():
                    await self._probe_shard(shard)
                if time.monotonic() >= next_beat:
                    if self.peer_transports:
                        await self._merge_peer_views()
                        await self._scrape_peers()
                    self.slo.observe(self._fleet_snapshot())
                    next_beat = time.monotonic() + self.probe_interval
            except asyncio.CancelledError:
                raise
            except Exception as error:  # noqa: BLE001 - probing must not die
                print(f"router probe pass failed: {error}", file=sys.stderr, flush=True)

    # ----------------------------------------------------------------- #
    # Forwarding with failover
    # ----------------------------------------------------------------- #
    async def _forward(
        self, key: str, verb: str, path: str, body: bytes
    ) -> tuple[int, Any, dict, str | None]:
        """Send one request to ``key``'s shard, spilling across the ring.

        Returns ``(status, parsed_json, extra_headers, shard)`` where
        ``shard`` is the one that answered (``None`` when none did) and
        ``extra_headers`` carries the ``Retry-After`` to pass on with a
        429/503; a response that is not a JSON object comes back as a 502
        ``bad_gateway``.  Non-retryable shard responses (400s, 500s) propagate as-is -- the
        shard answered; the router adds nothing.  429/503 eject the shard
        for its ``Retry-After`` (or one probe interval) and spill to the
        next candidate; connection failures eject until a probe succeeds.
        The spill order *is* the replica order, so under replication the
        first fallback already holds the key's warm entries
        (``replica_read_fallbacks`` counts answers from a non-primary).
        When every candidate is out, the ring walk repeats up to
        ``retries`` times with backoff, then the last upstream 429/503 (or
        a router 503 ``no_healthy_shards``) comes back.
        """
        trace_id = telemetry.current_trace_id()
        headers = {"x-repro-trace-id": trace_id} if trace_id else {}
        # The enclosing router.request span becomes the shard-side root's
        # parent, so the stitched trace is one tree, not two forests.
        parent_span = telemetry.current_span_id()
        if parent_span:
            headers["x-repro-parent-span"] = parent_span
        last_retryable: tuple[int, Any, dict] | None = None
        attempt = 0
        candidates = self.ring.candidates(key)
        primary = candidates[0]
        while True:
            excluded = set(self.health.excluded())
            for shard in candidates:
                if shard in excluded:
                    continue
                hop_from = time.perf_counter()
                try:
                    response = await self.transports[shard].request(
                        verb, path, body, headers
                    )
                except (ConnectionError, OSError, asyncio.TimeoutError):
                    # The shard is unreachable: out until a probe sees it
                    # alive, its key range spills to the next candidate.
                    self.health.eject(shard)
                    self.registry.inc("shard_ejects")
                    self.registry.inc("failovers")
                    excluded.add(shard)
                    continue
                finally:
                    self.registry.observe(
                        "hop_seconds", time.perf_counter() - hop_from
                    )
                if response.status in (429, 503):
                    retry_after = _parse_retry_after(
                        response.headers.get("retry-after")
                    )
                    cooldown = (
                        retry_after if retry_after is not None else self.probe_interval
                    )
                    self.health.eject(shard, cooldown)
                    self.registry.inc("shard_ejects")
                    self.registry.inc("failovers")
                    excluded.add(shard)
                    last_retryable = (
                        response.status,
                        response.json(),
                        response.headers,
                    )
                    continue
                data = response.json()
                if data is None and response.body:
                    # Garbage where JSON should be: treat like a dead shard.
                    self.health.eject(shard)
                    self.registry.inc("shard_ejects")
                    self.registry.inc("failovers")
                    excluded.add(shard)
                    continue
                if shard != primary:
                    self.registry.inc("replica_read_fallbacks")
                if not isinstance(data, dict):
                    data = {"error": "shard returned an empty response", "code": "bad_gateway"}
                    return 502, data, {}, shard
                return response.status, data, {}, shard
            if attempt >= self.retries:
                break
            self.registry.inc("hop_retries")
            retry_after = None
            if last_retryable is not None:
                retry_after = _parse_retry_after(last_retryable[2].get("retry-after"))
            await asyncio.sleep(self.backoff.delay(attempt, retry_after))
            attempt += 1
        if last_retryable is not None:
            status, data, response_headers = last_retryable
            if not isinstance(data, dict):
                data = {
                    "error": "every shard is saturated or draining",
                    "code": "saturated",
                }
            retry_after = response_headers.get("retry-after") or "1"
            return status, data, {"Retry-After": retry_after}, None
        self.registry.inc("no_healthy_shards")
        return (
            503,
            {"error": "no healthy shards for this key", "code": "no_healthy_shards"},
            {"Retry-After": "1"},
            None,
        )

    # ----------------------------------------------------------------- #
    # Write-all replication fan-out
    # ----------------------------------------------------------------- #
    def _spawn_replica_writes(
        self, key: str, digest: str, payload_text: str, record: dict, source: str
    ) -> None:
        """Asynchronously push a freshly computed result to the other replicas.

        The entry is study-shaped -- digest, canonical payload, metrics --
        so the receiving shard's ``PUT /v1/cache/<digest>`` fills its LRU
        (:func:`repro.cache.result_record` rebuilds the wire record from the
        payload), not just its disk tier.  The computing shard already holds
        the entry; known-ejected replicas are skipped (a probe readmits them
        before they could answer reads anyway).  Fire-and-forget: replica
        writes never add latency to the response that triggered them.
        """
        targets = [
            shard
            for shard in self.placement.replica_set(key)
            if shard != source and not self.health.is_excluded(shard)
        ]
        if not targets:
            return
        entry = _replica_entry(digest, payload_text, record.get("metrics", {}))
        task = asyncio.get_running_loop().create_task(
            self._write_replicas(digest, entry, targets)
        )
        self._replica_tasks.add(task)
        task.add_done_callback(self._replica_tasks.discard)

    async def _write_replicas(
        self, digest: str, entry: bytes, targets: Sequence[str]
    ) -> None:
        for shard in targets:
            try:
                faults.hit("router.replica_write")
                response = await self.transports[shard].request(
                    "PUT",
                    f"/v1/cache/{digest}",
                    entry,
                    timeout=min(10.0, self.transports[shard].timeout),
                )
            except asyncio.CancelledError:
                raise
            except Exception:  # noqa: BLE001 - best-effort: reads still failover
                self.registry.inc("replica_write_failures")
                continue
            if response.status == 200:
                self.registry.inc("replica_writes")
            else:
                self.registry.inc("replica_write_failures")

    # ----------------------------------------------------------------- #
    # Endpoints
    # ----------------------------------------------------------------- #
    async def _route_evaluate(self, http_request: HttpRequest) -> tuple[int, dict, dict]:
        body = http_request.body
        # Invalid requests die here (ValueError: a 400 with the shard's
        # exact error text); nothing malformed crosses a hop.
        request = parse_evaluate_payload(parse_json_body(body))
        digest = request.digest()
        record = self.cache.get_local(digest) if self.cache is not None else None
        if record is not None:
            self.registry.inc("router_cache_hits")
            return (
                200,
                {
                    "result": record,
                    "served": {"cached": "router", "batched": False, "group_size": 0},
                },
                {},
            )
        self.registry.inc("routed_requests")
        # Forward the ORIGINAL bytes: the shard re-derives the same digest
        # from the same payload, so caching and results are exactly those of
        # a direct call.
        key = request.group_key()
        status, data, extra_headers, shard = await self._forward(
            key, "POST", "/v1/evaluate", bytes(body)
        )
        if status == 200 and isinstance(data.get("result"), dict):
            if self.cache is not None:
                self.cache.put_local(digest, data["result"])
            served = data.get("served")
            # Write-all: only *freshly computed* results fan out -- a cache
            # tier answering means every surviving replica was already
            # warmed when the entry was first computed.
            computed = isinstance(served, dict) and served.get("cached") is None
            if computed and shard is not None and self.placement.replication > 1:
                self._spawn_replica_writes(
                    key, digest, request.payload_text(), data["result"], source=shard
                )
        return status, data, extra_headers

    def _batch_route_key(self, model_data: dict, method: str, options: dict) -> str:
        """The ring key of one batch element: its batch-group identity.

        Entropy is left out (batch streams derive from positions, which
        must not affect placement), transforms are neutral -- elements of
        one method+options family stay together, distinct families spread.
        """
        return group_digest(
            evaluation_payload({"model": model_data}, {}, method, options, None)
        )

    async def _route_batch(self, http_request: HttpRequest) -> tuple[int, dict, dict]:
        payload = parse_json_body(http_request.body)
        model_data, requests, seed, stream_indices = parse_batch_payload(payload)
        self.registry.inc("fanout_requests")
        positions = (
            stream_indices
            if stream_indices is not None
            else list(range(len(requests)))
        )
        # Group element positions by their owner shard's *key* (not the
        # shard itself: _forward re-resolves owners per sub-batch, so a
        # mid-flight ejection spills the whole sub-batch consistently).
        groups: dict[str, list[int]] = {}
        keys = [
            self._batch_route_key(model_data, method, options)
            for method, options in requests
        ]
        owner_keys: dict[str, str] = {}
        for index, key in enumerate(keys):
            owner = self.ring.candidates(key)[0]
            owner_keys.setdefault(owner, key)
            groups.setdefault(owner, []).append(index)
        timeout_ms = payload.get("timeout_ms")

        async def send(owner: str, members: list[int]) -> tuple[int, Any, dict, str | None]:
            sub: dict[str, Any] = {
                "model": model_data,
                "requests": [
                    {"method": requests[i][0], **requests[i][1]} for i in members
                ],
                "seed": seed,
                "stream_indices": [positions[i] for i in members],
            }
            if timeout_ms is not None:
                sub["timeout_ms"] = timeout_ms
            self.registry.inc("fanout_subrequests")
            return await self._forward(
                owner_keys[owner],
                "POST",
                "/v1/evaluate/batch",
                json.dumps(sub).encode("utf-8"),
            )
        members_by_owner = list(groups.items())
        outcomes = await asyncio.gather(
            *(send(owner, members) for owner, members in members_by_owner)
        )
        records: list[Any] = [None] * len(requests)
        for (owner, members), (status, data, extra_headers, _shard) in zip(
            members_by_owner, outcomes
        ):
            if status != 200 or "results" not in data:
                # One failed sub-batch fails the whole request, typed: a
                # partial batch response would be a new protocol.
                return status, data, extra_headers
            for index, record in zip(members, data["results"]):
                records[index] = record
        return (
            200,
            {
                "results": records,
                "served": {
                    "cached": None,
                    "requests": len(requests),
                    "shards": len(members_by_owner),
                },
            },
            {},
        )

    def _metrics_snapshot(self) -> dict:
        """Refresh the operational gauges and cut one registry snapshot."""
        self.registry.set_gauge("uptime_seconds", round(time.time() - self._started, 3))
        self.registry.set_gauge("shards", len(self.ring.shards))
        self.registry.set_gauge(
            "healthy_shards", len(self.ring.shards) - len(self.health.excluded())
        )
        self.registry.set_gauge("replication", self.placement.replication)
        self.registry.set_gauge(
            "lru_entries", len(self.cache) if self.cache is not None else 0
        )
        telemetry.set_process_gauges(self.registry)
        return self.registry.snapshot()

    def _fleet_snapshot(self) -> dict:
        """The roll-up the SLO engine and fleet endpoints evaluate."""
        return self.federation.fleet_snapshot(self._metrics_snapshot())

    def _render_metrics(self, scope: str, wanted: str) -> dict | str:
        """``scope=fleet`` is the federated roll-up; ``local`` is the base's."""
        if scope == "local":
            return super()._render_metrics(scope, wanted)
        if wanted == "prom":
            return self.federation.prometheus(self._metrics_snapshot())
        document = self.federation.document(self._metrics_snapshot())
        health = self.health.snapshot()
        ages = self.health.ages()
        for target, entry in document["targets"].items():
            if target in health:
                entry["healthy"] = health[target]["healthy"]
                entry["observed_age_seconds"] = ages.get(target)
        return document

    def _serve_slo(self, request: HttpRequest) -> dict:
        """The ``/v1/slo`` body; samples on demand so the report is fresh."""
        self.slo.observe(self._fleet_snapshot())
        return {"role": "router", **self.slo.report()}

    def _serve_health(self, request: HttpRequest) -> dict:
        ages = self.health.ages()
        shards = self.health.snapshot()
        for shard, entry in shards.items():
            entry["observed_age_seconds"] = ages.get(shard)
        return {
            "status": "ok",
            "role": "router",
            "uptime_seconds": round(time.time() - self._started, 3),
            "replication": self.placement.replication,
            "shards": shards,
        }

    def _serve_health_peers(self, request: HttpRequest) -> dict:
        """The shared health view (``GET /v1/health/peers``).

        Peer routers merge the ``view`` table last-writer-wins; the same
        envelope shape is served by shards (with an empty view), so the
        surface is uniform across roles.
        """
        return {
            "role": "router",
            "updated": round(time.time(), 6),
            "view": self.health.export(),
        }

    def _serve_traces(self, request: HttpRequest) -> dict:
        payload = parse_json_body(request.body, "trace payload")
        accepted, rejected = self.collector.ingest(payload)
        self.registry.inc("trace_batches_received")
        self.registry.inc("trace_events_received", accepted)
        if rejected:
            self.registry.inc("trace_events_rejected", rejected)
        return {"accepted": accepted, "rejected": rejected}

    async def _serve_methods(self, request: HttpRequest) -> tuple[int, dict, dict]:
        status, data, extra_headers, _shard = await self._forward(
            "/v1/methods", "GET", "/v1/methods", b""
        )
        return status, data, extra_headers

    # ----------------------------------------------------------------- #
    # HTTP front (the shared skeleton, this module's framing)
    # ----------------------------------------------------------------- #
    async def _route(
        self, verb: str, path: str, body: bytes, query: str = ""
    ) -> tuple[int, dict | str, dict]:
        return await self._dispatch(verb, path, body, query)

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        await self._serve_connection(reader, writer, read_request, write_response)

    # ----------------------------------------------------------------- #
    # Lifecycle
    # ----------------------------------------------------------------- #
    async def start(
        self, host: str = "127.0.0.1", port: int | None = None
    ) -> asyncio.AbstractServer:
        """Bind, start the probe loop and begin accepting connections."""
        self._probe_task = asyncio.get_running_loop().create_task(self._probe_loop())
        return await super().start(host, port)

    def _listening_message(self, host: str, port: int) -> str:
        return (
            f"repro shard router listening on http://{host}:{port} "
            f"({len(self.ring.shards)} shard(s))"
        )

    async def aclose(self) -> None:
        """Stop probing, close client and pooled shard connections."""
        if self._probe_task is not None:
            self._probe_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._probe_task
            self._probe_task = None
        # In-flight replica writes are best-effort by contract: cancel them
        # rather than hold shutdown on a dead replica's timeout.
        for task in list(self._replica_tasks):
            task.cancel()
        if self._replica_tasks:
            await asyncio.gather(*self._replica_tasks, return_exceptions=True)
            self._replica_tasks.clear()
        await self._close_connections()
        for transport in self.transports.values():
            await transport.aclose()
        for transport in self.peer_transports.values():
            await transport.aclose()
        self.collector.close()
