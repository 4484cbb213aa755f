"""The cluster layer: scale the evaluation service past one process.

A dependency-free scale-out tier over :mod:`repro.service`:

* :mod:`~repro.cluster.ring` -- consistent hashing with virtual nodes:
  content digests map to shards, equal digests stay together, ejection
  spills a key range to the next shard without rehashing anything else;
* :mod:`~repro.cluster.health` -- ejection/readmission state: dead shards
  stay out until a ``/healthz`` probe succeeds, saturated ones (429/503)
  sit out a ``Retry-After``-sized cooldown; the view serialises over
  ``GET /v1/health/peers`` and merges peer routers' views last-writer-wins,
  and :class:`~repro.cluster.health.ProbeSchedule` staggers probes per
  shard deterministically;
* :mod:`~repro.cluster.transport` -- keep-alive asyncio connections to
  each shard, reconnect-on-stale;
* :mod:`~repro.cluster.router` -- :class:`ShardRouter` behind
  ``repro route``: terminates the service protocol, routes ``/v1/evaluate``
  by content digest, fans ``/v1/evaluate/batch`` out per shard (each
  element keeps its own ``/v1/evaluate`` record and digest) with
  order-preserving reassembly, carries a read-through LRU, replicates
  computed results write-all/read-any across each digest's R-shard replica
  set (:class:`~repro.cluster.ring.ReplicatedPlacement`), and propagates
  ``x-repro-trace-id`` and ``Retry-After`` end to end;
* :mod:`~repro.cluster.loadgen` -- the deterministic open-loop load
  generator behind ``repro loadgen`` and the cluster benchmark gate.

Shards share a cache tier among themselves (``repro serve --cache-peer``):
on a local LRU + disk miss a shard asks its peers' ``GET /v1/cache/<digest>``
surface, so a shard warmed by studies or earlier traffic answers for a cold
one (see :mod:`repro.service.server`).

The router embeds exactly like the server::

    from repro.cluster import ShardRouter
    from repro.service.server import start_in_background

    handle = start_in_background(ShardRouter(["127.0.0.1:8001", "127.0.0.1:8002"]))
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "repro.cluster.health": ("HealthView", "ProbeSchedule"),
    "repro.cluster.ring": ("ConsistentHashRing", "ReplicatedPlacement"),
    "repro.cluster.router": ("ShardRouter",),
    "repro.cluster.transport": ("ShardTransport",),
})
