"""The service response cache: an in-process LRU over disk and remote tiers.

Three tiers, probed in order:

* **LRU** -- a bounded in-process mapping from request digest to the exact
  wire record previously served.  Warm traffic is answered without touching
  the executor, the disk or even a JSON re-encode of the metrics;
* **disk** -- the shared content-addressed :class:`repro.cache.ResultCache`
  (``repro serve --cache-dir``), the same format and key scheme the study
  runner uses.  Entries written by the service are study-shaped
  (``{"digest", "payload", "metrics"}``); deterministic-method entries
  warmed by a study over the same inline model are served to service
  traffic directly, and survive server restarts;
* **remote** -- the shared cluster tier (``repro serve --cache-peer URL``):
  on a local miss, peer shards are asked over their ``GET /v1/cache/<digest>``
  surface.  Peers answer from their *local* tiers only (never their own
  peers), so probes cannot recurse; a hit back-fills this shard's LRU and
  disk, so a warm shard answers for a cold one exactly once per key.

The digest covers everything a response depends on *except* how it was
computed -- a ``montecarlo`` value from a shared-world group and one from a
lone scalar request share a key, and so does a study-warmed entry.  A warm
hit therefore returns whichever equally valid estimate was computed first;
that is the documented CRN trade, not drift.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Mapping

from repro.cache import ResultCache

__all__ = ["RemoteCacheClient", "ResponseCache", "record_from_entry"]


def record_from_entry(entry: Mapping[str, Any]) -> dict | None:
    """Rebuild a wire result record from a study-shaped cache entry.

    The canonical payload carries the method name, its resolved options and
    the seed entropy (``payload["method"]`` is ``{"name": ..., **options}``),
    so a full :class:`~repro.api.results.EvaluationResult` record can be
    reconstituted from the entry alone -- which is what lets a ``PUT
    /v1/cache/<digest>`` populate the receiving shard's LRU, not just its
    disk.  Returns ``None`` for entries without a usable payload (legacy or
    foreign files); those still serve through the metrics-only path.
    """
    payload = entry.get("payload")
    metrics = entry.get("metrics")
    if not isinstance(payload, Mapping) or not isinstance(metrics, Mapping):
        return None
    method = payload.get("method")
    if not isinstance(method, Mapping) or "name" not in method:
        return None
    options = {key: value for key, value in method.items() if key != "name"}
    return {
        "method": method["name"],
        "options": options,
        "metrics": dict(metrics),
        "seed_entropy": payload.get("entropy"),
        "elapsed_seconds": 0.0,
    }


class RemoteCacheClient:
    """Blocking client for peer shards' ``/v1/cache/<digest>`` surface.

    Runs on the server's I/O thread executor (never the event loop).  Each
    peer is a :class:`~repro.service.client.ServiceClient` with
    ``retries=0``, its address parsed at construction, so a malformed
    ``--cache-peer`` fails start-up.  A probe opens one connection and
    closes it afterwards.  A peer that is down, slow or answering garbage
    is a cache *miss*, not an error -- the remote tier degrades to
    recomputation, the same contract as a damaged disk entry.  ``timeout``
    is deliberately short: a dead peer must cost milliseconds, not a
    request deadline.
    """

    def __init__(self, peers: tuple[str, ...], timeout: float = 2.0) -> None:
        # Lazy: a shard without cache peers never loads the blocking client.
        from repro.service.client import ServiceClient, split_base_url

        self.peers = tuple(peers)
        self.timeout = timeout
        self._clients = [
            ServiceClient(*split_base_url(peer), timeout=timeout, retries=0)
            for peer in self.peers
        ]

    def get(self, digest: str) -> dict | None:
        """Probe every peer in order; the first hit's entry wins."""
        from repro.service.client import ServiceError

        for client in self._clients:
            try:
                entry = client.request("GET", f"/v1/cache/{digest}")
            except (ServiceError, OSError):
                continue  # a miss (404), a dead peer or a garbage answer
            finally:
                client.close()
            if isinstance(entry, dict) and isinstance(entry.get("metrics"), dict):
                return entry
        return None


class ResponseCache:
    """Bounded LRU response store with optional disk and remote tiers."""

    def __init__(
        self,
        max_entries: int = 1024,
        disk: ResultCache | None = None,
        remote: RemoteCacheClient | None = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be a positive integer, got {max_entries}")
        self.max_entries = max_entries
        self.disk = disk
        self.remote = remote
        self._records: OrderedDict[str, dict] = OrderedDict()

    def get_local(self, digest: str) -> dict | None:
        """The LRU tier: the previously served wire record, freshened."""
        record = self._records.get(digest)
        if record is not None:
            self._records.move_to_end(digest)
        return record

    def get_disk(self, digest: str) -> dict | None:
        """The disk tier: the cached entry's metric mapping, or ``None``."""
        if self.disk is None:
            return None
        entry = self.disk.load(digest)
        if entry is None:
            return None
        return entry["metrics"]

    def get_remote(self, digest: str) -> dict | None:
        """The remote tier: a peer shard's entry metrics, or ``None``.

        Blocking network I/O -- the server calls this off the event loop,
        exactly like the disk tier.
        """
        if self.remote is None:
            return None
        entry = self.remote.get(digest)
        if entry is None:
            return None
        return entry["metrics"]

    def put_local(self, digest: str, record: Mapping[str, Any]) -> None:
        self._records[digest] = dict(record)
        self._records.move_to_end(digest)
        while len(self._records) > self.max_entries:
            self._records.popitem(last=False)

    def store_disk(
        self, digest: str, record: Mapping[str, Any], payload: Mapping[str, Any]
    ) -> None:
        """Write the disk-tier entry (a no-op without a disk tier).

        Kept apart from :meth:`put_local` so the server can run just the
        file I/O on an executor while the LRU insert stays on the event loop.
        """
        if self.disk is not None:
            self.disk.store(
                digest,
                {"digest": digest, "payload": dict(payload), "metrics": dict(record["metrics"])},
            )

    def __len__(self) -> int:
        return len(self._records)
