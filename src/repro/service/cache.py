"""The service's response cache tiers: the in-process LRU and the remote client.

A shard probes three tiers, in order:

* **LRU** (:class:`ResponseCache`) -- a bounded in-process mapping from
  request digest to the exact wire record previously served.  Warm traffic
  is answered without touching the executor, the disk or even a JSON
  re-encode of the metrics;
* **disk** -- the shared content-addressed :class:`repro.cache.ResultCache`
  (``repro serve --cache-dir``), the same format and key scheme the study
  runner uses.  The server holds it and calls it directly; its
  ``store`` writes every entry, study-warmed or served.  Deterministic-method
  entries warmed by a study over the same inline model are served to
  service traffic directly, and survive server restarts;
* **remote** (:class:`RemoteCacheClient`) -- the shared cluster tier
  (``repro serve --cache-peer URL``): on a local miss, peer shards are asked
  over their ``GET /v1/cache/<digest>`` surface.  Peers answer from their
  *local* tiers only (never their own peers), so probes cannot recurse; a
  hit back-fills this shard's LRU and disk, so a warm shard answers for a
  cold one exactly once per key.

What counts as an entry and how a hit becomes a wire record are decided in
:mod:`repro.cache` (:func:`~repro.cache.is_entry`,
:func:`~repro.cache.result_record`).

The digest covers everything a response depends on *except* how it was
computed -- a ``montecarlo`` value from a shared-world group and one from a
lone request share a key, and so does a study-warmed entry.  A lone
request within the sparse kernel's memory budget is its one-point sweep at
scale 1, so it equals the grouped point at ``p_scale = q_scale = 1``; a
grouped point at another scale still differs from the lone request for the
rescaled model, and a correlated or over-budget lone request runs the
dense engine.  For those, a warm hit
returns whichever equally valid estimate was computed first; that is the
documented CRN trade, not drift.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Mapping

from repro.cache import is_entry

__all__ = ["RemoteCacheClient", "ResponseCache"]

#: Seconds a peer probe may take.  Deliberately short: a dead peer must cost
#: milliseconds, not a request deadline.
PEER_TIMEOUT = 2.0


class RemoteCacheClient:
    """Blocking client for peer shards' ``/v1/cache/<digest>`` surface.

    Runs on the server's I/O thread executor (never the event loop).  Each
    peer is a :class:`~repro.service.client.ServiceClient` with
    ``retries=0``, its address parsed at construction, so a malformed
    ``--cache-peer`` fails start-up.  A probe opens one connection and
    closes it afterwards.  A peer that is down, slow or answering garbage
    is a cache *miss*, not an error -- the remote tier degrades to
    recomputation, the same contract as a damaged disk entry.
    """

    def __init__(self, peers: tuple[str, ...]) -> None:
        # Lazy: a shard without cache peers never loads the blocking client.
        from repro.service.client import ServiceClient, split_base_url

        self.peers = tuple(peers)
        self._clients = [
            ServiceClient(*split_base_url(peer), timeout=PEER_TIMEOUT, retries=0)
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
            if is_entry(entry):
                return entry
        return None


class ResponseCache:
    """Bounded LRU of served wire records, keyed by request digest."""

    def __init__(self, max_entries: int = 1024) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be a positive integer, got {max_entries}")
        self.max_entries = max_entries
        self._records: OrderedDict[str, dict] = OrderedDict()

    def get_local(self, digest: str) -> dict | None:
        """The previously served wire record, freshened."""
        record = self._records.get(digest)
        if record is not None:
            self._records.move_to_end(digest)
        return record

    def put_local(self, digest: str, record: Mapping[str, Any]) -> None:
        self._records[digest] = dict(record)
        self._records.move_to_end(digest)
        while len(self._records) > self.max_entries:
            self._records.popitem(last=False)

    def __len__(self) -> int:
        return len(self._records)
