"""The service's in-process response cache: the LRU tier.

:class:`ResponseCache` is a bounded in-process mapping from request digest
to the exact wire record previously served, so warm traffic is answered
without touching the executor, the disk or even a JSON re-encode of the
metrics.  It is a shard's first tier and a router's read-through cache; a
shard's disk and peer tiers live in :mod:`repro.service.server`.

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

__all__ = ["ResponseCache"]


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
