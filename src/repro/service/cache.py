"""The service's in-process response cache: the LRU tier.

:class:`ResponseCache` is a bounded in-process mapping from request digest
to the exact wire record previously served, so warm traffic is answered
without touching the executor, the disk or even a JSON re-encode of the
metrics.  It is a shard's first tier and a router's read-through cache; a
shard's disk and peer tiers live in :mod:`repro.service.server`.

What counts as an entry and how a hit becomes a wire record are decided in
:mod:`repro.cache` (:func:`~repro.cache.is_entry`,
:func:`~repro.cache.result_record`).

The digest covers everything a response depends on, so one key maps to
one record: a served record is ``repro.evaluate`` on the rescaled model,
whatever else is in flight.  A study-warmed entry shares a key only for a
deterministic method; a seeded service request's entropy is a list and a
study's is an int, so their ``montecarlo`` estimates never share one.
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
