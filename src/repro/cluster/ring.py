"""The consistent-hash ring that assigns request digests to shards.

Each shard contributes virtual nodes -- SHA-256 points derived from
``"{shard}#{i}"`` -- interleaved around a 64-bit ring, so load spreads
evenly even with two or three shards and adding a shard moves only ~1/N of
the key space.  Keys are the service's content digests
(:meth:`repro.service.protocol.ServiceRequest.digest`, the cache key):
equal-digest requests land on the same shard and coalesce in that shard's
single flight.

Heterogeneous shards get **weights**: a shard with weight ``w`` contributes
``round(replicas * w)`` virtual nodes (at least one), so a box with twice
the cores can own twice the key space.  The CLI spelling is
``--shard HOST:PORT@WEIGHT`` (:func:`parse_shard_specs`).  Weight 1.0 --
the default -- contributes exactly ``replicas`` nodes labelled
``"{shard}#0"`` .. ``"{shard}#{replicas-1}"``, so an unweighted ring and
one whose weights are all 1.0 are the same ring (the layout is pinned in
``tests/test_digest_stability.py``).

Failover is a property of *lookup*, not of ring mutation: the ring always
holds every configured shard, and :meth:`ConsistentHashRing.owner` takes an
exclusion set -- an ejected shard's key range spills to the next distinct
shard clockwise, and readmission restores the original assignment exactly
(no rehash, no key churn for unaffected shards).
:class:`ReplicatedPlacement` builds on the same walk: a key's replica set
is the first R distinct shards of :meth:`ConsistentHashRing.candidates`,
so ejecting a shard *outside* a key's replica set never moves that key,
and ejecting a member falls through to the next candidate -- the read-any/
write-all placement the router uses.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_right
from typing import Iterable, Mapping, Sequence

__all__ = ["ConsistentHashRing", "ReplicatedPlacement", "parse_shard_specs"]


def _point(label: str) -> int:
    """A 64-bit ring position from a label's SHA-256."""
    return int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:8], "big")


def parse_shard_specs(specs: Sequence[str]) -> tuple[list[str], dict[str, float]]:
    """Split ``HOST:PORT@WEIGHT`` spellings into names and a weight table.

    Returns ``(names, weights)``; a spec without ``@`` gets weight 1.0.
    """
    names: list[str] = []
    weights: dict[str, float] = {}
    for spec in specs:
        name, separator, raw = str(spec).rpartition("@")
        if not separator:
            names.append(str(spec))
            weights[str(spec)] = 1.0
            continue
        try:
            weight = float(raw)
        except ValueError:
            raise ValueError(
                f"shard spec {spec!r}: weight {raw!r} is not a number"
            ) from None
        if not math.isfinite(weight) or weight <= 0.0:
            raise ValueError(
                f"shard spec {spec!r}: weight must be a positive finite number"
            )
        if not name:
            raise ValueError(f"shard spec {spec!r} has no host")
        names.append(name)
        weights[name] = weight
    return names, weights


class ConsistentHashRing:
    """Virtual-node consistent hashing over a fixed shard set."""

    def __init__(
        self,
        shards: Sequence[str],
        replicas: int = 64,
        weights: Mapping[str, float] | None = None,
    ) -> None:
        names = [str(shard) for shard in shards]
        if not names:
            raise ValueError("a hash ring needs at least one shard")
        if len(set(names)) != len(names):
            raise ValueError(f"shard names must be unique, got {names}")
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.shards = tuple(names)
        self.replicas = replicas
        self.weights = self._resolve_weights(names, weights)
        points = sorted(
            (_point(f"{shard}#{index}"), shard)
            for shard in names
            for index in range(self.node_count(shard))
        )
        self._points = points
        self._positions = [position for position, _ in points]

    @staticmethod
    def _resolve_weights(
        names: Sequence[str], weights: Mapping[str, float] | None
    ) -> dict[str, float]:
        weights = weights or {}
        unknown = set(weights) - set(names)
        if unknown:
            raise ValueError(f"weights name unknown shards: {sorted(unknown)}")
        table = {name: float(weights.get(name, 1.0)) for name in names}
        for name, weight in table.items():
            if not math.isfinite(weight) or weight <= 0.0:
                raise ValueError(
                    f"shard {name!r}: weight must be a positive finite number, got {weight}"
                )
        return table

    def node_count(self, shard: str) -> int:
        """Virtual nodes ``shard`` contributes: ``round(replicas * weight)``, >= 1.

        Weight 1.0 is exactly ``replicas`` nodes labelled
        ``"{shard}#{0..replicas-1}"``, whether the weight was given or not.
        """
        return max(1, round(self.replicas * self.weights[shard]))

    def candidates(self, key: str) -> list[str]:
        """Every shard, in ring order starting at ``key``'s position.

        The first element is the key's owner; each subsequent element is the
        next *distinct* shard clockwise -- the spill order when owners are
        ejected, and the replica order under :class:`ReplicatedPlacement`.
        Deterministic for a given ring and key.
        """
        start = bisect_right(self._positions, _point(key)) % len(self._points)
        seen: list[str] = []
        for offset in range(len(self._points)):
            shard = self._points[(start + offset) % len(self._points)][1]
            if shard not in seen:
                seen.append(shard)
                if len(seen) == len(self.shards):
                    break
        return seen

    def owner(self, key: str, excluded: Iterable[str] = ()) -> str | None:
        """The shard owning ``key``, skipping ``excluded``; ``None`` if all are."""
        skip = set(excluded)
        for shard in self.candidates(key):
            if shard not in skip:
                return shard
        return None


class ReplicatedPlacement:
    """R-way placement over the ring's candidate walk.

    A key's **home set** is the first ``replication`` distinct shards of
    :meth:`ConsistentHashRing.candidates` -- a pure function of the ring, so
    it never changes while the shard set stands.  Lookups take the same
    exclusion set the ring does: an ejected member is skipped and the next
    candidate takes its slot (read-any failover), an ejected non-member
    changes nothing (the stability property the hypothesis suite pins), and
    readmission snaps the set back exactly.
    """

    def __init__(self, ring: ConsistentHashRing, replication: int = 1) -> None:
        if not 1 <= replication <= len(ring.shards):
            raise ValueError(
                f"replication must be in 1..{len(ring.shards)} "
                f"(the shard count), got {replication}"
            )
        self.ring = ring
        self.replication = replication

    def replica_set(self, key: str, excluded: Iterable[str] = ()) -> list[str]:
        """The first R healthy shards for ``key``, in candidate order.

        Shorter than R when exclusions leave fewer healthy shards; empty
        when every shard is excluded.
        """
        skip = set(excluded)
        members: list[str] = []
        for shard in self.ring.candidates(key):
            if shard in skip:
                continue
            members.append(shard)
            if len(members) == self.replication:
                break
        return members

    def primary(self, key: str, excluded: Iterable[str] = ()) -> str | None:
        """The first healthy replica -- where reads land first."""
        members = self.replica_set(key, excluded)
        return members[0] if members else None
