"""Consistent-hash ring: determinism, spill-and-snap-back, validation."""

from __future__ import annotations

import pytest

from repro.cluster.ring import (
    ConsistentHashRing,
    ReplicatedPlacement,
    parse_shard_specs,
)

SHARDS = ["127.0.0.1:8001", "127.0.0.1:8002", "127.0.0.1:8003"]
KEYS = [f"key-{index:04d}" for index in range(400)]


class TestDeterminism:
    def test_same_shards_same_assignment(self):
        first = ConsistentHashRing(SHARDS)
        second = ConsistentHashRing(list(SHARDS))
        assert [first.owner(key) for key in KEYS] == [second.owner(key) for key in KEYS]

    def test_shard_order_does_not_matter(self):
        """Ring positions hash shard *names*; listing order is irrelevant."""
        forward = ConsistentHashRing(SHARDS)
        backward = ConsistentHashRing(list(reversed(SHARDS)))
        assert [forward.owner(key) for key in KEYS] == [
            backward.owner(key) for key in KEYS
        ]

    def test_every_shard_owns_keys(self):
        ring = ConsistentHashRing(SHARDS)
        owners = {ring.owner(key) for key in KEYS}
        assert owners == set(SHARDS)


class TestFailoverSpill:
    def test_exclusion_spills_to_next_candidate(self):
        ring = ConsistentHashRing(SHARDS)
        for key in KEYS[:50]:
            first, second = ring.candidates(key)[:2]
            assert ring.owner(key) == first
            assert ring.owner(key, excluded={first}) == second

    def test_readmission_snaps_back_exactly(self):
        """Only the ejected shard's keys move; everything else is untouched,
        and clearing the exclusion restores the original assignment."""
        ring = ConsistentHashRing(SHARDS)
        before = {key: ring.owner(key) for key in KEYS}
        ejected = SHARDS[1]
        during = {key: ring.owner(key, excluded={ejected}) for key in KEYS}
        for key in KEYS:
            if before[key] == ejected:
                assert during[key] != ejected
            else:
                assert during[key] == before[key]
        after = {key: ring.owner(key) for key in KEYS}
        assert after == before

    def test_candidates_are_distinct_and_complete(self):
        ring = ConsistentHashRing(SHARDS)
        for key in KEYS[:20]:
            candidates = ring.candidates(key)
            assert sorted(candidates) == sorted(SHARDS)

    def test_all_excluded_returns_none(self):
        ring = ConsistentHashRing(SHARDS)
        assert ring.owner("key", excluded=set(SHARDS)) is None


class TestValidation:
    def test_empty_shards_rejected(self):
        with pytest.raises(ValueError):
            ConsistentHashRing([])

    def test_duplicate_shards_rejected(self):
        with pytest.raises(ValueError):
            ConsistentHashRing(["a:1", "a:1"])

    def test_replicas_floor(self):
        with pytest.raises(ValueError):
            ConsistentHashRing(SHARDS, replicas=0)


class TestWeights:
    def test_equal_weights_identical_to_unweighted(self):
        """Weight 1.0 everywhere must reproduce the unweighted layout byte
        for byte -- existing deployments reshuffle nothing on upgrade."""
        plain = ConsistentHashRing(SHARDS)
        weighted = ConsistentHashRing(SHARDS, weights={shard: 1.0 for shard in SHARDS})
        assert weighted._points == plain._points
        assert [weighted.owner(key) for key in KEYS] == [
            plain.owner(key) for key in KEYS
        ]

    def test_weight_scales_virtual_nodes(self):
        ring = ConsistentHashRing(SHARDS, replicas=64, weights={SHARDS[0]: 2.0})
        assert ring.node_count(SHARDS[0]) == 128
        assert ring.node_count(SHARDS[1]) == 64

    def test_heavier_shard_owns_more_keys(self):
        ring = ConsistentHashRing(SHARDS, weights={SHARDS[0]: 3.0})
        counts = {shard: 0 for shard in SHARDS}
        for key in KEYS:
            counts[ring.owner(key)] += 1
        assert counts[SHARDS[0]] > max(counts[SHARDS[1]], counts[SHARDS[2]])

    def test_weight_change_only_moves_keys_touching_that_shard(self):
        """Reweighting one shard moves only keys whose old or new owner is
        that shard -- the consistent-hashing locality guarantee."""
        before = ConsistentHashRing(SHARDS)
        after = ConsistentHashRing(SHARDS, weights={SHARDS[1]: 2.0})
        for key in KEYS:
            old, new = before.owner(key), after.owner(key)
            if old != new:
                assert SHARDS[1] in (old, new)

    def test_tiny_weight_keeps_one_node(self):
        ring = ConsistentHashRing(SHARDS, weights={SHARDS[0]: 1e-6})
        assert ring.node_count(SHARDS[0]) == 1

    def test_bad_weights_rejected(self):
        with pytest.raises(ValueError):
            ConsistentHashRing(SHARDS, weights={SHARDS[0]: 0.0})
        with pytest.raises(ValueError):
            ConsistentHashRing(SHARDS, weights={SHARDS[0]: -1.0})
        with pytest.raises(ValueError):
            ConsistentHashRing(SHARDS, weights={"nope:0": 2.0})


class TestParseShardSpecs:
    def test_plain_specs_carry_no_weights(self):
        names, weights = parse_shard_specs(SHARDS)
        assert names == SHARDS
        assert weights == {shard: 1.0 for shard in SHARDS}

    def test_weight_suffix(self):
        names, weights = parse_shard_specs(["a:1@2.5", "b:2"])
        assert names == ["a:1", "b:2"]
        assert weights == {"a:1": 2.5, "b:2": 1.0}

    def test_bad_specs_rejected(self):
        for spec in ["a:1@0", "a:1@-2", "a:1@nan", "a:1@inf", "a:1@", "@2", "a:1@x"]:
            with pytest.raises(ValueError):
                parse_shard_specs([spec])


class TestReplicatedPlacement:
    def test_replica_set_is_candidate_prefix(self):
        ring = ConsistentHashRing(SHARDS)
        placement = ReplicatedPlacement(ring, replication=2)
        for key in KEYS[:50]:
            assert placement.replica_set(key) == ring.candidates(key)[:2]
            assert placement.primary(key) == ring.owner(key)

    def test_replica_sets_are_distinct_shards(self):
        ring = ConsistentHashRing(SHARDS)
        placement = ReplicatedPlacement(ring, replication=3)
        for key in KEYS[:50]:
            replicas = placement.replica_set(key)
            assert len(replicas) == len(set(replicas)) == 3

    def test_excluding_nonmember_never_changes_the_set(self):
        """Ejecting a shard outside a key's replica set must not move that
        key -- only keys actually placed on the dead shard fail over."""
        ring = ConsistentHashRing(SHARDS)
        placement = ReplicatedPlacement(ring, replication=2)
        for key in KEYS[:100]:
            replicas = placement.replica_set(key)
            outsider = next(s for s in SHARDS if s not in replicas)
            assert placement.replica_set(key, excluded={outsider}) == replicas

    def test_excluding_primary_falls_to_next_candidate(self):
        ring = ConsistentHashRing(SHARDS)
        placement = ReplicatedPlacement(ring, replication=2)
        for key in KEYS[:50]:
            first, second, third = ring.candidates(key)
            assert placement.replica_set(key, excluded={first}) == [second, third]
            assert placement.primary(key, excluded={first}) == second

    def test_replication_bounds(self):
        ring = ConsistentHashRing(SHARDS)
        with pytest.raises(ValueError):
            ReplicatedPlacement(ring, replication=0)
        with pytest.raises(ValueError):
            ReplicatedPlacement(ring, replication=4)
