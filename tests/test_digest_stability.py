"""Golden pins for the content-digest scheme.

Every cache tier in the system -- the study disk cache, the service LRU,
the shared ``/v1/cache`` surface, the router's read-through LRU and its
routing decisions -- keys on :func:`repro.cache.payload_digest` /
:func:`repro.grouping.group_digest`.  A change to the canonical payload
shape or its serialisation silently invalidates every existing cache
directory and reshuffles every router ring assignment, so the exact
SHA-256 values are pinned here: if one of these tests fails, the digest
scheme changed, and that is a breaking-change decision, not a refactor.

The pinned hexes must never be *updated* casually.  They were re-pinned
on purpose when ``CACHE_FORMAT_VERSION`` went from 1 to 2 (the ``exact`` /
``tail-quantile`` records became bracketed), from 2 to 3 (a sparse lone
``montecarlo`` became its one-point sweep, and ``montecarlo`` records
gained the standard errors of their means) and from 3 to 4 (``exact`` /
``tail-quantile`` fold the lattice only as far as the record reads, so
their support fields count fewer cells); the version is part of every
payload, so each bump moved every digest, and the ring layout pin below did
not move.  The two inline-model pins were re-pinned once more, with the
version unchanged, when an inline model's ``p`` and ``q`` began to hash as
float64 bytes instead of as canonical text; the scenario pin did not move.
"""

from __future__ import annotations

import json

from repro.grouping import (
    evaluation_payload,
    group_digest,
    group_payload,
    payload_digest,
)
from repro.service.protocol import parse_evaluate_payload

_MODEL = {
    "p": [0.05, 0.02, 0.01],
    "q": [1e-4, 5e-4, 2e-3],
    "names": ["alpha", "beta", "gamma"],
}


class TestGoldenDigests:
    def test_deterministic_moments_payload(self):
        payload = evaluation_payload({"model": _MODEL}, {}, "moments", {}, None)
        assert (
            payload_digest(payload)
            == "27fc62091627a8f0776b8d78340f8f0383ec65254c4ae9e4145bd0d39c0daec8"
        )
        # Neutral transforms and no entropy: the group digest collapses to
        # the payload digest.
        assert group_digest(payload) == payload_digest(payload)

    def test_transformed_stochastic_payload(self):
        payload = evaluation_payload(
            {"model": _MODEL},
            {"p_scale": 0.5},
            "montecarlo",
            {"replications": 1000},
            [11],
        )
        assert (
            payload_digest(payload)
            == "be4202c9aeea6f09986808f70f5c9377f05969d92c1d4215058cc6dcd66077c1"
        )
        assert (
            group_digest(payload)
            == "9490ea0dc3471eeda4c05fe8dd0cc3017e8c1e67803be0f59b19749b46f61c97"
        )

    def test_scenario_payload(self):
        payload = evaluation_payload(
            {"scenario": "many-small-faults"}, {"n": 50}, "bounds", {}, None
        )
        assert (
            payload_digest(payload)
            == "f7ce4d372585b6e96ec7ba065b80b98518c53646e00fc3d264f00b147a53f4fb"
        )


class TestDigestInvariants:
    def test_wire_request_digests_match_grouping(self):
        """The service request digests are the grouping-module ones, computed
        over the *resolved* request (model round-tripped through
        ``FaultModel.to_dict``, every method option default materialised)."""
        from repro.api import default_registry
        from repro.core.fault_model import FaultModel

        request = parse_evaluate_payload(
            {
                "model": _MODEL,
                "method": "montecarlo",
                "options": {"replications": 1000},
                "seed": 11,
                "p_scale": 0.5,
            }
        )
        resolved_model = FaultModel.from_dict(_MODEL).to_dict()
        resolved_options = default_registry().resolve_options(
            "montecarlo", {"replications": 1000}
        )
        payload = evaluation_payload(
            {"model": resolved_model},
            {"p_scale": 0.5},
            "montecarlo",
            resolved_options,
            [11],
        )
        assert request.digest() == payload_digest(payload)
        assert request.group_key() == group_digest(payload)

    def test_transform_values_share_a_group(self):
        """Batchable transforms differ, group digest does not: the study
        planner dispatches such points as one batched-kernel group."""
        digests = {
            group_digest(
                evaluation_payload(
                    {"model": _MODEL},
                    {"p_scale": scale},
                    "montecarlo",
                    {"replications": 1000},
                    [11],
                )
            )
            for scale in (0.25, 0.5, 1.0)
        }
        assert len(digests) == 1

    def test_implicit_defaults_hash_like_explicit(self):
        spelled = evaluation_payload(
            {"model": _MODEL}, {"p_scale": 1.0, "q_scale": 1.0}, "moments", {}, None
        )
        implicit = evaluation_payload({"model": _MODEL}, {}, "moments", {}, None)
        assert payload_digest(spelled) == payload_digest(implicit)

    def test_group_payload_neutralises_only_transforms(self):
        payload = evaluation_payload(
            {"model": _MODEL},
            {"p_scale": 0.5, "q_scale": 2.0},
            "montecarlo",
            {"replications": 1000},
            [11],
        )
        grouped = group_payload(payload)
        assert grouped["params"]["p_scale"] == 1.0
        assert grouped["params"]["q_scale"] == 1.0
        assert grouped["method"] == payload["method"]
        assert grouped["entropy"] == payload["entropy"]

    def test_payload_serialisation_is_canonical(self):
        """Key order must not leak into the digest (canonical JSON)."""
        forward = evaluation_payload({"model": _MODEL}, {}, "moments", {}, None)
        shuffled = json.loads(json.dumps(forward)[::-1][::-1])  # same content
        reordered = {key: shuffled[key] for key in reversed(list(shuffled))}
        assert payload_digest(forward) == payload_digest(reordered)


class TestGoldenRingLayout:
    """The consistent-hash ring's point layout, pinned like a digest.

    Router placement -- and therefore which shard's cache holds which warm
    entry across a whole fleet -- derives from these SHA-256 ring points.
    A layout change reshuffles every deployment's keyspace on upgrade, so
    the exact layout for a fixed shard set is pinned: failing here is a
    breaking-change decision, not a refactor.
    """

    SHARDS = ["shard-a:8001", "shard-b:8002", "shard-c:8003"]

    def test_point_layout_hash_is_pinned(self):
        import hashlib

        from repro.cluster.ring import ConsistentHashRing

        ring = ConsistentHashRing(self.SHARDS, replicas=64)
        text = "\n".join(f"{position}:{shard}" for position, shard in ring._points)
        assert (
            hashlib.sha256(text.encode("utf-8")).hexdigest()
            == "4d7833f6cbfec16e50bb0d22fcc402a0f4111997ecbeb5e0c684dbd1c4f61679"
        )

    def test_equal_weights_reproduce_the_pinned_layout(self):
        """The weighted constructor with weight 1.0 everywhere must emit the
        seed-era layout byte for byte -- upgrading reshuffles nothing."""
        from repro.cluster.ring import ConsistentHashRing

        plain = ConsistentHashRing(self.SHARDS, replicas=64)
        weighted = ConsistentHashRing(
            self.SHARDS, replicas=64, weights={shard: 1.0 for shard in self.SHARDS}
        )
        assert weighted._points == plain._points

    def test_candidate_walk_is_pinned(self):
        from repro.cluster.ring import ConsistentHashRing

        ring = ConsistentHashRing(self.SHARDS, replicas=64)
        assert ring.candidates("key-0000") == [
            "shard-a:8001",
            "shard-c:8003",
            "shard-b:8002",
        ]
