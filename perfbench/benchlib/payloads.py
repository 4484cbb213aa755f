"""Seeded benchmark inputs and their in-process reference results.

Every input the program sees is a function of the run's ``--seed`` (and a
payload index), so one seed always yields the same payloads.  Models are
drawn with :meth:`repro.FaultModel.random`, one fresh model per payload:
distinct models never share a micro-batch group, so each served result is the
scalar ``repro.evaluate`` path and can be checked byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

#: Faults per model (the size the ROADMAP latency ledger was measured at).
FAULTS = 100
#: ``warm_hits`` methods, in rotation: the cheap closed forms and ``exact``.
WARM_METHODS = ("moments", "bounds", "normal", "exact")
#: ``cold_mix`` methods, in rotation, all at their default options.
COLD_METHODS = ("exact", "tail-quantile", "montecarlo", "moments")
#: Router and shard LRU capacity (``repro route``/``serve`` default).
LRU_ENTRIES = 1024
#: ``warm_hits`` working set: 1.5x the router LRU, so about a third of the
#: requests miss the router and cross the hop, while each of two shards'
#: share (about 768) fits its own LRU.
WARM_WORKING_SET = 1536


@dataclass(frozen=True)
class Payload:
    """One ``/v1/evaluate`` request."""

    model: object
    method: str
    p_scale: float
    seed: int | None = None

    def call_arguments(self) -> dict:
        """Keyword arguments of ``ServiceClient.evaluate_detail`` (methods run
        at their default options)."""
        arguments = {"p_scale": self.p_scale}
        if self.seed is not None:
            arguments["seed"] = self.seed
        return arguments


def _model(rng: np.random.Generator):
    from repro.core.fault_model import FaultModel

    return FaultModel.random(rng, n=FAULTS, p_range=(0.001, 0.1), total_impact=0.5)


def working_set(seed: int, size: int = WARM_WORKING_SET) -> list[Payload]:
    """The ``warm_hits`` payloads: distinct models, methods in rotation."""
    rng = np.random.default_rng([seed, 1])
    payloads = []
    for index in range(size):
        model = _model(rng)
        p_scale = round(float(rng.uniform(0.25, 1.0)), 4)
        payloads.append(Payload(model, WARM_METHODS[index % len(WARM_METHODS)], p_scale))
    return payloads


def cold_payload(seed: int, index: int) -> Payload:
    """The ``index``-th ``cold_mix`` payload: a never-seen model and seed."""
    rng = np.random.default_rng([seed, 2, index])
    model = _model(rng)
    p_scale = round(float(rng.uniform(0.25, 1.0)), 4)
    return Payload(
        model,
        COLD_METHODS[index % len(COLD_METHODS)],
        p_scale,
        seed=int(rng.integers(0, 2**31 - 1)),
    )


def comparable(record: dict) -> dict:
    """A wire result record as compared: JSON-normalised, timing dropped."""
    normal = json.loads(json.dumps(record))
    normal.pop("elapsed_seconds", None)
    return normal


def reference(payload: Payload) -> dict:
    """What a shard must answer for ``payload``: in-process ``repro.evaluate``
    on the rescaled model, with the options and seed the server resolves."""
    from repro.api.evaluate import evaluate
    from repro.api.registry import default_registry
    from repro.stats.rng import DEFAULT_SEED

    options = default_registry().resolve_options(payload.method, {})
    result = evaluate(
        payload.model.rescaled(payload.p_scale, 1.0),
        payload.method,
        seed=DEFAULT_SEED if payload.seed is None else payload.seed,
        options=options,
    )
    return comparable(result.to_dict())


def std_rel_error(payload: Payload, record: dict) -> float:
    """``|exact_std - moments std_system| / std_system`` for an ``exact`` record."""
    from repro.core.moments import pfd_moments

    versions = int(record["options"]["versions"])
    truth = pfd_moments(payload.model.rescaled(payload.p_scale, 1.0), versions).std
    return abs(record["metrics"]["exact_std"] - truth) / truth
