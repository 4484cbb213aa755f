"""Shared evaluation identity and batch grouping.

The study runner (:mod:`repro.studies.runner`) dispatches families of
cache-miss sweep points through the batched kernels, and the evaluation
service (:mod:`repro.service`) and shard router key and place single
requests.  They share two notions, extracted here so they cannot drift:

* the **canonical evaluation payload** -- the JSON object whose SHA-256
  digest (:func:`repro.cache.payload_digest`) is an evaluation's identity:
  base model content, resolved model-level parameters, the method with its
  canonical resolved options, and the seed entropy (``None`` for
  deterministic methods).  Equal payloads mean byte-equal cache keys no
  matter which surface produced them: studies, shards and the router all
  hash them with that one function;
* the **batch group** of a payload -- the payload with the batchable model
  transforms (``p_scale``, ``q_scale``) replaced by their neutral defaults.
  Evaluations that differ only in those transforms share a group and can be
  dispatched as *one* batched-kernel call (one shared demand stream for
  Monte Carlo, one per-point loop for exact methods); everything else -- base model, other parameters,
  options, seed -- stays in the group key (:func:`group_digest`), so group
  identity is as content-addressed as the evaluation digests themselves.
  The study planner groups by this key; the service and router key every
  request by its evaluation digest alone.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.cache import CACHE_FORMAT_VERSION, payload_digest

__all__ = [
    "MODEL_TRANSFORM_DEFAULTS",
    "MODEL_TRANSFORM_PARAMS",
    "evaluation_payload",
    "group_digest",
    "group_payload",
]

#: Parameters applied to the resolved model rather than to its construction,
#: with the neutral default each is equivalent to when absent.  These are the
#: *batchable axes*: evaluations differing only here can share one batched
#: kernel call (see :func:`repro.api.evaluate.evaluate_sweep`).
MODEL_TRANSFORM_DEFAULTS = {"p_scale": 1.0, "q_scale": 1.0}
MODEL_TRANSFORM_PARAMS = tuple(MODEL_TRANSFORM_DEFAULTS)


def evaluation_payload(
    base: Mapping[str, Any],
    params: Mapping[str, Any],
    method: str,
    resolved_options: Mapping[str, Any],
    entropy,
) -> dict:
    """The canonical content payload of one evaluation.

    Parameters
    ----------
    base:
        The base model description: ``{"scenario": name}`` or ``{"model":
        FaultModel.to_dict()}``.
    params:
        Model-level parameters with every default materialised (scenario
        factory arguments plus the ``p_scale`` / ``q_scale`` transforms) --
        a value spelled out explicitly must hash the same as the implicit
        default, so callers fold defaults in before building the payload.
    method:
        Registered method name.
    resolved_options:
        The registry's canonical resolved options (every default filled in).
    entropy:
        The seed identity for stochastic methods, ``None`` for deterministic
        ones -- deterministic entries thereby survive seed changes.  Studies
        pass the study seed (an integer); the service passes the request's
        seed entropy (a list), so a study entry computed from a
        digest-derived stream can never shadow a service entry computed from
        the seed directly.
    """
    return {
        "cache": CACHE_FORMAT_VERSION,
        "base": dict(base),
        "params": {**MODEL_TRANSFORM_DEFAULTS, **dict(params)},
        "method": {"name": method, **dict(resolved_options)},
        "entropy": entropy,
    }


def group_payload(payload: Mapping[str, Any]) -> dict:
    """``payload`` with the batchable transforms replaced by their neutral values."""
    params = dict(payload["params"])
    params.update(MODEL_TRANSFORM_DEFAULTS)
    return {**dict(payload), "params": params}


def group_digest(payload: Mapping[str, Any]) -> str:
    """Content digest of a payload's *batch group*.

    Evaluations that differ only in the batchable model transforms share a
    group digest; everything else in the payload stays in the key.
    """
    return payload_digest(group_payload(payload))
