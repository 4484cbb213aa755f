"""Shared evaluation identity and batch grouping.

Two subsystems dispatch families of related evaluations through the batched
kernels: the study runner (:mod:`repro.studies.runner`) groups cache-miss
sweep points, and the evaluation service (:mod:`repro.service`) groups
concurrently in-flight requests.  Both need the same two notions, extracted
here so they cannot drift:

* the **canonical evaluation payload** -- the JSON object whose SHA-256
  digest (:func:`repro.cache.payload_digest`) is an evaluation's identity:
  base model content, resolved model-level parameters, the method with its
  canonical resolved options, and the seed entropy (``None`` for
  deterministic methods).  Equal payloads mean byte-equal cache keys no
  matter which surface produced them;
* the **batch group** of a payload -- the payload with the batchable model
  transforms (``p_scale``, ``q_scale``) replaced by their neutral defaults.
  Evaluations that differ only in those transforms share a group and can be
  dispatched as *one* batched-kernel call (one shared demand stream for
  Monte Carlo, one per-point loop for exact methods); everything else -- base model, other parameters,
  options, seed -- stays in the group key, so group identity is as
  content-addressed as the evaluation digests themselves.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.cache import CACHE_FORMAT_VERSION, canonical_json, payload_digest

__all__ = [
    "MODEL_TRANSFORM_DEFAULTS",
    "MODEL_TRANSFORM_PARAMS",
    "evaluation_payload",
    "group_digest",
    "group_payload",
    "payload_text",
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


def payload_text(payload: Mapping[str, Any], base_text: str) -> str:
    """``canonical_json(payload)``, given ``base_text = canonical_json(payload["base"])``.

    The base (a whole model's content) is nearly all of a payload's bytes: a
    caller that keeps its canonical text encodes the payload, and the group
    payload of the same base, without encoding the base again.
    """
    rest = canonical_json({key: value for key, value in payload.items() if key != "base"})
    # Canonical JSON sorts keys: "base" leads an evaluation payload, and the
    # other keys of evaluation_payload always follow it.
    return '{"base":' + base_text + "," + rest[1:]


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
