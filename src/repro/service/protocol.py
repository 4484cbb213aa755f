"""The service wire protocol: request parsing, validation and identity.

``POST /v1/evaluate`` bodies look like::

    {"model": {"p": [...], "q": [...]}, "method": "montecarlo",
     "options": {"replications": 50000}, "seed": 7,
     "p_scale": 0.5, "q_scale": 1.0}

``"scenario": "<name>"`` may replace ``"model"``; the scenario is resolved
to its concrete model content immediately, so a scenario-spelled request and
its inline-model equivalent are the *same* request (same digest, same batch
group, same cache entry).  ``options`` resolve through the method registry
exactly like every other surface; ``seed`` defaults to the library seed so
"no seed" still means "reproducible"; ``p_scale`` / ``q_scale`` are the
batchable model transforms (:mod:`repro.grouping`) that let concurrent
requests share one batched-kernel call.

Parsing is strict: unknown keys, unknown methods, unknown options, wrong
types and transforms the model rejects all raise ``ValueError`` here, which
the server and the router both map to the same 400 response -- nothing
invalid ever reaches the worker pool.  Inline model content is typed
strictly: ``p`` and ``q`` must be arrays of numbers (booleans are not
numbers), ``names`` absent or an array of strings, ``strict`` absent or a
boolean, and the message names the offending key.

The model's content rules come from :mod:`repro.core.model_content`, the
numpy-free module :class:`~repro.core.fault_model.FaultModel` also checks
itself with: an inline model is parsed straight into its canonical content
dict (the ``FaultModel.to_dict()`` shape) and its transforms are checked
without building a model, so the router never loads numpy for inline-model
traffic.  A ``"scenario"`` request builds its scenario's model, and loads
numpy, in whichever process parses it.

A parsed request carries its content identity: :meth:`ServiceRequest.digest`
is the response-cache key (the same canonical-payload scheme as study cache
keys -- a deterministic-method entry warmed by a study over the same inline
model is served to service traffic as-is), and :meth:`ServiceRequest.group_key`
is the micro-batcher's grouping key (the digest with neutral transforms,
exactly the study runner's group digest).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.api.registry import default_registry
from repro.api.results import EvaluationRequest
from repro.cache import canonical_json, text_digest
from repro.core.model_content import check_rescaled, model_content
from repro.grouping import evaluation_payload, group_payload, payload_text
from repro.stats.rng import DEFAULT_SEED

__all__ = [
    "ServiceRequest",
    "parse_batch_payload",
    "parse_evaluate_payload",
    "parse_timeout_ms",
]

_EVALUATE_KEYS = {
    "model", "scenario", "method", "options", "seed", "p_scale", "q_scale", "timeout_ms",
}
_BATCH_KEYS = {"model", "scenario", "requests", "seed", "timeout_ms", "stream_indices"}


@dataclass(frozen=True)
class ServiceRequest:
    """One validated ``/v1/evaluate`` request with its content identity."""

    model_data: dict
    method: str
    options: dict
    seed: int
    p_scale: float = 1.0
    q_scale: float = 1.0
    requires_seed: bool = False
    #: Only requests whose kernel shares work wait in a batching window.
    shares_work: bool = False
    #: Per-request deadline in milliseconds (``None``: the server default).
    #: Delivery metadata, not content: it never enters the digest, the group
    #: key or the cache payload, so a request with a deadline hits the same
    #: cache entry as one without.
    timeout_ms: float | None = field(default=None, compare=False)
    #: Computed lazily and memoised: the base model's canonical text (encoded
    #: at most once per request), the payload text and the two digests.
    _digests: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def entropy(self) -> list[int] | None:
        """The payload's seed identity.

        A *list* (unlike the bare study-seed integer in study payloads),
        because the service seeds streams from the seed directly while the
        study runner derives digest-keyed child streams -- the spellings must
        never collide in the shared cache key space.  ``None`` for
        deterministic methods, whose entries survive seed changes (and are
        shared with study-warmed entries for the same model content).
        """
        return [self.seed] if self.requires_seed else None

    def payload(self) -> dict:
        """The canonical content payload (the study-compatible cache identity)."""
        return evaluation_payload(
            {"model": self.model_data},
            {"p_scale": self.p_scale, "q_scale": self.q_scale},
            self.method,
            self.options,
            self.entropy,
        )

    def payload_text(self) -> str:
        """``canonical_json(self.payload())``, the bytes the digest hashes."""
        text = self._digests.get("payload")
        if text is None:
            text = self._digests["payload"] = self._text(self.payload())
        return text

    def digest(self) -> str:
        """Content digest of this request: the response-cache key."""
        digest = self._digests.get("digest")
        if digest is None:
            digest = self._digests["digest"] = text_digest(self.payload_text())
        return digest

    def group_key(self) -> str:
        """Batch-group digest: the payload with neutral transforms."""
        key = self._digests.get("group")
        if key is None:
            key = self._digests["group"] = text_digest(self._text(group_payload(self.payload())))
        return key

    def _text(self, payload: dict) -> str:
        """``canonical_json(payload)`` for a payload of this request's model,
        whose base is encoded once per request."""
        base = self._digests.get("base")
        if base is None:
            base = self._digests["base"] = canonical_json(payload["base"])
        return payload_text(payload, base)

    def result_record(self, metrics: Mapping[str, Any]) -> dict:
        """Rebuild the wire result record around cached ``metrics``.

        Disk-cache entries store only the metrics (the study-compatible
        entry shape); method, options and the seed entropy are implied by
        the request that hashed to the entry's digest.  ``elapsed_seconds``
        is 0.0 -- nothing was evaluated.
        """
        return {
            "method": self.method,
            "options": dict(self.options),
            "metrics": dict(metrics),
            "seed_entropy": self.entropy,
            "elapsed_seconds": 0.0,
        }

    def single_arguments(self) -> tuple:
        """Arguments for :func:`repro.service.worker.evaluate_single`."""
        return (
            self.model_data,
            self.method,
            self.options,
            self.seed,
            self.p_scale,
            self.q_scale,
        )

    def group_arguments(self, variations: tuple) -> tuple:
        """Arguments for :func:`repro.service.worker.evaluate_group`."""
        return (self.model_data, self.method, self.options, variations, self.seed)


def _require_mapping(payload, what: str) -> Mapping:
    if not isinstance(payload, Mapping):
        raise ValueError(f"{what} must be a JSON object, got {type(payload).__name__}")
    return payload


def _reject_unknown(payload: Mapping, accepted: set[str], what: str) -> None:
    unknown = sorted(str(key) for key in set(payload) - accepted)
    if unknown:
        raise ValueError(
            f"unknown {what} key(s): {', '.join(unknown)}; "
            f"accepted: {', '.join(sorted(accepted))}"
        )


def _parse_model(payload: Mapping) -> dict:
    """Resolve the request's model source (inline content XOR scenario) to
    its canonical content dict."""
    has_model = payload.get("model") is not None
    has_scenario = payload.get("scenario") is not None
    if has_model == has_scenario:
        raise ValueError("a request needs exactly one of 'model' and 'scenario'")
    if has_scenario:
        from repro.experiments.scenarios import get_scenario

        scenario = payload["scenario"]
        if not isinstance(scenario, str):
            raise ValueError(f"'scenario' must be a string, got {scenario!r}")
        return get_scenario(scenario).to_dict()
    data = payload["model"]
    if not isinstance(data, Mapping):
        raise ValueError(f"'model' must be a JSON object, got {type(data).__name__}")
    try:
        return model_content(data)
    except KeyError as error:
        raise ValueError(f"model is missing required key {error}") from error
    except ValueError as error:
        raise ValueError(f"invalid model: {error}") from error


def _parse_seed(value) -> int:
    if value is None:
        return DEFAULT_SEED
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"'seed' must be a non-negative integer or null, got {value!r}")
    if value < 0:
        raise ValueError(f"'seed' must be non-negative, got {value}")
    return value


def parse_timeout_ms(value) -> float | None:
    """Validate a ``timeout_ms`` payload value (``None`` means no deadline)."""
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"'timeout_ms' must be a positive number or null, got {value!r}")
    timeout = float(value)
    if not math.isfinite(timeout) or timeout <= 0.0:
        raise ValueError(f"'timeout_ms' must be a positive finite number, got {value!r}")
    return timeout


def _parse_scale(payload: Mapping, name: str) -> float:
    value = payload.get(name, 1.0)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"'{name}' must be a number, got {value!r}")
    scale = float(value)
    if not math.isfinite(scale) or scale < 0.0:
        raise ValueError(f"'{name}' must be a finite non-negative number, got {value!r}")
    return scale


def parse_evaluate_payload(payload) -> ServiceRequest:
    """Validate a ``/v1/evaluate`` body into a :class:`ServiceRequest`.

    Raises ``ValueError`` with a one-line message on any invalid input
    (mapped to HTTP 400 by the server).
    """
    payload = _require_mapping(payload, "an evaluate request")
    _reject_unknown(payload, _EVALUATE_KEYS, "request")
    model = _parse_model(payload)
    method = payload.get("method")
    if not method or not isinstance(method, str):
        raise ValueError(f"a request needs a 'method' name, got {method!r}")
    registry = default_registry()
    definition = registry.get(method)
    options = payload.get("options") or {}
    if not isinstance(options, Mapping):
        raise ValueError(f"'options' must be a JSON object, got {type(options).__name__}")
    resolved = registry.resolve_options(method, options)
    seed = _parse_seed(payload.get("seed"))
    p_scale = _parse_scale(payload, "p_scale")
    q_scale = _parse_scale(payload, "q_scale")
    # Model-dependent transform constraints (p_i pushed above 1, the strict
    # sum(q) <= 1 invariant) fail here, not in the worker pool.
    check_rescaled(model["p"], model["q"], model["strict"], p_scale, q_scale)
    return ServiceRequest(
        model_data=model,
        method=method,
        options=resolved,
        seed=seed,
        p_scale=p_scale,
        q_scale=q_scale,
        requires_seed=definition.requires_seed,
        shares_work=definition.shares_work,
        timeout_ms=parse_timeout_ms(payload.get("timeout_ms")),
    )


def parse_batch_payload(
    payload,
) -> tuple[dict, list[tuple[str, dict]], int, list[int] | None]:
    """Validate a ``/v1/evaluate/batch`` body.

    Returns ``(model_data, requests, seed, stream_indices)`` where
    ``requests`` is a list of ``(method, options)`` pairs in request order --
    exactly what :func:`repro.evaluate_batch` accepts, so the endpoint is a
    lossless transport of its argument list.  Request elements accept the
    same spellings as the Python API: a method name or a mapping with a
    ``"method"`` key and the options flattened alongside it.

    ``stream_indices`` (optional) carries each request's *global* position
    when the batch is a slice of a larger one -- the cluster router sends it
    so a fanned-out sub-batch derives the same ``(seed, index)`` streams,
    and therefore the same bytes, as the unsplit call.
    """
    payload = _require_mapping(payload, "a batch request")
    _reject_unknown(payload, _BATCH_KEYS, "batch request")
    model = _parse_model(payload)
    seed = _parse_seed(payload.get("seed"))
    parse_timeout_ms(payload.get("timeout_ms"))  # validated; read by the server
    raw = payload.get("requests")
    if not isinstance(raw, list) or not raw:
        raise ValueError("'requests' must be a non-empty list of evaluation requests")
    registry = default_registry()
    requests: list[tuple[str, dict]] = []
    for index, element in enumerate(raw):
        try:
            request = EvaluationRequest.coerce(element)
            registry.resolve_options(request.method, request.option_dict())
        except ValueError as error:
            raise ValueError(f"request {index}: {error}") from error
        requests.append((request.method, request.option_dict()))
    stream_indices = _parse_stream_indices(payload.get("stream_indices"), len(requests))
    return model, requests, seed, stream_indices


def _parse_stream_indices(raw, count: int) -> list[int] | None:
    if raw is None:
        return None
    if not isinstance(raw, list):
        raise ValueError(
            f"'stream_indices' must be a list of non-negative integers, got {type(raw).__name__}"
        )
    if len(raw) != count:
        raise ValueError(
            f"'stream_indices' ({len(raw)}) must match 'requests' ({count})"
        )
    indices: list[int] = []
    for position in raw:
        if isinstance(position, bool) or not isinstance(position, int) or position < 0:
            raise ValueError(
                f"'stream_indices' must be non-negative integers, got {position!r}"
            )
        indices.append(position)
    return indices
