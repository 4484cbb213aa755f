"""The service wire protocol: request parsing, validation and identity.

``POST /v1/evaluate`` bodies look like::

    {"model": {"p": [...], "q": [...]}, "method": "montecarlo",
     "options": {"replications": 50000}, "seed": 7,
     "p_scale": 0.5, "q_scale": 1.0}

An inline model's vectors have two spellings, accepted alike: JSON arrays
of numbers under ``p`` and ``q``, or base64 of their little-endian float64
bytes under ``p_f64`` and ``q_f64`` (one spelling per vector, not both)::

    {"model": {"p_f64": "/Knx0k1iUD8...", "q_f64": "LUMc6+I2Gj8..."}, ...}

:class:`~repro.service.client.ServiceClient` sends the bytes spelling, and
leaves out ``names`` when they are the defaults ``fault_1 .. fault_n``.  Both
spellings of one model are the same request: same digest, same cache entry,
same record.

``"scenario": "<name>"`` may replace ``"model"``; the scenario is resolved
to its concrete model content immediately, so a scenario-spelled request and
its inline-model equivalent are the *same* request (same digest, same route
key, same cache entry).  ``options`` resolve through the method registry
exactly like every other surface; ``seed`` defaults to the library seed so
"no seed" still means "reproducible"; ``p_scale`` / ``q_scale`` are the
model transforms (:mod:`repro.grouping`): the request evaluates
``model.rescaled(p_scale, q_scale)``.

Parsing is strict: unknown keys, unknown methods, unknown options, wrong
types and transforms the model rejects all raise ``ValueError`` here, which
the server and the router both map to the same 400 response -- nothing
invalid ever reaches the worker pool.  Inline model content is typed
strictly: ``p`` and ``q`` must be arrays of numbers (booleans are not
numbers), ``p_f64`` and ``q_f64`` base64 strings of whole, finite float64
values, ``names`` absent or an array of strings, ``strict`` absent or a
boolean, and the message names the offending key.

The model's content rules come from :mod:`repro.core.model_content`, the
numpy-free module :class:`~repro.core.fault_model.FaultModel` also checks
itself with: an inline model is parsed straight into its checked
:class:`~repro.core.model_content.ModelContent` (``p`` and ``q`` as float64
bytes) and its transforms are checked without building a model, so the
router never loads numpy for inline-model traffic.  A ``"scenario"`` request
builds its scenario's model, and loads numpy, in whichever process parses
it.  The model stays bytes on every hop: the router's replica entries and
batch sub-bodies carry it in the bytes spelling, and a shard hands the bytes
to its pool worker.

A parsed request carries its content identity, computed on first use:
:meth:`ServiceRequest.digest` is the response-cache key
(:func:`repro.cache.payload_digest` over the model's bytes, which keys
studies too -- a deterministic-method entry a study warmed over the same
inline model is served to service traffic as-is) and the router's placement
key.  :meth:`ServiceRequest.group_key` is the study planner's group digest,
which the service does not call.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.api.registry import default_registry
from repro.api.results import EvaluationRequest
from repro.cache import canonical_json, payload_digest
from repro.core.model_content import F64_KEYS, ModelContent, parse_content, parse_transform
from repro.grouping import evaluation_payload, group_digest
from repro.stats.rng import DEFAULT_SEED

__all__ = [
    "ServiceRequest",
    "batch_requests",
    "list_spelled",
    "parse_batch_payload",
    "parse_evaluate_payload",
    "parse_timeout_ms",
]

_EVALUATE_KEYS = {
    "model", "scenario", "method", "options", "seed", "p_scale", "q_scale", "timeout_ms",
}
_BATCH_KEYS = {"model", "scenario", "requests", "seed", "timeout_ms"}


@dataclass(frozen=True)
class ServiceRequest:
    """One validated ``/v1/evaluate`` request with its content identity."""

    model: ModelContent
    method: str
    options: dict
    seed: int
    p_scale: float = 1.0
    q_scale: float = 1.0
    requires_seed: bool = False
    #: Per-request deadline in milliseconds (``None``: the server default).
    #: Delivery metadata, not content: it never enters the digest, the group
    #: key or the cache payload, so a request with a deadline hits the same
    #: cache entry as one without.
    timeout_ms: float | None = field(default=None, compare=False)
    #: The two digests, computed lazily and memoised.
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

    def _payload(self, model: dict) -> dict:
        return evaluation_payload(
            {"model": model},
            {"p_scale": self.p_scale, "q_scale": self.q_scale},
            self.method,
            self.options,
            self.entropy,
        )

    def _hashed(self) -> dict:
        """The payload with the model's vectors as bytes, as the digest hashes it."""
        model = self.model
        return self._payload(
            {"p": model.p, "q": model.q, "names": model.names, "strict": model.strict}
        )

    def payload(self) -> dict:
        """The canonical content payload (the study-compatible cache identity),
        the model as JSON lists: what a disk entry holds."""
        return self._payload(self.model.to_dict())

    def payload_text(self) -> str:
        """``canonical_json(self.payload())``: the text a disk entry's payload
        holds, the plain encoding the request's identities are pinned to."""
        return canonical_json(self.payload())

    def wire_payload_text(self) -> str:
        """The canonical text of the payload with the model in the bytes
        spelling: what the router sends as a replica entry's payload."""
        return canonical_json(self._payload(self.model.wire()))

    def digest(self) -> str:
        """Content digest of this request: the response-cache key."""
        digest = self._digests.get("digest")
        if digest is None:
            digest = self._digests["digest"] = payload_digest(self._hashed())
        return digest

    def group_key(self) -> str:
        """The payload's batch-group digest; the serving path does not call it."""
        key = self._digests.get("group")
        if key is None:
            key = self._digests["group"] = group_digest(self._hashed())
        return key

    def single_arguments(self) -> tuple:
        """Arguments for :func:`repro.service.worker.evaluate_single`."""
        return (
            self.model,
            self.method,
            self.options,
            self.seed,
            self.p_scale,
            self.q_scale,
        )


def list_spelled(payload):
    """A pushed entry's ``payload`` with an inline model in the bytes spelling
    decoded to its canonical lists (what a disk entry holds); any other
    payload as it is.  Invalid model content raises ``ValueError``."""
    base = payload.get("base") if isinstance(payload, dict) else None
    model = base.get("model") if isinstance(base, dict) else None
    if not isinstance(model, Mapping) or not any(key in model for key in F64_KEYS.values()):
        return payload
    try:
        content = parse_content(model)
    except KeyError as error:
        raise ValueError(f"model is missing required key {error}") from error
    return {**payload, "base": {**base, "model": content.to_dict()}}


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


def _parse_model(payload: Mapping) -> ModelContent:
    """Resolve the request's model source (inline content XOR scenario) to
    its checked content."""
    has_model = payload.get("model") is not None
    has_scenario = payload.get("scenario") is not None
    if has_model == has_scenario:
        raise ValueError("a request needs exactly one of 'model' and 'scenario'")
    if has_scenario:
        from repro.experiments.scenarios import get_scenario

        scenario = payload["scenario"]
        if not isinstance(scenario, str):
            raise ValueError(f"'scenario' must be a string, got {scenario!r}")
        return get_scenario(scenario).content()
    data = payload["model"]
    if not isinstance(data, Mapping):
        raise ValueError(f"'model' must be a JSON object, got {type(data).__name__}")
    try:
        return parse_content(data)
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
    # Transform typing and the model-dependent constraints (p_i pushed above
    # 1, the strict sum(q) <= 1 invariant) fail here, not in the worker pool.
    p_scale, q_scale = parse_transform(payload, *model.vectors(), model.strict)
    return ServiceRequest(
        model=model,
        method=method,
        options=resolved,
        seed=seed,
        p_scale=p_scale,
        q_scale=q_scale,
        requires_seed=definition.requires_seed,
        timeout_ms=parse_timeout_ms(payload.get("timeout_ms")),
    )


def parse_batch_payload(payload) -> tuple[ModelContent, list[tuple[str, dict]], int]:
    """Validate a ``/v1/evaluate/batch`` body.

    Returns ``(model, requests, seed)`` where ``requests`` is a list of
    ``(method, options)`` pairs in request order -- exactly what
    :func:`repro.evaluate_batch` accepts, so the endpoint is a lossless
    transport of its argument list.  Request elements accept the same
    spellings as the Python API: a method name or a mapping with a
    ``"method"`` key and the options flattened alongside it.  Element ``i``
    is the ``/v1/evaluate`` request ``{"model": model, "method": ...,
    "options": ..., "seed": seed}``, which :func:`batch_requests` builds.
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
    return model, requests, seed


def batch_requests(
    model: ModelContent, requests: list[tuple[str, dict]], seed: int
) -> list[ServiceRequest]:
    """The ``/v1/evaluate`` request of each element of a parsed batch.

    Takes :func:`parse_batch_payload`'s result.  Each element's digest is
    its own request's, computed on first use.
    """
    registry = default_registry()
    parsed = []
    for method, options in requests:
        definition = registry.get(method)
        resolved = registry.resolve_options(method, options)
        parsed.append(
            ServiceRequest(
                model=model,
                method=method,
                options=resolved,
                seed=seed,
                requires_seed=definition.requires_seed,
            )
        )
    return parsed
