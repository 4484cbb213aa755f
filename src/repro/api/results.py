"""Typed results and requests for the evaluation API.

:class:`EvaluationResult` replaces the ad-hoc metric dictionaries each
consumer used to assemble: one frozen value object carrying the method name,
the canonical resolved options the evaluation actually ran with, the metric
mapping, the seed entropy consumed (if any) and the wall-clock timing, with
a lossless ``to_dict``/``from_dict`` round trip so results can be shipped
through JSON unchanged.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any, Mapping

__all__ = ["EvaluationRequest", "EvaluationResult"]


def _frozen_items(mapping: Mapping[str, Any], what: str) -> tuple[tuple[str, Any], ...]:
    if not isinstance(mapping, Mapping):
        raise ValueError(f"{what} must be a mapping, got {type(mapping).__name__}")
    return tuple(sorted(mapping.items()))


def _jsonable(value: Any) -> Any:
    """Recursively convert numpy scalars/arrays into pure-JSON Python types.

    Methods are free to return numpy values in their metrics (and callers to
    pass them as options); ``to_dict`` is the wire boundary, so everything
    that crosses it must survive ``json.dumps`` unchanged.  Without numpy
    loaded no value can be a numpy one, so this never imports it.
    """
    np = sys.modules.get("numpy")
    if np is not None and isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, Mapping):
        return {str(key): _jsonable(item) for key, item in value.items()}
    return value


@dataclass(frozen=True)
class EvaluationRequest:
    """One method invocation to run against a model: a name plus options.

    ``options`` may be any mapping; it is normalised to a sorted tuple of
    items so requests are hashable and comparable.
    """

    method: str
    options: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if not self.method or not isinstance(self.method, str):
            raise ValueError(f"request needs a method name, got {self.method!r}")
        if isinstance(self.options, Mapping):
            object.__setattr__(self, "options", _frozen_items(self.options, "options"))
        else:
            object.__setattr__(self, "options", tuple(sorted(tuple(self.options))))

    @staticmethod
    def coerce(request: "EvaluationRequest | Mapping | tuple | str") -> "EvaluationRequest":
        """Accept the convenient spellings of a request.

        ``"moments"``, ``("exact", {"level": 0.999})``, ``{"method":
        "bounds", "confidence": 0.95}`` and :class:`EvaluationRequest`
        instances all coerce to the same value object.
        """
        if isinstance(request, EvaluationRequest):
            return request
        if isinstance(request, str):
            return EvaluationRequest(method=request)
        if isinstance(request, Mapping):
            payload = dict(request)
            method = payload.pop("method", None)
            if not method:
                raise ValueError(f"request mapping needs a 'method' key: {request!r}")
            return EvaluationRequest(method=method, options=payload)
        if isinstance(request, tuple) and len(request) == 2:
            method, options = request
            return EvaluationRequest(method=method, options=dict(options))
        raise ValueError(
            "a request must be a method name, a (method, options) pair, a mapping "
            f"with a 'method' key or an EvaluationRequest, got {request!r}"
        )

    def option_dict(self) -> dict[str, Any]:
        return dict(self.options)


@dataclass(frozen=True)
class EvaluationResult:
    """The outcome of evaluating one method on one model.

    Attributes
    ----------
    method:
        Registered method name.
    options:
        Canonical resolved options (every default filled in), as sorted
        items -- exactly what the evaluation ran with.
    metrics:
        Flat mapping of metric names to JSON-serialisable values.
    seed_entropy:
        The integer entropy the method's random stream was seeded with, or
        ``None`` for deterministic methods (and when the caller supplied a
        live generator whose state cannot be recorded).
    elapsed_seconds:
        Wall-clock time of the evaluation call itself (dispatch excluded).
    """

    method: str
    options: tuple[tuple[str, Any], ...]
    metrics: tuple[tuple[str, Any], ...]
    seed_entropy: tuple[int, ...] | None = None
    elapsed_seconds: float = 0.0

    def __post_init__(self) -> None:
        if isinstance(self.options, Mapping):
            object.__setattr__(self, "options", _frozen_items(self.options, "options"))
        if isinstance(self.metrics, Mapping):
            object.__setattr__(self, "metrics", _frozen_items(self.metrics, "metrics"))
        if self.seed_entropy is not None:
            object.__setattr__(
                self, "seed_entropy", tuple(int(part) for part in self.seed_entropy)
            )

    def option_dict(self) -> dict[str, Any]:
        """The resolved options as a plain dictionary."""
        return dict(self.options)

    def metric_dict(self) -> dict[str, Any]:
        """The metrics as a plain dictionary (what study tables record)."""
        return dict(self.metrics)

    def __getitem__(self, key: str) -> Any:
        """Convenience access to a metric: ``result["mean_system"]``."""
        try:
            return self.metric_dict()[key]
        except KeyError:
            raise KeyError(
                f"result of method {self.method!r} has no metric {key!r}; "
                f"available: {', '.join(name for name, _ in self.metrics)}"
            ) from None

    def to_dict(self) -> dict:
        """Plain-dictionary form, with every value a pure JSON type.

        Numpy scalars and arrays in the metrics or options are converted
        (``np.float64`` -> ``float``, ``np.ndarray`` -> nested lists), so the
        output always survives ``json.dumps`` -- this is the wire form the
        evaluation service ships, and :meth:`from_dict` round-trips it.
        """
        return {
            "method": self.method,
            "options": _jsonable(self.option_dict()),
            "metrics": _jsonable(self.metric_dict()),
            "seed_entropy": None if self.seed_entropy is None else list(self.seed_entropy),
            "elapsed_seconds": float(self.elapsed_seconds),
        }

    @staticmethod
    def from_dict(data: Mapping) -> "EvaluationResult":
        """Inverse of :meth:`to_dict` (round-trips losslessly)."""
        if not isinstance(data, Mapping):
            raise ValueError(f"a result must be a mapping, got {type(data).__name__}")
        unknown = set(data) - {"method", "options", "metrics", "seed_entropy", "elapsed_seconds"}
        if unknown:
            raise ValueError(
                f"unknown result keys: {', '.join(sorted(str(key) for key in unknown))}"
            )
        seed_entropy = data.get("seed_entropy")
        return EvaluationResult(
            method=data["method"],
            options=dict(data.get("options", {})),
            metrics=dict(data.get("metrics", {})),
            seed_entropy=None if seed_entropy is None else tuple(seed_entropy),
            elapsed_seconds=float(data.get("elapsed_seconds", 0.0)),
        )
