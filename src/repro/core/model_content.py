"""The content rules of a fault model ``{(p_i, q_i)}``, without numpy.

One home for every value rule the model's parameters obey, applied to plain
Python sequences of floats so that a process which only validates and routes
model content -- the shard router -- never loads numpy:

* :func:`typed_content` -- the JSON typing of a model mapping (``p`` and
  ``q`` arrays of numbers, ``names`` absent or an array of strings,
  ``strict`` absent or a boolean);
* :func:`check_values` and :func:`fault_names` -- equal lengths, at least one
  fault, finite values, ``p_i`` and ``q_i`` in ``[0, 1]``, the strict
  ``sum(q) <= 1`` check and the per-fault labels;
* :func:`check_p_scale`, :func:`check_q_scale` and :func:`check_rescaled` --
  the ``p_scale``/``q_scale`` sweep transforms;
* :func:`model_content` -- all of the above, returning the canonical content
  dict (the :meth:`FaultModel.to_dict` shape) that request digests hash.

:class:`~repro.core.fault_model.FaultModel` calls these rules for its own
checks, so a model and the wire parser accept and reject exactly the same
content, with the same messages.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Mapping, Sequence

__all__ = [
    "check_p_scale",
    "check_q_scale",
    "check_rescaled",
    "check_values",
    "fault_names",
    "model_content",
    "typed_content",
]

#: Slack on the strict non-overlap check ``sum(q) <= 1``.
STRICT_SUM_TOLERANCE = 1e-9


def _json_type(value: Any) -> str:
    return "null" if value is None else type(value).__name__


def _numbers(data: Mapping, key: str) -> list[float]:
    """``data[key]`` as a list of floats: an array of numbers, booleans excluded."""
    values = data[key]
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"'{key}' must be an array of numbers, got {_json_type(values)}")
    if set(map(type, values)) <= {float}:
        return list(values)
    for value in values:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"'{key}' must be an array of numbers, got element {value!r}")
    return [_float(value) for value in values]


def _float(value: int | float) -> float:
    try:
        return float(value)
    except OverflowError:  # an integer past the float range is not finite
        return math.inf


def typed_content(data: Mapping) -> dict:
    """Apply the JSON typing rules to a model mapping.

    Returns ``{"p": [float], "q": [float], "names": tuple[str, ...],
    "strict": bool}``; integers become floats and absent keys take their
    defaults (no names, strict).  A missing ``p`` or ``q`` raises
    ``KeyError``; a value of the wrong type raises ``ValueError`` naming the
    offending key.  The values themselves are not checked here.
    """
    p = _numbers(data, "p")
    q = _numbers(data, "q")
    names = data.get("names", ())
    if not isinstance(names, (list, tuple)):
        raise ValueError(f"'names' must be an array of strings, got {_json_type(names)}")
    for name in names:
        if not isinstance(name, str):
            raise ValueError(f"'names' must be an array of strings, got element {name!r}")
    strict = data.get("strict", True)
    if not isinstance(strict, bool):
        raise ValueError(f"'strict' must be a boolean, got {strict!r}")
    return {"p": p, "q": q, "names": tuple(names), "strict": strict}


def check_values(p: Sequence[float], q: Sequence[float], strict: bool) -> None:
    """The value rules of the parameter vectors (``ValueError`` on the first broken one)."""
    if len(p) != len(q):
        raise ValueError(f"p ({len(p)}) and q ({len(q)}) must have the same length")
    if not p:
        raise ValueError("a fault model must contain at least one potential fault")
    if not (all(map(math.isfinite, p)) and all(map(math.isfinite, q))):
        raise ValueError("p and q must be finite")
    if min(p) < 0.0 or max(p) > 1.0:
        raise ValueError("all p_i must lie in [0, 1]")
    if min(q) < 0.0 or max(q) > 1.0:
        raise ValueError("all q_i must lie in [0, 1]")
    if strict:
        total = math.fsum(q)
        if total > 1.0 + STRICT_SUM_TOLERANCE:
            raise ValueError(
                "sum(q) exceeds 1, violating the non-overlapping failure-region "
                "assumption; pass strict=False to accept the pessimistic relaxation "
                f"(sum(q) = {total:.6f})"
            )


def fault_names(names: Iterable[str], n: int) -> tuple[str, ...]:
    """The per-fault labels: ``names`` as given, or ``fault_1 .. fault_n`` when empty."""
    labels = tuple(names) if names else tuple(f"fault_{i + 1}" for i in range(n))
    if len(labels) != n:
        raise ValueError(f"expected {n} names, got {len(labels)}")
    return labels


def check_p_scale(p_max: float, k: float) -> None:
    """Rules of scaling every ``p_i`` by ``k``, given ``p_max = max(p_i)``.

    Rounding a product by ``k >= 0`` is monotone, so ``p_max * k`` is the
    largest scaled ``p_i`` exactly.
    """
    if k < 0.0:
        raise ValueError(f"k must be non-negative, got {k}")
    if p_max * k > 1.0:
        raise ValueError(
            f"scaling by k={k} pushes some p_i above 1 (max would be {p_max * k:.4f})"
        )


def check_q_scale(q_scale: float) -> None:
    """The sign rule of scaling every ``q_i`` by ``q_scale``."""
    if q_scale < 0.0:
        raise ValueError(f"q_scale must be non-negative, got {q_scale}")


def check_rescaled(
    p: Sequence[float], q: Sequence[float], strict: bool, p_scale: float, q_scale: float
) -> None:
    """Reject exactly the transforms :meth:`FaultModel.rescaled` rejects.

    ``p`` and ``q`` must already satisfy :func:`check_values`.  Scaling
    ``p`` cannot break a ``q`` rule, and a scaled ``p`` that passes
    :func:`check_p_scale` still lies in ``[0, 1]``, so the scaled ``q`` is
    checked against the unscaled ``p``.
    """
    check_q_scale(q_scale)
    if p_scale != 1.0:
        check_p_scale(max(p), p_scale)
    if q_scale != 1.0:
        check_values(p, [value * q_scale for value in q], strict)


def model_content(data: Mapping) -> dict:
    """Parse a JSON model mapping into its canonical content dict.

    The result is what ``FaultModel.from_dict(data).to_dict()`` returns --
    float ``p`` and ``q`` lists, the names (``fault_i`` by default) and the
    strict flag -- built and checked without numpy.  Raises ``KeyError``
    for a missing ``p`` or ``q`` and ``ValueError`` for any other invalid
    content.
    """
    content = typed_content(data)
    check_values(content["p"], content["q"], content["strict"])
    names = fault_names(content["names"], len(content["p"]))
    return {"p": content["p"], "q": content["q"], "names": list(names), "strict": content["strict"]}
