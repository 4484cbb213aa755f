"""The content rules of a fault model ``{(p_i, q_i)}``, without numpy.

One home for every value rule the model's parameters obey, applied to plain
Python sequences of floats so that a process which only validates and routes
model content -- the shard router -- never loads numpy:

* :func:`check_values` and :func:`fault_names` -- equal lengths, at least one
  fault, finite values, ``p_i`` and ``q_i`` in ``[0, 1]``, the strict
  ``sum(q) <= 1`` check and the per-fault labels (``fault_1 .. fault_n``
  when none are given);
* :func:`parse_scale`, :func:`check_p_scale`, :func:`check_rescaled` and
  :func:`parse_transform` -- the ``p_scale``/``q_scale`` sweep transforms:
  the typing of a scale and the rules of applying it to a model;
* :func:`parse_content` -- the JSON typing of a model mapping (``p`` and
  ``q`` arrays of numbers or, spelled ``p_f64`` and ``q_f64``, base64 of
  little-endian float64 bytes; ``names`` absent or an array of strings,
  ``strict`` absent or a boolean), then the value rules above, returning a
  :class:`ModelContent`: the checked model with ``p`` and ``q`` as
  little-endian float64 bytes, the form the service carries between
  processes and request digests hash; :func:`model_content` returns its
  canonical content dict (the :meth:`FaultModel.to_dict` shape).

:class:`~repro.core.fault_model.FaultModel` calls these rules for its own
checks, so a model and the wire parser accept and reject exactly the same
content, with the same messages.  Every surface that takes a sweep transform
-- the wire parser, :func:`repro.api.evaluate.sweep_outcomes`, study specs
and the Monte Carlo sweep kernel -- checks it here and nowhere else.
"""

from __future__ import annotations

import binascii
import functools
import math
import numbers
import sys
from array import array
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

__all__ = [
    "F64_KEYS",
    "ModelContent",
    "check_p_scale",
    "check_rescaled",
    "check_values",
    "fault_names",
    "model_content",
    "parse_content",
    "parse_scale",
    "parse_transform",
]

#: Slack on the strict non-overlap check ``sum(q) <= 1``.
STRICT_SUM_TOLERANCE = 1e-9

#: The bytes spelling of each parameter vector: base64 of its little-endian
#: float64 values, accepted in place of the JSON array.
F64_KEYS = {"p": "p_f64", "q": "q_f64"}


def _json_type(value: Any) -> str:
    return "null" if value is None else type(value).__name__


def _numbers(data: Mapping, key: str) -> tuple[float, ...]:
    """``data[key]`` as a tuple of floats: an array of numbers, booleans excluded."""
    values = data[key]
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"'{key}' must be an array of numbers, got {_json_type(values)}")
    if set(map(type, values)) <= {float}:
        return tuple(values)
    for value in values:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"'{key}' must be an array of numbers, got element {value!r}")
    return tuple(map(_float, values))


def _float(value: int | float) -> float:
    try:
        return float(value)
    except OverflowError:  # an integer past the float range is not finite
        return math.inf


def _from_le(raw: bytes) -> tuple[float, ...]:
    """Little-endian float64 bytes as a tuple of floats."""
    values = array("d", raw)
    if sys.byteorder == "big":
        values.byteswap()
    return tuple(values)


def _le_bytes(values: Sequence[float]) -> bytes:
    """Floats as little-endian float64 bytes."""
    packed = array("d", values)
    if sys.byteorder == "big":
        packed.byteswap()
    return packed.tobytes()


def _vector(data: Mapping, key: str) -> tuple[tuple[float, ...], bytes | None, str]:
    """``data``'s vector ``key``: its values, their little-endian float64
    bytes when it came in that spelling (else ``None``), and the key it was
    spelled with.

    Either spelling is accepted, not both: a JSON array of numbers under
    ``key``, or base64 of little-endian float64 bytes under ``key_f64``,
    whose values must be finite.  Every message names the key.
    """
    f64 = F64_KEYS[key]
    if f64 not in data:
        return _numbers(data, key), None, key
    if key in data:
        raise ValueError(f"give one of '{key}' and '{f64}', not both")
    text = data[f64]
    if not isinstance(text, str):
        raise ValueError(f"'{f64}' must be a base64 string, got {_json_type(text)}")
    # The lax decoder skips stray characters and surplus padding, so the text
    # must also be exactly the padded standard base64 of what it decoded to.
    try:
        raw = binascii.a2b_base64(text)
    except ValueError:  # binascii.Error, or text that is not ASCII
        raw = None
    if raw is None or binascii.b2a_base64(raw, newline=False) != text.encode("ascii"):
        raise ValueError(
            f"'{f64}' is not valid base64: expected the padded standard "
            "alphabet (A-Z, a-z, 0-9, '+', '/'), nothing else"
        )
    if len(raw) % 8:
        raise ValueError(
            f"'{f64}' must hold whole float64 values (8 bytes each), got {len(raw)} bytes"
        )
    values = _from_le(raw)
    if not _all_finite(values):
        raise ValueError(f"'{f64}' must hold finite values")
    return values, raw, f64


def _all_finite(values: Sequence[float]) -> bool:
    # A finite sum has no infinite or NaN term; only an overflowing sum of
    # finite terms needs the element-wise check.
    return math.isfinite(sum(values)) or all(map(math.isfinite, values))


def _check_lengths(p: Sequence[float], q: Sequence[float], p_key="p", q_key="q") -> None:
    if len(p) != len(q):
        raise ValueError(f"{p_key} ({len(p)}) and {q_key} ({len(q)}) must have the same length")


def check_values(p: Sequence[float], q: Sequence[float], strict: bool) -> None:
    """The value rules of the parameter vectors (``ValueError`` on the first broken one)."""
    _check_lengths(p, q)
    if not p:
        raise ValueError("a fault model must contain at least one potential fault")
    if not (_all_finite(p) and _all_finite(q)):
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


@functools.lru_cache(maxsize=64)
def _default_names(n: int) -> tuple[str, ...]:
    """``fault_1 .. fault_n``: the labels of a model given without names."""
    return tuple(f"fault_{i + 1}" for i in range(n))


def fault_names(names: Iterable[str], n: int) -> tuple[str, ...]:
    """The per-fault labels: ``names`` as given, or ``fault_1 .. fault_n`` when empty."""
    labels = tuple(names) if names else _default_names(n)
    if len(labels) != n:
        raise ValueError(f"expected {n} names, got {len(labels)}")
    return labels


def check_p_scale(p_max: float, k: float) -> None:
    """Rules of scaling every ``p_i`` by ``k``, given ``p_max = max(p_i)``.

    Rounding a product by ``k >= 0`` is monotone, so ``p_max * k`` is the
    largest scaled ``p_i`` exactly, and it is not finite exactly when some
    scaled ``p_i`` is not (a NaN ``k``, or an infinite one on all-zero ``p``).
    """
    if k < 0.0:
        raise ValueError(f"k must be non-negative, got {k}")
    if p_max * k > 1.0:
        raise ValueError(
            f"scaling by k={k} pushes some p_i above 1 (max would be {p_max * k:.4f})"
        )
    if not math.isfinite(p_max * k):
        raise ValueError("p and q must be finite")


def check_rescaled(
    p: Sequence[float], q: Sequence[float], strict: bool, p_scale: Any, q_scale: Any
) -> tuple[float, float]:
    """Reject exactly the transforms :meth:`FaultModel.rescaled` rejects, with its messages.

    ``p`` and ``q`` must already satisfy :func:`check_values`.  The steps
    are those of ``rescaled``: both scales typed by :func:`parse_scale`
    (``p_scale`` first), then ``p`` scaled by ``p_scale``, then ``q`` by
    ``q_scale``.  So a NaN, infinite or negative scale gets the wire's
    message whichever surface it reaches.  A scaled ``p`` that passes
    :func:`check_p_scale` is finite and lies in ``[0, 1]``, and scaling
    ``p`` cannot break a ``q`` rule, so the scaled ``q`` is checked against
    the unscaled ``p``.  Returns the typed ``(p_scale, q_scale)``.
    """
    p_scale = parse_scale(p_scale, "p_scale")
    q_scale = parse_scale(q_scale, "q_scale")
    if p_scale != 1.0:
        check_p_scale(max(p), p_scale)
    if q_scale != 1.0:
        check_values(p, [value * q_scale for value in q], strict)
    return p_scale, q_scale


def parse_scale(value: Any, name: str) -> float:
    """A transform value given under key ``name``, typed as the service wire types it.

    A scale is a number (booleans are not numbers), finite and non-negative;
    the messages name the key.  Returns the value as a float.
    """
    if type(value) is not float and (
        isinstance(value, bool) or not isinstance(value, numbers.Real)
    ):
        raise ValueError(f"'{name}' must be a number, got {value!r}")
    scale = _float(value)
    if not math.isfinite(scale) or scale < 0.0:
        raise ValueError(f"'{name}' must be a finite non-negative number, got {value!r}")
    return scale


def parse_transform(
    data: Mapping, p: Sequence[float], q: Sequence[float], strict: bool
) -> tuple[float, float]:
    """The ``(p_scale, q_scale)`` of ``data`` (absent keys are 1.0), checked against a model.

    Applies :func:`check_rescaled` to the model's float lists ``p`` and
    ``q``: what passes is exactly what :meth:`FaultModel.rescaled` accepts.
    Callers checking many transforms of one model take its lists once.
    """
    return check_rescaled(p, q, strict, data.get("p_scale", 1.0), data.get("q_scale", 1.0))


@dataclass(frozen=True)
class ModelContent:
    """A checked model ``{(p_i, q_i)}`` as the service carries it.

    ``p`` and ``q`` are the parameter vectors as little-endian float64
    bytes: what the ``p_f64`` / ``q_f64`` spelling decodes to, what
    :func:`repro.cache.payload_digest` hashes and what a pool worker reads
    with ``np.frombuffer``.  ``names`` are the per-fault labels
    (``fault_1 .. fault_n`` by default) and ``strict`` the non-overlap flag.
    The constructor checks nothing: build one with :func:`parse_content`,
    or :meth:`~repro.core.fault_model.FaultModel.content` from a model that
    checked itself.  ``decoded`` holds the float vectors when the maker
    already has them (:func:`parse_content` does); it is neither compared
    nor pickled, so a pool job carries the bytes alone.
    """

    p: bytes
    q: bytes
    names: tuple[str, ...]
    strict: bool
    decoded: tuple[tuple[float, ...], tuple[float, ...]] | None = field(
        default=None, compare=False, repr=False
    )

    def __reduce__(self):
        return ModelContent, (self.p, self.q, self.names, self.strict)

    def vectors(self) -> tuple[Sequence[float], Sequence[float]]:
        """``(p, q)`` as sequences of floats, decoded once per content."""
        if self.decoded is None:
            object.__setattr__(self, "decoded", (_from_le(self.p), _from_le(self.q)))
        return self.decoded

    def to_dict(self) -> dict:
        """The canonical content dict: the :meth:`FaultModel.to_dict` shape,
        ``p`` and ``q`` as JSON lists (the form cache entries keep)."""
        p, q = self.vectors()
        return {"p": list(p), "q": list(q), "names": list(self.names), "strict": self.strict}

    def wire(self) -> dict:
        """The bytes spelling: ``p_f64`` and ``q_f64``, ``names`` only when
        they are not the defaults, and ``strict``."""
        data = {
            "p_f64": binascii.b2a_base64(self.p, newline=False).decode("ascii"),
            "q_f64": binascii.b2a_base64(self.q, newline=False).decode("ascii"),
        }
        if self.names != _default_names(len(self.names)):
            data["names"] = list(self.names)
        data["strict"] = self.strict
        return data


def parse_content(data: Mapping) -> ModelContent:
    """Parse a model mapping, in either spelling, into its checked content.

    The JSON typing comes first: each vector is an array of numbers (booleans
    are not numbers; integers become floats) or, under ``p_f64`` / ``q_f64``,
    base64 of little-endian float64 bytes holding finite values; ``names`` is
    absent or an array of strings and ``strict`` absent or a boolean.  Then
    :func:`check_values` and :func:`fault_names` apply, without numpy.
    Raises ``KeyError`` for a missing ``p`` or ``q`` and ``ValueError``,
    naming the offending key where there is one, for any other invalid
    content.
    """
    (p, p_bytes, p_key), (q, q_bytes, q_key) = _vector(data, "p"), _vector(data, "q")
    _check_lengths(p, q, p_key, q_key)
    names = data.get("names", ())
    if not isinstance(names, (list, tuple)):
        raise ValueError(f"'names' must be an array of strings, got {_json_type(names)}")
    for name in names:
        if not isinstance(name, str):
            raise ValueError(f"'names' must be an array of strings, got element {name!r}")
    strict = data.get("strict", True)
    if not isinstance(strict, bool):
        raise ValueError(f"'strict' must be a boolean, got {strict!r}")
    check_values(p, q, strict)
    return ModelContent(
        _le_bytes(p) if p_bytes is None else p_bytes,
        _le_bytes(q) if q_bytes is None else q_bytes,
        fault_names(names, len(p)),
        strict,
        (p, q),
    )


def model_content(data: Mapping) -> dict:
    """Parse a model mapping into its canonical content dict.

    The result is what ``FaultModel.from_dict(data).to_dict()`` returns --
    float ``p`` and ``q`` lists, the names (``fault_i`` by default) and the
    strict flag -- built and checked without numpy (:func:`parse_content`).
    """
    return parse_content(data).to_dict()
