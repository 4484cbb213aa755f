"""Property: two payloads share a content digest exactly when their canonical
texts are equal.

:func:`repro.cache.payload_digest` hashes an inline model's ``p`` and ``q``
as float64 bytes and every other payload as its canonical text.  Either way
the digest must identify the canonical text, no more and no less.
Hypothesis draws a payload and a variant of it that differs in ways which
do (``-0.0`` against ``0.0``, an int against a float entry, a subnormal, a
name, the strict flag, a transform) and do not (a numpy ``float64`` entry,
a tuple for a list) change that text, over inline and scenario bases, and
checks the evaluation digest and the group digest alike.
"""

from __future__ import annotations

import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import canonical_json, payload_digest
from repro.grouping import evaluation_payload, group_digest, group_payload

_SPECIAL = [0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-4, 0.5, 1.0]
_floats = st.sampled_from(_SPECIAL) | st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False)
_entries = _floats | st.integers(0, 1)


@st.composite
def _variant(draw, value):
    """``value``, or a variant whose JSON text may or may not differ."""
    operation = draw(st.sampled_from(["same"] * 6 + ["numpy", "int", "float", "sign", "other"]))
    if operation == "numpy" and isinstance(value, float):
        return np.float64(value)
    if operation == "int" and isinstance(value, float) and value.is_integer():
        return int(value)
    if operation == "float" and isinstance(value, int):
        return float(value)
    if operation == "sign" and isinstance(value, float) and value == 0.0:
        return -value
    if operation == "other":
        return draw(_entries)
    return value


@st.composite
def _model_pair(draw) -> tuple[dict, dict]:
    """An inline model and either a copy of it or a variant."""
    n = draw(st.integers(1, 6))
    entries = _entries if draw(st.integers(0, 4)) == 0 else _floats
    first: dict = {
        "p": draw(st.lists(entries, min_size=n, max_size=n)),
        "q": draw(st.lists(entries, min_size=n, max_size=n)),
    }
    if draw(st.booleans()):
        first["names"] = [f"fault-{index}" for index in range(n)]
    if draw(st.booleans()):
        first["strict"] = draw(st.booleans())
    second = dict(first)
    if draw(st.booleans()):
        for key in ("p", "q"):
            second[key] = [draw(_variant(value)) for value in first[key]]
    if draw(st.booleans()):
        second["p"] = tuple(second["p"])
    if draw(st.integers(0, 3)) == 0 and "names" in first:
        del second["names"]
    elif draw(st.integers(0, 3)) == 0:
        second["names"] = [f"fault-{index}" for index in range(n)]
    if draw(st.integers(0, 3)) == 0:
        second["strict"] = draw(st.booleans())
    return first, second


_scenarios = st.sampled_from(["many-small-faults", "high-quality"])


@st.composite
def _payload_pair(draw) -> tuple[dict, dict]:
    """Two evaluation payloads, equal in all but a few drawn respects."""
    kind = draw(st.sampled_from(["inline"] * 3 + ["scenario", "mixed"]))
    if kind == "inline":
        bases = [{"model": model} for model in draw(_model_pair())]
    elif kind == "scenario":
        bases = [{"scenario": draw(_scenarios)}, {"scenario": draw(_scenarios)}]
    else:
        bases = [{"scenario": draw(_scenarios)}, {"model": draw(_model_pair())[0]}]
    methods = st.sampled_from([("moments", {}, None), ("montecarlo", {"replications": 1000}, [7])])
    method = draw(methods)
    scale = draw(st.sampled_from([0.5, 1.0, 1]))
    payloads = []
    for base in bases:
        if draw(st.integers(0, 3)) == 0:
            method = draw(methods)
        if draw(st.integers(0, 3)) == 0:
            scale = draw(st.sampled_from([0.5, 1.0, 1]))
        payloads.append(evaluation_payload(base, {"p_scale": scale}, *method))
    return payloads[0], payloads[1]


@given(_payload_pair())
@settings(max_examples=400, deadline=None)
def test_equal_digests_exactly_when_equal_canonical_texts(pair):
    first, second = pair
    same_text = canonical_json(first) == canonical_json(second)
    assert (payload_digest(first) == payload_digest(second)) == same_text
    same_group_text = canonical_json(group_payload(first)) == canonical_json(group_payload(second))
    assert (group_digest(first) == group_digest(second)) == same_group_text


_MODEL = {"p": [0.05, -0.0, 5e-324], "q": [1e-4, 0.0, 2e-3], "names": ["a", "b", "c"]}


def test_an_inline_float_model_hashes_its_floats_as_bytes():
    payload = evaluation_payload({"model": _MODEL}, {}, "moments", {}, None)
    rest = {**payload, "base": {"model": {"names": _MODEL["names"]}}}
    preimage = b"\xffrepro-f64\n"
    for key in ("p", "q"):
        preimage += struct.pack(f"<Q{len(_MODEL[key])}d", len(_MODEL[key]), *_MODEL[key])
    preimage += canonical_json(rest).encode("utf-8")
    assert payload_digest(payload) == hashlib.sha256(preimage).hexdigest()


@pytest.mark.parametrize(
    "base",
    [
        {"scenario": "many-small-faults"},
        {"model": {"p": [0.05, 1], "q": [1e-4, 0.0]}},
        {"model": {"p": [0.05, True], "q": [1e-4, 0.0]}},
    ],
    ids=["scenario", "int-entry", "bool-entry"],
)
def test_every_other_payload_hashes_its_canonical_text(base):
    payload = evaluation_payload(base, {}, "moments", {}, None)
    text = canonical_json(payload).encode("utf-8")
    assert payload_digest(payload) == hashlib.sha256(text).hexdigest()


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("key", ["p", "q"])
def test_a_non_finite_entry_is_a_value_error(key, value):
    model = {"p": [0.05, 0.02], "q": [1e-4, 5e-4]}
    model[key] = [model[key][0], value]
    payload = evaluation_payload({"model": model}, {}, "moments", {}, None)
    with pytest.raises(ValueError):
        payload_digest(payload)
    with pytest.raises(ValueError):
        group_digest(payload)
    with pytest.raises(ValueError):
        canonical_json(payload)
