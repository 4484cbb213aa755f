"""Property: the wire parser's model content is the model it replaces.

The service parser builds an inline model's canonical content dict and checks
its transforms without numpy (:mod:`repro.core.model_content`).  For every
well-typed model -- 1 to 300 faults, integers among the floats, values at
exactly 0 and 1, names present or absent, strict both ways, ``sum(q)`` a few
ulps either side of ``1 + 1e-9`` and scales that push a ``p_i`` above 1 --
the parsed content must equal ``FaultModel(p=np.asarray(...), ...).to_dict()``,
and the parser must reject exactly what ``FaultModel(...)`` and
``.rescaled(...)`` reject, with the same message.  ``check_rescaled`` is held
to ``.rescaled(...)`` directly as well, NaN, infinite and negative-zero
scales included.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.fault_model import FaultModel
from repro.core.model_content import check_rescaled
from repro.service.protocol import parse_batch_payload, parse_evaluate_payload

_FLOATS = {"allow_nan": False, "allow_infinity": False}

#: Plain floats, exact endpoints as floats and as integers.
_values = st.one_of(
    st.floats(0.0, 1.0, **_FLOATS),
    st.sampled_from([0.0, 1.0, 0, 1]),
)

_THRESHOLD = 1.0 + 1e-9


def _near_threshold(q: list, ulps: int) -> list:
    """``q`` rescaled so that ``sum(q)`` sits ``ulps`` ulps from ``1 + 1e-9``."""
    target = _THRESHOLD
    for _ in range(abs(ulps)):
        target = math.nextafter(target, math.inf if ulps > 0 else 0.0)
    total = math.fsum(q) or 1.0
    scaled = [value * target / total for value in q[:-1]]
    return scaled + [target - math.fsum(scaled)]


@st.composite
def _models(draw) -> dict:
    n = draw(st.integers(1, 300))
    p = draw(st.lists(_values, min_size=n, max_size=n))
    if draw(st.booleans()):
        q = draw(st.lists(_values, min_size=n, max_size=n))
    else:
        raw = draw(st.lists(st.floats(1e-6, 1.0, **_FLOATS), min_size=n, max_size=n))
        q = _near_threshold(raw, draw(st.integers(-3, 3)))
    model = {"p": p, "q": q}
    if draw(st.booleans()):
        model["names"] = draw(st.lists(st.text(max_size=5), min_size=n, max_size=n))
    if draw(st.booleans()):
        model["strict"] = draw(st.booleans())
    return model


@st.composite
def _p_scales(draw, p: list) -> float:
    """A scale, often right at the one that takes ``max(p)`` to 1."""
    p_max = max(p, default=0.0)
    if p_max > 0.0 and draw(st.booleans()):
        edge = 1.0 / p_max
        return draw(st.sampled_from([
            edge, math.nextafter(edge, math.inf), math.nextafter(edge, 0.0), edge * 1.5,
        ]))
    return draw(st.sampled_from([0, 1, 2, 0.5, 1.0]) | st.floats(0.0, 4.0, **_FLOATS))


_q_scales = st.sampled_from([0, 1, 3, 1.0]) | st.floats(0.0, 3.0, **_FLOATS)


def _expected(model: dict, p_scale: float, q_scale: float) -> tuple[dict | None, str | None]:
    """What the numpy model makes of the request: ``(content, error message)``."""
    try:
        built = FaultModel(
            p=np.asarray(model["p"], dtype=float),
            q=np.asarray(model["q"], dtype=float),
            names=tuple(model.get("names", ())),
            strict=model.get("strict", True),
        )
    except ValueError as error:
        return None, f"invalid model: {error}"
    try:
        built.rescaled(p_scale, q_scale)
    except ValueError as error:
        return None, str(error)
    return built.to_dict(), None


@st.composite
def _requests(draw) -> tuple[dict, float, float]:
    """``(model, p_scale, q_scale)`` of one wire request."""
    model = draw(_models())
    return model, draw(_p_scales(model["p"])), draw(_q_scales)


@given(_requests())
# ``1 / p_max`` overflows to inf for a subnormal ``p``: the wire and
# ``FaultModel.rescaled`` must word the non-finite scale alike.
@example(({"p": [5e-324], "q": [0.0]}, math.inf, 0))
@settings(max_examples=300, deadline=None)
def test_parser_content_and_rejections_match_the_model(drawn):
    model, p_scale, q_scale = drawn
    body = {"model": model, "method": "moments", "p_scale": p_scale, "q_scale": q_scale}
    wire = json.loads(json.dumps(body))
    content, message = _expected(wire["model"], float(p_scale), float(q_scale))
    try:
        request = parse_evaluate_payload(wire)
    except ValueError as error:
        assert str(error) == message
        return
    assert message is None
    assert request.model.to_dict() == content
    assert json.dumps(request.model.to_dict()) == json.dumps(content)
    batch = {"model": wire["model"], "requests": ["moments"]}
    assert parse_batch_payload(batch)[0].to_dict() == content


@given(st.lists(st.floats(0.0, 1.0, **_FLOATS), min_size=1, max_size=50), st.floats(0.0, 8.0, **_FLOATS))
@settings(max_examples=200, deadline=None)
def test_push_above_one_message_matches_the_scaled_vector(p, k):
    """The parser checks ``max(p) * k``; the message names the scaled vector's max."""
    body = {"model": {"p": p, "q": [0.0] * len(p)}, "method": "moments", "p_scale": k}
    scaled = np.asarray(p) * k
    try:
        parse_evaluate_payload(body)
    except ValueError as error:
        assert np.any(scaled > 1.0)
        assert str(error) == (
            f"scaling by k={k} pushes some p_i above 1 (max would be {scaled.max():.4f})"
        )
    else:
        assert not np.any(scaled > 1.0)


#: Scales past what the wire lets through: NaN, infinities and a negative zero.
_odd_scales = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, -1.0])


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_check_rescaled_rejects_exactly_what_rescaled_rejects(data):
    """``check_rescaled`` mirrors ``FaultModel.rescaled`` for every float, not only wire ones."""
    model = data.draw(_models())
    p = [float(value) for value in model["p"]]
    q = [float(value) for value in model["q"]]
    strict = model.get("strict", True)
    try:
        built = FaultModel(p=np.asarray(p), q=np.asarray(q), strict=strict)
    except ValueError:
        return
    p_scale = data.draw(_p_scales(p) | _odd_scales)
    q_scale = data.draw(_q_scales | _odd_scales)
    try:
        with np.errstate(invalid="ignore"):  # 0 * inf is NaN, and rejected as such
            built.rescaled(p_scale, q_scale)
    except ValueError as error:
        expected = str(error)
    else:
        expected = None
    try:
        check_rescaled(p, q, strict, p_scale, q_scale)
    except ValueError as error:
        assert str(error) == expected
    else:
        assert expected is None


def test_check_rescaled_closes_the_non_finite_hole():
    message = "^'p_scale' must be a finite non-negative number, got {}$"
    with pytest.raises(ValueError, match=message.format("nan")):
        check_rescaled([0.3, 0.2], [0.1, 0.1], True, math.nan, 1.0)
    with pytest.raises(ValueError, match=message.format("inf")):
        check_rescaled([0.0, 0.0], [0.1, 0.1], True, math.inf, 1.0)
    check_rescaled([0.3, 0.2], [0.1, 0.1], True, -0.0, 1.0)


@pytest.mark.parametrize("p_scale, q_scale, name", [
    (math.inf, 0.0, "p_scale"), (math.nan, 1.0, "p_scale"), (-1.0, 1.0, "p_scale"),
    (1.0, math.inf, "q_scale"), (1.0, math.nan, "q_scale"), (1.0, -1.0, "q_scale"),
])
def test_rescaled_words_a_bad_scale_as_the_wire_does(p_scale, q_scale, name):
    """One message per non-finite or negative scale, whichever surface it reaches."""
    model = {"p": [5e-324, 0.5], "q": [0.0, 0.1]}
    body = {"model": model, "method": "moments", "p_scale": p_scale, "q_scale": q_scale}
    with pytest.raises(ValueError) as wire:
        parse_evaluate_payload(json.loads(json.dumps(body)))
    with pytest.raises(ValueError) as direct:
        FaultModel(p=np.asarray(model["p"]), q=np.asarray(model["q"])).rescaled(p_scale, q_scale)
    assert str(wire.value) == str(direct.value)
    assert str(direct.value).startswith(f"'{name}' must be a finite non-negative number")
