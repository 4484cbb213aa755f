"""Property: the wire parser's model content is the model it replaces.

The service parser builds an inline model's canonical content dict and checks
its transforms without numpy (:mod:`repro.core.model_content`).  For every
well-typed model -- 1 to 300 faults, integers among the floats, values at
exactly 0 and 1, names present or absent, strict both ways, ``sum(q)`` a few
ulps either side of ``1 + 1e-9`` and scales that push a ``p_i`` above 1 --
the parsed content must equal ``FaultModel(p=np.asarray(...), ...).to_dict()``,
and the parser must reject exactly what ``FaultModel(...)`` and
``.rescaled(...)`` reject, with the same message.
"""

from __future__ import annotations

import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fault_model import FaultModel
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


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_parser_content_and_rejections_match_the_model(data):
    model = data.draw(_models())
    p_scale = data.draw(_p_scales(model["p"]))
    q_scale = data.draw(_q_scales)
    body = {"model": model, "method": "moments", "p_scale": p_scale, "q_scale": q_scale}
    wire = json.loads(json.dumps(body))
    content, message = _expected(wire["model"], float(p_scale), float(q_scale))
    try:
        request = parse_evaluate_payload(wire)
    except ValueError as error:
        assert str(error) == message
        return
    assert message is None
    assert request.model_data == content
    assert json.dumps(request.model_data) == json.dumps(content)
    batch = {"model": wire["model"], "requests": ["moments"]}
    assert parse_batch_payload(batch)[0] == content


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
