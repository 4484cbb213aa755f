"""Property: encoding the model once leaves every request identity unchanged.

:class:`ServiceRequest` splices its model's canonical text into the digest
payload, the group-key payload and the payload text the router ships to
replicas.  Hypothesis varies every input that reaches those payloads --
inline and scenario models (with and without ``names`` and ``strict``),
every registered method with non-default options, seeds and transforms --
and each identity must equal the one computed from ``payload()`` the plain
way, byte for byte.
"""

from __future__ import annotations

import functools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.registry import default_registry
from repro.cache import canonical_json, payload_digest
from repro.cluster.router import _replica_entry
from repro.experiments import scenarios
from repro.experiments.scenarios import scenario_names
from repro.grouping import group_digest
from repro.service.protocol import parse_evaluate_payload

_FLOATS = {"allow_nan": False, "allow_infinity": False}


def _option_values(spec) -> st.SearchStrategy:
    if spec.type == "bool":
        values = st.booleans()
    elif spec.type == "str":
        values = st.text(max_size=8)
    elif spec.type == "int":
        low = 0 if spec.minimum is None else int(spec.minimum)
        values = st.integers(low, low + 10_000)
    else:
        values = st.floats(
            min_value=-1e6 if spec.minimum is None else spec.minimum,
            max_value=1e6 if spec.maximum is None else spec.maximum,
            **_FLOATS,
        )
    return values | st.none() if spec.allow_none else values


@st.composite
def _methods(draw) -> tuple[str, dict]:
    definition = draw(st.sampled_from(list(default_registry())))
    options = {}
    for spec in definition.options:
        if draw(st.booleans()):
            options[spec.name] = draw(_option_values(spec))
    return definition.name, options


@st.composite
def _inline_models(draw) -> dict:
    n = draw(st.integers(1, 12))
    model = {
        "p": draw(st.lists(st.floats(1e-6, 1.0, **_FLOATS), min_size=n, max_size=n)),
        "q": draw(st.lists(st.floats(0.0, 1.0 / n, **_FLOATS), min_size=n, max_size=n)),
    }
    if draw(st.booleans()):
        model["names"] = [f"fault-{index}" for index in range(n)]
    if draw(st.booleans()):
        model["strict"] = draw(st.booleans())
    return model


_sources = st.one_of(
    _inline_models().map(lambda model: {"model": model}),
    st.sampled_from(scenario_names()).map(lambda name: {"scenario": name}),
)
_scales = st.integers(0, 1) | st.floats(0.0, 1.0, **_FLOATS)


@pytest.fixture(autouse=True, scope="module")
def _each_scenario_built_once():
    """Scenario factories are deterministic, and some take ~0.1 s to build."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scenarios, "get_scenario", functools.lru_cache(scenarios.get_scenario))
        yield


@given(
    _sources,
    _methods(),
    st.none() | st.integers(0, 2**63),
    _scales,
    _scales,
    st.dictionaries(st.text(max_size=6), st.floats(allow_nan=False), max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_spliced_identities_equal_the_plain_encodings(
    source, method, seed, p_scale, q_scale, metrics
):
    name, options = method
    body = {**source, "method": name, "options": options, "p_scale": p_scale, "q_scale": q_scale}
    if seed is not None:
        body["seed"] = seed
    request = parse_evaluate_payload(json.loads(json.dumps(body)))
    payload = request.payload()
    assert request.payload_text() == canonical_json(payload)
    assert request.digest() == payload_digest(payload)
    assert request.group_key() == group_digest(payload)
    entry = _replica_entry(request.digest(), request.payload_text(), metrics)
    expected = json.dumps({"digest": request.digest(), "payload": payload, "metrics": metrics})
    assert json.loads(entry) == json.loads(expected)
