"""The model's two wire spellings: JSON lists and ``p_f64`` / ``q_f64`` bytes.

One model spelled either way is one request: the same digest, byte-identical
records from an in-process shard, and the same record through a router and
two shards, where the second spelling is answered from a cache tier.  A bad
bytes spelling is a 400 naming its key, on the shard and on the router
alike.
"""

from __future__ import annotations

import asyncio
import base64
import json
import math
import pickle
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ShardRouter
from repro.core.fault_model import FaultModel
from repro.service import EvaluationServer, ServiceClient, start_in_background
from repro.service.protocol import parse_evaluate_payload

_FLOATS = {"allow_nan": False, "allow_infinity": False}


def _f64(values) -> str:
    return base64.b64encode(struct.pack(f"<{len(values)}d", *values)).decode("ascii")


@st.composite
def _spellings(draw) -> tuple[dict, dict, dict]:
    """``(list model, bytes model, transforms)`` of one model."""
    n = draw(st.integers(1, 12))
    p = draw(st.lists(st.floats(0.0, 1.0, **_FLOATS), min_size=n, max_size=n))
    q = [value / n for value in draw(
        st.lists(st.floats(0.0, 1.0, **_FLOATS), min_size=n, max_size=n)
    )]
    listed, packed = {"p": p, "q": q}, {"p_f64": _f64(p), "q_f64": _f64(q)}
    names = draw(st.sampled_from(["absent", "default", "explicit"]))
    if names != "absent":
        labels = [f"fault_{i + 1}" if names == "default" else f"f{i}" for i in range(n)]
        listed["names"] = packed["names"] = labels
    transforms = {}
    if draw(st.booleans()):
        transforms["p_scale"] = draw(st.floats(0.0, 1.0, **_FLOATS))
    if draw(st.booleans()):
        transforms["q_scale"] = draw(st.floats(0.0, 1.0, **_FLOATS))
    return listed, packed, transforms


def _serve(server: EvaluationServer, body: dict) -> tuple[int, dict]:
    async def run():
        try:
            return (await server._route("POST", "/v1/evaluate", json.dumps(body).encode()))[:2]
        finally:
            await server.aclose(drain_seconds=0.0)

    return asyncio.run(run())


def _record_bytes(document: dict) -> bytes:
    return json.dumps({**document["result"], "elapsed_seconds": 0.0}).encode("utf-8")


@given(_spellings(), st.sampled_from(["moments", "bounds", "exact"]))
@settings(max_examples=40, deadline=None)
def test_both_spellings_are_one_request(spellings, method):
    listed, packed, transforms = spellings
    by_lists = parse_evaluate_payload({"model": listed, "method": method, **transforms})
    by_bytes = parse_evaluate_payload({"model": packed, "method": method, **transforms})
    assert by_bytes.model == by_lists.model
    assert by_bytes.digest() == by_lists.digest()
    assert by_bytes.payload() == by_lists.payload()
    documents = [
        _serve(EvaluationServer(), {"model": model, "method": method, **transforms})
        for model in (listed, packed)
    ]
    assert [status for status, _ in documents] == [200, 200]
    assert [document["served"]["cached"] for _, document in documents] == [None, None]
    assert _record_bytes(documents[0][1]) == _record_bytes(documents[1][1])


def test_the_client_sends_a_model_in_bytes_without_default_names():
    from repro.service.client import _model_payload

    model = FaultModel(p=np.array([0.05, 0.02]), q=np.array([1e-4, 5e-4]))
    assert _model_payload(model, None) == {"model": {
        "p_f64": _f64([0.05, 0.02]), "q_f64": _f64([1e-4, 5e-4]), "strict": True,
    }}
    named = FaultModel(p=model.p, q=model.q, names=("a", "b"), strict=False)
    assert _model_payload(named, None)["model"]["names"] == ["a", "b"]
    assert FaultModel.from_content(named.content()).to_dict() == named.to_dict()


def test_a_routed_model_is_one_record_in_either_spelling():
    model = FaultModel.random(np.random.default_rng(4), n=30)
    listed = {"model": model.to_dict(), "method": "montecarlo", "seed": 5, "p_scale": 0.5,
              "options": {"replications": 2000}}
    servers = [EvaluationServer() for _ in range(2)]
    handles = [start_in_background(server) for server in servers]
    router = ShardRouter([f"127.0.0.1:{handle.port}" for handle in handles],
                         probe_interval_ms=10_000.0)
    front = start_in_background(router)
    try:
        client = ServiceClient(port=front.port)
        first = client.request("POST", "/v1/evaluate", listed)
        second, served = client.evaluate_detail(
            model, "montecarlo", seed=5, p_scale=0.5, options={"replications": 2000}
        )
    finally:
        front.stop()
        for handle in handles:
            handle.stop()
    assert first["served"]["cached"] is None
    assert served["cached"] == "router"
    assert second.to_dict() == first["result"]
    assert sum(server.registry["evaluations_computed"] for server in servers) == 1


_GOOD = {"p_f64": _f64([0.05, 0.02]), "q_f64": _f64([1e-4, 5e-4])}

_NOT_BASE64 = [
    "not base64!",
    _GOOD["p_f64"][:-1],  # a group cut short
    _GOOD["p_f64"] + "=",  # padding after a whole group
    "=" + _GOOD["p_f64"][1:],  # padding first
    _GOOD["p_f64"][:4] + "=" + _GOOD["p_f64"][5:],  # padding inside
    _GOOD["p_f64"][:-4] + "AA-_",  # the URL-safe alphabet
    _GOOD["p_f64"][:-4] + "AA\n=",  # whitespace
    _GOOD["p_f64"][:-4] + "AA\u00e9=",  # not ASCII
    "A" * 21 + "B==",  # bits set past the last byte
]

_REJECTIONS = [
    *(({**_GOOD, "p_f64": text}, "'p_f64' is not valid base64") for text in _NOT_BASE64),
    ({**_GOOD, "q_f64": base64.b64encode(b"\x00" * 12).decode()},
     "'q_f64' must hold whole float64 values (8 bytes each), got 12 bytes"),
    ({**_GOOD, "q_f64": _f64([1e-4])}, "p_f64 (2) and q_f64 (1) must have the same length"),
    ({**_GOOD, "p_f64": _f64([0.05, math.nan])}, "'p_f64' must hold finite values"),
    ({**_GOOD, "q_f64": _f64([math.inf, 0.0])}, "'q_f64' must hold finite values"),
    ({**_GOOD, "p": [0.05, 0.02]}, "give one of 'p' and 'p_f64', not both"),
    ({**_GOOD, "q_f64": [1e-4, 5e-4]}, "'q_f64' must be a base64 string, got list"),
]


def _answer(app, body: dict) -> tuple[int, dict]:
    async def run():
        try:
            return (await app._route("POST", "/v1/evaluate", json.dumps(body).encode()))[:2]
        finally:
            await app.aclose()

    return asyncio.run(run())


@pytest.mark.parametrize("model, message", _REJECTIONS)
@pytest.mark.parametrize("role", ["shard", "router"])
def test_a_bad_bytes_spelling_is_a_400_naming_its_key(role, model, message):
    # The router rejects before any hop: its one shard address is never dialled.
    app = EvaluationServer() if role == "shard" else ShardRouter(["127.0.0.1:9"])
    status, document = _answer(app, {"model": model, "method": "moments"})
    assert status == 400
    assert document["code"] == "bad_request"
    # The base64 error goes on to say what a valid spelling looks like.
    assert document["error"].startswith(f"invalid model: {message}")


def test_a_parsed_model_is_decoded_once_and_pickled_as_bytes(monkeypatch):
    from repro.core import model_content

    request = parse_evaluate_payload({"model": _GOOD, "method": "moments", "p_scale": 0.5})

    def refuse(raw):
        raise AssertionError("the parsed model was decoded again")

    monkeypatch.setattr(model_content, "_from_le", refuse)
    request.digest()
    assert request.model.to_dict()["p"] == [0.05, 0.02]
    job = pickle.loads(pickle.dumps(request.model))
    assert job == request.model
    assert job.decoded is None
