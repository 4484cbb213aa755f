"""One home for the cache entry.

A cached evaluation is one entry, ``{"digest", "payload", "metrics"}``.
:mod:`repro.cache` alone knows that shape: ``ResultCache.store`` builds every
entry, ``is_entry`` says what a read may accept and ``result_record`` turns
a payload plus metrics back into the wire record a hit serves.  A second
builder drifts from the first, so this scan of ``src/repro`` keeps entry
literals in that one module.  The rest pins what one writer buys: the
study runner, a shard's disk tier and a replica ``PUT`` leave the same
bytes for the same point, and a disk or peer hit serves the record the
computing shard served.
"""

from __future__ import annotations

import ast
import asyncio
import json
import pathlib

from repro.cache import ResultCache
from repro.cluster.router import _replica_entry
from repro.service import EvaluationServer, start_in_background
from repro.service.protocol import parse_evaluate_payload
from repro.studies import StudySpec, run_study

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

ENTRY_KEYS = {"digest", "payload", "metrics"}

MODEL = {"p": [0.05, 0.02, 0.01], "q": [1e-4, 5e-4, 2e-3]}
EXACT = {"model": MODEL, "method": "exact"}
REQUEST = parse_evaluate_payload(EXACT)
DIGEST = REQUEST.digest()


def _entry_builders() -> list[str]:
    """``module:line`` of every dict literal in ``src/repro`` with the entry keys."""
    builders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        name = path.relative_to(PACKAGE.parent).as_posix()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Dict):
                keys = {key.value for key in node.keys if isinstance(key, ast.Constant)}
                if ENTRY_KEYS <= keys:
                    builders.append(f"{name}:{node.lineno}")
    return builders


def test_only_the_cache_module_builds_an_entry():
    assert [builder.split(":")[0] for builder in _entry_builders()] == ["repro/cache.py"]


def _routes(server: EvaluationServer, calls) -> list:
    """``(status, document)`` of each call, in order, inside one event loop."""

    async def run():
        try:
            return [(await server._route(verb, path, body))[:2] for verb, path, body in calls]
        finally:
            await server.aclose(drain_seconds=0.0)

    return asyncio.run(run())


def _evaluate(server: EvaluationServer) -> dict:
    [(status, document)] = _routes(server, [("POST", "/v1/evaluate", json.dumps(EXACT).encode())])
    assert status == 200
    return document


def _record_bytes(document: dict) -> bytes:
    """The served record as the wire encodes it, timing zeroed (a hit's is 0.0)."""
    return json.dumps({**document["result"], "elapsed_seconds": 0.0}).encode("utf-8")


def _entry_file(root: pathlib.Path) -> bytes:
    """The entry bytes of the one line of the one segment under ``root``."""
    [segment] = [path for path in root.rglob("*") if path.is_file()]
    assert segment.parent == root and segment.name.startswith("segment-")
    [line] = segment.read_bytes().splitlines(keepends=True)
    assert line.endswith(b"\n")
    key, entry = line[:-1].split(b" ", 1)
    assert key.decode() == DIGEST
    assert ResultCache(root).load(DIGEST) == json.loads(entry)
    return entry


def test_every_writer_leaves_the_same_entry_bytes(tmp_path):
    spec = StudySpec.from_dict(
        {"name": "entry-home", "base": {"model": MODEL}, "methods": [{"name": "exact"}]}
    )
    run_study(spec, cache_dir=str(tmp_path / "study"))
    by_study = _entry_file(tmp_path / "study")

    computed = _evaluate(EvaluationServer(cache_dir=str(tmp_path / "shard")))
    assert computed["served"]["cached"] is None
    by_shard = _entry_file(tmp_path / "shard")

    # The router's replica entry carries the model in the bytes spelling;
    # the receiving shard writes it to disk as JSON lists, as a study does.
    body = _replica_entry(DIGEST, REQUEST.wire_payload_text(), computed["result"]["metrics"])
    assert "p_f64" in json.loads(body)["payload"]["base"]["model"]
    receiver = EvaluationServer(cache_dir=str(tmp_path / "put"))
    [(status, answer)] = _routes(receiver, [("PUT", f"/v1/cache/{DIGEST}", body)])
    assert (status, answer) == (200, {"digest": DIGEST, "stored": True})
    by_put = _entry_file(tmp_path / "put")

    assert by_study == by_shard == by_put
    assert json.loads(by_study) == {**json.loads(body), "payload": REQUEST.payload()}


def test_a_replica_entry_fills_the_lru_without_decoding_the_model(monkeypatch):
    """A shard without a disk tier builds its LRU record from the entry's
    method and entropy alone: the bytes-spelled model is never decoded."""
    from repro.core import model_content
    from repro.service import server as server_module

    computed = _evaluate(EvaluationServer())
    body = _replica_entry(DIGEST, REQUEST.wire_payload_text(), computed["result"]["metrics"])

    def refuse(*args, **kwargs):
        raise AssertionError("the replica entry's model was decoded")

    receiver = EvaluationServer()

    async def run():
        try:
            with monkeypatch.context() as patch:
                for name in ("_from_le", "parse_content"):
                    patch.setattr(model_content, name, refuse)
                patch.setattr(server_module, "list_spelled", refuse)
                put = await receiver._route("PUT", f"/v1/cache/{DIGEST}", body)
            hit = await receiver._route("POST", "/v1/evaluate", json.dumps(EXACT).encode())
            return put[:2], hit[:2]
        finally:
            await receiver.aclose(drain_seconds=0.0)

    put, (status, hit) = asyncio.run(run())
    assert put == (200, {"digest": DIGEST, "stored": True})
    assert status == 200 and hit["served"]["cached"] == "lru"
    assert receiver.registry["evaluations_computed"] == 0
    assert _record_bytes(hit) == _record_bytes(computed)


def test_disk_and_peer_hits_serve_the_computed_record(tmp_path):
    computed = _evaluate(EvaluationServer(cache_dir=str(tmp_path / "warm")))
    assert computed["served"]["cached"] is None

    disk = EvaluationServer(cache_dir=str(tmp_path / "warm"))
    from_disk = _evaluate(disk)
    assert from_disk["served"]["cached"] == "disk"
    assert disk.registry["evaluations_computed"] == 0

    peer = EvaluationServer(cache_dir=str(tmp_path / "warm"))
    with start_in_background(peer) as handle:
        cold = EvaluationServer(
            cache_dir=str(tmp_path / "cold"),
            cache_peers=(f"127.0.0.1:{handle.port}",),
        )
        from_peer = _evaluate(cold)
    assert from_peer["served"]["cached"] == "remote"
    assert cold.registry["evaluations_computed"] == 0

    assert from_disk["result"]["elapsed_seconds"] == from_peer["result"]["elapsed_seconds"] == 0.0
    assert _record_bytes(from_disk) == _record_bytes(computed) == _record_bytes(from_peer)
    # The peer hit back-fills the cold shard's disk with the same entry.
    assert _entry_file(tmp_path / "cold") == _entry_file(tmp_path / "warm")
