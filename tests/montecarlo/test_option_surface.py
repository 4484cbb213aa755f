"""The ``montecarlo`` option surface: three options, the same at every entry point.

The engine always chunks its tallies every ``CHUNK_ROWS`` replications and
runs in the calling process, so the method takes ``versions``,
``replications`` and ``correlation`` only.  A per-call chunk size or process
count is an unknown option wherever an evaluation can be requested: the
Python API, the service protocol and its HTTP endpoint, study specs and the
CLI.  The engine has no process count or histogram size either, and
``repro evaluate --method montecarlo`` is the one command that runs it.
"""

from __future__ import annotations

import dataclasses
import importlib
import itertools
import json

import pytest

import repro.montecarlo
import repro.stats.rng
from repro.api import default_registry, evaluate
from repro.cli import main
from repro.montecarlo.engine import MonteCarloEngine
from repro.service import EvaluationServer, ServiceClient, ServiceError, start_in_background
from repro.service.protocol import parse_evaluate_payload
from repro.studies import MethodSpec

OPTIONS = ("versions", "replications", "correlation")
REMOVED = ("chunk_size", "mc_jobs")
UNKNOWN = "method 'montecarlo' does not accept option"


@pytest.fixture(scope="module")
def live_client():
    with start_in_background(EvaluationServer()) as handle:
        yield ServiceClient(port=handle.port)


def test_registry_lists_three_options():
    assert default_registry().get("montecarlo").option_names == OPTIONS


def test_methods_command_lists_three_options(capsys):
    assert main(["methods"]) == 0
    lines = capsys.readouterr().out.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("montecarlo"))
    block = itertools.takewhile(lambda line: line.startswith(" "), lines[start + 1 :])
    listed = [line.split("--set ")[1].split("=")[0] for line in block if "--set " in line]
    assert tuple(listed) == OPTIONS


def test_methods_endpoint_lists_three_options(live_client):
    (schema,) = [entry for entry in live_client.methods() if entry["name"] == "montecarlo"]
    assert tuple(option["name"] for option in schema["options"]) == OPTIONS


def test_engine_fields():
    assert [field.name for field in dataclasses.fields(MonteCarloEngine)] == [
        "model",
        "process",
    ]


def test_evaluate_has_no_chunk_size_flag(capsys):
    with pytest.raises(SystemExit):
        main(["evaluate", "--help"])
    assert "--chunk-size" not in capsys.readouterr().out


def test_removed_names_are_gone(capsys, small_model):
    assert not hasattr(repro.montecarlo, "StreamingPairResult")
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.montecarlo.convergence")
    assert not hasattr(repro.stats.rng, "spawn_rngs")
    assert not hasattr(repro.stats, "spawn_rngs")
    with pytest.raises(TypeError):
        MonteCarloEngine(small_model, jobs=2)
    with pytest.raises(TypeError):
        MonteCarloEngine(small_model).simulate_paired_streaming(100, rng=1, bins=8)
    with pytest.raises(SystemExit) as excinfo:
        main(["simulate", "--replications", "100"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'simulate'" in capsys.readouterr().err


@pytest.mark.parametrize("option", REMOVED)
class TestRemovedOptionsAreUnknown:
    def test_evaluate(self, small_model, option):
        with pytest.raises(ValueError, match=UNKNOWN):
            evaluate(small_model, "montecarlo", options={option: 1})

    def test_protocol(self, small_model, option):
        payload = {"model": small_model.to_dict(), "method": "montecarlo", "options": {option: 1}}
        with pytest.raises(ValueError, match=UNKNOWN):
            parse_evaluate_payload(payload)

    def test_http_400(self, live_client, small_model, option):
        with pytest.raises(ServiceError) as excinfo:
            live_client.evaluate(small_model, "montecarlo", options={option: 1}, seed=3)
        assert excinfo.value.status == 400
        assert UNKNOWN in excinfo.value.message

    def test_study_spec(self, option):
        with pytest.raises(ValueError, match=UNKNOWN):
            MethodSpec.from_dict({"name": "montecarlo", option: 1})

    def test_cli_set(self, capsys, tmp_path, small_model, option):
        model_file = tmp_path / "model.json"
        model_file.write_text(json.dumps(small_model.to_dict()), encoding="utf-8")
        assert main([
            "evaluate", "--model", str(model_file), "--method", "montecarlo",
            "--set", f"{option}=1",
        ]) == 2
        error = capsys.readouterr().err
        assert UNKNOWN in error and error.strip().count("\n") == 0
