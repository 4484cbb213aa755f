"""Tests for the command-line interface."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core.fault_model import FaultModel


@pytest.fixture
def model_file(tmp_path, small_model: FaultModel) -> str:
    path = tmp_path / "model.json"
    path.write_text(json.dumps(small_model.to_dict()), encoding="utf-8")
    return str(path)


class TestScenariosCommand:
    def test_lists_builtin_scenarios(self, capsys):
        assert main(["scenarios"]) == 0
        output = capsys.readouterr().out
        assert "high-quality" in output
        assert "many-small-faults" in output
        assert "protection-system" in output

    def test_lists_descriptions_from_registry(self, capsys):
        from repro.experiments.scenarios import SCENARIOS

        assert main(["scenarios"]) == 0
        output = capsys.readouterr().out
        for entry in SCENARIOS.values():
            assert entry.description in output


class TestPmaxTableCommand:
    def test_default_table(self, capsys):
        assert main(["pmax-table"]) == 0
        output = capsys.readouterr().out
        assert "0.866" in output
        assert "0.3317" in output or "0.332" in output

    def test_custom_values(self, capsys):
        assert main(["pmax-table", "0.2"]) == 0
        output = capsys.readouterr().out
        assert f"{np.sqrt(0.2 * 1.2):.4f}" in output


class TestAssessCommand:
    def test_text_report_from_file(self, capsys, model_file):
        assert main(["assess", "--model", model_file]) == 0
        output = capsys.readouterr().out
        assert "Gain from diversity" in output

    def test_json_report_from_scenario(self, capsys):
        assert main(["assess", "--scenario", "high-quality", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["fault_count"] == 5
        assert data["one_out_of_two"]["mean_pfd"] < data["single_version"]["mean_pfd"]

    def test_custom_confidence(self, capsys, model_file):
        assert main(["assess", "--model", model_file, "--confidence", "0.9", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["confidence"] == 0.9

    def test_model_and_scenario_mutually_exclusive(self, model_file):
        with pytest.raises(SystemExit):
            main(["assess", "--model", model_file, "--scenario", "high-quality"])

    def test_requires_a_model_source(self):
        with pytest.raises(SystemExit):
            main(["assess"])


class TestGainCommand:
    def test_gain_json(self, capsys, model_file):
        assert main(["gain", "--model", model_file]) == 0
        data = json.loads(capsys.readouterr().out)
        assert 0.0 <= data["risk_ratio"] <= 1.0
        assert data["mean_ratio"] <= data["guaranteed_mean_ratio"] + 1e-12


class TestParser:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_module_entry_point(self):
        import subprocess
        import sys

        completed = subprocess.run(
            [sys.executable, "-m", "repro", "pmax-table", "0.01"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0
        assert "0.1005" in completed.stdout


class TestSimulateCommand:
    def test_simulate_json_summary(self, capsys, model_file):
        assert main(["simulate", "--model", model_file, "--replications", "5000", "--seed", "7"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["replications"] == 5000
        assert 0.0 <= data["risk_ratio"] <= 1.0
        assert data["mean_system"] <= data["mean_single"]

    def test_chunk_size_is_bitwise_identical(self, capsys, monkeypatch, model_file):
        from repro.montecarlo import engine

        arguments = ["simulate", "--model", model_file, "--replications", "4000", "--seed", "3"]
        assert main(arguments) == 0
        monolithic = json.loads(capsys.readouterr().out)
        monkeypatch.setattr(engine, "CHUNK_ROWS", 257)
        assert main(arguments) == 0
        chunked = json.loads(capsys.readouterr().out)
        assert monolithic == chunked

    def test_stream_mode(self, capsys, monkeypatch):
        from repro.montecarlo import engine

        monkeypatch.setattr(engine, "CHUNK_ROWS", 500)
        assert main([
            "simulate", "--scenario", "high-quality", "--replications", "2000",
            "--seed", "5", "--stream",
        ]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["replications"] == 2000
        assert 0.0 <= data["risk_ratio"] <= 1.0

    def test_rejects_bad_replications_with_exit_code(self, model_file, capsys):
        assert main(["simulate", "--model", model_file, "--replications", "0"]) == 2
        assert "error:" in capsys.readouterr().err


class TestErrorPaths:
    """Bad input must exit 2 with a one-line message, not a traceback."""

    def test_missing_model_file(self, capsys):
        assert main(["assess", "--model", "/no/such/model.json"]) == 2
        error = capsys.readouterr().err
        assert "error:" in error and "model.json" in error

    def test_malformed_model_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not valid json", encoding="utf-8")
        assert main(["gain", "--model", str(path)]) == 2
        error = capsys.readouterr().err
        assert "error:" in error and "not valid JSON" in error

    def test_invalid_model_content(self, tmp_path, capsys):
        path = tmp_path / "invalid.json"
        path.write_text(json.dumps({"p": [2.0], "q": [0.1]}), encoding="utf-8")
        assert main(["assess", "--model", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evaluate", "assess"])
    @pytest.mark.parametrize(
        "mutation, message",
        [
            ({"strict": "false"}, "'strict' must be a boolean, got 'false'"),
            ({"names": "xy"}, "'names' must be an array of strings, got str"),
            ({"p": ["0.05", 0.02]}, "'p' must be an array of numbers, got element '0.05'"),
        ],
    )
    def test_wrong_typed_model_content(self, tmp_path, capsys, command, mutation, message):
        path = tmp_path / "typed.json"
        path.write_text(json.dumps({"p": [0.05, 0.02], "q": [0.1, 0.1], **mutation}),
                        encoding="utf-8")
        arguments = [command, "--model", str(path)]
        if command == "evaluate":
            arguments += ["--method", "moments"]
        assert main(arguments) == 2
        assert capsys.readouterr().err.strip() == f"error: {message}"

    def test_model_missing_required_key(self, tmp_path, capsys):
        path = tmp_path / "incomplete.json"
        path.write_text(json.dumps({"p": [0.05]}), encoding="utf-8")  # no "q"
        assert main(["assess", "--model", str(path)]) == 2
        error = capsys.readouterr().err
        assert "error:" in error and "'q'" in error

    def test_model_wrong_json_shape(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[0.05, 0.02]", encoding="utf-8")  # valid JSON, not a dict
        assert main(["gain", "--model", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_model_and_scenario_mutually_exclusive_exit_code(self, model_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["assess", "--model", model_file, "--scenario", "high-quality"])
        assert excinfo.value.code == 2

    def test_unknown_command_exit_code(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2


class TestStudyCommand:
    @pytest.fixture
    def spec_file(self, tmp_path) -> str:
        spec = {
            "name": "cli-study",
            "base": {"scenario": "many-small-faults"},
            "sweep": {"grid": [{"name": "n", "values": [10, 20]}]},
            "methods": [{"name": "moments"}, {"name": "bounds"}],
            "seed": 3,
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        return str(path)

    def test_show_prints_plan(self, spec_file, capsys):
        assert main(["study", "show", spec_file]) == 0
        output = capsys.readouterr().out
        assert "cli-study" in output
        assert "points:      4" in output
        assert "moments" in output and "bounds" in output

    def test_run_writes_tables_and_uses_cache(self, spec_file, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        output_dir = str(tmp_path / "out")
        arguments = [
            "study", "run", spec_file,
            "--cache-dir", cache_dir, "--output-dir", output_dir, "--quiet",
        ]
        assert main(arguments) == 0
        cold = json.loads(capsys.readouterr().out)
        assert cold["points"] == 4
        assert cold["computed"] == 4
        table = (tmp_path / "out" / "cli-study.csv").read_bytes()
        assert main(arguments) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["computed"] == 0
        assert warm["cached"] == 4
        assert (tmp_path / "out" / "cli-study.csv").read_bytes() == table
        rows = json.loads((tmp_path / "out" / "cli-study.json").read_text(encoding="utf-8"))
        assert len(rows) == 4

    def test_run_missing_spec(self, capsys):
        assert main(["study", "run", "/no/such/spec.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_run_malformed_spec(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2", encoding="utf-8")
        assert main(["study", "run", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_run_wrong_shaped_spec(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")  # valid JSON, not an object
        assert main(["study", "run", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_run_rejects_unknown_format(self, spec_file, capsys):
        assert main(["study", "run", spec_file, "--formats", "parquet", "--quiet"]) == 2
        assert "parquet" in capsys.readouterr().err

    def test_run_rejects_empty_formats(self, spec_file, capsys):
        assert main(["study", "run", spec_file, "--formats", " , ", "--quiet"]) == 2
        assert "no table format" in capsys.readouterr().err

    @pytest.fixture
    def flaky_spec_file(self, tmp_path) -> str:
        # p_scale=50 pushes probabilities above 1 at evaluation time: one
        # deterministically failing point among healthy siblings.
        spec = {
            "name": "cli-keep-going",
            "base": {"scenario": "many-small-faults"},
            "sweep": {"grid": [{"name": "p_scale", "values": [1.0, 50.0]}]},
            "methods": [{"name": "moments"}],
            "seed": 3,
        }
        path = tmp_path / "flaky.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        return str(path)

    def test_failing_point_aborts_without_keep_going(self, flaky_spec_file, tmp_path, capsys):
        assert main([
            "study", "run", flaky_spec_file,
            "--output-dir", str(tmp_path / "out"), "--quiet",
        ]) == 2
        assert "evaluation(s) failed" in capsys.readouterr().err

    def test_keep_going_writes_typed_error_rows(self, flaky_spec_file, tmp_path, capsys):
        assert main([
            "study", "run", flaky_spec_file, "--keep-going",
            "--output-dir", str(tmp_path / "out"), "--quiet",
        ]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["keep_going"] is True
        assert summary["failed"] == 1
        rows = json.loads(
            (tmp_path / "out" / "cli-keep-going.json").read_text(encoding="utf-8")
        )
        assert len(rows) == 2
        failed = [row for row in rows if row.get("status") == "error"]
        assert len(failed) == 1
        assert failed[0]["error_type"] == "ValueError"

    def test_run_without_cache(self, spec_file, tmp_path, capsys):
        assert main([
            "study", "run", spec_file, "--cache-dir", "none",
            "--output-dir", str(tmp_path / "out"), "--quiet",
        ]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["cache_dir"] is None


class TestMethodsCommand:
    def test_lists_every_registered_method_with_schema(self, capsys):
        from repro.api import default_registry

        assert main(["methods"]) == 0
        output = capsys.readouterr().out
        for definition in default_registry():
            assert definition.name in output
            for option in definition.options:
                assert f"--set {option.name}=" in output

    def test_tail_quantile_is_listed(self, capsys):
        assert main(["methods"]) == 0
        assert "tail-quantile" in capsys.readouterr().out


class TestEvaluateCommand:
    def test_runs_a_registered_method(self, capsys, model_file):
        assert main([
            "evaluate", "--model", model_file, "--method", "moments",
        ]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["method"] == "moments"
        assert data["options"] == {"versions": 2}
        assert data["metrics"]["mean_system"] <= data["metrics"]["mean_single"]
        assert data["seed_entropy"] is None

    def test_tail_quantile_from_the_cli(self, capsys):
        assert main([
            "evaluate", "--scenario", "high-quality", "--method", "tail-quantile",
            "--set", "level=0.999", "--set", "threshold=1e-4",
        ]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["options"]["level"] == 0.999
        assert 0.0 <= data["metrics"]["tail_exceedance"] <= 1.0

    def test_montecarlo_seed_is_reproducible(self, capsys, model_file):
        arguments = [
            "evaluate", "--model", model_file, "--method", "montecarlo",
            "--set", "replications=2000", "--seed", "7",
        ]
        assert main(arguments) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(arguments) == 0
        second = json.loads(capsys.readouterr().out)
        assert first["metrics"] == second["metrics"]
        assert first["seed_entropy"] == [7]

    def test_null_option_value_parses(self, capsys):
        assert main([
            "evaluate", "--scenario", "high-quality", "--method", "exact",
            "--set", "max_support=null",
        ]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["options"]["max_support"] is None

    def test_unknown_method_exits_2(self, capsys, model_file):
        assert main(["evaluate", "--model", model_file, "--method", "frobnicate"]) == 2
        error = capsys.readouterr().err
        assert "error:" in error and "unknown method" in error
        assert error.strip().count("\n") == 0  # one line, no traceback

    def test_out_of_range_option_exits_2(self, capsys, model_file):
        assert main([
            "evaluate", "--model", model_file, "--method", "montecarlo",
            "--set", "replications=0",
        ]) == 2
        error = capsys.readouterr().err
        assert "error:" in error and "'replications' must be >= 1" in error

    def test_out_of_range_level_exits_2(self, capsys, model_file):
        assert main([
            "evaluate", "--model", model_file, "--method", "tail-quantile",
            "--set", "level=1.5",
        ]) == 2
        error = capsys.readouterr().err
        assert "error:" in error and "'level' must be <= 1" in error
        assert error.strip().count("\n") == 0

    def test_unknown_option_exits_2(self, capsys, model_file):
        assert main([
            "evaluate", "--model", model_file, "--method", "moments", "--set", "bogus=1",
        ]) == 2
        assert "does not accept option" in capsys.readouterr().err

    def test_wrong_option_type_exits_2(self, capsys, model_file):
        assert main([
            "evaluate", "--model", model_file, "--method", "exact", "--set", "level=high",
        ]) == 2
        assert "expects float" in capsys.readouterr().err

    def test_malformed_assignment_exits_2(self, capsys, model_file):
        assert main([
            "evaluate", "--model", model_file, "--method", "moments", "--set", "versions",
        ]) == 2
        assert "KEY=VALUE" in capsys.readouterr().err

    def test_malformed_model_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["evaluate", "--model", str(path), "--method", "moments"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_reserved_looking_option_name_exits_2_not_traceback(self, capsys, model_file):
        # "seed" collides with evaluate()'s own parameter; it must surface as
        # the registry's unknown-option error, not a TypeError traceback.
        assert main([
            "evaluate", "--model", model_file, "--method", "moments", "--set", "seed=5",
        ]) == 2
        assert "does not accept option 'seed'" in capsys.readouterr().err


class TestSimulateDeprecationShim:
    def test_emits_deprecation_warning_and_stderr_note(self, capsys, model_file):
        with pytest.warns(DeprecationWarning, match="legacy alias"):
            assert main([
                "simulate", "--model", model_file, "--replications", "1000", "--seed", "7",
            ]) == 0
        captured = capsys.readouterr()
        assert "legacy alias" in captured.err
        assert "evaluate --method montecarlo" in captured.err
        json.loads(captured.out)  # stdout stays pure JSON for consumers


class TestCacheCommand:
    @pytest.fixture
    def warm_cache(self, tmp_path) -> str:
        from repro.cache import ResultCache

        cache = ResultCache(tmp_path / "cache")
        for index in range(3):
            digest = f"{index:02x}" + "ab" * 31
            cache.store(digest, {"digest": digest, "payload": {}, "metrics": {"v": index}})
        return str(tmp_path / "cache")

    def test_info_reports_entries_bytes_and_path(self, warm_cache, capsys):
        assert main(["cache", "info", "--cache-dir", warm_cache]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["entries"] == 3
        assert data["bytes"] > 0
        assert data["exists"] is True
        assert data["path"].endswith("cache")

    def test_info_on_missing_directory_does_not_create_it(self, tmp_path, capsys):
        target = tmp_path / "never-created"
        assert main(["cache", "info", "--cache-dir", str(target)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {
            "path": str(target.resolve()), "entries": 0, "bytes": 0, "exists": False,
        }
        assert not target.exists()

    def test_clear_refused_without_yes(self, warm_cache, capsys):
        assert main(["cache", "clear", "--cache-dir", warm_cache]) == 2
        error = capsys.readouterr().err
        assert "refusing" in error and "--yes" in error and "3" in error
        assert main(["cache", "info", "--cache-dir", warm_cache]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 3

    def test_clear_with_yes_removes_entries(self, warm_cache, capsys):
        assert main(["cache", "clear", "--cache-dir", warm_cache, "--yes"]) == 0
        assert json.loads(capsys.readouterr().out)["removed"] == 3
        assert main(["cache", "info", "--cache-dir", warm_cache]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 0

    def test_clear_missing_directory_exits_2(self, tmp_path, capsys):
        assert main(["cache", "clear", "--cache-dir", str(tmp_path / "nope"), "--yes"]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_cache_dir_that_is_a_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "file.json"
        path.write_text("{}", encoding="utf-8")
        assert main(["cache", "info", "--cache-dir", str(path)]) == 2
        assert "not a directory" in capsys.readouterr().err

    def test_clear_leaves_foreign_files_alone(self, warm_cache, tmp_path, capsys):
        from pathlib import Path

        foreign = Path(warm_cache) / "README.txt"
        foreign.write_text("not a cache entry", encoding="utf-8")
        assert main(["cache", "clear", "--cache-dir", warm_cache, "--yes"]) == 0
        assert foreign.exists()


class TestServeCommand:
    """Argument validation: bad input exits 2 before any socket is bound."""

    def test_bad_port_exits_2(self, capsys):
        assert main(["serve", "--port", "0"]) == 2
        assert "port must be in 1..65535" in capsys.readouterr().err
        assert main(["serve", "--port", "70000"]) == 2
        assert "port" in capsys.readouterr().err

    def test_negative_workers_exits_2(self, capsys):
        assert main(["serve", "--port", "18099", "--workers", "-1"]) == 2
        assert "workers" in capsys.readouterr().err

    def test_negative_window_exits_2(self, capsys):
        assert main(["serve", "--port", "18099", "--batch-window-ms", "-5"]) == 2
        assert "batch_window_ms" in capsys.readouterr().err

    def test_bad_lru_size_exits_2(self, capsys):
        assert main(["serve", "--port", "18099", "--lru-size", "0"]) == 2
        assert "max_entries" in capsys.readouterr().err

    def test_bad_max_inflight_exits_2(self, capsys):
        assert main(["serve", "--port", "18099", "--max-inflight", "0"]) == 2
        assert "max_inflight" in capsys.readouterr().err

    def test_bad_max_queue_exits_2(self, capsys):
        assert main(["serve", "--port", "18099", "--max-queue", "-1"]) == 2
        assert "max_queue" in capsys.readouterr().err

    def test_negative_request_timeout_exits_2(self, capsys):
        assert main(["serve", "--port", "18099", "--request-timeout-ms", "-5"]) == 2
        assert "--request-timeout-ms must be >= 0" in capsys.readouterr().err

    def test_occupied_port_exits_2(self, capsys):
        import socket

        blocker = socket.socket()
        try:
            blocker.bind(("127.0.0.1", 0))
            port = blocker.getsockname()[1]
            assert main(["serve", "--port", str(port)]) == 2
            assert "cannot bind" in capsys.readouterr().err
        finally:
            blocker.close()
