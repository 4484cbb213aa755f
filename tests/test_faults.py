"""Tests for the deterministic fault-injection registry."""

from __future__ import annotations

import ast
import os
import pathlib

import pytest

from repro import faults

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


@pytest.fixture(autouse=True)
def _clean_registry():
    """Every test starts and ends with nothing armed."""
    faults.clear()
    yield
    faults.clear()


class TestHit:
    def test_disarmed_hit_is_a_no_op(self):
        faults.hit("nowhere.registered")  # must not raise

    def test_armed_hit_raises_the_default_error(self):
        faults.inject("layer.op")
        with pytest.raises(faults.FaultInjected, match="failpoint 'layer.op' fired"):
            faults.hit("layer.op")

    def test_other_failpoints_stay_silent(self):
        faults.inject("layer.op")
        faults.hit("layer.other")  # armed name differs: no fire

    def test_custom_error_class_and_message(self):
        faults.inject("layer.op", error=ValueError, message="bad input")
        with pytest.raises(ValueError, match="bad input"):
            faults.hit("layer.op")

    def test_error_instance_carries_type_and_message(self):
        faults.inject("layer.op", error=OSError("disk gone"))
        with pytest.raises(OSError, match="disk gone"):
            faults.hit("layer.op")

    def test_error_name_resolves_builtins(self):
        faults.inject("layer.op", error="TimeoutError")
        with pytest.raises(TimeoutError):
            faults.hit("layer.op")


class TestSchedule:
    def test_every_fires_deterministically(self):
        faults.inject("layer.op", every=3)
        outcomes = []
        for _ in range(9):
            try:
                faults.hit("layer.op")
                outcomes.append("ok")
            except faults.FaultInjected:
                outcomes.append("fire")
        assert outcomes == ["ok", "ok", "fire"] * 3

    def test_times_bounds_the_firing(self):
        faults.inject("layer.op", times=2)
        fired = 0
        for _ in range(5):
            try:
                faults.hit("layer.op")
            except faults.FaultInjected:
                fired += 1
        assert fired == 2

    def test_reinjection_resets_the_counters(self):
        faults.inject("layer.op", times=1)
        with pytest.raises(faults.FaultInjected):
            faults.hit("layer.op")
        faults.hit("layer.op")  # exhausted
        faults.inject("layer.op", times=1)
        with pytest.raises(faults.FaultInjected):
            faults.hit("layer.op")

    def test_clear_one_leaves_the_rest_armed(self):
        faults.inject("layer.a")
        faults.inject("layer.b")
        faults.clear("layer.a")
        faults.hit("layer.a")
        with pytest.raises(faults.FaultInjected):
            faults.hit("layer.b")


class TestValidation:
    def test_rejects_bad_every_and_times(self):
        with pytest.raises(ValueError, match="every"):
            faults.inject("layer.op", every=0)
        with pytest.raises(ValueError, match="times"):
            faults.inject("layer.op", times=0)

    def test_rejects_a_non_exception_error(self):
        with pytest.raises(ValueError, match="exception class"):
            faults.inject("layer.op", error=42)

    def test_rejects_an_unknown_error_name(self):
        with pytest.raises(ValueError, match="unknown exception name"):
            faults.inject("layer.op", error="NoSuchError")


class TestEnvPropagation:
    """The exec seam: ``REPRO_FAULTS`` arms a process at import.

    A forked worker copies its parent's registry instead, so arming never
    writes the environment.
    """

    def test_inject_and_clear_leave_the_environment_untouched(self, monkeypatch):
        monkeypatch.delenv(faults.ENV_VAR, raising=False)
        before = dict(os.environ)
        faults.inject("worker.evaluate", error=RuntimeError, message="boom", every=3)
        assert dict(os.environ) == before
        faults.clear("worker.evaluate")
        assert dict(os.environ) == before
        faults.inject("worker.crash", crash=True)
        faults.clear()
        assert dict(os.environ) == before

    def test_no_module_writes_the_environment(self):
        def is_environ(node):
            return (isinstance(node, ast.Name) and node.id == "environ") or (
                isinstance(node, ast.Attribute) and node.attr == "environ"
            )

        def writes(node):
            if isinstance(node, (ast.Assign, ast.Delete)):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                method = node.func.attr
                return method in ("putenv", "unsetenv") or (
                    method in ("pop", "popitem", "update", "setdefault", "clear")
                    and is_environ(node.func.value)
                )
            else:
                return False
            return any(
                isinstance(target, ast.Subscript) and is_environ(target.value)
                for target in targets
            )

        paths = sorted(PACKAGE.rglob("*.py"))
        assert PACKAGE / "faults.py" in paths
        writers = [
            f"{path.relative_to(PACKAGE.parent)}:{node.lineno}"
            for path in paths
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if writes(node)
        ]
        assert writers == []

    def test_spec_round_trips_through_the_parser(self):
        faults.inject("worker.crash", crash=True, every=2, times=1)
        faults.inject("studies.point", error=ValueError, message="bad")
        parsed = faults._parse_spec(";".join(faults.active().values()))
        assert set(parsed) == {"worker.crash", "studies.point"}
        assert parsed["worker.crash"].crash is True
        assert parsed["worker.crash"].every == 2
        assert parsed["worker.crash"].times == 1
        assert parsed["studies.point"].error is ValueError
        assert parsed["studies.point"].message == "bad"

    def test_load_env_arms_a_fresh_process_registry(self, monkeypatch):
        # Simulate worker-process startup: empty registry, spec in the
        # environment, _load_env at import time.
        monkeypatch.setenv(faults.ENV_VAR, "worker.evaluate:error=RuntimeError,every=2")
        faults._registry.clear()
        faults._load_env()
        faults.hit("worker.evaluate")  # hit 1: silent
        with pytest.raises(RuntimeError):
            faults.hit("worker.evaluate")  # hit 2: fires

    def test_malformed_spec_fails_loudly(self):
        with pytest.raises(ValueError, match="bad failpoint entry"):
            faults._parse_spec("no-colon-directives")
        with pytest.raises(ValueError, match="unknown failpoint directive"):
            faults._parse_spec("layer.op:frequency=3")
        with pytest.raises(ValueError, match="must be positive"):
            faults._parse_spec("layer.op:every=0")

    def test_active_reports_specs(self):
        faults.inject("layer.op", every=4)
        assert faults.active() == {"layer.op": "layer.op:error=FaultInjected,every=4"}
