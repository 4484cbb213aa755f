"""The overhead contract: telemetry must never change a computed result.

With tracing armed and metrics recording, every evaluation must produce
byte-identical canonical JSON and the exact same content-addressed cache
digests as with telemetry fully disabled.  Instrumentation that consumed a
seeded RNG draw, reordered work, or leaked into a payload would show up
here as a digest mismatch.
"""

from __future__ import annotations

import json

import pytest

from repro import telemetry
from repro.api import evaluate, evaluate_sweep
from repro.cache import canonical_json
from repro.experiments.scenarios import many_small_faults_scenario
from repro.studies import StudySpec, run_study
from repro.telemetry import tracing


@pytest.fixture(autouse=True)
def _clean_telemetry():
    tracing.disable()
    yield
    tracing.disable()


def _stable_bytes(result) -> str:
    payload = {
        key: value
        for key, value in result.to_dict().items()
        if key != "elapsed_seconds"
    }
    return canonical_json(payload)


def _study_spec() -> StudySpec:
    return StudySpec.from_dict(
        {
            "name": "determinism-probe",
            "base": {"scenario": "many-small-faults"},
            "sweep": {"grid": [{"name": "p_scale", "values": [0.5, 1.0]}]},
            "methods": [
                {"name": "moments"},
                {"name": "montecarlo", "replications": 2000},
            ],
            "seed": 321,
        }
    )


class TestResultBytes:
    def test_seeded_montecarlo_bytes_identical_with_tracing_on(self):
        model = many_small_faults_scenario(n=50)
        baseline = _stable_bytes(evaluate(model, "montecarlo", seed=7, replications=3000))

        events: list[dict] = []
        tracing.configure(sink=events.append)
        traced = _stable_bytes(evaluate(model, "montecarlo", seed=7, replications=3000))
        assert traced == baseline
        assert events, "tracing was armed but the kernel emitted no spans"

    def test_sweep_bytes_identical_with_tracing_on(self):
        model = many_small_faults_scenario(n=50)
        variations = [{"p_scale": scale} for scale in (0.25, 1.0)]
        baseline = [
            _stable_bytes(result)
            for result in evaluate_sweep(model, "montecarlo", variations, seed=9, replications=2000)
        ]
        tracing.configure(sink=lambda event: None)
        traced = [
            _stable_bytes(result)
            for result in evaluate_sweep(model, "montecarlo", variations, seed=9, replications=2000)
        ]
        assert traced == baseline

    def test_metrics_recording_does_not_perturb_exact_results(self):
        model = many_small_faults_scenario(n=50)
        baseline = _stable_bytes(evaluate(model, "exact", max_support=512))
        registry = telemetry.MetricsRegistry()
        registry.observe("kernel_seconds", 0.001)
        with_metrics = _stable_bytes(evaluate(model, "exact", max_support=512))
        assert with_metrics == baseline


class TestCacheDigests:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_study_cache_digests_identical_with_tracing_on(self, tmp_path, jobs):
        """Same spec, traced and untraced: same records, same digest set."""
        plain = run_study(_study_spec(), cache_dir=tmp_path / "plain", jobs=jobs)

        tracing.configure(tmp_path / "study.trace.jsonl")
        traced = run_study(_study_spec(), cache_dir=tmp_path / "traced", jobs=jobs)
        tracing.disable()

        assert traced.records == plain.records
        digests = lambda root: sorted(
            line.split(" ", 1)[0]
            for segment in root.glob("segment-*.log")
            for line in segment.read_text(encoding="utf-8").splitlines()
        )
        assert digests(tmp_path / "traced") == digests(tmp_path / "plain")
        assert len(digests(tmp_path / "plain")) == len(plain.records)

        events = [
            json.loads(line)
            for line in (tmp_path / "study.trace.jsonl").read_text().splitlines()
        ]
        names = {event["name"] for event in events}
        # Group spans come home from pool workers in their tasks' replies.
        assert {
            "study.plan", "study.cache_probe", "study.group", "study.dispatch", "study.aggregate"
        } <= names
