"""Load generator: seeded determinism, phase reports, cache-tier accounting."""

from __future__ import annotations

import pytest

from repro.cluster.loadgen import (
    LoadGenerator,
    build_workload,
    duplicate_schedule,
    run_loadgen,
)
from repro.service import EvaluationServer, start_in_background
from repro.service.protocol import parse_evaluate_payload


def _digests(payloads) -> list[str]:
    return [
        parse_evaluate_payload(
            {
                "model": item["model"].to_dict(),
                "method": item["method"],
                "options": item["options"],
                "seed": item["seed"],
                "p_scale": item["p_scale"],
            }
        ).digest()
        for item in payloads
    ]


class TestDeterminism:
    def test_same_seed_same_workload(self):
        first = build_workload(seed=7, distinct=6)
        second = build_workload(seed=7, distinct=6)
        assert _digests(first) == _digests(second)

    def test_different_seed_different_workload(self):
        assert _digests(build_workload(seed=7, distinct=6)) != _digests(
            build_workload(seed=8, distinct=6)
        )

    def test_payloads_are_distinct_groups(self):
        """Every payload its own digest: the shard-parallel guarantee."""
        payloads = build_workload(seed=3, distinct=8)
        keys = {
            parse_evaluate_payload(
                {
                    "model": item["model"].to_dict(),
                    "method": item["method"],
                    "options": item["options"],
                    "seed": item["seed"],
                }
            ).digest()
            for item in payloads
        }
        assert len(keys) == 8

    def test_duplicate_schedule_is_deterministic(self):
        payloads = build_workload(seed=7, distinct=8)
        first = duplicate_schedule(7, payloads, factor=3)
        second = duplicate_schedule(7, payloads, factor=3)
        assert [id(item) for item in first] == [id(item) for item in second] or [
            item["seed"] for item in first
        ] == [item["seed"] for item in second]
        # A quarter of the payloads, repeated `factor` times each.
        assert len(first) == 2 * 3
        subset = {item["seed"] for item in payloads[:2]}
        assert {item["seed"] for item in first} == subset

    def test_validation(self):
        with pytest.raises(ValueError):
            build_workload(seed=0, distinct=0)
        with pytest.raises(ValueError):
            LoadGenerator(rate=0.0)
        with pytest.raises(ValueError):
            LoadGenerator(workers=0)


class TestAgainstLiveServer:
    def test_standard_run_report_shape_and_cache_accounting(self):
        server = EvaluationServer()
        with start_in_background(server) as handle:
            record = run_loadgen(
                port=handle.port,
                seed=5,
                distinct=4,
                duplicate_factor=3,
                rate=500.0,
                workers=4,
                replications=200,
                n_faults=10,
            )
        assert [phase["phase"] for phase in record["phases"]] == [
            "cold",
            "warm",
            "duplicates",
        ]
        cold, warm, duplicates = record["phases"]
        for phase in (cold, warm, duplicates):
            assert phase["errors"] == 0
            assert phase["throughput_rps"] > 0
            assert set(phase["latency_ms"]) == {"p50", "p95", "p99", "max"}
            assert phase["latency_ms"]["p50"] is not None
            assert sum(phase["served"].values()) == phase["requests"]
        assert cold["served"]["computed"] == 4
        # Warm phase: everything from the server's LRU, nothing recomputed.
        assert warm["served"]["lru"] == 4
        assert warm["served"]["computed"] == 0
        assert duplicates["served"]["computed"] == 0
        assert server.registry["evaluations_computed"] == 4

    def test_phase_subset_and_unknown_phase(self):
        server = EvaluationServer()
        with start_in_background(server) as handle:
            record = run_loadgen(
                port=handle.port,
                seed=5,
                distinct=2,
                replications=200,
                n_faults=10,
                rate=500.0,
                phases=("cold",),
            )
            assert len(record["phases"]) == 1
            with pytest.raises(ValueError):
                run_loadgen(port=handle.port, phases=("tepid",))

    def test_errors_are_counted_not_raised(self):
        """A saturated or failing endpoint shows up in the report, the
        generator itself keeps going (open loop)."""
        server = EvaluationServer()
        with start_in_background(server) as handle:
            generator = LoadGenerator(port=handle.port, rate=500.0, workers=2)
            bad = [
                {
                    "model": build_workload(seed=1, distinct=1)[0]["model"],
                    "method": "no-such-method",
                    "options": {},
                    "seed": 1,
                }
            ]
            try:
                report = generator.run_phase("cold", bad)
            finally:
                generator.close()
        assert report["errors"] == 1
        assert report["error_statuses"] == {"400": 1}
        assert report["served"]["computed"] == 0
