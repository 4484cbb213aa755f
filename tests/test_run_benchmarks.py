"""The ``benchmarks/run_benchmarks.py`` harness: alternated rounds and the ``--check`` gates.

The module is loaded by path and no workload runs: the rounds are fed fixed
measurements, and the gates read a synthetic record whose values are those
of a full ``--check`` run on a 2-vCPU container.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "run_benchmarks.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("run_benchmarks", PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fixed(order: list, name: str, seconds: list[float]):
    """A side that logs each call and returns the round's fixed seconds."""

    def run(index: int) -> dict:
        order.append((index, name))
        return {"seconds": seconds[index]}

    return run


class TestAlternate:
    def test_odd_rounds_reverse_the_side_order(self, bench):
        order = []
        sides = {name: _fixed(order, name, [1.0] * 4) for name in ("a", "b", "c")}
        runs = bench.alternate(sides, rounds=4)
        assert [name for _, name in order] == list("abccbaabccba")
        assert [index for index, _ in order] == [0] * 3 + [1] * 3 + [2] * 3 + [3] * 3
        assert {name: len(side) for name, side in runs.items()} == {"a": 4, "b": 4, "c": 4}

    def test_default_rounds(self, bench):
        assert bench.ROUNDS == 3
        order = []
        bench.alternate({"a": _fixed(order, "a", [1.0] * 3), "b": _fixed(order, "b", [1.0] * 3)})
        assert [name for _, name in order] == list("abbaab")

    def test_speedup_medians_and_spreads(self, bench):
        order = []
        runs = bench.alternate(
            {
                "fast": _fixed(order, "fast", [1.0, 2.0, 4.0]),
                "slow": _fixed(order, "slow", [3.0, 4.0, 6.0]),
            }
        )
        summary = bench.speedup(runs, "fast", "slow")
        assert summary["side"] == "fast" and summary["reference"] == "slow"
        assert summary["round_ratios"] == [3.0, 2.0, 1.5]
        assert summary["median_ratio"] == 2.0
        assert summary["seconds"] == {
            "fast": {"rounds": [1.0, 2.0, 4.0], "median": 2.0, "spread": 1.5},
            "slow": {"rounds": [3.0, 4.0, 6.0], "median": 4.0, "spread": 0.75},
        }
        # The median of the ratios, not the ratio of the medians.
        assert bench.speedup(runs, "slow", "fast")["median_ratio"] == 0.5


#: Round seconds of the engine pairs in a full ``--check`` run.
ENGINE_SECONDS = {
    "paired_streaming": [25.972, 25.646, 28.858],
    "paired": [24.295, 25.316, 28.584],
    "one_out_of_r": [7.821, 7.119, 7.376],
    "single": [4.054, 2.98, 3.024],
}

#: Per-block seconds of ``dispatch``'s five rounds (50 calls of ~2.4 ms).
DISPATCH_SECONDS = {
    "direct": [0.1192, 0.1205, 0.1188, 0.1199, 0.1210],
    "dispatched": [0.1215, 0.1230, 0.1201, 0.1219, 0.1226],
}


def _engine_records(bench, monkeypatch, slower: str | None = None) -> dict:
    """The engine records ``_run_alternated`` builds from fixed subprocess runs."""
    calls = {name: iter(seconds) for name, seconds in ENGINE_SECONDS.items()}

    def run_in_subprocess(name: str, quick: bool) -> dict:
        seconds = next(calls[name]) * (2.0 if name == slower else 1.0)
        replications = 10_000_000 if name.startswith("paired") else 2_000_000
        return {
            "replications": replications,
            "seconds": seconds,
            "replications_per_second": round(replications / seconds),
            "peak_rss_mb": 44.0,
        }

    monkeypatch.setattr(bench, "_run_in_subprocess", run_in_subprocess)
    records = {}
    for gated, reference in bench.ALTERNATED.items():
        records.update(bench._run_alternated(gated, reference, quick=False))
    return records


def _dispatch_record(bench, slower: str | None = None) -> dict:
    """``dispatch``'s gate fields from its rounds, derived as the workload derives them."""
    seconds = {
        side: [value * (2.0 if side == slower else 1.0) for value in values]
        for side, values in DISPATCH_SECONDS.items()
    }
    runs = bench.alternate(
        {side: lambda index, side=side: {"seconds": seconds[side][index]} for side in seconds},
        rounds=5,
    )
    summary = bench.speedup(runs, "direct", "dispatched")
    return {
        "overhead_percent": round((summary["median_ratio"] - 1.0) * 100.0, 2),
        "gate_rounds": {"overhead_percent": summary},
    }


def _record(bench, monkeypatch, slower: str | None = None) -> dict:
    """A full record with every gated value of a passing full ``--check`` run."""
    return {
        "workloads": {
            **_engine_records(bench, monkeypatch, slower),
            "convolution": {
                "pair": [
                    {"n": 200, "versions": 1, "width_0.99": 0.0041},
                    {"n": 200, "versions": 2, "width_0.99": 0.0007},
                ]
            },
            "study": {"warm_speedup": 168.9},
            "sweep1000": {
                "montecarlo_speedup": 16.14,
                "exact_speedup": 1.12,
                "exact_tail_shared_speedup": 1.84,
            },
            "service_throughput": {"speedup": 11.3, "warm_recomputed": 0},
            "cluster_loadgen": {"routed_speedup": 1.88, "cpus": 2, "warm_recomputed": 0},
            "chaos_soak": {
                "degraded_recomputed": 0,
                "replica_read_fallbacks": 75,
                "placement_restored": True,
                "slo_gate_passed": True,
                "fleet_rollup_matches": True,
            },
            "dispatch": _dispatch_record(bench, slower),
            "telemetry_overhead": {"overhead_percent": 0.00049, "spans_per_evaluate": 1},
            "telemetry_fleet_overhead": {
                "hot_path_percent": 0.07474,
                "hot_path_budget_percent": 5.0,
                "spans_dropped": 0,
                "scrape_cpu_percent": 0.067,
            },
            "cold_start": {
                "imports": {
                    module: {"scipy_loaded": False}
                    for module in ("repro.cli", "repro.studies", "repro.service.server",
                                   "repro.cluster.router")
                },
                "cli_vs_numpy_cpu_ratio": 0.37,
            },
        }
    }


class TestCheckRecord:
    def test_a_full_run_passes(self, bench, monkeypatch):
        record = _record(bench, monkeypatch)
        assert bench.check_record(record) == {}
        paired_streaming = record["workloads"]["paired_streaming"]
        assert paired_streaming["median_ratio"] == 0.987
        assert paired_streaming["round_ratios"] == [0.935, 0.987, 0.991]
        assert paired_streaming["gate_rounds"]["median_ratio"]["seconds"]["paired"]["rounds"] == (
            ENGINE_SECONDS["paired"]
        )
        assert record["workloads"]["dispatch"]["overhead_percent"] == 1.67

    def test_a_2x_slower_dispatched_side_fails_dispatch_overhead(self, bench, monkeypatch):
        failures = bench.check_record(_record(bench, monkeypatch, slower="dispatched"))
        assert list(failures) == ["dispatch overhead sane (< 25%)"]
        lines = failures["dispatch overhead sane (< 25%)"]
        assert lines[0].startswith("dispatch.overhead_percent = 1")
        assert any("round_ratios" in line for line in lines)
        assert any('"dispatched": {"rounds": [0.243' in line for line in lines)

    def test_a_2x_slower_streaming_side_fails_its_gate(self, bench, monkeypatch):
        failures = bench.check_record(_record(bench, monkeypatch, slower="paired_streaming"))
        assert list(failures) == ["paired_streaming >= 85% of paired throughput"]
        lines = failures["paired_streaming >= 85% of paired throughput"]
        assert lines[0] == "paired_streaming.median_ratio = 0.494"
        assert any('"paired_streaming": {"rounds": [51.944' in line for line in lines)

    def test_an_errored_workload_fails_with_its_error(self, bench, monkeypatch):
        record = _record(bench, monkeypatch)
        record["workloads"]["service_throughput"] = {"error": "Traceback: boom"}
        failures = bench.check_record(record)
        assert set(failures) == {
            "service_throughput burst >= 2x dense serial",
            "service_throughput warm pass recomputes nothing",
        }
        assert failures["service_throughput burst >= 2x dense serial"] == [
            "service_throughput: error: Traceback: boom"
        ]
