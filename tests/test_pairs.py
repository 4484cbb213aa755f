"""The ledger writer ``benchmarks/pairs.py``: its pure summary of paired runs.

The module is loaded by path and runs nothing: :func:`summarize` is fed a
fixed fixture of ten pairs, so its figures can be checked by hand, and
:func:`measure` runs against a stand-in for ``run_side``.
"""

from __future__ import annotations

import importlib.util
import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SEEDS = list(range(11, 21))
#: Ten (parent, change) pairs: the change is lower in 6, higher in 2 and
#: tied in 2 (seeds 13 and 18).
PARENT = [6.30, 6.10, 5.90, 6.60, 6.20, 7.00, 6.40, 6.00, 6.50, 6.80]
CHANGE = [6.10, 6.00, 5.90, 6.70, 6.00, 6.50, 6.60, 6.00, 6.20, 6.40]


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("pairs", ROOT / "benchmarks" / "pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_summary_of_a_fixed_fixture(pairs):
    measurement = pairs.summarize("cold_mix", "cpu_ms_per_op", "lower", SEEDS, PARENT, CHANGE)
    assert measurement == {
        "workload": "cold_mix",
        "metric": "cpu_ms_per_op",
        "seeds": SEEDS,
        "pairs": 10,
        # Sorted parent: 5.9 6.0 6.1 6.2 6.3 | 6.4 6.5 6.6 6.8 7.0; exclusive
        # quartiles at ranks 2.75 and 8.25: 6.075 and 6.65.
        "parent_median": 6.35,
        "change_median": 6.15,
        "parent_iqr": 0.575,
        "change_iqr": 0.525,
        "pairs_won": 6,
    }
    # Quartiles are statistics.quantiles(n=4), as perfbench's spread reads them.
    q1, _, q3 = statistics.quantiles(PARENT, n=4)
    assert measurement["parent_iqr"] == round(q3 - q1, 4)


def test_higher_is_better_flips_the_winner_and_ties_count_for_neither(pairs):
    won = pairs.summarize("cold_mix", "cpu_ms_per_op", "higher", SEEDS, PARENT, CHANGE)
    assert won["pairs_won"] == 2
    tied = pairs.summarize("study_sweep", "setup_s", "lower", SEEDS[:2], [1.0, 2.0], [1.0, 2.0])
    assert tied["pairs_won"] == 0


def test_summary_matches_the_ledger_schema(pairs):
    from test_bench_trajectory import MEASUREMENT_KEYS

    measurement = pairs.summarize("study_sweep", "peak_rss_mb", "lower", SEEDS, PARENT, CHANGE)
    assert set(measurement) == MEASUREMENT_KEYS
    assert json.loads(json.dumps(measurement)) == measurement


@pytest.mark.parametrize("seeds, parent, change, better", [
    (SEEDS, PARENT, CHANGE[:-1], "lower"),
    (SEEDS[:1], PARENT[:1], CHANGE[:1], "lower"),
    (SEEDS, PARENT, CHANGE, "smaller"),
])
def test_rejects_unpaired_or_unnamed_input(pairs, seeds, parent, change, better):
    with pytest.raises(ValueError):
        pairs.summarize("cold_mix", "setup_s", better, seeds, parent, change)


def test_layers_keep_each_metric_nonzero_on_either_side(pairs):
    from test_bench_trajectory import LAYER_KEYS

    parent = [{"kernel.exact_us.p50": us, "router.failovers": 0.0} for us in (900, 1000, 1100)]
    change = [{"kernel.exact_us.p50": us, "router.failovers": 0.0} for us in (400, 500, 700)]
    change[0]["shard.rejected"] = 1.0
    names = ["kernel.exact_us.p50", "router.failovers", "shard.rejected"]
    layers = pairs.summarize_layers(names, parent, change)
    assert list(layers) == ["kernel.exact_us.p50", "shard.rejected"]
    assert set(layers["kernel.exact_us.p50"]) == LAYER_KEYS
    # Exclusive quartiles of three values are the two outer ones.
    assert layers["kernel.exact_us.p50"] == {
        "parent_median": 1000, "change_median": 500, "parent_iqr": 200, "change_iqr": 300,
    }
    assert layers["shard.rejected"]["parent_median"] == 0.0


def test_traced_runs_follow_every_untraced_pair(pairs, monkeypatch):
    """``measure`` runs all workloads' untraced pairs, as before the layers
    existed, and only then ``TRACED`` traced runs per side and workload."""
    calls = []

    def run_side(tree, workload, seed, trace=0):
        calls.append((workload, seed, trace))
        side = 1.0 if tree == pairs.ROOT else 2.0
        values = {"setup_s": side, "cpu_ms_per_op": side, "peak_rss_mb": side}
        if trace:
            values["kernel.exact_us.p50"] = 100 * side
        return values

    monkeypatch.setattr(pairs, "run_side", run_side)
    benchmark = {
        "workloads": [{"name": "cold_mix"}, {"name": "study_sweep"}],
        "end_to_end": [{"name": name, "better": "lower"}
                       for name in ("setup_s", "cpu_ms_per_op", "peak_rss_mb")],
        "per_layer": [{"name": "kernel.exact_us.p50"}, {"name": "router.failovers"}],
    }
    measurements, layers = pairs.measure(Path("parent"), benchmark)
    untraced = 2 * 2 * len(pairs.SEEDS)
    assert [trace for _, _, trace in calls] == [0] * untraced + [1] * 2 * 2 * pairs.TRACED
    assert [workload for workload, _, trace in calls if trace] == (
        ["cold_mix"] * 2 * pairs.TRACED + ["study_sweep"] * 2 * pairs.TRACED
    )
    assert len(measurements) == 6 and all(m["pairs_won"] == 10 for m in measurements)
    assert set(layers) == {"cold_mix", "study_sweep"}
    for spread in layers.values():
        assert list(spread) == ["kernel.exact_us.p50"]
        assert spread["kernel.exact_us.p50"]["change_median"] == 100
