"""Schema of ``BENCH_trajectory.json``, the append-only perf ledger.

Each entry records one change's alternated parent/change pairs on the
benchmark's workloads.  Every measurement names a workload and an
end-to-end metric that ``BENCHMARK.json`` declares, and carries the same
nine keys, so a later reader can compare entries without guessing.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LEDGER = json.loads((ROOT / "BENCH_trajectory.json").read_text(encoding="utf-8"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

MEASUREMENT_KEYS = {
    "workload",
    "metric",
    "seeds",
    "pairs",
    "parent_median",
    "change_median",
    "parent_iqr",
    "change_iqr",
    "pairs_won",
}
WORKLOADS = {workload["name"] for workload in BENCHMARK["workloads"]}
METRICS = {metric["name"] for metric in BENCHMARK["end_to_end"]}
#: PRs 19-21 were assembled by hand before the schema was fixed: they may
#: lack a date, and some of their measurements lack seeds, pairs or medians.
PRE_SCHEMA = {19, 20, 21}


def _measurements():
    return [
        pytest.param(entry, measurement, id=f"pr{entry['pr']}-{index}")
        for entry in LEDGER
        for index, measurement in enumerate(entry["measurements"])
    ]


def test_prs_strictly_increase():
    prs = [entry["pr"] for entry in LEDGER]
    assert all(isinstance(pr, int) for pr in prs), prs
    assert all(earlier < later for earlier, later in zip(prs, prs[1:])), prs


@pytest.mark.parametrize("entry", LEDGER, ids=lambda entry: f"pr{entry['pr']}")
def test_every_entry_is_dated_and_measured(entry):
    assert entry["measurements"]
    if entry["pr"] not in PRE_SCHEMA:
        assert entry["date"] is not None


@pytest.mark.parametrize("entry, measurement", _measurements())
def test_every_measurement_follows_the_schema(entry, measurement):
    assert set(measurement) == MEASUREMENT_KEYS
    assert measurement["workload"] in WORKLOADS
    assert measurement["metric"] in METRICS
    if measurement["seeds"] is not None:
        assert measurement["pairs"] == len(measurement["seeds"])
    if entry["pr"] not in PRE_SCHEMA:
        nulls = sorted(key for key in MEASUREMENT_KEYS if measurement[key] is None)
        assert not nulls, nulls


LAYER_KEYS = {"parent_median", "change_median", "parent_iqr", "change_iqr"}
LAYER_METRICS = {metric["name"] for metric in BENCHMARK["per_layer"]}


@pytest.mark.parametrize(
    "entry", [entry for entry in LEDGER if "layers" in entry], ids=lambda entry: f"pr{entry['pr']}"
)
def test_layers_name_workloads_and_per_layer_metrics(entry):
    """``benchmarks/pairs.py``'s traced runs: per workload, each layer's spread per side."""
    assert entry["layers"]
    for workload, layers in entry["layers"].items():
        assert workload in WORKLOADS
        assert layers
        for name, spread in layers.items():
            assert name in LAYER_METRICS
            assert set(spread) == LAYER_KEYS
            assert all(isinstance(value, (int, float)) for value in spread.values())
            assert spread["parent_iqr"] >= 0 and spread["change_iqr"] >= 0
