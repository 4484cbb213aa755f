"""Tests for the study runner: caching, invalidation, parallelism, seeding."""

from __future__ import annotations

import copy
import json

import pytest

from repro.studies import StudySpec, plan_study, point_seed_entropy, run_study


def base_spec_dict() -> dict:
    return {
        "name": "runner-study",
        "base": {"scenario": "many-small-faults"},
        "sweep": {
            "grid": [
                {"name": "n", "values": [10, 20]},
                {"name": "p_scale", "values": [0.5, 1.0]},
            ]
        },
        "methods": [
            {"name": "moments"},
            {"name": "montecarlo", "replications": 500},
        ],
        "seed": 42,
    }


@pytest.fixture
def spec() -> StudySpec:
    return StudySpec.from_dict(base_spec_dict())


def table_bytes(result, tmp_path, label):
    directory = tmp_path / label
    paths = result.save(directory)
    return {fmt: paths[fmt].read_bytes() for fmt in ("json", "jsonl", "csv")}


def evicted_copy(spec, cache_dir, evicted, target) -> str:
    """``target`` holding ``cache_dir``'s entries for ``spec`` but the ``evicted``
    digests, copied through ``load`` and ``store``."""
    from repro.studies import ResultCache

    source, kept = ResultCache(cache_dir), ResultCache(target)
    for digest in {entry.digest for entry in plan_study(spec)} - set(evicted):
        entry = source.load(digest)
        kept.store(digest, entry["payload"], entry["metrics"])
    return str(target)


class TestRunStudy:
    def test_produces_one_record_per_point(self, spec, tmp_path):
        result = run_study(spec, cache_dir=str(tmp_path / "cache"))
        assert len(result) == spec.point_count == 8
        assert result.summary["computed"] == 8
        assert result.summary["cached"] == 0
        methods = {record["method"] for record in result.records}
        assert methods == {"moments", "montecarlo"}

    def test_warm_run_recomputes_nothing_and_is_byte_identical(self, spec, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = run_study(spec, cache_dir=cache_dir)
        warm = run_study(spec, cache_dir=cache_dir)
        assert warm.summary["computed"] == 0
        assert warm.summary["cached"] == cold.summary["computed"]
        assert warm.records == cold.records
        assert table_bytes(cold, tmp_path, "cold") == table_bytes(warm, tmp_path, "warm")

    def test_axis_edit_recomputes_only_new_points(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        data = base_spec_dict()
        cold = run_study(StudySpec.from_dict(data), cache_dir=cache_dir)
        edited = copy.deepcopy(data)
        edited["sweep"]["grid"][1]["values"] = [0.5, 1.0, 1.5]  # one new p_scale
        incremental = run_study(StudySpec.from_dict(edited), cache_dir=cache_dir)
        assert incremental.summary["points"] == 12
        assert incremental.summary["cached"] == cold.summary["computed"]
        # only the 2 (n) x 1 (new p_scale) x 2 (methods) new points ran
        assert incremental.summary["computed"] == 4
        # the surviving rows are exactly the cold rows
        cold_ids = {record["point_id"] for record in cold.records}
        reused = [r for r in incremental.records if r["point_id"] in cold_ids]
        assert sorted(json.dumps(r, sort_keys=True) for r in reused) == sorted(
            json.dumps(r, sort_keys=True) for r in cold.records
        )

    def test_study_rename_does_not_invalidate(self, spec, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_study(spec, cache_dir=cache_dir)
        renamed = StudySpec.from_dict({**base_spec_dict(), "name": "other-name"})
        warm = run_study(renamed, cache_dir=cache_dir)
        assert warm.summary["computed"] == 0

    def test_seed_change_invalidates_only_stochastic_methods(self, spec, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_study(spec, cache_dir=cache_dir)
        reseeded = StudySpec.from_dict({**base_spec_dict(), "seed": 43})
        rerun = run_study(reseeded, cache_dir=cache_dir)
        # montecarlo consumes the seed (4 points recomputed); moments does not.
        assert rerun.summary["computed"] == 4
        assert rerun.summary["cached"] == 4

    def test_parallel_equals_sequential(self, spec, tmp_path):
        sequential = run_study(spec, cache_dir=str(tmp_path / "c1"), jobs=1)
        parallel = run_study(spec, cache_dir=str(tmp_path / "c2"), jobs=3)
        assert parallel.records == sequential.records

    def test_no_cache_dir_disables_caching(self, spec):
        result = run_study(spec, cache_dir=None)
        assert result.summary["computed"] == result.summary["evaluations"]
        assert result.summary["cache_dir"] is None

    def test_force_recomputes_but_matches_cache(self, spec, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = run_study(spec, cache_dir=cache_dir)
        forced = run_study(spec, cache_dir=cache_dir, force=True)
        assert forced.summary["computed"] == cold.summary["computed"]
        assert forced.records == cold.records

    def test_progress_callback_sees_every_evaluation(self, spec, tmp_path):
        calls = []
        run_study(
            spec,
            cache_dir=str(tmp_path / "cache"),
            progress=lambda done, total, computed: calls.append((done, total, computed)),
        )
        assert calls[-1][0] == calls[-1][1]

    def test_invalid_jobs_rejected(self, spec):
        with pytest.raises(ValueError, match="jobs"):
            run_study(spec, jobs=0)

    def test_bad_axis_fails_before_any_evaluation(self, tmp_path):
        data = base_spec_dict()
        data["sweep"]["grid"].append({"name": "bogus_knob", "values": [1]})
        with pytest.raises(ValueError, match="bogus_knob"):
            run_study(StudySpec.from_dict(data), cache_dir=str(tmp_path / "cache"))
        assert not (tmp_path / "cache").exists() or not any((tmp_path / "cache").iterdir())


class TestBatchedDispatch:
    def test_groups_points_by_batchable_axis(self, spec, tmp_path):
        # 2 n-values x 2 methods = 4 groups; the p_scale axis batches away.
        result = run_study(spec, cache_dir=str(tmp_path / "cache"))
        assert "batch" not in result.summary
        assert result.summary["dispatched_tasks"] == 4
        assert result.summary["computed"] == 8

    def test_batch_switch_is_gone(self, spec, tmp_path):
        # One dispatch path: there is no per-point mode to select.
        with pytest.raises(TypeError):
            run_study(spec, batch=False)
        with pytest.raises(TypeError):
            run_study(spec, batch=True)

    def test_correlated_montecarlo_spreads_over_jobs(self, tmp_path, monkeypatch):
        # A correlated sweep shares no sampled world, so its group is chunked
        # across the workers like a deterministic bundle; every point keeps
        # its digest-keyed stream, so it equals a lone evaluation.
        import os

        from repro import evaluate
        from repro.experiments.scenarios import get_scenario

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        data = base_spec_dict()
        data["sweep"]["grid"] = [
            {"name": "p_scale", "values": [0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0]}
        ]
        data["methods"] = [{"name": "montecarlo", "replications": 500, "correlation": 0.3}]
        spec = StudySpec.from_dict(data)
        result = run_study(spec, cache_dir=str(tmp_path / "cache"), jobs=2)
        assert result.summary["computed"] == 8
        assert result.summary["dispatched_tasks"] >= 2
        model = get_scenario("many-small-faults")
        for entry, row in zip(plan_study(spec), result.records):
            lone = evaluate(
                model.rescaled(p_scale=row["p_scale"]),
                "montecarlo",
                seed=point_seed_entropy(spec, entry.digest),
                replications=500,
                correlation=0.3,
            ).metric_dict()
            assert {key: row[key] for key in lone} == lone

    def test_batched_results_do_not_depend_on_grouping(self, tmp_path):
        # A point computed in a smaller group must equal the same point
        # computed in a full cold group, bit for bit: group streams are
        # content-keyed and a point reads only its own levels of the nested
        # world, in an order fixed by the replication count.
        data = base_spec_dict()
        cold = run_study(StudySpec.from_dict(data), cache_dir=str(tmp_path / "c1"))
        trimmed = copy.deepcopy(data)
        trimmed["sweep"]["grid"][1]["values"] = [0.5]  # drop the 1.0 point
        partial = run_study(StudySpec.from_dict(trimmed), cache_dir=str(tmp_path / "c2"))
        cold_rows = {row["point_id"]: row for row in cold.records}
        compared = 0
        for row in partial.records:
            if row["method"] != "montecarlo":
                continue
            sibling = cold_rows[row["point_id"]]
            assert set(row) == set(sibling)
            for key, value in row.items():
                assert value == sibling[key], key
            compared += 1
        assert compared == 2

    def test_partially_cached_group_reproduces_cold_values(self, tmp_path):
        # Recomputing one evicted Monte Carlo point on its own must
        # reproduce its cold value exactly, also past a power of two
        # (p_scale 3.0 reads nested levels 0-2, its sibling 1.5 levels 0-1).
        data = base_spec_dict()
        data["sweep"]["grid"][1]["values"] = [1.5, 3.0]
        spec = StudySpec.from_dict(data)
        cache_dir = tmp_path / "cache"
        cold = run_study(spec, cache_dir=str(cache_dir))
        # Evict exactly one montecarlo point's cache entry.
        evicted = next(
            entry for entry in plan_study(spec)
            if entry.point.method.name == "montecarlo"
            and entry.point.param_dict()["p_scale"] == 3.0
        )
        cache_dir = evicted_copy(spec, cache_dir, [evicted.digest], tmp_path / "evicted")
        partial = run_study(spec, cache_dir=str(cache_dir))
        assert partial.summary["computed"] == 1
        assert partial.records == cold.records

    def test_evicted_point_is_swept_alone(self, tmp_path, monkeypatch):
        # A Monte Carlo group carries only its cache misses: the kernel sees
        # the evicted point and none of its cached siblings.
        from repro.montecarlo import sweep

        data = base_spec_dict()
        data["sweep"]["grid"][1]["values"] = [0.5, 1.0, 2.0]
        spec = StudySpec.from_dict(data)
        cache_dir = tmp_path / "cache"
        cold = run_study(spec, cache_dir=str(cache_dir))
        evicted = next(
            entry for entry in plan_study(spec)
            if entry.point.method.name == "montecarlo"
            and entry.point.param_dict() == {"n": 10, "p_scale": 1.0}
        )
        cache_dir = evicted_copy(spec, cache_dir, [evicted.digest], tmp_path / "evicted")
        swept = []
        original = sweep.simulate_scaled_sweep

        def recording(model, replications, variations, *args, **kwargs):
            swept.append([dict(variation) for variation in variations])
            return original(model, replications, variations, *args, **kwargs)

        monkeypatch.setattr(sweep, "simulate_scaled_sweep", recording)
        partial = run_study(spec, cache_dir=str(cache_dir))
        assert partial.summary["computed"] == 1
        assert swept == [[{"p_scale": 1.0, "q_scale": 1.0}]]
        assert partial.records == cold.records

    def test_extending_a_warm_sweep_equals_a_cold_run(self, tmp_path):
        # Extending a warm Monte Carlo axis past a power of two computes
        # only the new points, and the table equals a cold run of the
        # extended spec: the cached points do not depend on their siblings.
        data = base_spec_dict()
        data["methods"] = [{"name": "montecarlo", "replications": 4000}]
        data["seed"] = 11
        cache_dir = str(tmp_path / "cache")
        run_study(StudySpec.from_dict(data), cache_dir=cache_dir)
        data["sweep"]["grid"][1]["values"] = [0.5, 1.0, 2.0]
        extended = StudySpec.from_dict(data)
        warm = run_study(extended, cache_dir=cache_dir)
        cold = run_study(extended, cache_dir=str(tmp_path / "cold"))
        assert warm.summary["computed"] == 2
        assert warm.records == cold.records

    def test_exact_groups_match_per_point_evaluate(self, tmp_path):
        from repro import evaluate
        from repro.experiments.scenarios import get_scenario

        data = base_spec_dict()
        data["methods"] = [{"name": "exact"}, {"name": "tail-quantile"}]
        spec = StudySpec.from_dict(data)
        grouped = run_study(spec, cache_dir=str(tmp_path / "grouped"), jobs=2)
        for row in grouped.records:
            model = get_scenario("many-small-faults", n=row["n"]).rescaled(p_scale=row["p_scale"])
            lone = evaluate(model, row["method"]).metric_dict()
            assert {key: row[key] for key in lone} == lone
            assert set(row) == {"point_id", "method", "n", "p_scale", *lone}

    def test_partially_cached_exact_group_computes_only_misses(self, tmp_path, monkeypatch):
        # Exact groups carry only their cache misses: a swept exact record
        # is its per-point record, so cached siblings are never recomputed.
        from repro.stats import batched

        data = base_spec_dict()
        data["methods"] = [{"name": "exact"}]
        spec = StudySpec.from_dict(data)
        cache_dir = tmp_path / "cache"
        cold = run_study(spec, cache_dir=str(cache_dir))
        evicted = plan_study(spec)[0]
        cache_dir = evicted_copy(spec, cache_dir, [evicted.digest], tmp_path / "evicted")
        swept = []
        original = batched.batched_scaled_pfd

        def counting(model, p_scales, *args, **kwargs):
            swept.extend(p_scales)
            return original(model, p_scales, *args, **kwargs)

        monkeypatch.setattr(batched, "batched_scaled_pfd", counting)
        partial = run_study(spec, cache_dir=str(cache_dir))
        assert partial.summary["computed"] == 1
        assert partial.summary["dispatched_tasks"] == 1
        assert swept == [evicted.point.param_dict()["p_scale"]]
        assert partial.records == cold.records

    def test_cli_no_batch_flag_is_gone(self, tmp_path, capsys):
        from repro.cli import main

        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(base_spec_dict()), encoding="utf-8")
        arguments = [
            "study", "run", str(spec_file),
            "--cache-dir", str(tmp_path / "cache"),
            "--output-dir", str(tmp_path / "out"),
            "--quiet", "--no-batch",
        ]
        with pytest.raises(SystemExit) as excinfo:
            main(arguments)
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --no-batch" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()



def shared_spec_dict() -> dict:
    """Four point models, each read by ``exact`` at two levels and ``tail-quantile``."""
    data = base_spec_dict()
    data["sweep"]["grid"].append({"name": "level", "values": [0.99, 0.999]})
    data["methods"] = [{"name": "exact"}, {"name": "tail-quantile"}]
    return data


@pytest.fixture
def convolutions(tmp_path, monkeypatch):
    """Log every exact-distribution kernel run to a file, pool workers included.

    Returns a function reading the logged runs as ``n p-digest reach`` lines.
    """
    import hashlib

    from repro.core import pfd_distribution

    log = tmp_path / "convolutions.log"
    log.touch()
    original = pfd_distribution.bracket_two_points

    def logging(values, probabilities, *args, **kwargs):
        with open(log, "a", encoding="utf-8") as handle:
            digest = hashlib.sha256(probabilities.tobytes()).hexdigest()[:16]
            handle.write(f"{values.size} {digest} {kwargs.get('reach')}\n")
        return original(values, probabilities, *args, **kwargs)

    monkeypatch.setattr(pfd_distribution, "bracket_two_points", logging)
    return lambda: log.read_text(encoding="utf-8").splitlines()


class TestSharedDistributions:
    """One exact PFD distribution per point model and study task."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_each_point_model_is_convolved_once(self, tmp_path, convolutions, jobs):
        spec = StudySpec.from_dict(shared_spec_dict())
        result = run_study(spec, cache_dir=str(tmp_path / "cache"), jobs=jobs)
        assert result.summary["computed"] == 16
        runs = convolutions()
        assert len(runs) == len(set(runs))
        reaches = {}
        for run in runs:
            n, digest, reach = run.split()
            reaches.setdefault((int(n), digest), []).append(reach)
        assert len(reaches) == 4
        # One run per (point model, reach): levels 0.99 and 0.999 read
        # reaches 0.99 and 0.999.  An n=10 model fits ``max_support`` and is
        # folded exactly, which does not depend on the reach: one run.
        for (n, _), read in reaches.items():
            if n == 20:
                assert sorted(read) == ["0.99", "0.999"]
            else:
                assert len(read) == 1

    def test_records_equal_lone_evaluate(self, tmp_path):
        from repro import evaluate
        from repro.experiments.scenarios import get_scenario

        spec = StudySpec.from_dict(shared_spec_dict())
        shared = run_study(spec, cache_dir=str(tmp_path / "shared"), jobs=2)
        metric_names = {
            "exact": lambda name: name.startswith("exact_"),
            "tail-quantile": lambda name: name.startswith("tail_"),
        }
        for row in shared.records:
            model = get_scenario("many-small-faults", n=row["n"]).rescaled(p_scale=row["p_scale"])
            lone = evaluate(model, row["method"], level=row["level"]).metric_dict()
            metrics = {key: value for key, value in row.items() if metric_names[row["method"]](key)}
            assert json.dumps(metrics, sort_keys=True) == json.dumps(lone, sort_keys=True)

    def test_partly_warm_cache_computes_each_missing_distribution_once(
        self, tmp_path, convolutions
    ):
        spec = StudySpec.from_dict(shared_spec_dict())
        cache_dir = tmp_path / "cache"
        cold = run_study(spec, cache_dir=str(cache_dir))
        planned = plan_study(spec)

        def entry(method, n, level):
            return next(
                item for item in planned
                if item.point.method.name == method
                and item.point.param_dict() == {"n": n, "p_scale": 0.5, "level": level}
            )

        evicted = [entry("exact", 10, 0.99), entry("tail-quantile", 10, 0.999),
                   entry("tail-quantile", 20, 0.99)]
        cache_dir = evicted_copy(
            spec, cache_dir, [item.digest for item in evicted], tmp_path / "evicted"
        )
        before = len(convolutions())
        partial = run_study(spec, cache_dir=str(cache_dir), jobs=2)
        assert partial.summary["computed"] == 3
        runs = convolutions()[before:]
        # Two point models lost records: (n=10, p_scale=0.5) and (n=20, p_scale=0.5).
        assert len(runs) == len(set(runs)) == 2
        assert sorted(int(run.split()[0]) for run in runs) == [10, 20]
        assert partial.records == cold.records

    def test_lone_evaluations_share_nothing(self, convolutions):
        from repro import evaluate
        from repro.experiments.scenarios import get_scenario

        model = get_scenario("many-small-faults", n=10)
        first = evaluate(model, "exact")
        second = evaluate(model, "tail-quantile")
        assert len(convolutions()) == 2
        assert first["exact_support"] == second["tail_support"]

class TestSeeding:
    def test_seeds_are_content_keyed_not_positional(self):
        # Reversing an axis must not change any point's seed entropy.
        data = base_spec_dict()
        forward = {
            entry.digest: point_seed_entropy(StudySpec.from_dict(data), entry.digest)
            for entry in plan_study(StudySpec.from_dict(data))
        }
        data["sweep"]["grid"][0]["values"] = [20, 10]
        reversed_spec = StudySpec.from_dict(data)
        backward = {
            entry.digest: point_seed_entropy(reversed_spec, entry.digest)
            for entry in plan_study(reversed_spec)
        }
        assert forward == backward

    def test_factory_defaults_and_one_value_axis_hash_identically(self):
        # Scenario-factory defaults are materialised into the cache key, so
        # sweeping the default value explicitly changes nothing.
        common = {"name": "x", "base": {"scenario": "many-small-faults"}, "methods": [{"name": "moments"}]}
        implicit = StudySpec.from_dict(common)
        explicit = StudySpec.from_dict(
            {**common, "sweep": {"grid": [{"name": "n", "values": [200]}, {"name": "p_scale", "values": [1.0]}]}}
        )
        assert plan_study(implicit)[0].digest == plan_study(explicit)[0].digest

    def test_evaluation_failure_reports_point_and_keeps_completed(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        data = base_spec_dict()
        data["sweep"]["grid"][1]["values"] = [0.5, 50.0]  # 50x pushes p_i above 1
        with pytest.raises(ValueError) as excinfo:
            run_study(StudySpec.from_dict(data), cache_dir=cache_dir, jobs=2)
        message = str(excinfo.value)
        assert "p_scale=50" in message and "point " in message
        # The good half of the sweep was evaluated and cached despite the failure.
        data["sweep"]["grid"][1]["values"] = [0.5]
        salvaged = run_study(StudySpec.from_dict(data), cache_dir=cache_dir)
        assert salvaged.summary["computed"] == 0

    def test_static_option_and_one_value_axis_hash_identically(self):
        # The same evaluation expressed two ways must share a cache key.
        common = {"name": "x", "base": {"scenario": "high-quality"}}
        as_option = StudySpec.from_dict(
            {**common, "methods": [{"name": "bounds", "confidence": 0.95}]}
        )
        as_axis = StudySpec.from_dict(
            {
                **common,
                "sweep": {"grid": [{"name": "confidence", "values": [0.95]}]},
                "methods": [{"name": "bounds"}],
            }
        )
        assert plan_study(as_option)[0].digest == plan_study(as_axis)[0].digest

    def test_ignored_axes_share_evaluations(self, tmp_path):
        # A confidence sweep must not multiply the moments evaluations.
        data = base_spec_dict()
        data["sweep"]["zip"] = [{"name": "confidence", "values": [0.9, 0.99]}]
        data["methods"] = [{"name": "moments"}, {"name": "bounds"}]
        spec = StudySpec.from_dict(data)
        result = run_study(spec, cache_dir=str(tmp_path / "cache"))
        assert result.summary["points"] == 16
        # moments ignores confidence: 4 grid combos; bounds consumes it: 8.
        assert result.summary["evaluations"] == 12
        moments_rows = [r for r in result.records if r["method"] == "moments"]
        by_confidence = {r["confidence"]: r["point_id"] for r in moments_rows if r["n"] == 10 and r["p_scale"] == 0.5}
        assert len(set(by_confidence.values())) == 1  # same evaluation, both rows


class TestKeepGoing:
    """``keep_going``: failures become typed rows, warm re-runs repair them."""

    @pytest.fixture(autouse=True)
    def _clean_faults(self):
        from repro import faults

        faults.clear()
        yield
        faults.clear()

    @pytest.fixture
    def flaky_spec(self, small_model) -> StudySpec:
        return StudySpec.from_dict(
            {
                "name": "keep-going",
                "base": {"model": small_model.to_dict()},
                "sweep": {"grid": [{"name": "p_scale", "values": [0.5, 1.0, 1.5]}]},
                "methods": [{"name": "moments"}],
                "seed": 1,
            }
        )

    def _arm_second_point_failure(self):
        from repro import faults

        # Sequential in-process evaluation (jobs=1, one group of three
        # points, one hit per point): the second point -- and only it --
        # raises.
        faults.inject(
            "studies.point", error=RuntimeError, message="boom", every=2, times=1
        )

    def test_strict_mode_still_raises(self, flaky_spec):
        self._arm_second_point_failure()
        with pytest.raises(ValueError, match="1 of 3 evaluation\\(s\\) failed"):
            run_study(flaky_spec)

    def test_failures_become_typed_error_rows(self, flaky_spec, tmp_path):
        self._arm_second_point_failure()
        result = run_study(
            flaky_spec, cache_dir=str(tmp_path / "cache"), keep_going=True
        )
        assert result.summary["keep_going"] is True
        assert result.summary["failed"] == 1
        assert len(result) == 3
        failed = [record for record in result.records if "status" in record]
        assert len(failed) == 1
        assert failed[0]["status"] == "error"
        assert failed[0]["error_type"] == "RuntimeError"
        assert failed[0]["error"] == "boom"
        assert "mean_system" not in failed[0]
        healthy = [record for record in result.records if "status" not in record]
        assert len(healthy) == 2
        assert all("mean_system" in record for record in healthy)

    def test_error_rows_round_trip_through_the_table_writers(self, flaky_spec, tmp_path):
        self._arm_second_point_failure()
        result = run_study(flaky_spec, keep_going=True)
        paths = result.save(tmp_path / "out")
        rows = json.loads(paths["json"].read_text(encoding="utf-8"))
        assert sum(1 for row in rows if row.get("status") == "error") == 1
        import csv

        with open(paths["csv"], newline="", encoding="utf-8") as handle:
            table = list(csv.DictReader(handle))
        assert {"status", "error_type", "error"} <= set(table[0])
        error_rows = [row for row in table if row["status"] == "error"]
        assert len(error_rows) == 1
        assert error_rows[0]["error_type"] == "RuntimeError"
        assert error_rows[0]["mean_system"] == ""  # no metrics on an error row
        healthy_rows = [row for row in table if row["status"] == ""]
        assert all(row["mean_system"] for row in healthy_rows)

    def test_forked_workers_inherit_the_armed_failpoint(self, flaky_spec, monkeypatch):
        import os

        from repro import faults

        # Two pool workers on any machine (the runner caps jobs at the CPU
        # count), and no environment hand-off: the fork alone arms them.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.delenv(faults.ENV_VAR, raising=False)
        faults.inject("studies.point", error=RuntimeError, message="boom")
        result = run_study(flaky_spec, jobs=2, keep_going=True)
        assert result.summary["dispatched_tasks"] >= 2
        assert result.summary["failed"] == 3
        assert [record["status"] for record in result.records] == ["error"] * 3
        assert {record["error"] for record in result.records} == {"boom"}

    def test_warm_rerun_recomputes_only_the_failed_points(self, flaky_spec, tmp_path):
        from repro import faults

        cache_dir = str(tmp_path / "cache")
        self._arm_second_point_failure()
        broken = run_study(flaky_spec, cache_dir=cache_dir, keep_going=True)
        assert broken.summary["failed"] == 1
        faults.clear()
        repaired = run_study(flaky_spec, cache_dir=cache_dir, keep_going=True)
        assert repaired.summary["failed"] == 0
        assert repaired.summary["cached"] == 2
        assert repaired.summary["computed"] == 1
        reference = run_study(flaky_spec)
        assert repaired.records == reference.records
