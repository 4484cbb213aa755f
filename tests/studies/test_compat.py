"""Old -> new dispatch compatibility: warm-cache identity.

The unified-API refactor moved method dispatch from per-consumer tables into
:class:`repro.api.MethodRegistry`.  Study cache digests must survive it byte
for byte: the digests below were recorded by running ``plan_study`` on the
*pre-registry* implementation (commit f421fea) and re-pinned for the
deliberate cache format bumps to versions 2, 3 and 4, so a warm cache written by the
old dispatch must be served untouched by the new one.
"""

from __future__ import annotations

import json

from repro import evaluate
from repro.experiments.scenarios import get_scenario
from repro.studies import ResultCache, StudySpec, plan_study, point_seed_entropy, run_study

COMPAT_SPEC = {
    "name": "compat-study",
    "base": {"scenario": "high-quality"},
    "sweep": {"grid": [{"name": "p_scale", "values": [0.5, 1.0]}]},
    "methods": [
        {"name": "moments"},
        {"name": "bounds", "confidence": 0.95},
        {"name": "exact", "max_support": 256},
        {"name": "montecarlo", "replications": 400},
    ],
    "seed": 11,
}

#: (method, digest) per planned point.  Recorded on the pre-registry
#: implementation at cache format version 1 and re-pinned when
#: ``CACHE_FORMAT_VERSION`` went to 2 (bracketed ``exact`` records), which
#: moved every digest on purpose.  The two ``montecarlo`` digests were
#: re-pinned once more when the method dropped its ``chunk_size`` and
#: ``mc_jobs`` options: resolved options are hashed, so only they moved.
#: Every digest moved again, on purpose, when ``CACHE_FORMAT_VERSION`` went
#: to 3 (a sparse lone ``montecarlo`` is its one-point sweep, and its
#: records carry standard errors), and again when it went to 4 (``exact`` /
#: ``tail-quantile`` fold the lattice only as far as the record reads, so
#: their support fields count fewer cells).  Any other change here silently
#: invalidates every user's warm study cache -- treat a failure as a
#: release blocker, not a snapshot bump.
PRE_REGISTRY_DIGESTS = [
    ("moments", "f4d75ea4814699ef7ab39a8b090bbd6f4a26ff1d955b2e68a8a358c75cf15420"),
    ("bounds", "6e2b5cfed88b1dd4d07ef2c4297c1e0c0bb66e60afcdd87ef677c9da68be8e48"),
    ("exact", "762a051edce1224484e8af13fa9d86c457a47ba3ee679136c12c54af196eb7ac"),
    ("montecarlo", "f87bbd3465fa8cd48c1fd852f3955ee61391c3ea4af13a6ee77daf0d4de4c3ae"),
    ("moments", "474f6cecebead2e76e0a05d4b798cd7faf38c54d8da2d39ca500ee5961c3694e"),
    ("bounds", "9d0c8616efe8e252e236c54243d98b6fd638fdd4dbea2736eb26cde458e5a138"),
    ("exact", "6e16275717692d59feee296e0e81010873a13481ab4388ecd5fc0108e7acde74"),
    ("montecarlo", "0a46131be1606798481fe00c8e3e5af9666ce0e40de3f7ca7c4898e8fdd21f97"),
]


class TestWarmCacheIdentity:
    def test_digests_are_byte_identical_to_pre_registry_dispatch(self):
        planned = plan_study(StudySpec.from_dict(COMPAT_SPEC))
        got = [(entry.point.method.name, entry.digest) for entry in planned]
        assert got == PRE_REGISTRY_DIGESTS

    def test_cache_written_by_old_dispatch_is_served_not_recomputed(self, tmp_path):
        # Simulate a cache populated by the old implementation: entries live
        # under the recorded digests.  The new dispatch must hit all of them.
        cache_dir = tmp_path / "cache"
        spec = StudySpec.from_dict(COMPAT_SPEC)
        cold = run_study(spec, cache_dir=str(cache_dir))
        assert cold.summary["computed"] == len(PRE_REGISTRY_DIGESTS)
        stored = sorted(
            line.split(" ", 1)[0]
            for segment in cache_dir.glob("segment-*.log")
            for line in segment.read_text(encoding="utf-8").splitlines()
        )
        assert stored == sorted(digest for _, digest in PRE_REGISTRY_DIGESTS)
        warm = run_study(spec, cache_dir=str(cache_dir))
        assert warm.summary["computed"] == 0
        assert warm.records == cold.records

    def test_corrupt_old_entry_degrades_to_recomputation(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        digest = PRE_REGISTRY_DIGESTS[0][1]
        (cache_dir / "segment-0.log").write_text(f"{digest} {{not json\n", encoding="utf-8")
        assert ResultCache(cache_dir).load(digest) is None
        result = run_study(StudySpec.from_dict(COMPAT_SPEC), cache_dir=str(tmp_path / "cache"))
        assert result.summary["computed"] == len(PRE_REGISTRY_DIGESTS)


class TestBatchedDispatchCompat:
    """The grouped dispatch path must not disturb cache identity.

    Digests are computed by ``plan_study`` before any dispatch decision, so
    grouping cannot change them; these tests pin the consequences -- a
    warm cache written point by point (as earlier releases could) is served
    untouched, and methods without a batched kernel produce the records of
    per-point :func:`repro.evaluate`.
    """

    def test_plan_digests_do_not_depend_on_dispatch(self):
        # plan_study is dispatch-agnostic; the recorded pre-registry digests
        # above are therefore also the grouped-dispatch digests.
        planned = plan_study(StudySpec.from_dict(COMPAT_SPEC))
        assert [entry.digest for entry in planned] == [
            digest for _, digest in PRE_REGISTRY_DIGESTS
        ]

    def test_cache_written_point_by_point_is_served(self, tmp_path):
        spec = StudySpec.from_dict(COMPAT_SPEC)
        cache = ResultCache(tmp_path / "cache")
        model = get_scenario("high-quality")
        for entry in plan_study(spec):
            options = dict(entry.point.method.options)
            lone = evaluate(
                model.rescaled(p_scale=entry.point.param_dict()["p_scale"]),
                entry.point.method.name,
                seed=point_seed_entropy(spec, entry.digest),
                **options,
            ).metric_dict()
            cache.store(entry.digest, entry.payload, lone)
        warm = run_study(spec, cache_dir=str(tmp_path / "cache"))
        assert warm.summary["computed"] == 0
        for entry, row in zip(plan_study(spec), warm.records):
            assert cache.load(entry.digest)["metrics"].items() <= row.items()

    def test_methods_without_batched_kernel_equal_per_point_evaluate(self, tmp_path):
        # moments/bounds have no batched kernel: the grouped dispatch runs
        # the per-point evaluation of each rescaled model.
        spec_dict = {**COMPAT_SPEC, "methods": [{"name": "moments"}, {"name": "bounds"}]}
        spec = StudySpec.from_dict(spec_dict)
        grouped = run_study(spec, cache_dir=str(tmp_path / "grouped"), jobs=2)
        model = get_scenario("high-quality")
        for entry, row in zip(plan_study(spec), grouped.records):
            lone = evaluate(
                model.rescaled(p_scale=row["p_scale"]),
                row["method"],
                **dict(entry.point.method.options),
            ).metric_dict()
            assert json.dumps({key: row[key] for key in lone}) == json.dumps(lone)

    def test_group_worker_arguments_survive_pickling(self):
        # jobs > 1 ships one pickle per group; on single-core machines the
        # pool is skipped, so exercise the pickle boundary directly.
        import pickle

        from repro.studies.runner import _evaluate_group, _plan_groups

        spec = StudySpec.from_dict(COMPAT_SPEC)
        planned = plan_study(spec)
        pending = {entry.digest: index for index, entry in enumerate(planned)}
        groups = _plan_groups(spec, planned, pending)
        assert groups, "compat spec must produce at least one group"
        members, arguments = groups[0]
        outcomes = _evaluate_group(pickle.loads(pickle.dumps(arguments)))
        assert len(outcomes) == len(members)
        assert all(status == "ok" for status, _ in outcomes)

