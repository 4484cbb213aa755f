"""Old -> new dispatch compatibility: deprecated shims and warm-cache identity.

The unified-API refactor moved method dispatch from per-consumer tables into
:class:`repro.api.MethodRegistry`.  Two things must survive it byte for byte:

* the deprecated ``repro simulate`` subcommand keeps producing identical
  output, now with a ``DeprecationWarning``;
* study cache digests: the digests below were recorded by running
  ``plan_study`` on the *pre-registry* implementation (commit f421fea), so a
  warm cache written by the old dispatch must be served untouched by the new
  one.
"""

from __future__ import annotations

import json

import pytest

from repro.studies import ResultCache, StudySpec, plan_study, run_study

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

#: (method, digest) per planned point, recorded on the pre-registry
#: implementation.  Any change here silently invalidates every user's warm
#: study cache -- treat a failure as a release blocker, not a snapshot bump.
PRE_REGISTRY_DIGESTS = [
    ("moments", "95671c1b406e600e2dfa51178dd5fa126dcba61a1d45162a35247749767dec74"),
    ("bounds", "e8a5fab6e7f8f97adaf8a37ab978a2951b2d058f2eebe426b06a46e3b5477aa3"),
    ("exact", "3072e1182ab031a5cd86957289c908b76f90499efef4b0537d3c64e98e51c98b"),
    ("montecarlo", "36bdadc16f2903f7e819235a410e3a7b0c3f3098a04df4b7ef67b4f2ce417ea1"),
    ("moments", "64c9bb0607aca7976650ee05b79369130d1a8f31f0c4a400e7ed91e738f0dac8"),
    ("bounds", "bf4384720c99274130ac338bc0eeb782c9774b1814808fc576b0c2032e1a7fe8"),
    ("exact", "56ad05581586ef56105556cf5cc472e106a6a0373aa20ed9d968bfb3881ad020"),
    ("montecarlo", "4778c89e277dbed29be5579a97c467b88dfe2184676edc8d51415a7536845de3"),
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
        stored = sorted(path.stem for path in cache_dir.glob("*/*.json"))
        assert stored == sorted(digest for _, digest in PRE_REGISTRY_DIGESTS)
        warm = run_study(spec, cache_dir=str(cache_dir))
        assert warm.summary["computed"] == 0
        assert warm.records == cold.records

    def test_corrupt_old_entry_degrades_to_recomputation(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        digest = PRE_REGISTRY_DIGESTS[0][1]
        path = cache.path_for(digest)
        path.parent.mkdir(parents=True)
        path.write_text("{not json", encoding="utf-8")
        result = run_study(StudySpec.from_dict(COMPAT_SPEC), cache_dir=str(tmp_path / "cache"))
        assert result.summary["computed"] == len(PRE_REGISTRY_DIGESTS)


class TestBatchedDispatchCompat:
    """The batched (grouped) fast path must not disturb cache identity.

    Digests are computed by ``plan_study`` before any dispatch decision, so
    batch mode cannot change them; these tests pin the consequences -- a
    warm cache written by either mode is served untouched by the other, and
    methods without a batched kernel produce byte-identical records in both
    modes.
    """

    def test_plan_digests_do_not_depend_on_batch_mode(self):
        # plan_study is dispatch-agnostic; the recorded pre-registry digests
        # above are therefore also the batched-mode digests.
        planned = plan_study(StudySpec.from_dict(COMPAT_SPEC))
        assert [entry.digest for entry in planned] == [
            digest for _, digest in PRE_REGISTRY_DIGESTS
        ]

    def test_cache_written_by_scalar_mode_served_by_batched_mode(self, tmp_path):
        spec = StudySpec.from_dict(COMPAT_SPEC)
        cache_dir = str(tmp_path / "cache")
        scalar_cold = run_study(spec, cache_dir=cache_dir, batch=False)
        batched_warm = run_study(spec, cache_dir=cache_dir, batch=True)
        assert batched_warm.summary["computed"] == 0
        assert batched_warm.records == scalar_cold.records

    def test_cache_written_by_batched_mode_served_by_scalar_mode(self, tmp_path):
        spec = StudySpec.from_dict(COMPAT_SPEC)
        cache_dir = str(tmp_path / "cache")
        batched_cold = run_study(spec, cache_dir=cache_dir, batch=True)
        scalar_warm = run_study(spec, cache_dir=cache_dir, batch=False)
        assert scalar_warm.summary["computed"] == 0
        assert scalar_warm.records == batched_cold.records

    def test_methods_without_batched_kernel_are_bitwise_identical(self, tmp_path):
        # moments/bounds have no batched kernel: the grouped dispatch runs
        # the same per-point evaluation with the same content-keyed seeds,
        # so fresh records must match the scalar mode byte for byte.
        spec_dict = {**COMPAT_SPEC, "methods": [{"name": "moments"}, {"name": "bounds"}]}
        spec = StudySpec.from_dict(spec_dict)
        scalar = run_study(spec, cache_dir=str(tmp_path / "scalar"), batch=False)
        batched = run_study(spec, cache_dir=str(tmp_path / "batched"), batch=True)
        assert batched.records == scalar.records

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


class TestDeprecatedShims:
    def test_simulate_cli_warns_and_output_is_unchanged(self, tmp_path, capsys, small_model):
        from repro.cli import main
        from repro.montecarlo.engine import MonteCarloEngine

        model_file = tmp_path / "model.json"
        model_file.write_text(json.dumps(small_model.to_dict()), encoding="utf-8")
        arguments = ["simulate", "--model", str(model_file), "--replications", "3000", "--seed", "9"]
        with pytest.warns(DeprecationWarning, match="repro simulate"):
            assert main(arguments) == 0
        printed = json.loads(capsys.readouterr().out)
        expected = MonteCarloEngine(small_model).simulate_paired(3000, rng=9).summary()
        assert printed == expected
