"""Tests for point model resolution and method evaluation in a study group."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.fault_model import FaultModel
from repro.core.moments import pfd_moments
from repro.core.pfd_distribution import exact_pfd_distribution
from repro.experiments.scenarios import many_small_faults_scenario
from repro.studies import MethodSpec, resolve_model, split_point_params
from repro.studies.methods import evaluate_study_group

SCENARIO_BASE = {"scenario": "many-small-faults"}


def inline_base(model: FaultModel) -> dict:
    return {"model": model.to_dict()}


def evaluate_point(base, params, method, entropy) -> dict:
    """One point's record: a one-point group at neutral transforms."""
    [(status, record)] = evaluate_study_group(
        base, params, method, ({"p_scale": 1.0, "q_scale": 1.0},), entropy, (entropy,)
    )
    assert status == "ok", record
    return record


class TestSplitPointParams:
    def test_partitions_by_layer(self):
        method = MethodSpec(name="montecarlo")
        factory, transforms, overrides, ignored = split_point_params(
            SCENARIO_BASE,
            {"n": 50, "model_seed": 3, "p_scale": 0.5, "replications": 100},
            method,
        )
        assert factory == {"n": 50, "rng": 3}
        assert transforms == {"p_scale": 0.5}
        assert overrides == {"replications": 100}
        assert ignored == {}

    def test_other_methods_axes_are_ignorable(self):
        method = MethodSpec(name="moments")
        *_, ignored = split_point_params(
            SCENARIO_BASE, {"confidence": 0.9}, method, ignorable={"confidence"}
        )
        assert ignored == {"confidence": 0.9}

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="not understood"):
            split_point_params(SCENARIO_BASE, {"bogus": 1}, MethodSpec(name="moments"))

    def test_inline_base_has_no_factory_params(self, small_model):
        with pytest.raises(ValueError, match="not understood"):
            split_point_params(inline_base(small_model), {"n": 5}, MethodSpec(name="moments"))


class TestResolveModel:
    def test_scenario_with_overrides(self):
        model = resolve_model(SCENARIO_BASE, {"n": 37, "rng": 5}, {})
        assert model.n == 37
        np.testing.assert_allclose(model.p, many_small_faults_scenario(37, rng=5).p)

    def test_p_scale_uses_appendix_b_scaling(self, small_model):
        model = resolve_model(inline_base(small_model), {}, {"p_scale": 0.5})
        np.testing.assert_allclose(model.p, small_model.p * 0.5)
        np.testing.assert_allclose(model.q, small_model.q)

    def test_q_scale_scales_impacts(self, small_model):
        model = resolve_model(inline_base(small_model), {}, {"q_scale": 2.0})
        np.testing.assert_allclose(model.q, small_model.q * 2.0)

    def test_negative_q_scale_rejected(self, small_model):
        with pytest.raises(ValueError, match="q_scale"):
            resolve_model(inline_base(small_model), {}, {"q_scale": -1.0})


class TestMethods:
    def test_moments_agrees_with_library(self, small_model):
        record = evaluate_point(inline_base(small_model), {}, MethodSpec(name="moments"), (0, 1))
        assert record["mean_single"] == pfd_moments(small_model, 1).mean
        assert record["mean_system"] == pfd_moments(small_model, 2).mean
        assert record["std_system"] == pfd_moments(small_model, 2).std

    def test_exact_agrees_with_distribution(self, small_model):
        record = evaluate_point(
            inline_base(small_model),
            {"max_support": 256},
            MethodSpec(name="exact", options=(("level", 0.95),)),
            (0, 1),
        )
        bracket = exact_pfd_distribution(small_model, 2, max_support=256)
        assert record["exact_mean"] == pfd_moments(small_model, 2).mean
        assert record["exact_percentile"] == bracket.quantile(0.95)[1]
        assert record["exact_percentile_lo"] == bracket.quantile(0.95)[0]

    def test_exact_threshold_metric_is_optional(self, small_model):
        without = evaluate_point(inline_base(small_model), {}, MethodSpec(name="exact"), (0, 1))
        assert "exact_exceedance" not in without
        with_threshold = evaluate_point(
            inline_base(small_model),
            {},
            MethodSpec(name="exact", options=(("threshold", 1e-4),)),
            (0, 1),
        )
        assert 0.0 <= with_threshold["exact_exceedance"] <= 1.0

    def test_normal_and_bounds_are_consistent(self, small_model):
        normal = evaluate_point(inline_base(small_model), {}, MethodSpec(name="normal"), (0, 1))
        bounds = evaluate_point(inline_base(small_model), {}, MethodSpec(name="bounds"), (0, 1))
        assert normal["k_factor"] == pytest.approx(2.326, abs=5e-3)
        # The guaranteed (p_max) bound must dominate the direct system bound.
        assert bounds["guaranteed_bound_system"] >= normal["normal_bound_system"] - 1e-15
        assert bounds["p_max"] == small_model.p_max

    def test_montecarlo_is_reproducible_per_entropy(self, small_model):
        method = MethodSpec(name="montecarlo", options=(("replications", 2000),))
        first = evaluate_point(inline_base(small_model), {}, method, (7, 123))
        second = evaluate_point(inline_base(small_model), {}, method, (7, 123))
        different = evaluate_point(inline_base(small_model), {}, method, (7, 124))
        assert first == second
        assert first != different

    def test_montecarlo_correlation_and_versions(self, small_model):
        record = evaluate_point(
            inline_base(small_model),
            {"correlation": 0.5, "replications": 2000},
            MethodSpec(name="montecarlo"),
            (0, 1),
        )
        assert record["mc_correlation"] == 0.5
        assert "mc_risk_ratio" in record
        triple = evaluate_point(
            inline_base(small_model),
            {"versions": 3, "replications": 2000},
            MethodSpec(name="montecarlo"),
            (0, 1),
        )
        assert "mc_prob_any_fault" in triple
        assert triple["mc_mean_system"] <= record["mc_mean_single"] + 1e-12


class TestRegistryExtensibility:
    """A registered method is usable in studies with no studies/ edits."""

    def test_tail_quantile_runs_in_a_study(self, tmp_path):
        from repro.studies import StudySpec, run_study

        spec = StudySpec.from_dict(
            {
                "name": "tail-study",
                "base": {"scenario": "high-quality"},
                "sweep": {"grid": [{"name": "level", "values": [0.9, 0.999]}]},
                "methods": [{"name": "tail-quantile", "max_support": 256}],
            }
        )
        result = run_study(spec, cache_dir=str(tmp_path / "cache"))
        assert len(result) == 2
        for record in result.records:
            assert record["tail_level"] == record["level"]
            assert record["tail_quantile"] >= 0.0

    def test_freshly_registered_method_reaches_specs(self, small_model):
        from repro.api import OptionSpec, default_registry, register_method

        registry = default_registry()

        @register_method(
            "test-mean-only",
            options=(OptionSpec("versions", "int", 2),),
            description="test-only method",
        )
        def mean_only(model, options, rng):
            from repro.core.moments import pfd_moments

            return {"mean": pfd_moments(model, int(options["versions"])).mean}

        try:
            record = evaluate_point(
                inline_base(small_model), {}, MethodSpec(name="test-mean-only"), (0, 1)
            )
            assert record == {"mean": pfd_moments(small_model, 2).mean}
        finally:
            registry.unregister("test-mean-only")
