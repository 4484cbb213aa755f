"""Tests for ``repro.evaluate_sweep`` and the batched-method registry flag."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import (
    BatchUnsupported,
    OptionSpec,
    default_registry,
    evaluate,
    evaluate_sweep,
    register_batch,
    register_method,
)
from repro.api.evaluate import sweep_outcomes

VARIATIONS = [{"p_scale": 0.25}, {"p_scale": 0.5}, {"p_scale": 1.0, "q_scale": 2.0}]


class TestRegistryFlag:
    def test_builtin_batch_support(self):
        registry = default_registry()
        assert registry.get("exact").supports_batch
        assert registry.get("tail-quantile").supports_batch
        assert registry.get("montecarlo").supports_batch
        assert not registry.get("moments").supports_batch
        assert not registry.get("bounds").supports_batch

    def test_register_batch_on_custom_method(self, small_model):
        registry = default_registry()

        @register_method("test-batchable", options=(OptionSpec("versions", "int", 2),))
        def scalar(model, options, rng):
            return {"value": float(model.p.sum())}

        try:
            assert not registry.get("test-batchable").supports_batch

            @register_batch("test-batchable")
            def batched(model, variations, options, rng):
                return [
                    {"value": float(model.p.sum() * variation["p_scale"])}
                    for variation in variations
                ]

            assert registry.get("test-batchable").supports_batch
            results = evaluate_sweep(small_model, "test-batchable", VARIATIONS)
            expected = [float(small_model.p.sum() * v["p_scale"]) for v in VARIATIONS]
            assert [result["value"] for result in results] == expected
        finally:
            registry.unregister("test-batchable")

    def test_shares_work_follows_the_resolved_options(self):
        registry = default_registry()
        montecarlo = registry.get("montecarlo")
        independent = registry.resolve_options("montecarlo", {})
        correlated = registry.resolve_options("montecarlo", {"correlation": 0.3})
        assert montecarlo.batches(independent) and montecarlo.shares_work(independent)
        assert not montecarlo.batches(correlated)
        assert not montecarlo.shares_work(correlated)
        exact = registry.get("exact")
        options = registry.resolve_options("exact", {})
        assert exact.batches(options) and not exact.shares_work(options)
        assert not registry.get("moments").shares_work(registry.resolve_options("moments", {}))

    def test_applies_rule_keeps_the_kernel_off_other_options(self, small_model):
        registry = default_registry()
        calls = []

        @register_method("test-gated", options=(OptionSpec("mode", "int", 0),))
        def scalar(model, options, rng):
            return {"value": float(model.p.sum())}

        try:

            @register_batch("test-gated", applies=lambda options: options["mode"] == 0)
            def batched(model, variations, options, rng):
                calls.append(len(variations))
                return [{"value": float(model.p.sum() * v["p_scale"])} for v in variations]

            served = evaluate_sweep(small_model, "test-gated", VARIATIONS)
            outside = evaluate_sweep(small_model, "test-gated", VARIATIONS, mode=1)
            assert calls == [len(VARIATIONS)]
            for variation, result in zip(VARIATIONS, outside):
                transformed = small_model.rescaled(
                    variation.get("p_scale", 1.0), variation.get("q_scale", 1.0)
                )
                assert result.metrics == evaluate(transformed, "test-gated", mode=1).metrics
            assert [result["value"] for result in served] == [
                float(small_model.p.sum() * v.get("p_scale", 1.0)) for v in VARIATIONS
            ]
        finally:
            registry.unregister("test-gated")

    def test_register_batch_unknown_method_fails(self):
        with pytest.raises(ValueError, match="unknown method"):
            register_batch("no-such-method")(lambda *a: [])


class TestEvaluateSweep:
    def test_batched_exact_matches_scalar_evaluate(self, small_model):
        results = evaluate_sweep(small_model, "exact", VARIATIONS, max_support=512)
        for variation, result in zip(VARIATIONS, results):
            transformed = small_model.rescaled(
                variation.get("p_scale", 1.0), variation.get("q_scale", 1.0)
            )
            scalar = evaluate(transformed, "exact", max_support=512)
            assert result.metric_dict() == scalar.metric_dict()

    def test_fallback_method_is_bitwise_identical(self, small_model):
        results = evaluate_sweep(small_model, "moments", VARIATIONS)
        for variation, result in zip(VARIATIONS, results):
            transformed = small_model.rescaled(
                variation.get("p_scale", 1.0), variation.get("q_scale", 1.0)
            )
            assert result.metric_dict() == evaluate(transformed, "moments").metric_dict()

    def test_montecarlo_sweep_is_seeded_and_reproducible(self, small_model):
        first = evaluate_sweep(
            small_model, "montecarlo", VARIATIONS, replications=2000, seed=7
        )
        second = evaluate_sweep(
            small_model, "montecarlo", VARIATIONS, replications=2000, seed=7
        )
        assert [r.metrics for r in first] == [r.metrics for r in second]
        assert first[0].seed_entropy == (7,)
        assert "mc_risk_ratio" in first[0].metric_dict()

    def test_batch_unsupported_falls_back(self, small_model):
        # correlation != 0 is outside the kernel's declared rule; the
        # per-point fallback must produce exactly what scalar evaluation
        # produces for the sweep's own seed.
        results = evaluate_sweep(
            small_model,
            "montecarlo",
            VARIATIONS[:2],
            replications=500,
            correlation=0.4,
            seed=11,
        )
        for variation, result in zip(VARIATIONS[:2], results):
            transformed = small_model.rescaled(variation.get("p_scale", 1.0))
            scalar = evaluate(
                transformed, "montecarlo", replications=500, correlation=0.4, seed=11
            )
            assert result.metric_dict() == scalar.metric_dict()

    def test_invalid_variation_raises_with_index(self, small_model):
        with pytest.raises(ValueError, match="sweep variation 1"):
            evaluate_sweep(
                small_model, "exact", [{"p_scale": 0.5}, {"p_scale": 1e6}], max_support=256
            )
        with pytest.raises(ValueError, match="only p_scale/q_scale"):
            evaluate_sweep(small_model, "exact", [{"bogus": 1.0}])

    def test_outcomes_salvage_bad_points(self, small_model):
        batched, outcomes = sweep_outcomes(
            small_model,
            "exact",
            [{"p_scale": 0.5}, {"p_scale": 1e6}, {"p_scale": 1.0}],
            options={"max_support": 256},
        )
        assert batched
        statuses = [status for status, _ in outcomes]
        assert statuses == ["ok", "error", "ok"]
        assert "pushes some p_i above 1" in outcomes[1][1]
        assert outcomes[0][1].method == "exact"

    def test_empty_sweep(self, small_model):
        assert evaluate_sweep(small_model, "exact", []) == []

    def test_results_align_with_variation_order(self, small_model):
        results = evaluate_sweep(small_model, "exact", VARIATIONS, max_support=256)
        means = [result["exact_mean"] for result in results]
        # p_scale 0.25 < 0.5 < (1.0 with doubled impacts): strictly ordered.
        assert means[0] < means[1] < means[2]


class TestSweepSeedEntropy:
    def test_batched_path_records_shared_entropy(self, small_model):
        results = evaluate_sweep(
            small_model, "montecarlo", VARIATIONS[:2], replications=500, seed=11
        )
        assert [r.seed_entropy for r in results] == [(11,), (11,)]

    def test_fallback_path_records_per_point_entropy(self, small_model):
        # The recorded entropy must reproduce the point's value through
        # plain evaluate(), even on the declined-kernel per-point path.
        results = evaluate_sweep(
            small_model,
            "montecarlo",
            VARIATIONS[:2],
            replications=500,
            correlation=0.3,
            seed=11,
        )
        assert [r.seed_entropy for r in results] == [(11,), (11,)]
        for variation, result in zip(VARIATIONS[:2], results):
            again = evaluate(
                small_model.rescaled(variation.get("p_scale", 1.0)),
                "montecarlo",
                replications=500,
                correlation=0.3,
                seed=result.seed_entropy,
            )
            assert again.metric_dict() == result.metric_dict()

    def test_deterministic_methods_record_no_entropy(self, small_model):
        assert all(
            r.seed_entropy is None
            for r in evaluate_sweep(small_model, "exact", VARIATIONS, max_support=256)
        )


class TestSubsetEvaluation:
    def test_q_scale_zero_tail_prob_zero(self, small_model):
        result = evaluate_sweep(
            small_model, "tail-quantile", [{"q_scale": 0.0}, {"q_scale": 1.0}], max_support=256
        )
        assert result[0]["tail_prob_zero"] == 1.0
        assert result[1]["tail_prob_zero"] < 1.0


class TestBatchUnsupportedContract:
    def test_custom_batch_can_decline(self, small_model):
        registry = default_registry()

        @register_method("test-decliner", options=())
        def scalar(model, options, rng):
            return {"source": "scalar"}

        try:

            @register_batch("test-decliner")
            def batched(model, variations, options, rng):
                raise BatchUnsupported("always declines")

            results = evaluate_sweep(small_model, "test-decliner", VARIATIONS[:2])
            assert [result["source"] for result in results] == ["scalar", "scalar"]
        finally:
            registry.unregister("test-decliner")

    def test_wrong_record_count_is_an_error(self, small_model):
        registry = default_registry()

        @register_method("test-short", options=())
        def scalar(model, options, rng):
            return {}

        try:

            @register_batch("test-short")
            def batched(model, variations, options, rng):
                return [{}]

            with pytest.raises(TypeError, match="returned 1 records for 2"):
                evaluate_sweep(small_model, "test-short", VARIATIONS[:2])
        finally:
            registry.unregister("test-short")
