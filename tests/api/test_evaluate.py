"""Tests for the top-level evaluate / evaluate_batch entry points."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import evaluate, evaluate_batch
from repro.api import MethodRegistry, OptionSpec, register_method
from repro.core.moments import pfd_moments
from repro.core.pfd_distribution import exact_pfd_distribution, prob_pfd_zero


class TestEvaluate:
    def test_moments_agree_with_library(self, small_model):
        result = evaluate(small_model, "moments")
        assert result["mean_single"] == pfd_moments(small_model, 1).mean
        assert result["mean_system"] == pfd_moments(small_model, 2).mean
        assert result.method == "moments"
        assert result.option_dict() == {"versions": 2}
        assert result.seed_entropy is None  # deterministic
        assert result.elapsed_seconds >= 0.0

    def test_tail_quantile_agrees_with_distribution(self, small_model):
        result = evaluate(
            small_model, "tail-quantile", level=0.999, threshold=1e-4, max_support=256
        )
        bracket = exact_pfd_distribution(small_model, 2, max_support=256)
        assert bracket.is_exact  # three faults: the full support fits
        low, high = bracket.quantile(0.999)
        assert result["tail_quantile"] == result["tail_quantile_hi"] == high
        assert result["tail_quantile_lo"] == low == high
        assert result["tail_exceedance"] == bracket.survival(1e-4)[1]
        # The zero atom is the closed form; it agrees with the distribution
        # to rounding.
        assert result["tail_prob_zero"] == prob_pfd_zero(small_model, 2)
        assert result["tail_prob_zero"] == pytest.approx(bracket.exact.prob_zero(), rel=1e-12)

    def test_montecarlo_reproducible_per_seed(self, small_model):
        first = evaluate(small_model, "montecarlo", seed=7, replications=2000)
        second = evaluate(small_model, "montecarlo", seed=7, replications=2000)
        different = evaluate(small_model, "montecarlo", seed=8, replications=2000)
        assert first.metrics == second.metrics
        assert first.metrics != different.metrics
        assert first.seed_entropy == (7,)

    def test_no_seed_still_means_reproducible(self, small_model):
        first = evaluate(small_model, "montecarlo", replications=1000)
        second = evaluate(small_model, "montecarlo", replications=1000)
        assert first.metrics == second.metrics

    def test_seed_spellings(self, small_model):
        by_tuple = evaluate(small_model, "montecarlo", seed=(7,), replications=1000)
        by_int = evaluate(small_model, "montecarlo", seed=7, replications=1000)
        assert by_tuple.metrics == by_int.metrics
        rng = np.random.default_rng(np.random.SeedSequence([7]))
        by_generator = evaluate(small_model, "montecarlo", seed=rng, replications=1000)
        assert by_generator.metrics == by_int.metrics
        assert by_generator.seed_entropy is None  # live generator: unrecordable

    def test_bad_seed_rejected(self, small_model):
        with pytest.raises(ValueError, match="seed must be"):
            evaluate(small_model, "montecarlo", seed=1.5)

    def test_unknown_method_and_option_rejected(self, small_model):
        with pytest.raises(ValueError, match="unknown method"):
            evaluate(small_model, "frobnicate")
        with pytest.raises(ValueError, match="does not accept option"):
            evaluate(small_model, "moments", replications=10)

    def test_out_of_range_options_rejected_by_name(self, small_model):
        with pytest.raises(ValueError, match="'replications' must be >= 1"):
            evaluate(small_model, "montecarlo", replications=0)
        with pytest.raises(ValueError, match="'versions' must be >= 1"):
            evaluate(small_model, "montecarlo", versions=0)
        with pytest.raises(ValueError, match="'max_support' must be >= 2"):
            evaluate(small_model, "exact", max_support=1)

    def test_custom_registry_dispatch(self, small_model):
        registry = MethodRegistry()

        @register_method(
            "mean-only",
            options=(OptionSpec("versions", "int", 2),),
            registry=registry,
        )
        def mean_only(model, options, rng):
            return {"mean": pfd_moments(model, int(options["versions"])).mean}

        result = evaluate(small_model, "mean-only", registry=registry, versions=1)
        assert result["mean"] == pfd_moments(small_model, 1).mean
        with pytest.raises(ValueError, match="unknown method 'moments'"):
            evaluate(small_model, "moments", registry=registry)

    def test_non_mapping_metrics_rejected(self, small_model):
        registry = MethodRegistry()

        @register_method("broken", registry=registry)
        def broken(model, options, rng):
            return 3.14

        with pytest.raises(TypeError, match="must return a mapping"):
            evaluate(small_model, "broken", registry=registry)


class TestEvaluateBatch:
    REQUESTS = [
        "moments",
        ("montecarlo", {"replications": 1000}),
        {"method": "tail-quantile", "level": 0.999},
    ]

    def test_results_in_request_order(self, small_model):
        results = evaluate_batch(small_model, self.REQUESTS, seed=5)
        assert [result.method for result in results] == [
            "moments", "montecarlo", "tail-quantile",
        ]

    @pytest.mark.parametrize(
        "method, options",
        [
            ("bounds", {}),
            ("exact", {}),
            ("moments", {}),
            ("montecarlo", {"replications": 1000}),
            ("montecarlo", {"replications": 1000, "correlation": 0.3}),
            ("normal", {}),
            ("tail-quantile", {"level": 0.999}),
        ],
        ids=["bounds", "exact", "moments", "montecarlo", "correlated-montecarlo",
             "normal", "tail-quantile"],
    )
    def test_every_request_is_seeded_from_the_batch_seed(self, small_model, method, options):
        # One rule for every method: an element is evaluate() with the batch
        # seed, whatever shares the batch and wherever it sits in it.
        element = evaluate_batch(small_model, ["moments", (method, options)], seed=5)[1]
        alone = evaluate(small_model, method, seed=5, options=options)
        assert json.dumps(element.metrics) == json.dumps(alone.metrics)
        assert element.seed_entropy == alone.seed_entropy
        assert element.seed_entropy == ((5,) if method == "montecarlo" else None)

    def test_whole_batch_validated_before_any_evaluation(self, small_model):
        with pytest.raises(ValueError, match="does not accept option"):
            evaluate_batch(
                small_model,
                [("montecarlo", {"replications": 10_000_000}), ("moments", {"bogus": 1})],
            )

    def test_jobs_is_rejected(self, small_model):
        # Batches run in the calling process; there is no worker pool.
        for jobs in (1, 2):
            with pytest.raises(TypeError, match="jobs"):
                evaluate_batch(small_model, ["moments"], jobs=jobs)

    def test_live_generator_seed_rejected(self, small_model):
        with pytest.raises(ValueError, match="integer seed"):
            evaluate_batch(small_model, ["moments"], seed=np.random.default_rng(1))


    def test_requests_reading_one_distribution_convolve_once(self, small_model, monkeypatch):
        from repro.core import pfd_distribution

        calls = []
        original = pfd_distribution.bracket_two_points

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(pfd_distribution, "bracket_two_points", counting)
        requests = ["exact", ("exact", {"level": 0.999}), "tail-quantile"]
        batched = evaluate_batch(small_model, requests, seed=5)
        assert len(calls) == 1
        separate = [evaluate(small_model, "exact"), evaluate(small_model, "exact", level=0.999),
                    evaluate(small_model, "tail-quantile")]
        assert len(calls) == 4
        assert [json.dumps(result.to_dict()["metrics"]) for result in batched] == [
            json.dumps(result.to_dict()["metrics"]) for result in separate
        ]

    def test_each_read_reach_folds_its_own_lattice(self, monkeypatch):
        from repro.core import pfd_distribution
        from repro.experiments.scenarios import get_scenario

        reaches = []
        original = pfd_distribution.bracket_two_points

        def logging(*args, **kwargs):
            reaches.append(kwargs["reach"])
            return original(*args, **kwargs)

        monkeypatch.setattr(pfd_distribution, "bracket_two_points", logging)
        model = get_scenario("many-small-faults", n=40)
        requests = ["exact", "tail-quantile", ("exact", {"level": 0.999}),
                    ("tail-quantile", {"level": 0.5}), ("exact", {"threshold": 1e-3})]
        batched = evaluate_batch(model, requests)
        # Default levels and a lower one read up to 0.99 and share one lattice;
        # 0.999 folds its own, and an exceedance folds the full lattice.
        assert reaches == [0.99, 0.999, None]
        supports = [result["exact_support" if result.method == "exact" else "tail_support"]
                    for result in batched]
        assert supports[0] == supports[1] == supports[3] < supports[2] < supports[4]

class TestBatchCoalescing:
    """Identical work items compute once; the result fans out per request."""

    def test_deterministic_duplicates_evaluate_once(self, small_model):
        from repro.api import MethodRegistry, MethodDefinition

        calls = {"count": 0}

        def counting(model, options, rng):
            calls["count"] += 1
            return {"value": 1.0}

        registry = MethodRegistry()
        registry.register(MethodDefinition(name="counted", evaluate=counting))
        results = evaluate_batch(
            small_model, ["counted", "counted", "counted"], registry=registry
        )
        assert calls["count"] == 1
        assert len(results) == 3
        assert results[0] == results[1] == results[2]

    def test_mixed_batch_preserves_order_and_distinct_work(self, small_model):
        requests = [
            "moments",
            {"method": "tail-quantile", "level": 0.999},
            "moments",  # duplicate of request 0
            {"method": "tail-quantile", "level": 0.99},  # different options: own work
        ]
        results = evaluate_batch(small_model, requests, seed=5)
        assert [r.method for r in results] == [
            "moments", "tail-quantile", "moments", "tail-quantile",
        ]
        assert results[0] == results[2]
        assert results[1].option_dict()["level"] == 0.999
        assert results[3].option_dict()["level"] == 0.99
        assert results[1].metrics != results[3].metrics

    def test_stochastic_duplicates_share_one_result(self, small_model):
        # Same method, options and seed: one evaluation, one result -- as two
        # identical evaluate() calls give.
        results = evaluate_batch(
            small_model,
            [("montecarlo", {"replications": 500})] * 2,
            seed=5,
        )
        assert results[0] is results[1]
        assert results[0].seed_entropy == (5,)
        alone = evaluate(small_model, "montecarlo", seed=5, replications=500)
        assert results[0].metrics == alone.metrics


class TestOptionSpellings:
    def test_options_mapping_equals_kwargs(self, small_model):
        by_kwargs = evaluate(small_model, "exact", level=0.999, max_support=256)
        by_mapping = evaluate(
            small_model, "exact", options={"level": 0.999, "max_support": 256}
        )
        assert by_kwargs.metrics == by_mapping.metrics
        assert by_kwargs.options == by_mapping.options

    def test_kwargs_win_over_mapping(self, small_model):
        result = evaluate(small_model, "exact", options={"level": 0.9}, level=0.999)
        assert result.option_dict()["level"] == 0.999

    def test_colliding_option_name_reaches_the_registry(self, small_model):
        # An option literally named "seed" must produce the registry's
        # unknown-option ValueError via the mapping spelling, not a TypeError.
        with pytest.raises(ValueError, match="does not accept option 'seed'"):
            evaluate(small_model, "moments", options={"seed": 5})


class TestUnregister:
    def test_unregister_roundtrip(self, small_model):
        registry = MethodRegistry()

        @register_method("temp", registry=registry)
        def temp(model, options, rng):
            return {"x": 1}

        definition = registry.unregister("temp")
        assert definition.evaluate is temp
        assert "temp" not in registry
        with pytest.raises(ValueError, match="unknown method 'temp'"):
            registry.unregister("temp")
