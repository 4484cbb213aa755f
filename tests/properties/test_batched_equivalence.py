"""Swept-vs-lone equivalence and shared-demand determinism.

Pins the reproducibility contracts of the sweep paths:

* an ``exact`` / ``tail-quantile`` sweep runs the scalar kernel per point
  (:func:`repro.stats.batched.batched_scaled_pfd`), so every swept
  bracket and record is byte-identical to a lone evaluation of
  ``model.rescaled(p_scale, q_scale)``, whichever groupmates share the sweep;
* the shared-demand Monte Carlo kernel (:mod:`repro.montecarlo.sweep`)
  gives each point a deterministic function of ``(seed, model, versions,
  replications, the point's own scales)``: a point's record is the same
  alone and inside any sweep, repeated calls are identical, and its
  estimates agree with the analytic moments statistically.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import evaluate, evaluate_sweep
from repro.core.fault_model import FaultModel
from repro.core.moments import pfd_moments
from repro.core.no_common_faults import prob_any_common_fault, prob_any_fault
from repro.core.pfd_distribution import exact_pfd_distribution
from repro.montecarlo.sweep import simulate_scaled_sweep
from repro.stats.batched import batched_scaled_pfd

SCALES = (0.125, 0.35, 0.7, 1.0)


def random_model(seed: int, n: int) -> FaultModel:
    rng = np.random.default_rng(seed)
    return FaultModel.random(rng, n=n, p_range=(0.005, 0.2), total_impact=0.4)


def assert_same_distribution(swept, lone) -> None:
    assert swept.support.tobytes() == lone.support.tobytes()
    assert swept.probabilities.tobytes() == lone.probabilities.tobytes()


def assert_same_bracket(swept, lone) -> None:
    assert swept.is_exact == lone.is_exact
    assert_same_distribution(swept.lower(), lone.lower())
    assert_same_distribution(swept.upper(), lone.upper())


class TestBatchedExactEquivalence:
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12))
    @settings(max_examples=25, deadline=None)
    def test_exact_while_support_fits(self, seed, n):
        model = random_model(seed, n)
        swept = batched_scaled_pfd(model, np.array(SCALES), versions=1, max_support=4096)
        assert len(swept) == len(SCALES)
        for bracket, scale in zip(swept, SCALES):
            lone = exact_pfd_distribution(model.rescaled(scale), 1, max_support=4096)
            assert bracket.is_exact
            assert_same_bracket(bracket, lone)

    @pytest.mark.parametrize("n,versions", [(150, 1), (150, 2), (400, 1)])
    def test_lattice_regime_matches_to_resolution(self, n, versions):
        # Past the support cap each point folds onto its own lattice, exactly
        # as a lone evaluation does: no resolution is lost to the sweep.
        model = random_model(11, n)
        swept = batched_scaled_pfd(model, np.array(SCALES), versions=versions, max_support=1024)
        for bracket, scale in zip(swept, SCALES):
            lone = exact_pfd_distribution(model.rescaled(scale), versions, max_support=1024)
            assert_same_bracket(bracket, lone)
            assert bracket.upper_weights.size == 4 * 1024

    def test_q_scale_is_a_support_rescale(self):
        model = random_model(3, 60)
        q_scales = np.array([0.5, 1.0, 1.5])
        swept = batched_scaled_pfd(model, np.ones(3), q_scales, versions=2, max_support=512)
        base_mean = pfd_moments(model, 2).mean
        for bracket, q_scale in zip(swept, q_scales):
            scaled = FaultModel(
                p=model.p.copy(), q=model.q * q_scale, names=model.names, strict=False
            )
            assert_same_bracket(bracket, exact_pfd_distribution(scaled, 2, max_support=512))
            mean = q_scale * base_mean
            assert bracket.lower().mean() <= mean * (1 + 1e-12)
            assert bracket.upper().mean() >= mean * (1 - 1e-12)

    def test_single_point_distribution_roundtrip(self):
        model = random_model(5, 8)
        [row] = batched_scaled_pfd(model, np.array([0.5]), versions=1, max_support=4096)
        assert_same_bracket(row, exact_pfd_distribution(model.scaled(0.5), 1, max_support=4096))

    def test_kernel_rejects_bad_input(self):
        model = random_model(1, 4)
        with pytest.raises(ValueError, match="equal length"):
            batched_scaled_pfd(model, np.array([0.5, 1.0]), np.array([1.0]))
        with pytest.raises(ValueError, match="pushes some p_i above 1"):
            batched_scaled_pfd(model, np.array([50.0]))
        with pytest.raises(ValueError, match="'q_scale' must be a finite non-negative number"):
            batched_scaled_pfd(model, np.ones(1), np.array([-1.0]))
        assert batched_scaled_pfd(model, np.array([])) == []

    def test_zero_q_scale_collapses_to_point_mass(self):
        model = random_model(9, 10)
        zero, _ = batched_scaled_pfd(model, np.ones(2), np.array([0.0, 1.0]), max_support=256)
        assert zero.is_exact
        assert zero.exact.mean() == 0.0
        assert zero.exact.prob_zero() == 1.0
        assert zero.quantile(0.999) == (0.0, 0.0)
        assert zero.survival(1e-6) == (0.0, 0.0)
        assert zero.exact.support.tolist() == [0.0]


_POOL = st.lists(
    st.tuples(
        st.floats(0.0, 4.0, allow_nan=False), st.floats(0.0, 2.0, allow_nan=False)
    ),
    min_size=1,
    max_size=5,
)


class TestSweepGroupmateIndependence:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        pool=_POOL,
        picks=st.lists(st.booleans(), min_size=5, max_size=5),
        method=st.sampled_from(["exact", "tail-quantile"]),
        max_support=st.sampled_from([16, 64, None]),
    )
    @settings(max_examples=40, deadline=None)
    def test_swept_record_is_the_lone_record(self, seed, n, pool, picks, method, max_support):
        # The first pool entry is the point under test; a random subset of
        # the rest shares its sweep.  Its record must not notice.
        if max_support is None:
            n = min(n, 12)
        model = random_model(seed, n)
        target, *others = pool
        groupmates = [other for other, keep in zip(others, picks) if keep]
        variations = [
            {"p_scale": p_scale, "q_scale": q_scale} for p_scale, q_scale in [target, *groupmates]
        ]
        options = {"max_support": max_support, "threshold": 1e-3}
        swept = evaluate_sweep(model, method, variations, options=options)
        for variation, result in zip(variations, swept):
            lone = evaluate(
                model.rescaled(variation["p_scale"], variation["q_scale"]), method, options=options
            )
            assert result.metric_dict() == lone.metric_dict()
            assert result.option_dict() == lone.option_dict()
            assert result.seed_entropy is None

    def test_point_is_independent_of_its_groupmates(self):
        # A 200-fault model at the default support cap: p_scale=0.5 must
        # read the same record alone, with 0.6 and with 1.0.
        model = random_model(17, 200)
        alone = evaluate(model.rescaled(0.5), "exact").metric_dict()
        for mate in (0.6, 1.0):
            first, _ = evaluate_sweep(model, "exact", [{"p_scale": 0.5}, {"p_scale": mate}])
            assert first.metric_dict() == alone


#: Monte Carlo sweep scales: powers of two, a scale one ulp above one, and
#: scales that reach nested levels 0-3.
_MC_SCALES = st.sampled_from([0.0, 0.3, 0.5, 1.0, 1.0000000000000002, 1.5, 2.0, 3.0, 4.5, 8.0])


class TestMonteCarloSiblingIndependence:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 30),
        versions=st.integers(1, 3),
        replications=st.integers(1, 3000),
        variations=st.lists(
            st.tuples(_MC_SCALES, st.sampled_from([0.0, 0.5, 1.0, 2.0])),
            min_size=1,
            max_size=6,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_point_record_is_the_same_alone_and_grouped(
        self, seed, n, versions, replications, variations
    ):
        # p_i <= 0.1, so every drawn scale keeps k * p_i <= 1.  The drawn
        # list may hold duplicates; each point must read its own record.
        model = FaultModel.random(
            np.random.default_rng(seed), n=n, p_range=(0.005, 0.1), total_impact=0.4
        )
        sweep = [{"p_scale": p_scale, "q_scale": q_scale} for p_scale, q_scale in variations]
        options = {"versions": versions, "replications": replications}
        grouped = evaluate_sweep(model, "montecarlo", sweep, seed=seed, options=options)
        for variation, result in zip(sweep, grouped):
            [alone] = evaluate_sweep(model, "montecarlo", [variation], seed=seed, options=options)
            assert result.metric_dict() == alone.metric_dict()


class TestSharedDemandDeterminism:
    def test_same_seed_is_bitwise_reproducible(self, small_model):
        variations = [{"p_scale": 0.5}, {"p_scale": 1.0, "q_scale": 2.0}]
        first = simulate_scaled_sweep(small_model, 3000, variations, versions=2, rng=7)
        second = simulate_scaled_sweep(small_model, 3000, variations, versions=2, rng=7)
        assert first == second
        different = simulate_scaled_sweep(small_model, 3000, variations, versions=2, rng=8)
        assert first != different

    def test_scales_are_nested_worlds(self, small_model):
        # Common random numbers make the sweep monotone path by path: a
        # fault present at a scale is present at every larger scale, so the
        # sampled means must be monotone in p_scale (no Monte Carlo noise in
        # the comparison).
        variations = [{"p_scale": scale} for scale in SCALES]
        results = simulate_scaled_sweep(small_model, 5000, variations, versions=2, rng=3)
        means = [result.mean_single for result in results]
        assert all(a <= b + 1e-15 for a, b in zip(means, means[1:]))
        any_fault = [result.prob_any_fault_system for result in results]
        assert all(a <= b + 1e-15 for a, b in zip(any_fault, any_fault[1:]))

    @pytest.mark.parametrize("versions", [1, 2, 3])
    def test_statistically_consistent_with_analytic(self, versions):
        model = random_model(21, 120)
        replications = 60_000
        variations = [{"p_scale": scale} for scale in SCALES]
        results = simulate_scaled_sweep(
            model, replications, variations, versions=versions, rng=5
        )
        for scale, result in zip(SCALES, results):
            scaled = model.scaled(scale)
            single = pfd_moments(scaled, 1)
            system = pfd_moments(scaled, versions)
            z_single = (result.mean_single - single.mean) / (
                single.std / np.sqrt(replications)
            )
            z_system = (result.mean_system - system.mean) / (
                max(system.std, 1e-300) / np.sqrt(replications)
            )
            assert abs(z_single) < 5.0
            assert abs(z_system) < 5.0
            assert result.prob_any_fault_single == pytest.approx(
                prob_any_fault(scaled), abs=0.02
            )
            if versions == 2:
                assert result.prob_any_fault_system == pytest.approx(
                    prob_any_common_fault(scaled), abs=0.02
                )

    def test_marginal_presence_frequencies(self):
        # Each fault's marginal presence must be k * p_i at every sweep
        # scale; checked through the mean fault count of the first version
        # (sum of the marginals).
        model = random_model(2, 40)
        replications = 40_000
        results = simulate_scaled_sweep(
            model, replications, [{"p_scale": scale} for scale in SCALES], versions=1, rng=9
        )
        for scale, result in zip(SCALES, results):
            probability = 1.0 - float(np.prod(1.0 - scale * model.p))
            assert result.prob_any_fault_single == pytest.approx(probability, abs=0.02)

    def test_q_scale_scales_pfds_only(self, small_model):
        base, doubled = simulate_scaled_sweep(
            small_model, 3000, [{"p_scale": 0.5}, {"p_scale": 0.5, "q_scale": 2.0}], rng=4
        )
        assert doubled.mean_single == pytest.approx(2.0 * base.mean_single, rel=1e-12)
        assert doubled.std_system == pytest.approx(2.0 * base.std_system, rel=1e-12)
        assert doubled.prob_any_fault_single == base.prob_any_fault_single
        assert doubled.prob_pfd_zero_system == base.prob_pfd_zero_system

    def test_rejects_bad_sweeps(self, small_model):
        with pytest.raises(ValueError, match="pushes some p_i above 1"):
            simulate_scaled_sweep(small_model, 100, [{"p_scale": 1000.0}])
        with pytest.raises(ValueError, match="replications"):
            simulate_scaled_sweep(small_model, 0, [{"p_scale": 0.5}])
