"""Tests for the exact PFD distribution."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.fault_model import FaultModel
from repro.core.moments import pfd_moments
from repro.core.no_common_faults import prob_fault_free_pair, prob_fault_free_version
from repro.core.pfd_distribution import (
    exact_pfd_distribution,
    pfd_exceedance_probability,
    pfd_percentile,
    prob_pfd_zero,
    shared_distributions,
)


class TestExactDistribution:
    def test_two_fault_enumeration(self):
        model = FaultModel(p=np.array([0.5, 0.2]), q=np.array([0.1, 0.3]))
        distribution = exact_pfd_distribution(model, 1, max_support=None).exact
        np.testing.assert_allclose(distribution.support, [0.0, 0.1, 0.3, 0.4])
        np.testing.assert_allclose(
            distribution.probabilities, [0.5 * 0.8, 0.5 * 0.8, 0.5 * 0.2, 0.5 * 0.2]
        )

    def test_mean_and_variance_match_moments(self, small_model, homogeneous_model):
        for model in (small_model, homogeneous_model):
            for versions in (1, 2):
                distribution = exact_pfd_distribution(model, versions, max_support=None).exact
                moments = pfd_moments(model, versions)
                assert distribution.mean() == pytest.approx(moments.mean, rel=1e-12, abs=1e-15)
                assert distribution.variance() == pytest.approx(moments.variance, rel=1e-10, abs=1e-18)

    def test_prob_zero_matches_fault_free_probability(self, small_model: FaultModel):
        single = exact_pfd_distribution(small_model, 1, max_support=None).exact
        pair = exact_pfd_distribution(small_model, 2, max_support=None).exact
        assert single.prob_zero() == pytest.approx(prob_fault_free_version(small_model))
        assert pair.prob_zero() == pytest.approx(prob_fault_free_pair(small_model))

    def test_capped_bracket_contains_the_mean(self, random_model: FaultModel):
        bracket = exact_pfd_distribution(random_model, 1, max_support=256)
        assert not bracket.is_exact
        assert bracket.upper_weights.size == 4 * 256
        mean = pfd_moments(random_model, 1).mean
        assert bracket.lower().mean() <= mean <= bracket.upper().mean()

    def test_rejects_bad_versions(self, small_model: FaultModel):
        with pytest.raises(ValueError):
            exact_pfd_distribution(small_model, 0)



class TestSharedDistributions:
    def test_repeat_call_returns_the_computed_object(self, small_model: FaultModel):
        with shared_distributions() as scope:
            first = exact_pfd_distribution(small_model, 2)
            equal = FaultModel(p=small_model.p.copy(), q=small_model.q.copy())
            again = exact_pfd_distribution(equal, 2)
            other = exact_pfd_distribution(small_model, 1)
            capped = exact_pfd_distribution(small_model, 2, max_support=4)
        assert again is first
        assert other is not first and capped is not first
        assert (scope.computed, scope.shared) == (3, 1)
        assert not first.exact.support.flags.writeable
        assert not first.exact.probabilities.flags.writeable
        assert not capped.upper_weights.flags.writeable
        assert not capped.lower_weights.flags.writeable
        fresh = exact_pfd_distribution(small_model, 2)
        np.testing.assert_array_equal(fresh.exact.probabilities, first.exact.probabilities)
        np.testing.assert_array_equal(fresh.exact.support, first.exact.support)

    def test_nothing_is_kept_outside_a_scope(self, small_model: FaultModel):
        with shared_distributions():
            inside = exact_pfd_distribution(small_model, 2)
        assert exact_pfd_distribution(small_model, 2) is not inside
        assert exact_pfd_distribution(small_model, 2) is not exact_pfd_distribution(small_model, 2)

    def test_nested_scope_starts_empty(self, small_model: FaultModel):
        with shared_distributions() as outer:
            first = exact_pfd_distribution(small_model, 2)
            with shared_distributions() as inner:
                assert exact_pfd_distribution(small_model, 2) is not first
            assert exact_pfd_distribution(small_model, 2) is first
        assert (inner.computed, inner.shared) == (1, 0)
        assert (outer.computed, outer.shared) == (1, 1)

    def test_a_lattice_bracket_is_shared_per_reach(self, random_model: FaultModel):
        with shared_distributions() as scope:
            first = exact_pfd_distribution(random_model, 2, 256, reach=0.99)
            again = exact_pfd_distribution(random_model, 2, 256, reach=0.99)
            higher = exact_pfd_distribution(random_model, 2, 256, reach=0.999)
            full = exact_pfd_distribution(random_model, 2, 256)
        assert not first.is_exact
        assert again is first
        assert len({id(first), id(higher), id(full)}) == 3
        assert (scope.computed, scope.shared) == (3, 1)
        assert first.upper_weights.size < higher.upper_weights.size < full.upper_weights.size

    def test_an_exact_bracket_serves_every_reach(self, small_model: FaultModel):
        with shared_distributions() as scope:
            first = exact_pfd_distribution(small_model, 2, reach=0.99)
            assert exact_pfd_distribution(small_model, 2, reach=0.999) is first
            assert exact_pfd_distribution(small_model, 2) is first
        assert first.is_exact
        assert (scope.computed, scope.shared) == (1, 2)

class TestExceedanceAndPercentile:
    def test_exceedance_simple_case(self):
        model = FaultModel(p=np.array([0.5]), q=np.array([0.2]))
        assert pfd_exceedance_probability(model, 0.1, 1) == pytest.approx(0.5)
        assert pfd_exceedance_probability(model, 0.1, 2) == pytest.approx(0.25)
        assert pfd_exceedance_probability(model, 0.3, 1) == pytest.approx(0.0)

    def test_exceedance_at_zero_threshold(self, small_model: FaultModel):
        assert pfd_exceedance_probability(small_model, 0.0, 1) == pytest.approx(
            1 - prob_fault_free_version(small_model)
        )

    def test_exceedance_on_a_subnormal_lattice(self):
        # Impacts near the smallest float make the lattice spacing
        # subnormal: a threshold far above it must read as "nothing
        # exceeds", not overflow while locating its cell.
        model = FaultModel(p=np.full(18, 0.5), q=np.full(18, 2.2250738585e-313))
        bracket = exact_pfd_distribution(model, 2, max_support=16)
        assert not bracket.is_exact
        low, high = bracket.survival(1e-3)
        assert low == 0.0
        assert high < 1e-300  # only the readout's rounding allowance

    def test_exceedance_rejects_negative_threshold(self, small_model: FaultModel):
        with pytest.raises(ValueError):
            pfd_exceedance_probability(small_model, -0.1)

    def test_percentile_monotone_in_level(self, small_model: FaultModel):
        levels = [0.5, 0.9, 0.99, 0.999]
        values = [pfd_percentile(small_model, level, 1) for level in levels]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_two_version_percentile_below_single(self, random_model: FaultModel):
        assert pfd_percentile(random_model, 0.99, 2, max_support=512) <= pfd_percentile(
            random_model, 0.99, 1, max_support=512
        )


class TestProbPfdZero:
    def test_ignores_zero_impact_faults(self):
        model = FaultModel(p=np.array([0.5, 0.3]), q=np.array([0.0, 0.1]))
        # Only the second fault can make the PFD positive.
        assert prob_pfd_zero(model, 1) == pytest.approx(0.7)

    def test_all_zero_impact(self):
        model = FaultModel(p=np.array([0.5]), q=np.array([0.0]))
        assert prob_pfd_zero(model, 1) == 1.0

    def test_matches_distribution(self, small_model: FaultModel):
        distribution = exact_pfd_distribution(small_model, 2, max_support=None).exact
        assert prob_pfd_zero(small_model, 2) == pytest.approx(distribution.prob_zero())

    def test_rejects_bad_versions(self, small_model: FaultModel):
        with pytest.raises(ValueError):
            prob_pfd_zero(small_model, 0)
