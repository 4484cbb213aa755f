"""Tests for the system facades."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.fault_model import FaultModel
from repro.core.moments import pfd_moments
from repro.core.no_common_faults import prob_any_common_fault, prob_any_fault
from repro.core.pfd_distribution import exact_pfd_distribution
from repro.core.system import OneOutOfRSystem, OneOutOfTwoSystem, SingleVersionSystem


class TestFacades:
    def test_single_version_matches_formulas(self, small_model: FaultModel):
        system = SingleVersionSystem(small_model)
        moments = pfd_moments(small_model, 1)
        assert system.versions == 1
        assert system.mean_pfd() == pytest.approx(moments.mean)
        assert system.variance_pfd() == pytest.approx(moments.variance)
        assert system.std_pfd() == pytest.approx(moments.std)
        assert system.prob_any_fault() == pytest.approx(prob_any_fault(small_model))

    def test_one_out_of_two_matches_formulas(self, small_model: FaultModel):
        system = OneOutOfTwoSystem(small_model)
        moments = pfd_moments(small_model, 2)
        assert system.versions == 2
        assert system.mean_pfd() == pytest.approx(moments.mean)
        assert system.prob_any_fault() == pytest.approx(prob_any_common_fault(small_model))
        assert system.single_channel().versions == 1

    def test_general_r_system(self, small_model: FaultModel):
        system = OneOutOfRSystem(model=small_model, versions=3)
        assert system.mean_pfd() == pytest.approx(float(np.sum(small_model.p**3 * small_model.q)))

    def test_rejects_bad_version_count(self, small_model: FaultModel):
        with pytest.raises(ValueError):
            OneOutOfRSystem(model=small_model, versions=0)

    def test_fault_count_distribution(self, small_model: FaultModel):
        system = OneOutOfTwoSystem(small_model)
        np.testing.assert_allclose(
            system.fault_count_distribution().probabilities, small_model.p**2
        )

    def test_prob_fault_free_complement(self, small_model: FaultModel):
        system = OneOutOfTwoSystem(small_model)
        assert system.prob_fault_free() + system.prob_any_fault() == pytest.approx(1.0)


class TestDistributionsAndBounds:
    def test_exact_bound_above_normal_bound_consistency(self, random_model: FaultModel):
        system = SingleVersionSystem(random_model)
        exact = system.exact_bound(0.99, max_support=512)
        low, high = exact_pfd_distribution(random_model, 1, max_support=512).quantile(0.99)
        assert low <= exact == high
        normal = system.normal_bound(0.99)
        # The two estimates should agree to within a modest relative factor for
        # a model with many faults (central limit regime): the band around the
        # normal bound meets the bracket of the exact percentile.
        assert low <= 1.25 * normal and high >= 0.75 * normal

    def test_bounds_order_between_architectures(self, small_model: FaultModel):
        single = SingleVersionSystem(small_model)
        pair = OneOutOfTwoSystem(small_model)
        assert pair.normal_bound(0.99) <= single.normal_bound(0.99)
        assert pair.exact_bound(0.99) <= single.exact_bound(0.99)

    def test_prob_pfd_exceeds(self, small_model: FaultModel):
        system = SingleVersionSystem(small_model)
        assert system.prob_pfd_exceeds(0.0) == pytest.approx(system.prob_any_fault())
        assert system.prob_pfd_exceeds(1.0) == 0.0

    def test_normal_approximation_error_bound_positive(self, small_model: FaultModel):
        assert SingleVersionSystem(small_model).normal_approximation_error_bound() > 0.0


class TestSampling:
    def test_sample_pfd_mean(self, small_model: FaultModel, rng):
        system = OneOutOfTwoSystem(small_model)
        samples = system.sample_pfd(rng, 200_000)
        assert samples.mean() == pytest.approx(system.mean_pfd(), rel=0.25)

    def test_sample_pfd_single_version(self, small_model: FaultModel, rng):
        system = SingleVersionSystem(small_model)
        samples = system.sample_pfd(rng, 100_000)
        assert samples.mean() == pytest.approx(system.mean_pfd(), rel=0.05)

    def test_sample_pfd_rejects_negative_size(self, small_model: FaultModel, rng):
        with pytest.raises(ValueError):
            SingleVersionSystem(small_model).sample_pfd(rng, -1)
