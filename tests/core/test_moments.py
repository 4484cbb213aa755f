"""Tests for the PFD moments (paper eqs. (1)-(3), (5)-(8))."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.fault_model import FaultModel
from repro.core.moments import (
    expected_fault_count,
    pfd_moments,
    r_version_mean,
    r_version_std,
    r_version_variance,
    single_version_mean,
    single_version_std,
    single_version_variance,
    two_version_mean,
    two_version_std,
    two_version_variance,
)


class TestEquationOne:
    def test_single_version_mean_formula(self, small_model: FaultModel):
        expected = float(np.sum(small_model.p * small_model.q))
        assert single_version_mean(small_model) == pytest.approx(expected)

    def test_two_version_mean_formula(self, small_model: FaultModel):
        expected = float(np.sum(small_model.p**2 * small_model.q))
        assert two_version_mean(small_model) == pytest.approx(expected)

    def test_hand_computed_values(self):
        model = FaultModel(p=np.array([0.5, 0.1]), q=np.array([0.2, 0.4]))
        assert single_version_mean(model) == pytest.approx(0.5 * 0.2 + 0.1 * 0.4)
        assert two_version_mean(model) == pytest.approx(0.25 * 0.2 + 0.01 * 0.4)


class TestEquationTwo:
    def test_single_version_variance_formula(self, small_model: FaultModel):
        p, q = small_model.p, small_model.q
        assert single_version_variance(small_model) == pytest.approx(
            float(np.sum(p * (1 - p) * q**2))
        )

    def test_two_version_variance_formula(self, small_model: FaultModel):
        p, q = small_model.p, small_model.q
        assert two_version_variance(small_model) == pytest.approx(
            float(np.sum(p**2 * (1 - p**2) * q**2))
        )

    def test_std_is_sqrt_of_variance(self, small_model: FaultModel):
        assert single_version_std(small_model) == pytest.approx(
            np.sqrt(single_version_variance(small_model))
        )
        assert two_version_std(small_model) == pytest.approx(
            np.sqrt(two_version_variance(small_model))
        )


class TestRVersionGeneralisation:
    def test_r_equals_one_and_two_match_specialised(self, small_model: FaultModel):
        assert r_version_mean(small_model, 1) == single_version_mean(small_model)
        assert r_version_mean(small_model, 2) == two_version_mean(small_model)
        assert r_version_variance(small_model, 1) == single_version_variance(small_model)
        assert r_version_variance(small_model, 2) == two_version_variance(small_model)

    def test_mean_decreases_with_more_versions(self, small_model: FaultModel):
        means = [r_version_mean(small_model, r) for r in range(1, 5)]
        assert all(earlier > later for earlier, later in zip(means, means[1:]))

    def test_three_version_formula(self):
        model = FaultModel(p=np.array([0.5]), q=np.array([0.1]))
        assert r_version_mean(model, 3) == pytest.approx(0.5**3 * 0.1)
        assert r_version_std(model, 3) == pytest.approx(
            np.sqrt(0.125 * (1 - 0.125)) * 0.1
        )

    def test_rejects_bad_version_count(self, small_model: FaultModel):
        with pytest.raises(ValueError):
            r_version_mean(small_model, 0)
        with pytest.raises(ValueError):
            r_version_variance(small_model, -1)


class TestPfdMoments:
    def test_container_consistency(self, small_model: FaultModel):
        moments = pfd_moments(small_model, 2)
        assert moments.mean == two_version_mean(small_model)
        assert moments.variance == two_version_variance(small_model)
        assert moments.std == pytest.approx(two_version_std(small_model))

    def test_bound(self, small_model: FaultModel):
        moments = pfd_moments(small_model, 1)
        assert moments.bound(2.33) == pytest.approx(moments.mean + 2.33 * moments.std)


class TestExpectedFaultCount:
    def test_single_version(self, small_model: FaultModel):
        assert expected_fault_count(small_model, 1) == pytest.approx(small_model.p.sum())

    def test_pair(self, small_model: FaultModel):
        assert expected_fault_count(small_model, 2) == pytest.approx((small_model.p**2).sum())

    def test_rejects_bad_versions(self, small_model: FaultModel):
        with pytest.raises(ValueError):
            expected_fault_count(small_model, 0)


class TestAgainstExactDistribution:
    def test_moments_match_exact_distribution(self, small_model: FaultModel):
        from repro.core.pfd_distribution import exact_pfd_distribution

        for versions in (1, 2, 3):
            distribution = exact_pfd_distribution(small_model, versions, max_support=None).exact
            moments = pfd_moments(small_model, versions)
            assert distribution.mean() == pytest.approx(moments.mean, rel=1e-12)
            assert distribution.variance() == pytest.approx(moments.variance, rel=1e-10)
