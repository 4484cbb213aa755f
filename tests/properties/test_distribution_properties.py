"""Property-based tests for the statistical substrate."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.fault_model import FaultModel
from repro.core.moments import pfd_moments
from repro.core.no_common_faults import prob_fault_free_version
from repro.core.pfd_distribution import exact_pfd_distribution
from repro.stats.discrete import DiscreteDistribution
from repro.stats.poisson_binomial import PoissonBinomial

probability_arrays = hnp.arrays(
    dtype=float,
    shape=st.integers(min_value=1, max_value=15),
    elements=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


class TestPoissonBinomialProperties:
    @given(probability_arrays)
    @settings(max_examples=200, deadline=None)
    def test_pmf_is_a_distribution(self, probabilities: np.ndarray):
        distribution = PoissonBinomial(probabilities)
        pmf = distribution.pmf()
        assert pmf.shape == (distribution.n + 1,)
        assert np.all(pmf >= 0.0)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-9)

    @given(probability_arrays)
    @settings(max_examples=200, deadline=None)
    def test_pmf_mean_matches_formula(self, probabilities: np.ndarray):
        distribution = PoissonBinomial(probabilities)
        counts = np.arange(distribution.n + 1)
        assert float(np.dot(counts, distribution.pmf())) == pytest.approx(
            distribution.mean(), abs=1e-9
        )

    @given(probability_arrays)
    @settings(max_examples=200, deadline=None)
    def test_pmf_variance_matches_formula(self, probabilities: np.ndarray):
        distribution = PoissonBinomial(probabilities)
        counts = np.arange(distribution.n + 1)
        pmf = distribution.pmf()
        mean = float(np.dot(counts, pmf))
        variance = float(np.dot((counts - mean) ** 2, pmf))
        assert variance == pytest.approx(distribution.variance(), abs=1e-9)

    @given(probability_arrays)
    @settings(max_examples=200, deadline=None)
    def test_prob_zero_consistency(self, probabilities: np.ndarray):
        distribution = PoissonBinomial(probabilities)
        assert distribution.pmf()[0] == pytest.approx(distribution.prob_zero(), abs=1e-9)

    @given(probability_arrays)
    @settings(max_examples=200, deadline=None)
    def test_squared_distribution_stochastically_smaller(self, probabilities: np.ndarray):
        # The common-fault count N2 is stochastically no larger than N1:
        # its CDF dominates at every point.
        original = PoissonBinomial(probabilities)
        squared = original.squared()
        np.testing.assert_array_compare(
            lambda a, b: a >= b - 1e-9, squared.cdf(), original.cdf()
        )


@st.composite
def small_fault_models(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    p = draw(
        hnp.arrays(
            dtype=float,
            shape=n,
            elements=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        )
    )
    raw_q = draw(
        hnp.arrays(
            dtype=float,
            shape=n,
            elements=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        )
    )
    total = raw_q.sum()
    q = raw_q / total if total > 1.0 else raw_q
    return FaultModel(p=p, q=q)


class TestExactPfdDistributionProperties:
    @given(small_fault_models(), st.integers(min_value=1, max_value=3))
    @settings(max_examples=150, deadline=None)
    def test_moments_match_closed_forms(self, model: FaultModel, versions: int):
        distribution = exact_pfd_distribution(model, versions, max_support=None).exact
        moments = pfd_moments(model, versions)
        assert distribution.mean() == pytest.approx(moments.mean, abs=1e-10)
        assert distribution.variance() == pytest.approx(moments.variance, abs=1e-10)

    @given(small_fault_models())
    @settings(max_examples=150, deadline=None)
    def test_support_bounded_by_total_impact(self, model: FaultModel):
        distribution = exact_pfd_distribution(model, 1, max_support=None).exact
        assert distribution.support.min() >= -1e-12
        assert distribution.support.max() <= model.q.sum() + 1e-12

    @given(small_fault_models())
    @settings(max_examples=150, deadline=None)
    def test_prob_zero_at_least_fault_free_probability(self, model: FaultModel):
        # P(Theta = 0) >= P(no fault present): faults with q_i = 0 also leave
        # the PFD at zero.
        distribution = exact_pfd_distribution(model, 1, max_support=None).exact
        assert distribution.prob_zero() >= prob_fault_free_version(model) - 1e-12

    @given(small_fault_models(), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=100, deadline=None)
    def test_cdf_monotone(self, model: FaultModel, seed: int):
        distribution = exact_pfd_distribution(model, 2, max_support=None).exact
        rng = np.random.default_rng(seed)
        points = np.sort(rng.random(5) * (model.q.sum() + 0.01))
        cdf_values = [distribution.cdf(float(x)) for x in points]
        assert all(a <= b + 1e-12 for a, b in zip(cdf_values, cdf_values[1:]))


class TestDiscreteDistributionProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=0.3, allow_nan=False),
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_convolution_mean_is_additive(self, components):
        distributions = [DiscreteDistribution.two_point(value, probability) for value, probability in components]
        combined = DiscreteDistribution.convolve_many(distributions)
        expected_mean = sum(d.mean() for d in distributions)
        expected_variance = sum(d.variance() for d in distributions)
        assert combined.mean() == pytest.approx(expected_mean, abs=1e-10)
        assert combined.variance() == pytest.approx(expected_variance, abs=1e-10)
