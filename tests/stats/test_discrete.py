"""Tests for finite discrete distributions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.stats.discrete import DiscreteDistribution, _pair_runs, bracket_two_points


class TestConstruction:
    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            DiscreteDistribution(np.array([0.0, 1.0]), np.array([1.0]))

    def test_rejects_negative_probabilities(self):
        with pytest.raises(ValueError):
            DiscreteDistribution(np.array([0.0, 1.0]), np.array([1.5, -0.5]))

    def test_rejects_unnormalised(self):
        with pytest.raises(ValueError):
            DiscreteDistribution(np.array([0.0, 1.0]), np.array([0.3, 0.3]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DiscreteDistribution(np.array([]), np.array([]))

    def test_sorts_support(self):
        distribution = DiscreteDistribution(np.array([2.0, 1.0]), np.array([0.25, 0.75]))
        np.testing.assert_allclose(distribution.support, [1.0, 2.0])
        np.testing.assert_allclose(distribution.probabilities, [0.75, 0.25])

    def test_merges_duplicate_support(self):
        distribution = DiscreteDistribution(
            np.array([1.0, 1.0, 2.0]), np.array([0.2, 0.3, 0.5])
        )
        np.testing.assert_allclose(distribution.support, [1.0, 2.0])
        np.testing.assert_allclose(distribution.probabilities, [0.5, 0.5])

    def test_point_mass(self):
        distribution = DiscreteDistribution.point_mass(0.3)
        assert distribution.mean() == pytest.approx(0.3)
        assert distribution.variance() == pytest.approx(0.0)

    def test_two_point(self):
        distribution = DiscreteDistribution.two_point(0.5, 0.2)
        assert distribution.mean() == pytest.approx(0.1)
        assert distribution.prob_zero() == pytest.approx(0.8)

    def test_two_point_degenerate_cases(self):
        assert DiscreteDistribution.two_point(0.5, 0.0).support.size == 1
        assert DiscreteDistribution.two_point(0.0, 0.7).support.size == 1
        assert DiscreteDistribution.two_point(0.5, 1.0).mean() == pytest.approx(0.5)

    def test_two_point_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            DiscreteDistribution.two_point(0.5, 1.5)


class TestQueries:
    @pytest.fixture
    def simple(self) -> DiscreteDistribution:
        return DiscreteDistribution(
            np.array([0.0, 0.1, 0.2, 0.5]), np.array([0.4, 0.3, 0.2, 0.1])
        )

    def test_mean_and_variance(self, simple: DiscreteDistribution):
        expected_mean = 0.3 * 0.1 + 0.2 * 0.2 + 0.1 * 0.5
        assert simple.mean() == pytest.approx(expected_mean)
        expected_var = (
            0.4 * expected_mean**2
            + 0.3 * (0.1 - expected_mean) ** 2
            + 0.2 * (0.2 - expected_mean) ** 2
            + 0.1 * (0.5 - expected_mean) ** 2
        )
        assert simple.variance() == pytest.approx(expected_var)
        assert simple.std() == pytest.approx(np.sqrt(expected_var))

    def test_cdf_scalar_and_array(self, simple: DiscreteDistribution):
        assert simple.cdf(-0.01) == pytest.approx(0.0)
        assert simple.cdf(0.0) == pytest.approx(0.4)
        assert simple.cdf(0.15) == pytest.approx(0.7)
        assert simple.cdf(1.0) == pytest.approx(1.0)
        np.testing.assert_allclose(simple.cdf(np.array([0.0, 0.2])), [0.4, 0.9])

    def test_survival(self, simple: DiscreteDistribution):
        assert simple.survival(0.1) == pytest.approx(0.3)

    def test_quantile(self, simple: DiscreteDistribution):
        assert simple.quantile(0.0) == pytest.approx(0.0)
        assert simple.quantile(0.4) == pytest.approx(0.0)
        assert simple.quantile(0.5) == pytest.approx(0.1)
        assert simple.quantile(0.95) == pytest.approx(0.5)
        assert simple.quantile(1.0) == pytest.approx(0.5)

    def test_quantile_rejects_bad_level(self, simple: DiscreteDistribution):
        with pytest.raises(ValueError):
            simple.quantile(1.5)

    def test_prob_zero(self, simple: DiscreteDistribution):
        assert simple.prob_zero() == pytest.approx(0.4)


class TestConvolution:
    def test_convolve_two_point_masses(self):
        a = DiscreteDistribution.point_mass(1.0)
        b = DiscreteDistribution.point_mass(2.5)
        assert a.convolve(b).support.tolist() == [3.5]

    def test_convolution_mean_adds(self):
        a = DiscreteDistribution.two_point(0.3, 0.5)
        b = DiscreteDistribution.two_point(0.2, 0.25)
        c = a.convolve(b)
        assert c.mean() == pytest.approx(a.mean() + b.mean())
        assert c.variance() == pytest.approx(a.variance() + b.variance())

    def test_convolution_support_enumeration(self):
        a = DiscreteDistribution.two_point(0.3, 0.5)
        b = DiscreteDistribution.two_point(0.2, 0.5)
        c = a.convolve(b)
        np.testing.assert_allclose(c.support, [0.0, 0.2, 0.3, 0.5])
        np.testing.assert_allclose(c.probabilities, [0.25, 0.25, 0.25, 0.25])

    def test_convolve_many_matches_sequential(self):
        components = [DiscreteDistribution.two_point(0.1 * (i + 1), 0.3) for i in range(4)]
        tree = DiscreteDistribution.convolve_many(components)
        sequential = components[0]
        for component in components[1:]:
            sequential = sequential.convolve(component)
        np.testing.assert_allclose(tree.support, sequential.support)
        np.testing.assert_allclose(tree.probabilities, sequential.probabilities)

    def test_convolve_many_empty_is_zero(self):
        distribution = DiscreteDistribution.convolve_many([])
        assert distribution.support.tolist() == [0.0]

    def test_lattice_bracket_contains_the_mean(self):
        rng = np.random.default_rng(0)
        values = np.sort(rng.random(500))
        probabilities = rng.random(500)
        probabilities /= probabilities.sum()
        bracket = bracket_two_points(values, probabilities, max_support=32)
        assert not bracket.is_exact
        assert bracket.upper_weights.size == 4 * 32
        mean = float(np.dot(values, probabilities))
        assert bracket.lower().mean() <= mean <= bracket.upper().mean()

    def test_bracket_is_exact_when_small(self):
        bracket = bracket_two_points([0.5], [0.5], max_support=100)
        assert bracket.is_exact
        assert bracket.lower() is bracket.upper() is bracket.exact
        np.testing.assert_array_equal(bracket.exact.support, [0.0, 0.5])
        np.testing.assert_array_equal(bracket.exact.probabilities, [0.5, 0.5])

    def test_bracket_rejects_tiny_max_support(self):
        with pytest.raises(ValueError, match="max_support must be >= 2"):
            bracket_two_points([0.5], [0.5], max_support=1)

    def test_capped_bracket_contains_the_full_convolution(self):
        values = [0.01 * (i + 1) for i in range(12)]
        components = [DiscreteDistribution.two_point(value, 0.4) for value in values]
        full = DiscreteDistribution.convolve_many(components)
        bracket = bracket_two_points(values, [0.4] * 12, max_support=64)
        assert bracket.support_size <= 4 * 64 + 1
        for level in (0.1, 0.5, 0.9, 0.99):
            low, high = bracket.quantile(level)
            assert low <= full.quantile(level) <= high
        assert bracket.lower().mean() <= full.mean() <= bracket.upper().mean()

    @pytest.mark.parametrize("seed", range(20))
    def test_pair_runs_match_np_unique(self, seed):
        """The grouping behind the support bound gives ``np.unique``'s
        ascending pairs and counts, so the fold order and weights hold."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        # Few distinct values and probabilities, so pairs repeat, and the
        # same value appears with different probabilities (and vice versa).
        values = rng.choice(rng.uniform(1e-6, 0.1, size=4), size=n)
        probabilities = rng.choice(rng.uniform(0.01, 0.99, size=3), size=n)
        expected_pairs, expected_counts = np.unique(
            np.stack([values, probabilities], axis=1), axis=0, return_counts=True
        )
        sorted_values, sorted_probabilities, starts, counts = _pair_runs(values, probabilities)
        pairs = np.stack([sorted_values[starts], sorted_probabilities[starts]], axis=1)
        assert np.array_equal(pairs, expected_pairs)
        assert counts.tolist() == expected_counts.tolist()
        assert np.array_equal(sorted_values, np.repeat(expected_pairs[:, 0], expected_counts))
        assert np.array_equal(
            sorted_probabilities, np.repeat(expected_pairs[:, 1], expected_counts)
        )


class TestSampling:
    def test_sample_statistics(self):
        rng = np.random.default_rng(2)
        distribution = DiscreteDistribution(
            np.array([0.0, 1.0, 2.0]), np.array([0.5, 0.3, 0.2])
        )
        samples = distribution.sample(rng, 50_000)
        assert samples.mean() == pytest.approx(distribution.mean(), abs=0.02)

    def test_sample_rejects_negative(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError):
            DiscreteDistribution.point_mass(1.0).sample(rng, -5)
