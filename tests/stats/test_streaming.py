"""Tests for the streaming accumulators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.stats.streaming import StreamingHistogram, StreamingMoments


class TestStreamingMoments:
    def test_matches_numpy_for_batches(self):
        rng = np.random.default_rng(0)
        samples = rng.exponential(size=10_000)
        moments = StreamingMoments()
        for start in range(0, samples.size, 997):
            moments.update(samples[start : start + 997])
        assert moments.count == samples.size
        assert moments.mean() == pytest.approx(float(np.mean(samples)), rel=1e-12)
        assert moments.std() == pytest.approx(float(np.std(samples, ddof=1)), rel=1e-10)
        assert moments.variance() == pytest.approx(float(np.var(samples, ddof=1)), rel=1e-10)
        assert moments.minimum == float(np.min(samples))
        assert moments.maximum == float(np.max(samples))

    def test_two_batch_update_equals_single_pass(self):
        # The second update folds a whole batch into the running totals with
        # the Chan combination; it must agree with one pass over everything.
        rng = np.random.default_rng(1)
        samples = np.concatenate([rng.normal(size=5000), np.zeros(7)])
        whole = StreamingMoments()
        whole.update(samples)
        batched = StreamingMoments()
        batched.update(samples[:1234])
        batched.update(samples[1234:])
        assert batched.count == whole.count
        assert batched.mean() == pytest.approx(whole.mean(), rel=1e-12)
        assert batched.variance() == pytest.approx(whole.variance(), rel=1e-10)
        assert (batched.minimum, batched.maximum) == (whole.minimum, whole.maximum)
        assert batched.zeros == whole.zeros == 7

    def test_zero_tracking(self):
        moments = StreamingMoments()
        moments.update(np.array([0.0, 1.0, 0.0, 2.0]))
        assert moments.zeros == 2
        assert moments.fraction_zero() == pytest.approx(0.5)

    def test_standard_error(self):
        moments = StreamingMoments()
        samples = np.arange(100, dtype=float)
        moments.update(samples)
        expected = float(np.std(samples, ddof=1) / np.sqrt(samples.size))
        assert moments.standard_error() == pytest.approx(expected, rel=1e-12)

    def test_empty_accumulator_raises(self):
        moments = StreamingMoments()
        with pytest.raises(ValueError):
            moments.mean()
        with pytest.raises(ValueError):
            _ = moments.minimum
        moments.update(np.array([]))
        assert moments.count == 0

    def test_empty_update_after_data_is_noop(self):
        moments = StreamingMoments()
        moments.update(np.array([1.0, 2.0, 0.0]))
        before = (moments.count, moments.mean(), moments.variance(), moments.zeros)
        moments.update(np.array([]))
        assert (moments.count, moments.mean(), moments.variance(), moments.zeros) == before


class TestStreamingHistogram:
    def test_cdf_exact_at_edges(self):
        histogram = StreamingHistogram(0.0, 1.0, bins=10)
        histogram.update(np.array([0.05, 0.15, 0.15, 0.95]))
        assert histogram.cdf(0.1) == pytest.approx(0.25)
        assert histogram.cdf(0.2) == pytest.approx(0.75)
        assert histogram.cdf(1.0) == pytest.approx(1.0)
        assert histogram.cdf(-0.5) == 0.0

    def test_zero_atom_tracked_exactly(self):
        histogram = StreamingHistogram(0.0, 1.0, bins=4)
        histogram.update(np.array([0.0, 0.0, 0.3]))
        assert histogram.prob_zero() == pytest.approx(2.0 / 3.0)
        assert histogram.cdf(0.0) >= 2.0 / 3.0 - 1e-12

    def test_quantile_monotone_and_bounded(self):
        rng = np.random.default_rng(2)
        samples = rng.random(10_000)
        histogram = StreamingHistogram(0.0, 1.0, bins=1000)
        histogram.update(samples)
        levels = [0.1, 0.5, 0.9, 0.99]
        quantiles = [histogram.quantile(level) for level in levels]
        assert all(a <= b for a, b in zip(quantiles, quantiles[1:]))
        for level, value in zip(levels, quantiles):
            assert value == pytest.approx(level, abs=0.01)

    def test_two_batch_update_equals_single_pass(self):
        rng = np.random.default_rng(3)
        samples = np.concatenate([rng.random(2000), np.zeros(5), [-0.25, 1.5]])
        whole = StreamingHistogram(0.0, 1.0, bins=64)
        whole.update(samples)
        batched = StreamingHistogram(0.0, 1.0, bins=64)
        batched.update(samples[:777])
        batched.update(samples[777:])
        np.testing.assert_array_equal(batched.counts, whole.counts)
        assert batched.total == whole.total == samples.size
        assert (batched.zero_count, batched.underflow, batched.overflow) == (
            whole.zero_count,
            whole.underflow,
            whole.overflow,
        )

    def test_empty_update_is_noop(self):
        histogram = StreamingHistogram(0.0, 1.0, bins=8)
        histogram.update(np.array([0.2, 0.7]))
        counts = histogram.counts.copy()
        histogram.update(np.array([]))
        np.testing.assert_array_equal(histogram.counts, counts)
        assert histogram.total == 2

    def test_out_of_range_counted(self):
        histogram = StreamingHistogram(0.0, 1.0, bins=4)
        histogram.update(np.array([-0.5, 0.5, 1.5]))
        assert histogram.underflow == 1
        assert histogram.overflow == 1
        assert histogram.cdf(1.0) == pytest.approx(2.0 / 3.0)
        assert histogram.cdf(2.0) == pytest.approx(1.0)

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            StreamingHistogram(1.0, 0.0)
        with pytest.raises(ValueError):
            StreamingHistogram(0.0, 1.0, bins=0)
