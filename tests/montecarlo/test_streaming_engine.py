"""Tests for the streaming and parallel execution paths of the engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.fault_model import FaultModel
from repro.core.moments import pfd_moments
from repro.montecarlo.engine import MonteCarloEngine, _shard_sizes
from repro.montecarlo.results import PairSimulationResult
from repro.montecarlo.streaming import StreamingSimulationResult


@pytest.fixture
def model() -> FaultModel:
    return FaultModel(p=np.array([0.3, 0.15, 0.05]), q=np.array([0.05, 0.1, 0.2]))


class TestConstructionValidation:
    def test_rejects_bad_jobs(self, model):
        with pytest.raises(ValueError):
            MonteCarloEngine(model, jobs=0)

    def test_process_defaults_without_type_ignore(self, model):
        # ``process`` is a genuine Optional field now; passing None explicitly
        # behaves exactly like omitting it.
        engine = MonteCarloEngine(model, process=None)
        assert engine.process is not None
        assert engine.process.model is model


class TestStreamingSimulations:
    def test_single_streaming_statistics(self, model):
        engine = MonteCarloEngine(model)
        result = engine.simulate_single_streaming(100_000, rng=0)
        assert isinstance(result, StreamingSimulationResult)
        moments = pfd_moments(model, 1)
        assert result.mean_pfd() == pytest.approx(moments.mean, rel=0.02)
        assert result.std_pfd() == pytest.approx(moments.std, rel=0.03)
        assert result.replications == 100_000
        assert result.pfds.count == 100_000

    def test_paired_streaming_ratios(self, model):
        from repro.core.no_common_faults import risk_ratio

        engine = MonteCarloEngine(model)
        result = engine.simulate_paired_streaming(100_000, rng=3)
        assert isinstance(result, PairSimulationResult)
        assert isinstance(result.single, StreamingSimulationResult)
        assert isinstance(result.system, StreamingSimulationResult)
        assert result.risk_ratio() == pytest.approx(risk_ratio(model), abs=0.02)
        assert result.std_ratio() < 1.0
        summary = result.summary()
        for key in ("mean_single", "mean_system", "risk_ratio", "replications"):
            assert key in summary

    def test_systems_streaming(self, model):
        engine = MonteCarloEngine(model)
        result = engine.simulate_systems_streaming(50_000, versions=3, rng=2)
        assert result.mean_pfd() == pytest.approx(pfd_moments(model, 3).mean, rel=0.2)

    def test_streaming_percentiles_bracket_samples(self, model):
        engine = MonteCarloEngine(model)
        streamed = engine.simulate_single_streaming(50_000, rng=5)
        sampled = engine.simulate_single_versions(50_000, rng=5)
        # Histogram quantiles resolve to one bin; the bin width is
        # total_impact / bins.
        bin_width = model.total_impact / 4096
        assert streamed.pfd_percentile(0.9) == pytest.approx(
            sampled.pfd_percentile(0.9), abs=2 * bin_width
        )

    def test_confidence_interval_contains_analytic_mean(self, model):
        engine = MonteCarloEngine(model)
        result = engine.simulate_single_streaming(200_000, rng=8)
        low, high = result.mean_pfd_confidence_interval(0.999)
        assert low <= pfd_moments(model, 1).mean <= high

    def test_rejects_bad_arguments(self, model):
        engine = MonteCarloEngine(model)
        with pytest.raises(ValueError):
            engine.simulate_single_streaming(0)
        with pytest.raises(ValueError):
            engine.simulate_systems_streaming(100, versions=0)


class TestParallelExecution:
    def test_shard_sizes_cover_replications(self):
        assert _shard_sizes(10, 3) == [4, 3, 3]
        assert _shard_sizes(2, 8) == [1, 1]
        assert sum(_shard_sizes(1_000_003, 7)) == 1_000_003

    def test_parallel_deterministic_and_statistically_consistent(self, model):
        engine = MonteCarloEngine(model, jobs=2)
        first = engine.simulate_paired(30_000, rng=4)
        second = engine.simulate_paired(30_000, rng=4)
        assert np.array_equal(first.single.pfds.samples, second.single.pfds.samples)
        assert np.array_equal(first.system.pfds.samples, second.system.pfds.samples)
        moments = pfd_moments(model, 1)
        assert first.single.mean_pfd() == pytest.approx(moments.mean, rel=0.05)

    def test_parallel_streaming_merges_all_shards(self, model):
        engine = MonteCarloEngine(model, jobs=2)
        result = engine.simulate_single_streaming(30_001, rng=6)
        assert result.pfds.count == 30_001
        assert result.mean_pfd() == pytest.approx(pfd_moments(model, 1).mean, rel=0.05)

    def test_parallel_falls_back_to_sequential_for_tiny_runs(self, model):
        # Fewer replications than 2*jobs run in-process (and bitwise match the
        # sequential path).
        parallel = MonteCarloEngine(model, jobs=8).simulate_single_versions(10, rng=9)
        sequential = MonteCarloEngine(model).simulate_single_versions(10, rng=9)
        assert np.array_equal(parallel.pfds.samples, sequential.pfds.samples)
