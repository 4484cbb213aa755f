"""Tests for the streaming execution path of the engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.fault_model import FaultModel
from repro.core.moments import pfd_moments
from repro.montecarlo.engine import MonteCarloEngine
from repro.montecarlo.results import PairSimulationResult
from repro.montecarlo.streaming import StreamingSimulationResult


@pytest.fixture
def model() -> FaultModel:
    return FaultModel(p=np.array([0.3, 0.15, 0.05]), q=np.array([0.05, 0.1, 0.2]))


class TestConstructionValidation:
    def test_process_defaults_without_type_ignore(self, model):
        # ``process`` is a genuine Optional field now; passing None explicitly
        # behaves exactly like omitting it.
        engine = MonteCarloEngine(model, process=None)
        assert engine.process is not None
        assert engine.process.model is model

    def test_rejects_a_process_on_another_model(self, model):
        from repro.versions.generation import IndependentDevelopmentProcess

        other = FaultModel(p=np.array([0.1, 0.2]), q=np.array([0.1, 0.1]))
        with pytest.raises(ValueError, match="engine's fault model"):
            MonteCarloEngine(model, process=IndependentDevelopmentProcess(other))


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


class TestSequentialExecution:
    def test_deterministic_and_statistically_consistent(self, model):
        engine = MonteCarloEngine(model)
        first = engine.simulate_paired(30_000, rng=4)
        second = engine.simulate_paired(30_000, rng=4)
        assert np.array_equal(first.single.pfds.samples, second.single.pfds.samples)
        assert np.array_equal(first.system.pfds.samples, second.system.pfds.samples)
        moments = pfd_moments(model, 1)
        assert first.single.mean_pfd() == pytest.approx(moments.mean, rel=0.05)

    def test_streaming_counts_every_chunk(self, model, monkeypatch):
        from repro.montecarlo import engine as engine_module

        # 30_001 rows in chunks of 4_096 leave a short last chunk.
        monkeypatch.setattr(engine_module, "CHUNK_ROWS", 4_096)
        result = MonteCarloEngine(model).simulate_single_streaming(30_001, rng=6)
        assert result.pfds.count == 30_001
        assert result.mean_pfd() == pytest.approx(pfd_moments(model, 1).mean, rel=0.05)

    def test_tiny_runs_stream_the_sampled_draws(self, model):
        engine = MonteCarloEngine(model)
        sampled = engine.simulate_single_versions(10, rng=9)
        streamed = engine.simulate_single_streaming(10, rng=9)
        assert streamed.pfds.count == 10
        assert streamed.mean_pfd() == pytest.approx(sampled.mean_pfd(), rel=1e-12)
        assert streamed.pfds.minimum == float(np.min(sampled.pfds.samples))
        assert streamed.pfds.maximum == float(np.max(sampled.pfds.samples))

    def test_paired_streaming_matches_sampled_means(self, model):
        engine = MonteCarloEngine(model)
        sampled = engine.simulate_paired(20_000, rng=11)
        streamed = engine.simulate_paired_streaming(20_000, rng=11)
        assert streamed.single.mean_pfd() == pytest.approx(sampled.single.mean_pfd(), rel=1e-12)
        assert streamed.system.mean_pfd() == pytest.approx(sampled.system.mean_pfd(), rel=1e-12)
        assert streamed.risk_ratio() == pytest.approx(sampled.risk_ratio(), rel=1e-12)
