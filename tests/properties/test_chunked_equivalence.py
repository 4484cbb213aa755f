"""Chunked-equals-monolithic property: chunking only bounds memory.

The engine splits every run into chunks of ``CHUNK_ROWS`` replications.  Its
sequential sample arrays must be *bitwise-identical* to a run drawn in one
chunk for the same seed -- across scenarios, chunk sizes (including sizes
that do not divide the replication count) and simulation kinds.  The chunk
size is patched the way the block tests patch ``BLOCK_CELLS``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.fault_model import FaultModel
from repro.experiments.scenarios import (
    many_small_faults_scenario,
    protection_system_scenario,
)
from repro.montecarlo import engine as engine_module
from repro.montecarlo.engine import MonteCarloEngine
from repro.versions.correlated import CommonCauseDevelopmentProcess, CopulaDevelopmentProcess

REPLICATIONS = 2_000
CHUNK_SIZES = [1, 17, 256, 1999, 2_000, 50_000]


@pytest.fixture(scope="module")
def scenario_models() -> dict[str, FaultModel]:
    return {
        "homogeneous": FaultModel.homogeneous(n=40, probability=0.05, impact=0.002),
        "random": many_small_faults_scenario(n=120, rng=23),
        "protection-system": protection_system_scenario(rng=11).model,
    }


def _chunked(monkeypatch, rows: int, run):
    """``run()`` with the engine chunking every ``rows`` replications."""
    with monkeypatch.context() as patch:
        patch.setattr(engine_module, "CHUNK_ROWS", rows)
        return run()


def _assert_identical_summaries(first, second) -> None:
    assert np.array_equal(first.pfds.samples, second.pfds.samples)
    assert np.array_equal(first.fault_counts.samples, second.fault_counts.samples)
    assert first.mean_pfd() == second.mean_pfd()
    assert first.std_pfd() == second.std_pfd()
    assert first.prob_any_fault() == second.prob_any_fault()
    assert first.pfd_percentile(0.99) == second.pfd_percentile(0.99)


class TestChunkedEqualsMonolithic:
    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_single_versions(self, monkeypatch, scenario_models, chunk_size):
        for name, model in scenario_models.items():
            engine = MonteCarloEngine(model)
            monolithic = engine.simulate_single_versions(REPLICATIONS, rng=7)
            chunked = _chunked(
                monkeypatch,
                chunk_size,
                lambda: engine.simulate_single_versions(REPLICATIONS, rng=7),
            )
            _assert_identical_summaries(monolithic, chunked)

    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_paired(self, monkeypatch, scenario_models, chunk_size):
        for name, model in scenario_models.items():
            engine = MonteCarloEngine(model)
            monolithic = engine.simulate_paired(REPLICATIONS, rng=11)
            chunked = _chunked(
                monkeypatch, chunk_size, lambda: engine.simulate_paired(REPLICATIONS, rng=11)
            )
            _assert_identical_summaries(monolithic.single, chunked.single)
            _assert_identical_summaries(monolithic.system, chunked.system)
            assert monolithic.risk_ratio() == chunked.risk_ratio()
            assert monolithic.mean_ratio() == chunked.mean_ratio()

    @pytest.mark.parametrize("versions", [2, 3])
    def test_systems(self, monkeypatch, scenario_models, versions):
        for name, model in scenario_models.items():
            engine = MonteCarloEngine(model)
            monolithic = engine.simulate_systems(REPLICATIONS, versions=versions, rng=13)
            chunked = _chunked(
                monkeypatch,
                137,
                lambda: engine.simulate_systems(REPLICATIONS, versions=versions, rng=13),
            )
            _assert_identical_summaries(monolithic, chunked)

    def test_correlated_processes_chunk_identically(self, monkeypatch, scenario_models):
        """The guarantee holds for any process that draws chunks sequentially."""
        model = scenario_models["random"]
        for process in (
            CommonCauseDevelopmentProcess(model, bad_day_weight=0.1, inflation=2.0),
            CopulaDevelopmentProcess(model, correlation=0.4),
        ):
            engine = MonteCarloEngine(model, process=process)
            monolithic = engine.simulate_paired(REPLICATIONS, rng=3)
            chunked = _chunked(
                monkeypatch, 73, lambda: engine.simulate_paired(REPLICATIONS, rng=3)
            )
            _assert_identical_summaries(monolithic.single, chunked.single)
            _assert_identical_summaries(monolithic.system, chunked.system)

    def test_streaming_matches_sample_summaries(self, monkeypatch, scenario_models):
        """Streaming accumulators agree with the sample-based summaries."""
        monkeypatch.setattr(engine_module, "CHUNK_ROWS", 311)
        for name, model in scenario_models.items():
            engine = MonteCarloEngine(model)
            samples = engine.simulate_paired(REPLICATIONS, rng=19)
            streamed = engine.simulate_paired_streaming(REPLICATIONS, rng=19)
            for side in ("single", "system"):
                sample_side = getattr(samples, side)
                stream_side = getattr(streamed, side)
                assert stream_side.mean_pfd() == pytest.approx(
                    sample_side.mean_pfd(), rel=1e-12, abs=1e-18
                )
                assert stream_side.std_pfd() == pytest.approx(
                    sample_side.std_pfd(), rel=1e-10, abs=1e-18
                )
                assert stream_side.prob_any_fault() == sample_side.prob_any_fault()
                assert stream_side.prob_pfd_zero() == sample_side.pfds.prob_zero()
            assert streamed.risk_ratio() == pytest.approx(samples.risk_ratio(), rel=1e-12)
