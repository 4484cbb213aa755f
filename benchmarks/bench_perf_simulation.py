"""PERF -- chunked / streaming Monte Carlo throughput.

Bench for the high-throughput simulation kernel: the chunked path must be
bitwise-identical to the in-memory path (chunking is a memory knob, not a
different simulation), streaming summaries must agree with the sample-based
ones, and the throughput table records replications/second for the three
simulation kinds.  Absolute numbers land in ``BENCH_perf.json`` via
``benchmarks/run_benchmarks.py``; this bench asserts the invariants that make
those numbers meaningful.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from benchmarks.conftest import print_table
from repro.montecarlo import engine as engine_module
from repro.montecarlo.engine import MonteCarloEngine

REPLICATIONS = 200_000
CHUNK = 50_000


def test_perf_chunked_is_bitwise_identical(many_faults_model, benchmark, monkeypatch):
    """Chunked == in-memory, bitwise, on the n=200 scenario."""
    engine = MonteCarloEngine(many_faults_model)

    def workload():
        with monkeypatch.context() as patch:
            patch.setattr(engine_module, "CHUNK_ROWS", REPLICATIONS)
            monolithic = engine.simulate_paired(REPLICATIONS, rng=7)
        with monkeypatch.context() as patch:
            patch.setattr(engine_module, "CHUNK_ROWS", CHUNK)
            chunked = engine.simulate_paired(REPLICATIONS, rng=7)
        return monolithic, chunked

    monolithic, chunked = benchmark.pedantic(workload, rounds=1, iterations=1)
    assert np.array_equal(
        monolithic.single.pfds.samples, chunked.single.pfds.samples
    )
    assert np.array_equal(
        monolithic.system.pfds.samples, chunked.system.pfds.samples
    )
    assert monolithic.risk_ratio() == chunked.risk_ratio()


def test_perf_throughput_table(many_faults_model, benchmark):
    """Replications/second for single, paired and 1-out-of-3 streaming runs."""
    engine = MonteCarloEngine(many_faults_model)

    def workload():
        rows = []
        for label, simulate in (
            ("single (streaming)", lambda: engine.simulate_single_streaming(REPLICATIONS, rng=7)),
            ("paired 1oo2 (streaming)", lambda: engine.simulate_paired_streaming(REPLICATIONS, rng=7)),
            ("1-out-of-3 (streaming)", lambda: engine.simulate_systems_streaming(REPLICATIONS, versions=3, rng=7)),
        ):
            start = time.perf_counter()
            simulate()
            elapsed = time.perf_counter() - start
            rows.append([label, REPLICATIONS, elapsed, REPLICATIONS / elapsed])
        return rows

    rows = benchmark.pedantic(workload, rounds=1, iterations=1)
    print_table(
        "PERF: streaming simulation throughput (n=200 scenario)",
        ["kind", "replications", "seconds", "replications/s"],
        rows,
    )
    # Sanity floor: the chunked streaming path must stay comfortably above
    # what the paper-scale experiments need (loose so CI noise cannot trip it).
    for row in rows:
        assert row[3] > 20_000


def test_perf_streaming_matches_samples(many_faults_model, benchmark):
    """Streaming accumulators reproduce the sample-based summaries exactly."""
    engine = MonteCarloEngine(many_faults_model)

    def workload():
        samples = engine.simulate_paired(REPLICATIONS, rng=11)
        streamed = engine.simulate_paired_streaming(REPLICATIONS, rng=11)
        return samples, streamed

    samples, streamed = benchmark.pedantic(workload, rounds=1, iterations=1)
    # Accumulation order differs (Chan merge vs single-pass np.mean), so agree
    # to float accumulation accuracy; the zero counts are exact.
    assert streamed.single.mean_pfd() == pytest.approx(samples.single.mean_pfd(), rel=1e-12)
    assert streamed.single.std_pfd() == pytest.approx(samples.single.std_pfd(), rel=1e-10)
    assert streamed.system.prob_any_fault() == samples.system.prob_any_fault()
