"""Block-drawn Monte Carlo equals the dense algorithm, bit for bit.

The engine draws each chunk in cache-sized blocks.  This module keeps a
test-local reference of the dense algorithm: one full ``(R, n)`` fault matrix
per version stream (uniforms compared against ``p``), ``einsum`` row scores
and a row sum.  Sample arrays must equal it bit for bit, and the streaming
tallies must equal tallies fed the reference's vectors one chunk at a time,
for every chunk size, block size and development process.

A lone ``montecarlo`` request runs this engine only when it is correlated or
its one-point sweep would hold more than ``BLOCK_CELLS`` sparse entries;
otherwise it is that one-point sweep.  Both rules are pinned here.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import evaluate, evaluate_sweep
from repro.core.fault_model import FaultModel
from repro.montecarlo import engine as engine_module
from repro.montecarlo.engine import MonteCarloEngine
from repro.montecarlo.results import PairSimulationResult
from repro.montecarlo.streaming import StreamingSimulationResult
from repro.stats.streaming import StreamingHistogram, StreamingMoments
from repro.versions.correlated import CommonCauseDevelopmentProcess, CopulaDevelopmentProcess
from repro.versions.generation import IndependentDevelopmentProcess

REPLICATIONS = 2_000
#: A small block budget: ten rows of the n = 100 model per block.
SMALL_BLOCK = 1_000
#: (CHUNK_ROWS override, BLOCK_CELLS override).  A chunk of one row is drawn
#: in one-row blocks whatever the budget.
CHUNKINGS = [
    (None, None),
    (None, SMALL_BLOCK),
    (1, None),
    (137, None),
    (137, SMALL_BLOCK),
    (REPLICATIONS, None),
    (REPLICATIONS, SMALL_BLOCK),
]

MODEL = FaultModel.random(np.random.default_rng(41), n=100, p_range=(0.005, 0.3))

PROCESSES = {
    "independent": IndependentDevelopmentProcess(MODEL),
    "copula": CopulaDevelopmentProcess(MODEL, correlation=0.4),
    "common-cause": CommonCauseDevelopmentProcess(MODEL, bad_day_weight=0.1, inflation=2.0),
}

#: (layout, versions) of every kernel: single versions, 1-out-of-2 and
#: 1-out-of-3 systems, and the paired (first version + system) form.
LAYOUTS = [("single", 1), ("systems", 2), ("systems", 3), ("paired", 2)]


def _dense_matrix(process, stream, count):
    if isinstance(process, IndependentDevelopmentProcess):
        uniforms = stream.random((count, process.model.n))
        return uniforms < process.model.p[np.newaxis, :]
    return process.sample_fault_matrix(stream, count)


def _reference_rows(process, seed, layout, versions):
    """Per-replication (pfd, count) pairs, drawn densely in one piece."""
    generator = np.random.default_rng(seed)
    streams = [generator] if layout == "single" else generator.spawn(versions)
    matrices = [_dense_matrix(process, stream, REPLICATIONS) for stream in streams]
    common = np.logical_and.reduce(matrices)
    scored = [matrices[0], common] if layout == "paired" else [common]
    return [
        (np.einsum("ij,j->i", matrix, process.model.q), np.sum(matrix, axis=1).astype(float))
        for matrix in scored
    ]


def _reference_tally(process, pfds, counts):
    """Streaming tallies fed the reference vectors one chunk at a time."""
    top = max(process.model.total_impact, np.finfo(float).tiny)
    bins = engine_module.DEFAULT_STREAM_BINS
    tally = (StreamingMoments(), StreamingHistogram(0.0, top, bins), StreamingMoments())
    step = engine_module.CHUNK_ROWS
    for start in range(0, REPLICATIONS, step):
        tally[0].update(pfds[start : start + step])
        tally[1].update(pfds[start : start + step])
        tally[2].update(counts[start : start + step])
    return StreamingSimulationResult(*tally, replications=REPLICATIONS)


def _state(result: StreamingSimulationResult) -> list:
    """Every accumulator field, with arrays as raw bytes."""
    state = []
    for accumulator in (result.pfds, result.pfd_histogram, result.fault_counts):
        for name in type(accumulator).__slots__:
            value = getattr(accumulator, name)
            state.append(value.tobytes() if isinstance(value, np.ndarray) else value)
    return state


def _assert_bitwise(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


def _sample_results(engine, layout, versions, seed):
    if layout == "single":
        return [engine.simulate_single_versions(REPLICATIONS, rng=seed)]
    if layout == "systems":
        return [engine.simulate_systems(REPLICATIONS, versions=versions, rng=seed)]
    paired = engine.simulate_paired(REPLICATIONS, rng=seed)
    return [paired.single, paired.system]


def _streaming_results(engine, layout, versions, seed):
    if layout == "single":
        return [engine.simulate_single_streaming(REPLICATIONS, rng=seed)]
    if layout == "systems":
        return [engine.simulate_systems_streaming(REPLICATIONS, versions=versions, rng=seed)]
    paired = engine.simulate_paired_streaming(REPLICATIONS, rng=seed)
    return [paired.single, paired.system]


def _chunking_id(chunking) -> str:
    chunk_rows, block_cells = chunking
    return f"chunk{chunk_rows}-{'small' if block_cells else 'default'}-block"


@pytest.mark.parametrize("process_name", sorted(PROCESSES))
@pytest.mark.parametrize("layout,versions", LAYOUTS)
@pytest.mark.parametrize("chunking", CHUNKINGS, ids=_chunking_id)
def test_kernels_match_dense_reference(monkeypatch, process_name, layout, versions, chunking):
    chunk_rows, block_cells = chunking
    if chunk_rows is not None:
        monkeypatch.setattr(engine_module, "CHUNK_ROWS", chunk_rows)
    if block_cells is not None:
        monkeypatch.setattr(engine_module, "BLOCK_CELLS", block_cells)
    process = PROCESSES[process_name]
    engine = MonteCarloEngine(MODEL, process=process)
    seed = 1000 + 10 * versions + len(layout)
    reference = _reference_rows(process, seed, layout, versions)

    for result, (pfds, counts) in zip(_sample_results(engine, layout, versions, seed), reference):
        _assert_bitwise(result.pfds.samples, pfds)
        _assert_bitwise(result.fault_counts.samples, counts)

    streamed = _streaming_results(engine, layout, versions, seed)
    for result, (pfds, counts) in zip(streamed, reference):
        assert _state(result) == _state(_reference_tally(process, pfds, counts))


@pytest.mark.parametrize("versions", [1, 2, 3])
def test_evaluate_matches_one_point_sweep(versions):
    """``MODEL`` is sparse enough at this size, so a lone request is its
    one-point sweep at scale 1."""
    options = {"versions": versions, "replications": REPLICATIONS}
    lone = evaluate(MODEL, "montecarlo", seed=5, options=options)
    (point,) = evaluate_sweep(MODEL, "montecarlo", [{"p_scale": 1.0}], seed=5, options=options)
    assert json.dumps(lone.metric_dict()) == json.dumps(point.metric_dict())


def _expected_record(replications: int, correlation: float, tallies) -> dict:
    """A lone request's record from its tallies: ``(single, system)`` when
    paired, ``(system,)`` otherwise."""
    record = {"mc_replications": replications, "mc_correlation": correlation}
    if len(tallies) == 2:
        single, system = tallies
        summary = PairSimulationResult(single=single, system=system).summary()
        summary.pop("replications")
        record.update({f"mc_{key}": value for key, value in summary.items()})
        record["mc_mean_single_se"] = single.pfds.standard_error()
    else:
        (system,) = tallies
        record.update(
            {
                "mc_mean_system": system.mean_pfd(),
                "mc_std_system": system.std_pfd(),
                "mc_prob_any_fault": system.prob_any_fault(),
                "mc_prob_pfd_zero": system.prob_pfd_zero(),
            }
        )
    record["mc_mean_system_se"] = system.pfds.standard_error()
    return record


@pytest.mark.parametrize("versions", [1, 2, 3])
def test_evaluate_matches_dense_reference(monkeypatch, versions):
    """A ``BLOCK_CELLS`` budget below the sparse kernel's expected entries
    sends a lone request to the dense engine, which equals the reference."""
    monkeypatch.setattr(engine_module, "BLOCK_CELLS", SMALL_BLOCK)
    options = {"versions": versions, "replications": REPLICATIONS}
    metrics = evaluate(MODEL, "montecarlo", seed=np.random.default_rng(5), options=options).metrics

    process = PROCESSES["independent"]
    layout = "paired" if versions == 2 else "systems"
    reference = [
        _reference_tally(process, pfds, counts)
        for pfds, counts in _reference_rows(process, 5, layout, versions)
    ]
    expected = _expected_record(REPLICATIONS, 0.0, reference)
    assert json.dumps(dict(metrics), sort_keys=True) == json.dumps(expected, sort_keys=True)


#: Lone requests that keep the dense engine: the 100,000-replication model
#: of :func:`test_working_set_is_bounded` (more expected entries than
#: ``BLOCK_CELLS``) and a correlated request on ``MODEL``.
DENSE_CASES = {
    "over-budget": (FaultModel.random(np.random.default_rng(3), n=100), 100_000, 0.0),
    "correlated": (MODEL, REPLICATIONS, 0.4),
}


@pytest.mark.parametrize("versions", [2, 3])
@pytest.mark.parametrize("case", sorted(DENSE_CASES))
def test_dense_requests_keep_the_dense_engine(case, versions):
    model, replications, correlation = DENSE_CASES[case]
    metrics = evaluate(
        model, "montecarlo", seed=9, versions=versions, replications=replications,
        correlation=correlation,
    ).metric_dict()
    process = CopulaDevelopmentProcess(model, correlation=correlation) if correlation else None
    engine = MonteCarloEngine(model, process=process)
    rng = np.random.default_rng(np.random.SeedSequence([9]))
    if versions == 2:
        pair = engine.simulate_paired_streaming(replications, rng=rng)
        tallies = (pair.single, pair.system)
    else:
        tallies = (engine.simulate_systems_streaming(replications, versions=versions, rng=rng),)
    expected = _expected_record(replications, correlation, tallies)
    assert json.dumps(metrics, sort_keys=True) == json.dumps(expected, sort_keys=True)


@pytest.mark.parametrize("kernel", ["evaluate", "simulate_paired"])
def test_working_set_is_bounded(kernel):
    """100,000 replications of an n = 100 model peak far below one dense
    ``(replications, n)`` uniform matrix (80 MB)."""
    import tracemalloc

    model = FaultModel.random(np.random.default_rng(3), n=100)
    runs = {
        "evaluate": lambda: evaluate(model, "montecarlo", seed=1, replications=100_000),
        "simulate_paired": lambda: MonteCarloEngine(model).simulate_paired(100_000, rng=1),
    }
    tracemalloc.start()
    try:
        runs[kernel]()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
