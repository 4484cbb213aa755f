"""Monte Carlo engine for the fault creation process.

The engine repeatedly "develops" versions from a development process (by
default the paper's independent process), records the PFD and fault count of
single versions and of 1-out-of-2 (or 1-out-of-r) systems, and packages the
output for comparison with the analytic results of :mod:`repro.core`.

Every simulation runs through one chunk routine.  Replications are split
into chunks of :data:`CHUNK_ROWS` rows, and each chunk is drawn in blocks of
at most :data:`BLOCK_CELLS` fault indicators per version, so the fault
matrices stay cache-sized and the per-replication vectors stay bounded
whatever the replication count.  Each block writes its rows of the chunk's
per-replication PFD and fault-count vectors; the sample arrays or the
streaming tallies then receive those vectors once per chunk.
``simulate_single_versions`` draws from the caller's generator;
multi-version simulations (``simulate_paired`` / ``simulate_systems``) draw
each version from a dedicated stream spawned from it.  Every block continues
each version's stream where the previous block stopped.

The sample arrays do not depend on the chunk or block size; the streaming
tallies fold in one chunk per update, so runs of at most :data:`CHUNK_ROWS`
replications are summarised in one piece.  The engine runs in the calling
process: the evaluation service spreads requests over its worker pool and a
study spreads its tasks over worker processes, so one simulation is never
split across processes.

The ``simulate_*_streaming`` variants summarise chunks into the
constant-memory accumulators of :mod:`repro.stats.streaming` instead of
retaining every sample, which is the recommended mode for ``10**7`` and more
replications.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro import telemetry
from repro.core.fault_model import FaultModel
from repro.montecarlo.results import PairSimulationResult, SimulationResult
from repro.montecarlo.streaming import StreamingSimulationResult
from repro.stats.empirical import EmpiricalDistribution
from repro.stats.rng import ensure_rng
from repro.stats.streaming import StreamingHistogram, StreamingMoments
from repro.versions.generation import (
    DevelopmentProcess,
    IndependentDevelopmentProcess,
    matrix_pfds,
)

__all__ = ["MonteCarloEngine"]

#: Histogram bins of the streaming PFD summaries.
DEFAULT_STREAM_BINS = 4096

#: Fault indicators drawn per version per block: about 1 MB of float64
#: uniforms, small enough that a block's matrices stay in cache.
BLOCK_CELLS = 1 << 17

#: Replications per chunk: bounds the per-replication vectors and sets how
#: many replications each streaming-tally update folds in.
CHUNK_ROWS = 1 << 16


@dataclass(frozen=True)
class MonteCarloEngine:
    """Simulate the fault creation process for a given model.

    Parameters
    ----------
    model:
        The fault-creation model.
    process:
        Development process to sample from; defaults to the paper's
        independent process over ``model``.
    """

    model: FaultModel
    process: Optional[DevelopmentProcess] = None

    def __post_init__(self) -> None:
        if self.process is None:
            object.__setattr__(self, "process", IndependentDevelopmentProcess(self.model))
        elif self.process.model.n != self.model.n:
            raise ValueError("the development process must draw from the engine's fault model")

    # ------------------------------------------------------------------ #
    # Single-system simulations
    # ------------------------------------------------------------------ #
    def simulate_single_versions(
        self, replications: int, rng: np.random.Generator | int | None = None
    ) -> SimulationResult:
        """Develop ``replications`` single versions and record PFD and fault count."""
        self._validate_replications(replications)
        generator = ensure_rng(rng)
        pfds, counts = self._run("single", False, replications, generator, 1)
        return SimulationResult(
            pfds=EmpiricalDistribution(pfds),
            fault_counts=EmpiricalDistribution(counts),
            replications=replications,
        )

    def simulate_systems(
        self,
        replications: int,
        versions: int = 2,
        rng: np.random.Generator | int | None = None,
    ) -> SimulationResult:
        """Develop ``replications`` independent 1-out-of-``versions`` systems."""
        if versions < 1:
            raise ValueError(f"versions must be a positive integer, got {versions}")
        self._validate_replications(replications)
        generator = ensure_rng(rng)
        pfds, counts = self._run("systems", False, replications, generator, versions)
        return SimulationResult(
            pfds=EmpiricalDistribution(pfds),
            fault_counts=EmpiricalDistribution(counts),
            replications=replications,
        )

    def simulate_paired(
        self, replications: int, rng: np.random.Generator | int | None = None
    ) -> PairSimulationResult:
        """Simulate single versions and 1-out-of-2 systems from the *same* developments.

        Each replication develops two versions; the first plays the role of
        "the single version" and the pair plays the role of the system.  Using
        the same developments for both sides gives paired (lower-variance)
        comparisons of the gain measures.
        """
        self._validate_replications(replications)
        generator = ensure_rng(rng)
        first_pfds, first_counts, common_pfds, common_counts = self._run(
            "paired", False, replications, generator, 2
        )
        single = SimulationResult(
            pfds=EmpiricalDistribution(first_pfds),
            fault_counts=EmpiricalDistribution(first_counts),
            replications=replications,
        )
        system = SimulationResult(
            pfds=EmpiricalDistribution(common_pfds),
            fault_counts=EmpiricalDistribution(common_counts),
            replications=replications,
        )
        return PairSimulationResult(single=single, system=system)

    # ------------------------------------------------------------------ #
    # Streaming (constant-memory) simulations
    # ------------------------------------------------------------------ #
    def simulate_single_streaming(
        self,
        replications: int,
        rng: np.random.Generator | int | None = None,
    ) -> StreamingSimulationResult:
        """Like :meth:`simulate_single_versions` but summarising into accumulators.

        Memory is ``O(CHUNK_ROWS + BLOCK_CELLS + DEFAULT_STREAM_BINS)`` whatever
        ``replications``.  Moments and zero-probabilities are exact;
        percentile queries resolve to one histogram bin.
        """
        self._validate_replications(replications)
        generator = ensure_rng(rng)
        (tally,) = self._run("single", True, replications, generator, 1)
        return _streaming_result(tally, replications)

    def simulate_systems_streaming(
        self,
        replications: int,
        versions: int = 2,
        rng: np.random.Generator | int | None = None,
    ) -> StreamingSimulationResult:
        """Like :meth:`simulate_systems` but summarising into accumulators."""
        if versions < 1:
            raise ValueError(f"versions must be a positive integer, got {versions}")
        self._validate_replications(replications)
        generator = ensure_rng(rng)
        (tally,) = self._run("systems", True, replications, generator, versions)
        return _streaming_result(tally, replications)

    def simulate_paired_streaming(
        self,
        replications: int,
        rng: np.random.Generator | int | None = None,
    ) -> PairSimulationResult:
        """Like :meth:`simulate_paired` but summarising into accumulators.

        Both sides of the returned pair are :class:`StreamingSimulationResult`.
        """
        self._validate_replications(replications)
        generator = ensure_rng(rng)
        single_tally, system_tally = self._run("paired", True, replications, generator, 2)
        return PairSimulationResult(
            single=_streaming_result(single_tally, replications),
            system=_streaming_result(system_tally, replications),
        )

    # ------------------------------------------------------------------ #
    # Comparison with analytic predictions
    # ------------------------------------------------------------------ #
    def compare_with_analytic(
        self, replications: int, rng: np.random.Generator | int | None = None
    ) -> dict:
        """Simulate and tabulate simulated-versus-analytic headline quantities.

        Returns a dictionary with, for each quantity (mean and standard
        deviation of the single-version and system PFD, probability of any
        fault / any common fault), the analytic value, the simulated value and
        the simulation standard error where applicable.
        """
        from repro.core.moments import pfd_moments
        from repro.core.no_common_faults import prob_any_common_fault, prob_any_fault

        result = self.simulate_paired(replications, rng)
        single_moments = pfd_moments(self.model, 1)
        system_moments = pfd_moments(self.model, 2)
        return {
            "replications": replications,
            "mean_single": {
                "analytic": single_moments.mean,
                "simulated": result.single.mean_pfd(),
                "standard_error": result.single.pfds.mean_standard_error(),
            },
            "mean_system": {
                "analytic": system_moments.mean,
                "simulated": result.system.mean_pfd(),
                "standard_error": result.system.pfds.mean_standard_error(),
            },
            "std_single": {
                "analytic": single_moments.std,
                "simulated": result.single.std_pfd(),
            },
            "std_system": {
                "analytic": system_moments.std,
                "simulated": result.system.std_pfd(),
            },
            "prob_any_fault": {
                "analytic": prob_any_fault(self.model),
                "simulated": result.single.prob_any_fault(),
            },
            "prob_any_common_fault": {
                "analytic": prob_any_common_fault(self.model),
                "simulated": result.system.prob_any_fault(),
            },
        }

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    @staticmethod
    def _validate_replications(replications: int) -> None:
        if replications < 1:
            raise ValueError(f"replications must be positive, got {replications}")

    def _run(self, layout, streaming, replications, generator, versions):
        """Run the ``layout`` kernel, tallying or collecting every sample."""
        with telemetry.span("kernel.montecarlo", replications=replications, versions=versions):
            kernel = _tally_rows if streaming else _sample_rows
            return kernel(self.process, replications, generator, layout, versions)


#: Per-replication rows each layout records: PFD and fault count of the
#: all-versions intersection, preceded for ``"paired"`` by the first version's.
_ROWS = {"single": 2, "systems": 2, "paired": 4}


def _chunks(process, replications, generator, layout, versions, out=None):
    """Yield each chunk's per-replication rows (see :data:`_ROWS`), block by block.

    ``"single"`` develops one version from ``generator`` itself; the other
    layouts develop ``versions`` versions per replication, each from its own
    stream spawned from ``generator``.  Each block draws at most
    :data:`BLOCK_CELLS` indicators per version and continues that version's
    stream, and ``einsum`` scores every row on its own, so the values depend
    on neither the chunk nor the block size.  Rows are views into ``out``
    (shape ``(rows, replications)``) when given, else into one chunk buffer
    that the next chunk overwrites.
    """
    model = process.model
    streams = [generator] if layout == "single" else generator.spawn(versions)
    chunk = min(CHUNK_ROWS, replications)
    block = max(1, min(chunk, BLOCK_CELLS // max(model.n, 1)))
    # The version iterators advance in lockstep and each compares its draw
    # into its own presence buffer, so one uniforms buffer serves them all.
    scratch = np.empty((block, model.n))
    common = np.empty((block, model.n), dtype=bool)
    buffer = np.empty((_ROWS[layout], chunk)) if out is None else None
    for start in range(0, replications, chunk):
        size = min(chunk, replications - start)
        rows = buffer[:, :size] if out is None else out[:, start : start + size]
        blocks = zip(
            *(
                process.stream_fault_matrices(stream, size, block, scratch=scratch)
                for stream in streams
            )
        )
        for begin, matrices in zip(range(0, size, block), blocks):
            span = slice(begin, begin + matrices[0].shape[0])
            if layout == "paired":
                _score(matrices[0], model.q, rows[0, span], rows[1, span])
            intersection = matrices[0]
            if len(matrices) > 1:
                intersection = np.logical_and(
                    matrices[0], matrices[1], out=common[: intersection.shape[0]]
                )
                for matrix in matrices[2:]:
                    np.logical_and(intersection, matrix, out=intersection)
            _score(intersection, model.q, rows[-2, span], rows[-1, span])
        yield rows


def _score(matrix, q, pfds, counts):
    """Write each row's PFD and fault count, scoring only the non-empty rows."""
    counts[:] = np.count_nonzero(matrix, axis=1)
    hit = np.flatnonzero(counts)
    pfds.fill(0.0)
    pfds[hit] = matrix_pfds(matrix[hit], q)


def _sample_rows(process, replications, generator, layout, versions):
    out = np.empty((_ROWS[layout], replications))
    for _ in _chunks(process, replications, generator, layout, versions, out):
        pass
    return out


def _tally_rows(process, replications, generator, layout, versions):
    top = max(process.model.total_impact, np.finfo(float).tiny)
    tallies = [
        (StreamingMoments(), StreamingHistogram(0.0, top, DEFAULT_STREAM_BINS), StreamingMoments())
        for _ in range(_ROWS[layout] // 2)
    ]
    for rows in _chunks(process, replications, generator, layout, versions):
        for (pfd_moments, histogram, count_moments), pfds, counts in zip(
            tallies, rows[0::2], rows[1::2]
        ):
            pfd_moments.update(pfds)
            histogram.update(pfds)
            count_moments.update(counts)
    return tallies


def _streaming_result(tally, replications) -> StreamingSimulationResult:
    pfd_moments, histogram, count_moments = tally
    return StreamingSimulationResult(
        pfds=pfd_moments,
        pfd_histogram=histogram,
        fault_counts=count_moments,
        replications=replications,
    )
