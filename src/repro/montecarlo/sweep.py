"""Shared-demand Monte Carlo sweeps: one nested world, many sweep points.

A ``p_scale`` sweep asks how the simulated PFD distributions move as every
fault-introduction probability is multiplied by ``k``.  Simulating each sweep
point independently redraws the entire development history per point; this
module instead samples the development process *once* and scores every sweep
point against the same draws -- the common-random-numbers (CRN) device:

* for each version, each potential fault ``i`` and each replication, the
  presence of the fault under scale ``k`` is ``U < k * p_i`` for one shared
  uniform ``U``.  Equivalently, the *threshold scale* ``R = U / p_i`` is
  drawn once and the fault is present at every sweep point with
  ``p_scale > R``.  Larger scales therefore contain smaller ones: the sweep
  points see nested, maximally correlated worlds, which is both faster (one
  sampling pass) and lower-variance for cross-point comparisons (ratios and
  differences between sweep points share their sampling noise);
* a ``q_scale`` only rescales the PFD values, so its points share every
  reduction with their ``p_scale`` siblings.

Sampling is *sparse* and *nested by dyadic level*.  Level 0 holds the faults
present at scale 1; level ``l >= 1`` adds those present at ``2**l`` but not
below.  With ``c_l = min(1, 2**l * p_i)``, level ``l`` is an increment over
all rows with per-fault probability ``(c_l - c_{l-1}) / (1 - c_{l-1})`` and
thresholds uniform on ``(c_{l-1} / p_i, c_l / p_i)``; an increment entry
whose (fault, row) a lower level already holds is dropped, and a fault
saturated at a lower level draws nothing more.  Per fault, the presence rows
of a level follow a Bernoulli process sampled through its geometric gaps.
Level 0 draws from the version's stream and level ``l`` from the ``l``-th
child spawned from it, so each level is a function of the seed, the model
and the replication count alone, and a point at scale ``k`` reads only the
levels up to ``ceil(log2 k)``.  Later versions draw one uniform per
first-version entry (presence elsewhere cannot reach the system statistics),
an entry of level ``l`` from that version's level-``l`` stream.

Each point's per-row PFD and fault count are a bincount over its levels'
entries in (level, fault, row) order, absent entries adding nothing, and the
per-row values fold into :class:`~repro.stats.streaming.StreamingMoments`
once per :data:`~repro.montecarlo.engine.CHUNK_ROWS` rows.  A point's result
is therefore a function of ``(seed, model, versions, replications, its own
p_scale and q_scale)``: the same alone, inside any sweep, and whichever
siblings a caller already had cached.  The one sweep-wide decision left is
:data:`MAX_SWEEP_ENTRIES`, which sends a sweep whose largest scale needs too
many entries back to per-point simulation.

A lone ``montecarlo`` request of the independent process whose expected
entry count is within the dense engine's memory budget
(``repro.api.methods``: at most :data:`~repro.montecarlo.engine.BLOCK_CELLS`)
runs this kernel as its one-point sweep at ``p_scale = q_scale = 1``, so it equals
that point bit for bit.  A point at another scale still differs from the
lone request for the rescaled model: the nested draws follow the base
model's probabilities, and are not invariant under
:meth:`FaultModel.rescaled`.  Correlated and over-budget lone requests run
the dense engine, whose independent per-request streams give another
equally valid estimate.  Sweep points are dependent by construction (each
fault's marginal presence probability is exactly ``k * p_i``), which makes
comparisons between points lower-variance.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro import telemetry
from repro.core.fault_model import FaultModel
from repro.core.model_content import parse_transform
from repro.montecarlo import engine
from repro.stats.rng import ensure_rng
from repro.stats.streaming import StreamingMoments

__all__ = ["SweepPointResult", "simulate_scaled_sweep"]

#: Refuse sweeps whose expected sparse-entry count would exceed this (the
#: entry arrays are materialised); callers fall back to per-point simulation.
#: The count follows the sweep's largest scale, so this is the one decision
#: a point's siblings can change: about 80M entries, far past any sweep the
#: benchmarks or studies run.
MAX_SWEEP_ENTRIES = 80_000_000


@dataclass(frozen=True)
class SweepPointResult:
    """Streamed summary of one sweep point of a shared-demand simulation.

    ``single`` statistics describe the first version, ``system`` the
    1-out-of-``versions`` intersection, from the same developments -- the
    same pairing as :meth:`MonteCarloEngine.simulate_paired_streaming`.
    ``mean_*_se`` are the standard errors of the two means
    (:meth:`~repro.stats.streaming.StreamingMoments.standard_error`).
    """

    p_scale: float
    q_scale: float
    versions: int
    replications: int
    mean_single: float
    std_single: float
    mean_system: float
    std_system: float
    prob_any_fault_single: float
    prob_any_fault_system: float
    prob_pfd_zero_single: float
    prob_pfd_zero_system: float
    mean_single_se: float
    mean_system_se: float

    def mean_ratio(self) -> float:
        """Simulated ``mu_r / mu_1``."""
        return self.mean_system / self.mean_single if self.mean_single else 1.0

    def std_ratio(self) -> float:
        """Simulated ``sigma_r / sigma_1``."""
        return self.std_system / self.std_single if self.std_single else 1.0

    def risk_ratio(self) -> float:
        """Simulated ``P(N_r > 0) / P(N_1 > 0)``."""
        if self.prob_any_fault_single == 0.0:
            return 1.0
        return self.prob_any_fault_system / self.prob_any_fault_single

    def summary(self) -> dict:
        """The paired-summary dictionary (same keys as the streaming engine)."""
        return {
            "replications": self.replications,
            "mean_single": self.mean_single,
            "mean_system": self.mean_system,
            "std_single": self.std_single,
            "std_system": self.std_system,
            "mean_ratio": self.mean_ratio(),
            "std_ratio": self.std_ratio(),
            "risk_ratio": self.risk_ratio(),
        }


def _level(scale: float) -> int:
    """The deepest nested level a point at ``scale`` reads: ``ceil(log2 k)``, at least 0.

    Computed from the float's exponent, so a scale just above a power of
    two reaches the next level exactly.
    """
    mantissa, exponent = math.frexp(scale)
    return max(0, exponent - 1 if mantissa == 0.5 else exponent)


def _continue_bernoulli_rows(
    rng: np.random.Generator, probability: float, position: int, count: int
) -> np.ndarray:
    """Extend a Bernoulli-process realisation from ``position`` to the end.

    Rare-path helper for faults whose vectorised gap budget fell short (the
    budget covers six standard deviations, so this runs with probability
    ~1e-9 per fault); draws scalar-probability geometric gaps until past
    ``count``.
    """
    collected: list[np.ndarray] = []
    while position < count:
        expected_left = (count - position) * probability
        size = int(expected_left + 6.0 * np.sqrt(expected_left + 1.0)) + 16
        gaps = rng.geometric(probability, size=size)
        positions = position + np.cumsum(gaps)
        take = int(np.searchsorted(positions, count, side="left"))
        if take:
            collected.append(positions[:take])
        if take < size:
            break
        position = int(positions[-1])
    if not collected:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate(collected).astype(np.int64, copy=False)


def _bernoulli_entries(
    rng: np.random.Generator, faults: np.ndarray, probabilities: np.ndarray, replications: int
) -> tuple[np.ndarray, np.ndarray]:
    """Rows of a per-fault Bernoulli process over ``replications`` rows.

    ``faults`` are ascending fault indices and ``probabilities`` their
    presence probabilities in ``(0, 1]``.  Returns ``(rows, faults)`` of
    every present entry, ordered by fault then row (so ``fault *
    replications + row`` is sorted).

    The gaps of *all* partial faults are drawn in one bulk uniform call
    (with a six-sigma per-fault budget and a scalar continuation for the
    ~1e-9 shortfall tail), so the sampling cost is a handful of numpy calls
    regardless of the fault count; a fault of probability 1 holds every row.
    """
    if faults.size == 0:
        return faults, faults
    partial = probabilities < 1.0
    rows_parts: list[np.ndarray] = []
    fault_parts: list[np.ndarray] = []
    needs_sort = False
    if np.any(partial):
        partial_faults = faults[partial]
        partial_probabilities = probabilities[partial]
        expected = replications * partial_probabilities
        sizes = (expected + 6.0 * np.sqrt(expected + 1.0) + 16.0).astype(np.int64)
        ends = np.cumsum(sizes)
        starts = ends - sizes
        # Geometric gaps by explicit inversion -- gap = 1 + floor(ln U /
        # ln(1-p)) -- from one bulk uniform draw; several times faster than
        # numpy's array-probability geometric sampler and pinned to this
        # formula rather than to the library's internal algorithm choice.
        uniforms = rng.random(int(ends[-1]))
        # Clamp away exact zeros (probability ~1e-300 per draw) so the log
        # stays finite; the clamped gap lands far outside any realistic
        # replication range anyway.
        np.fmax(uniforms, 1e-300, out=uniforms)
        np.log(uniforms, out=uniforms)
        inverse_log = np.repeat(1.0 / np.log1p(-partial_probabilities), sizes)
        gaps = (uniforms * inverse_log).astype(np.int64) + 1
        cumulative = np.cumsum(gaps)
        offsets = np.concatenate([[0], cumulative[ends[:-1] - 1]])
        positions = cumulative - np.repeat(offsets, sizes) - 1
        keep = positions < replications
        counts = np.add.reduceat(keep.astype(np.int64), starts)
        rows_parts.append(positions[keep].astype(np.int64, copy=False))
        fault_parts.append(np.repeat(partial_faults, counts))
        # A segment that never crossed the end may have missed entries.
        short = np.flatnonzero(positions[ends - 1] < replications)
        for segment in short:
            extra = _continue_bernoulli_rows(
                rng,
                float(partial_probabilities[segment]),
                int(positions[ends[segment] - 1]),
                replications,
            )
            if extra.size:
                rows_parts.append(extra)
                fault_parts.append(np.full(extra.size, partial_faults[segment], dtype=np.int64))
                needs_sort = True
    for fault in faults[~partial]:
        rows_parts.append(np.arange(replications, dtype=np.int64))
        fault_parts.append(np.full(replications, fault, dtype=np.int64))
        needs_sort = needs_sort or bool(np.any(partial))
    rows = np.concatenate(rows_parts)
    faults = np.concatenate(fault_parts)
    if needs_sort:
        order = np.argsort(faults * np.int64(replications) + rows, kind="stable")
        rows = rows[order]
        faults = faults[order]
    return rows, faults


def _level_streams(stream: np.random.Generator, top: int) -> list[np.random.Generator]:
    """The streams of levels ``0..top``: ``stream``, then its first ``top`` children.

    A spawned child depends only on its index, so level ``l``'s stream is
    the same whatever ``top`` is.
    """
    return [stream, *stream.spawn(top)]


def _nested_world(
    streams: list[np.random.Generator], model: FaultModel, replications: int
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The first version's entries, one ``(rows, faults, thresholds)`` triple per level.

    Each triple is in (fault, row) order; a fault is present at scale ``k``
    exactly when its threshold is below ``k``.  Level ``l`` draws its gaps
    and then its thresholds from ``streams[l]`` (see the module docstring),
    so the lower levels do not depend on how many levels are drawn.
    """
    p = model.p
    top = len(streams) - 1
    previous = np.zeros(model.n)
    seen = np.zeros(0, dtype=np.int64)
    levels = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for level in range(top + 1):
            cutoff = np.minimum(1.0, 2.0**level * p)
            grows = np.flatnonzero(cutoff > previous)
            rng = streams[level]
            rows, faults = _bernoulli_entries(
                rng,
                grows,
                (cutoff[grows] - previous[grows]) / (1.0 - previous[grows]),
                replications,
            )
            low = (previous / p)[faults]
            width = ((cutoff - previous) / p)[faults]
            thresholds = low + rng.random(rows.size) * width
            keys = faults * np.int64(replications) + rows
            if seen.size:
                # Drop the increment entries a lower level already holds.
                found = np.minimum(np.searchsorted(seen, keys), seen.size - 1)
                fresh = seen[found] != keys
                rows, faults, thresholds, keys = (
                    rows[fresh], faults[fresh], thresholds[fresh], keys[fresh]
                )
            if level < top:
                seen = np.sort(np.concatenate([seen, keys]))
            levels.append((rows, faults, thresholds))
            previous = cutoff
    return levels


def _tally(
    rows: np.ndarray, weights: np.ndarray, thresholds: np.ndarray, scale: float, replications: int
) -> tuple[StreamingMoments, int]:
    """Per-row PFD moments at ``scale`` and the number of rows with a fault.

    Entries at or above ``scale`` add 0.0, which leaves every row sum
    bit-identical to the sum over the present entries alone.
    """
    present = thresholds < scale
    pfds = np.bincount(rows, weights=np.where(present, weights, 0.0), minlength=replications)
    faulty = np.count_nonzero(np.bincount(rows, weights=present, minlength=replications))
    moments = StreamingMoments()
    for start in range(0, replications, engine.CHUNK_ROWS):
        moments.update(pfds[start : start + engine.CHUNK_ROWS])
    return moments, int(faulty)


def _scaled_standard_error(moments: StreamingMoments, q_scale: float) -> float:
    """The standard error of ``q_scale`` times the tallied mean (0 when ``q_scale`` is 0)."""
    return 0.0 if q_scale == 0.0 else float(moments.standard_error() * q_scale)


def expected_entry_count(model: FaultModel, replications: int, versions: int, p_scales) -> float:
    """Expected sparse-entry count of a sweep (for memory guards).

    The first version's entries up to the level of the largest scale; later
    versions add one uniform per entry, which does not change the order of
    magnitude, so the bound does not scale with ``versions``.
    """
    top = _level(float(np.max(np.atleast_1d(np.asarray(p_scales, dtype=float)))))
    return float(replications * np.sum(np.minimum(1.0, 2.0**top * model.p)))


def simulate_scaled_sweep(
    model: FaultModel,
    replications: int,
    variations,
    versions: int = 2,
    rng: np.random.Generator | int | None = None,
) -> list[SweepPointResult]:
    """Simulate every ``(p_scale, q_scale)`` variation against shared demands.

    Parameters
    ----------
    model:
        The base fault model (scales apply on top of it).
    replications:
        Number of simulated developments, shared by every point.
    variations:
        Sequence of ``(p_scale, q_scale)`` pairs or mappings with those keys
        (missing keys default to 1.0).  Each is checked by
        :func:`repro.core.model_content.parse_transform`: a variation
        :meth:`FaultModel.rescaled` would reject raises its ``ValueError``
        before anything is sampled.
    versions:
        Versions per replication; the system is their 1-out-of-r
        intersection and ``single`` describes the first version.
    rng:
        Generator or integer seed (``None`` = the library default).  Each
        point's result is a deterministic function of the seed, the model,
        ``versions``, ``replications`` and that point's own scales -- its
        siblings, chunking and process scheduling never enter.

    Returns one :class:`SweepPointResult` per variation, in order.
    """
    if replications < 1:
        raise ValueError(f"replications must be positive, got {replications}")
    if versions < 1:
        raise ValueError(f"versions must be a positive integer, got {versions}")
    p, q = model.p.tolist(), model.q.tolist()
    pairs = []
    for variation in variations:
        if not isinstance(variation, Mapping):
            p_scale, q_scale = variation
            variation = {"p_scale": p_scale, "q_scale": q_scale}
        pairs.append(parse_transform(variation, p, q, model.strict))
    if not pairs:
        return []
    generator = ensure_rng(rng)
    # Coarse kernel span, emitted via record() at the end: the sampled
    # compute dominates from here on and re-indenting the whole kernel
    # under a ``with`` buys nothing.
    kernel_started = time.perf_counter()
    grid = sorted({p_scale for p_scale, _ in pairs})
    top = _level(grid[-1])

    # One stream per version, spawned as the engine does for multi-version
    # simulation; the first version's nested world fixes the entries every
    # later version scores.
    streams = generator.spawn(versions)
    levels = _nested_world(_level_streams(streams[0], top), model, replications)
    level_ends = np.cumsum([len(rows) for rows, _, _ in levels])
    rows = np.concatenate([rows for rows, _, _ in levels])
    faults = np.concatenate([faults for _, faults, _ in levels])
    first = np.concatenate([thresholds for _, _, thresholds in levels])
    weights = model.q[faults]
    system = first
    entry_p = model.p[faults]
    for stream in streams[1:]:
        uniforms = np.concatenate(
            [
                level_stream.random(len(level_rows))
                for level_stream, (level_rows, _, _) in zip(_level_streams(stream, top), levels)
            ]
        )
        system = np.maximum(system, uniforms / entry_p)
    if versions > 1:
        # Entries absent from the system at every requested scale add
        # nothing to any point; dropping them once keeps the per-point
        # system tallies small.
        kept = system < grid[-1]
        system_rows, system_weights, system = rows[kept], weights[kept], system[kept]

    tallies = {}
    for scale in grid:
        end = int(level_ends[_level(scale)])
        single = _tally(rows[:end], weights[:end], first[:end], scale, replications)
        tallies[scale] = (
            single,
            single
            if versions == 1
            else _tally(system_rows, system_weights, system, scale, replications),
        )

    results = []
    for p_scale, q_scale in pairs:
        (single, single_faulty), (common, common_faulty) = tallies[p_scale]
        results.append(
            SweepPointResult(
                p_scale=p_scale,
                q_scale=q_scale,
                versions=versions,
                replications=replications,
                mean_single=float(single.mean() * q_scale),
                std_single=float(single.std() * q_scale),
                mean_system=float(common.mean() * q_scale),
                std_system=float(common.std() * q_scale),
                prob_any_fault_single=single_faulty / replications,
                prob_any_fault_system=common_faulty / replications,
                prob_pfd_zero_single=1.0 if q_scale == 0.0 else single.fraction_zero(),
                prob_pfd_zero_system=1.0 if q_scale == 0.0 else common.fraction_zero(),
                mean_single_se=_scaled_standard_error(single, q_scale),
                mean_system_se=_scaled_standard_error(common, q_scale),
            )
        )
    telemetry.record(
        "kernel.mc_sweep",
        time.perf_counter() - kernel_started,
        points=len(pairs),
        replications=replications,
        versions=versions,
    )
    return results
