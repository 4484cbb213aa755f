"""Shared-demand Monte Carlo sweeps: one sampled world, many sweep points.

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

Sampling is *sparse*: instead of materialising a ``(replications, n)``
uniform matrix per version, the kernel draws only the faults present at the
**envelope scale** (the smallest power of two covering every requested
``p_scale``, at least 1) -- per fault, the presence rows follow a Bernoulli
process sampled through its geometric gaps, and each present entry draws one
threshold scale.  Expected work is ``replications * sum(min(1, envelope *
p_i))`` entries for the first version -- typically tens of times sparser
than the dense matrix -- and later versions are sampled *conditionally* on
the surviving intersection (presence elsewhere cannot reach the system
statistics), which is smaller still.  Because the envelope is a function of
the model and the requested scales only (not of chunking or process
scheduling), a sweep's results are reproducible from ``(seed, model,
versions, replications, scale set)`` alone; the engine's ``jobs`` does not
enter.

Results differ from per-point independent-stream simulation: every point is
an equally valid Monte Carlo estimate (each fault's marginal presence
probability is exactly ``k * p_i``), but the points are dependent by
construction.  Use independent per-point streams (the default engine paths)
when cross-point independence matters; use the sweep kernel when comparing
points or when throughput matters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.core.fault_model import FaultModel
from repro.stats.rng import ensure_rng

__all__ = ["SweepPointResult", "simulate_scaled_sweep"]

#: Cap on ``rows * (grid + 1)`` accumulator cells per slab; bounds the
#: transient memory of the per-row scoring at ~128 MB regardless of the
#: replication count or the number of sweep points.
_SLAB_CELLS = 16_000_000

#: Refuse sweeps whose expected sparse-entry count would exceed this (the
#: entry arrays are materialised); callers fall back to per-point simulation.
MAX_SWEEP_ENTRIES = 80_000_000


@dataclass(frozen=True)
class SweepPointResult:
    """Streamed summary of one sweep point of a shared-demand simulation.

    ``single`` statistics describe the first version, ``system`` the
    1-out-of-``versions`` intersection, from the same developments -- the
    same pairing as :meth:`MonteCarloEngine.simulate_paired_streaming`.
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


def _envelope_scale(p_scales: np.ndarray) -> float:
    """Smallest power-of-two envelope covering every scale, at least 1.

    The sparse sampler draws the world at this scale and thins down; tying
    the envelope to a coarse bracket (rather than the exact sweep maximum)
    means extending a sweep within the same bracket replays the identical
    developments.
    """
    top = float(p_scales.max())
    if top <= 1.0:
        return 1.0
    return float(2.0 ** np.ceil(np.log2(top)))


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


def _sample_version_entries(
    rng: np.random.Generator, model: FaultModel, replications: int, envelope: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One version's sparse development history at the envelope scale.

    Returns ``(rows, faults, thresholds)``: replication index, fault index
    and threshold scale of every fault present at the envelope, ordered by
    fault then row (so ``fault * replications + row`` is sorted).  A fault
    is present at sweep scale ``k`` exactly when its threshold is below
    ``k``; thresholds are uniform on ``(0, cutoff / p_i)`` conditioned on
    presence, reproducing ``U < k * p_i`` marginals for every ``k`` up to
    the envelope.

    Every fault's presence rows follow a Bernoulli(``cutoff``) process
    sampled through its geometric gaps; the gaps of *all* faults are drawn
    in one array-probability call (with a six-sigma per-fault budget and a
    scalar continuation for the ~1e-9 shortfall tail), so the sampling cost
    is a handful of numpy calls regardless of the fault count.
    """
    empty = np.zeros(0, dtype=np.int64)
    active = np.flatnonzero(model.p > 0.0)
    if active.size == 0 or replications == 0:
        return empty, empty, np.zeros(0)
    cutoffs = np.minimum(1.0, envelope * model.p[active])
    partial = cutoffs < 1.0
    rows_parts: list[np.ndarray] = []
    fault_parts: list[np.ndarray] = []
    needs_sort = False
    if np.any(partial):
        partial_faults = active[partial]
        partial_cutoffs = cutoffs[partial]
        expected = replications * partial_cutoffs
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
        inverse_log = np.repeat(1.0 / np.log1p(-partial_cutoffs), sizes)
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
                float(partial_cutoffs[segment]),
                int(positions[ends[segment] - 1]),
                replications,
            )
            if extra.size:
                rows_parts.append(extra)
                fault_parts.append(np.full(extra.size, partial_faults[segment], dtype=np.int64))
                needs_sort = True
    full_faults = active[~partial]
    for fault in full_faults:
        rows_parts.append(np.arange(replications, dtype=np.int64))
        fault_parts.append(np.full(replications, fault, dtype=np.int64))
        needs_sort = needs_sort or bool(np.any(partial))
    if not rows_parts:
        return empty, empty, np.zeros(0)
    rows = np.concatenate(rows_parts)
    faults = np.concatenate(fault_parts)
    if needs_sort:
        order = np.argsort(faults * np.int64(replications) + rows, kind="stable")
        rows = rows[order]
        faults = faults[order]
    # One threshold draw for every entry, scaled per fault: uniform on
    # (0, cutoff / p) conditioned on presence at the cutoff.
    ratio = np.zeros(model.n)
    ratio[active] = cutoffs / model.p[active]
    thresholds = rng.random(rows.size) * ratio[faults]
    return rows, faults, thresholds


class _ColumnMoments:
    """Pairwise-stable streaming moments, vectorised over sweep columns."""

    def __init__(self, columns: int) -> None:
        self.count = 0
        self.mean = np.zeros(columns)
        self.m2 = np.zeros(columns)
        self.zeros = np.zeros(columns, dtype=np.int64)

    def update(self, matrix: np.ndarray) -> None:
        """Fold a ``(rows, columns)`` slab of per-replication values."""
        rows = matrix.shape[0]
        if rows == 0:
            return
        batch_mean = matrix.mean(axis=0)
        batch_m2 = ((matrix - batch_mean) ** 2).sum(axis=0)
        self.zeros += (matrix == 0.0).sum(axis=0)
        total = self.count + rows
        delta = batch_mean - self.mean
        self.m2 += batch_m2 + delta * delta * (self.count * rows / total)
        self.mean += delta * (rows / total)
        self.count = total

    def std(self) -> np.ndarray:
        """Columnwise sample standard deviation (ddof=1)."""
        if self.count < 2:
            return np.zeros_like(self.mean)
        return np.sqrt(self.m2 / (self.count - 1))


def _score_entries(
    rows: np.ndarray,
    buckets: np.ndarray,
    weights: np.ndarray,
    replications: int,
    grid_size: int,
    value_moments: _ColumnMoments,
    count_moments: _ColumnMoments,
) -> None:
    """Accumulate per-replication, per-scale values and counts into moments.

    Each entry contributes ``weights`` (and a count of 1) to every sweep
    scale at or above its bucket; cumulative sums over the bucket axis turn
    one weighted and one unweighted bincount per slab into the full
    ``(rows, scales)`` value and count matrices.  Rows are processed in
    slabs so the dense matrices stay bounded, and both statistics share one
    pass (and, in the slab regime, one row sort).
    """
    slab_rows = max(1, _SLAB_CELLS // (grid_size + 1))
    if replications > slab_rows:
        order = np.argsort(rows, kind="stable")
        rows = rows[order]
        buckets = buckets[order]
        weights = weights[order]
    for start in range(0, replications, slab_rows):
        stop = min(start + slab_rows, replications)
        if replications > slab_rows:
            lo = int(np.searchsorted(rows, start, side="left"))
            hi = int(np.searchsorted(rows, stop, side="left"))
            slab_rows_ids, slab_buckets = rows[lo:hi], buckets[lo:hi]
            slab_weights = weights[lo:hi]
        else:
            slab_rows_ids, slab_buckets, slab_weights = rows, buckets, weights
        flat = (slab_rows_ids - start) * (grid_size + 1) + slab_buckets
        cells = (stop - start) * (grid_size + 1)
        weighted = np.bincount(flat, weights=slab_weights, minlength=cells).reshape(
            stop - start, grid_size + 1
        )
        value_moments.update(np.cumsum(weighted[:, :grid_size], axis=1))
        counted = np.bincount(flat, minlength=cells).reshape(stop - start, grid_size + 1)
        count_moments.update(np.cumsum(counted[:, :grid_size], axis=1))


def expected_entry_count(model: FaultModel, replications: int, versions: int, p_scales) -> float:
    """Expected sparse-entry count of a sweep (for memory guards).

    Dominated by the first (unconditionally sampled) version; the
    conditional later versions only shrink the surviving set, so the bound
    does not scale with ``versions``.
    """
    envelope = _envelope_scale(np.atleast_1d(np.asarray(p_scales, dtype=float)))
    return float(replications * np.sum(np.minimum(1.0, envelope * model.p)))


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
        (missing keys default to 1.0).  Every ``p_scale * max(p)`` must stay
        within ``[0, 1]``.
    versions:
        Versions per replication; the system is their 1-out-of-r
        intersection and ``single`` describes the first version.
    rng:
        Generator or integer seed (``None`` = the library default).  Results
        are a deterministic function of the seed, the model, ``versions``,
        ``replications`` and the power-of-two envelope of the ``p_scale``
        set -- chunking and process scheduling never enter.

    Returns one :class:`SweepPointResult` per variation, in order.
    """
    if replications < 1:
        raise ValueError(f"replications must be positive, got {replications}")
    if versions < 1:
        raise ValueError(f"versions must be a positive integer, got {versions}")
    pairs = []
    for variation in variations:
        if isinstance(variation, dict):
            p_scale = float(variation.get("p_scale", 1.0))
            q_scale = float(variation.get("q_scale", 1.0))
        else:
            p_scale, q_scale = (float(part) for part in variation)
        pairs.append((p_scale, q_scale))
    if not pairs:
        return []
    p_scales = np.array([pair[0] for pair in pairs])
    q_scales = np.array([pair[1] for pair in pairs])
    if np.any(~np.isfinite(p_scales)) or np.any(p_scales < 0.0):
        raise ValueError("p_scale values must be finite and non-negative")
    if np.any(~np.isfinite(q_scales)) or np.any(q_scales < 0.0):
        raise ValueError("q_scale values must be finite and non-negative")
    scaled_max = p_scales * model.p_max
    if np.any(scaled_max > 1.0):
        worst = float(p_scales[np.argmax(scaled_max)])
        raise ValueError(
            f"scaling by p_scale={worst} pushes some p_i above 1 "
            f"(max would be {float(scaled_max.max()):.4f})"
        )
    generator = ensure_rng(rng)
    # Coarse kernel span, emitted via record() at the end: the sampled
    # compute dominates from here on and re-indenting the whole kernel
    # under a ``with`` buys nothing.
    kernel_started = time.perf_counter()
    envelope = _envelope_scale(p_scales)
    grid = np.unique(p_scales)
    grid_size = int(grid.size)
    column = {float(scale): index for index, scale in enumerate(grid)}

    # One sparse development history per version, from per-version spawned
    # streams (the engine's convention for multi-version simulation).
    streams = generator.spawn(versions)
    q = model.q
    single_moments = _ColumnMoments(grid_size)
    single_counts = _ColumnMoments(grid_size)
    system_moments = _ColumnMoments(grid_size)
    system_counts = _ColumnMoments(grid_size)

    # Version 0 is sampled unconditionally (it carries the single-version
    # statistics); every further version is sampled *lazily*, only at the
    # (row, fault) entries still surviving the intersection -- presence
    # elsewhere can never reach the system statistics, and conditional
    # Bernoulli(cutoff) presence with a conditional-uniform threshold is
    # distributionally identical to sampling the version in full.
    first_rows, first_faults, first_thresholds = _sample_version_entries(
        streams[0], model, replications, envelope
    )
    # Present at scale k exactly when threshold < k (strictly, matching
    # ``U < k * p``); bucket = number of grid scales <= threshold.
    first_buckets = np.searchsorted(grid, first_thresholds, side="right").astype(np.int64)
    cutoffs = np.minimum(1.0, envelope * model.p)
    common_rows, common_faults, common_buckets = first_rows, first_faults, first_buckets
    for stream in streams[1:]:
        draws = stream.random(common_rows.size)
        present = draws < cutoffs[common_faults]
        common_rows = common_rows[present]
        common_faults = common_faults[present]
        with np.errstate(divide="ignore", invalid="ignore"):
            thresholds = draws[present] / model.p[common_faults]
        buckets = np.searchsorted(grid, thresholds, side="right").astype(np.int64)
        common_buckets = np.maximum(common_buckets[present], buckets)

    _score_entries(
        first_rows,
        first_buckets,
        q[first_faults],
        replications,
        grid_size,
        single_moments,
        single_counts,
    )
    _score_entries(
        common_rows,
        common_buckets,
        q[common_faults],
        replications,
        grid_size,
        system_moments,
        system_counts,
    )

    results = []
    for p_scale, q_scale in pairs:
        t = column[p_scale]
        zero_single = single_moments.zeros[t] / replications
        zero_system = system_moments.zeros[t] / replications
        results.append(
            SweepPointResult(
                p_scale=p_scale,
                q_scale=q_scale,
                versions=versions,
                replications=replications,
                mean_single=float(single_moments.mean[t] * q_scale),
                std_single=float(single_moments.std()[t] * q_scale),
                mean_system=float(system_moments.mean[t] * q_scale),
                std_system=float(system_moments.std()[t] * q_scale),
                prob_any_fault_single=float(1.0 - single_counts.zeros[t] / replications),
                prob_any_fault_system=float(1.0 - system_counts.zeros[t] / replications),
                prob_pfd_zero_single=float(1.0 if q_scale == 0.0 else zero_single),
                prob_pfd_zero_system=float(1.0 if q_scale == 0.0 else zero_system),
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
