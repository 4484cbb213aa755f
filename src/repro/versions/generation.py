"""Development processes: sampling versions from the fault-creation model.

The baseline process of the paper introduces each fault independently with its
probability ``p_i`` ("it is as though the design team, faced with the
possibility of inserting a fault, tossed dice to decide whether to insert it
or not", Section 2.2).  Alternative processes relaxing the independence
assumption live in :mod:`repro.versions.correlated`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.fault_model import FaultModel
from repro.versions.version import DevelopedVersion, VersionPair

__all__ = ["DevelopmentProcess", "IndependentDevelopmentProcess", "matrix_pfds"]


def matrix_pfds(matrix: np.ndarray, q: np.ndarray) -> np.ndarray:
    """PFD of each row of a fault-presence matrix: ``matrix @ q``, shape-stably.

    Uses ``einsum`` rather than ``@`` because BLAS matrix-vector products are
    not bitwise row-stable across block sizes (the summation order can change
    with the number of rows), which would break the guarantee that a
    simulation drawn in chunks and blocks reproduces a dense draw exactly.
    ``einsum`` reduces each row independently with a fixed order -- and skips
    the bool-to-float matrix copy, which also makes it several times faster
    here.
    """
    return np.einsum("ij,j->i", matrix, q)


class DevelopmentProcess:
    """Abstract base class for development processes.

    A development process knows how to produce fault-presence indicator
    matrices; everything else (PFD evaluation, pairing, statistics) is shared.
    """

    #: The fault-creation model the process draws from.
    model: FaultModel

    def sample_fault_matrix(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Sample a ``(count, n)`` boolean matrix of fault presence indicators."""
        raise NotImplementedError

    def iter_fault_matrices(
        self, rng: np.random.Generator, count: int, chunk_size: int | None = None
    ) -> Iterator[np.ndarray]:
        """Yield fault-presence matrices of at most ``chunk_size`` rows each.

        Because each chunk is drawn from the same generator in sequence, the
        concatenation of the chunks is bitwise-identical to a single
        ``sample_fault_matrix(rng, count)`` call with the same starting
        generator state -- chunking changes the peak memory footprint
        (``O(chunk_size * n)`` instead of ``O(count * n)``), never the
        simulated developments.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        remaining = count
        while remaining > 0:
            size = remaining if chunk_size is None else min(chunk_size, remaining)
            yield self.sample_fault_matrix(rng, size)
            remaining -= size

    def stream_fault_matrices(
        self,
        rng: np.random.Generator,
        count: int,
        chunk_size: int | None = None,
        scratch: np.ndarray | None = None,
    ) -> Iterator[np.ndarray]:
        """Like :meth:`iter_fault_matrices`, but yielded matrices may share storage.

        Each yielded matrix is only valid until the next iteration: processes
        that can (see :class:`IndependentDevelopmentProcess`) reuse one
        internal buffer per iterator instead of allocating a fresh matrix per
        chunk, which roughly halves the wall time of streaming simulations --
        at large chunk sizes the allocation and page-faulting of hundreds of
        megabytes per chunk costs as much as generating the random numbers.
        ``scratch`` optionally provides a shared float work buffer of at
        least ``(chunk rows, n)``; iterators drawing from *interleaved*
        streams (one per developed version, advanced in lockstep) can safely
        share one, which bounds the float working set at a single chunk
        regardless of the version count.  The yielded *values* are bitwise-identical to
        :meth:`iter_fault_matrices` for the same starting generator state.
        """
        return self.iter_fault_matrices(rng, count, chunk_size)

    # ------------------------------------------------------------------ #
    # Shared conveniences
    # ------------------------------------------------------------------ #
    def sample_version(self, rng: np.random.Generator) -> DevelopedVersion:
        """Develop a single version."""
        matrix = self.sample_fault_matrix(rng, 1)
        return DevelopedVersion(model=self.model, fault_present=matrix[0])

    def sample_versions(self, rng: np.random.Generator, count: int) -> list[DevelopedVersion]:
        """Develop ``count`` versions independently."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        matrix = self.sample_fault_matrix(rng, count)
        return [DevelopedVersion(model=self.model, fault_present=row) for row in matrix]

    def sample_pair(self, rng: np.random.Generator) -> VersionPair:
        """Develop a pair of versions for a 1-out-of-2 system (separate developments)."""
        versions = self.sample_versions(rng, 2)
        return VersionPair(channel_a=versions[0], channel_b=versions[1])

    def sample_pairs(self, rng: np.random.Generator, count: int) -> list[VersionPair]:
        """Develop ``count`` independent version pairs."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        matrix = self.sample_fault_matrix(rng, 2 * count)
        return [
            VersionPair(
                channel_a=DevelopedVersion(model=self.model, fault_present=matrix[2 * i]),
                channel_b=DevelopedVersion(model=self.model, fault_present=matrix[2 * i + 1]),
            )
            for i in range(count)
        ]

    def sample_pfds(
        self, rng: np.random.Generator, count: int, chunk_size: int | None = None
    ) -> np.ndarray:
        """Sample ``count`` single-version PFD values without materialising version objects.

        ``chunk_size`` bounds the working memory at ``O(chunk_size * n)``
        without changing the sampled values (see :meth:`iter_fault_matrices`).
        """
        pfds = np.empty(count, dtype=float)
        offset = 0
        for matrix in self.iter_fault_matrices(rng, count, chunk_size):
            pfds[offset : offset + matrix.shape[0]] = matrix_pfds(matrix, self.model.q)
            offset += matrix.shape[0]
        return pfds

    def sample_system_pfds(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Sample ``count`` 1-out-of-2 system PFD values (independent pairs)."""
        first = self.sample_fault_matrix(rng, count)
        second = self.sample_fault_matrix(rng, count)
        return matrix_pfds(first & second, self.model.q)


@dataclass(frozen=True)
class IndependentDevelopmentProcess(DevelopmentProcess):
    """The paper's baseline process: independent fault introduction.

    Each fault ``i`` is present with probability ``p_i`` independently of all
    other faults and of the other channel's development.
    """

    model: FaultModel

    def sample_fault_matrix(self, rng: np.random.Generator, count: int) -> np.ndarray:
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if count == 0:
            return np.zeros((0, self.model.n), dtype=bool)
        uniforms = rng.random((count, self.model.n))
        return uniforms < self.model.p[np.newaxis, :]

    def stream_fault_matrices(
        self,
        rng: np.random.Generator,
        count: int,
        chunk_size: int | None = None,
        scratch: np.ndarray | None = None,
    ) -> Iterator[np.ndarray]:
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        rows = count if chunk_size is None else min(chunk_size, count)
        if (
            scratch is not None
            and scratch.shape[0] >= rows
            and scratch.shape[1:] == (self.model.n,)
            and scratch.dtype == float
        ):
            uniforms = scratch[:rows]
        else:
            uniforms = np.empty((rows, self.model.n))
        presence = np.empty((rows, self.model.n), dtype=bool)
        remaining = count
        while remaining > 0:
            size = min(rows, remaining)
            # ``random(out=...)`` consumes the stream exactly like
            # ``random(shape)``, so the values match iter_fault_matrices
            # bitwise; only the allocations disappear.
            rng.random(out=uniforms[:size])
            np.less(uniforms[:size], self.model.p[np.newaxis, :], out=presence[:size])
            yield presence[:size]
            remaining -= size
