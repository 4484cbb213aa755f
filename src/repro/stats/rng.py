"""Random-number-generator management.

All stochastic code in the library takes an explicit
:class:`numpy.random.Generator`.  These helpers centralise how generators are
created and split so that every simulation in the test-suite, the examples and
the benchmark harness is reproducible from a single integer seed.  numpy is
imported inside the helpers: a process that needs only :data:`DEFAULT_SEED`
(the shard router) never loads it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np

__all__ = ["default_rng", "spawn_rngs", "ensure_rng"]

#: Seed used throughout the examples and benchmarks when the caller does not
#: provide one.  Chosen arbitrarily; fixed for reproducibility.
DEFAULT_SEED = 20010704  # DSN 2001 took place on 1-4 July 2001.


def default_rng(seed: int | None = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` seeded deterministically.

    Parameters
    ----------
    seed:
        Integer seed.  When ``None`` the library-wide :data:`DEFAULT_SEED` is
        used, so that "no seed" still means "reproducible".
    """
    import numpy as np

    if seed is None:
        seed = DEFAULT_SEED
    return np.random.default_rng(seed)


def ensure_rng(rng: np.random.Generator | int | None) -> np.random.Generator:
    """Coerce ``rng`` into a :class:`numpy.random.Generator`.

    Accepts an existing generator (returned unchanged), an integer seed, or
    ``None`` (the library default seed).  This is the canonical way for public
    functions to accept a ``rng`` argument.
    """
    import numpy as np

    if isinstance(rng, np.random.Generator):
        return rng
    return default_rng(rng)


def spawn_rngs(rng: np.random.Generator | int | None, count: int) -> list[np.random.Generator]:
    """Split a generator into ``count`` independent child generators.

    Child generators are created via :meth:`numpy.random.Generator.spawn`, so
    streams do not overlap.  Used when a simulation fans out over independent
    replications (e.g. the Monte Carlo engine or the synthetic Knight-Leveson
    experiment) and each replication must be independently reproducible.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    generator = ensure_rng(rng)
    if count == 0:
        return []
    return list(generator.spawn(count))


def fixed_seed_sequence(seeds: Sequence[int]) -> list[np.random.Generator]:
    """Build one generator per explicit seed.

    Useful in tests that need several *named* streams whose seeds are written
    out literally, so a failure can be re-run with the exact same stream.
    """
    import numpy as np

    return [np.random.default_rng(int(seed)) for seed in seeds]
