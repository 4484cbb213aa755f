"""PERF -- the exact-PFD kernel: two integer lattice folds.

Past ``max_support`` the PFD distribution is bracketed by two shift-add folds
on one lattice of ``4 * max_support`` cells, one rounding every ``q_i`` down
and one rounding it up.  The pair must stay fast at thousands of faults and
its bracket must contain the closed-form mean and stay narrow.  The seed
implementation needed ~38 s at ``n=200, max_support=4096`` and ~373 s at
``n=2000`` (see ``seed_convolution_reference`` in ``BENCH_perf.json``).
"""

from __future__ import annotations

import time

from benchmarks.conftest import print_table
from repro.core.moments import pfd_moments
from repro.core.pfd_distribution import exact_pfd_distribution
from repro.experiments.scenarios import many_small_faults_scenario


def _row(n: int, max_support: int) -> list:
    model = many_small_faults_scenario(n=n)
    start = time.perf_counter()
    bracket = exact_pfd_distribution(model, 1, max_support=max_support)
    elapsed = time.perf_counter() - start
    low, high = bracket.quantile(0.99)
    mean = pfd_moments(model, 1).mean
    contains = bracket.lower().mean() <= mean <= bracket.upper().mean()
    return [n, max_support, elapsed, low, high, (high - low) / high, contains]


def test_perf_bracket_pair_at_scale(benchmark):
    """n up to 5000 in well under a second each; every bracket contains the mean."""

    def workload():
        return [_row(200, 1024)] + [_row(n, 4096) for n in (200, 500, 1000, 2000, 5000)]

    rows = benchmark.pedantic(workload, rounds=1, iterations=1)
    print_table(
        "PERF: exact PFD bracket (two lattice folds)",
        ["n", "max_support", "seconds", "q99 lo", "q99 hi", "relative width", "mean inside"],
        rows,
    )
    for n, max_support, elapsed, low, high, width, contains in rows:
        assert elapsed < 10.0, f"n={n} took {elapsed:.1f}s"
        assert contains
        assert 0.0 < low <= high
        # The cap buys resolution: a quarter of the cells, about four times the width.
        assert width < (0.05 if max_support == 4096 else 0.1)
