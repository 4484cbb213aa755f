"""Batched sweep evaluation: one pass over a whole process-quality axis.

The paper's central question -- how much the PFD distribution improves as the
development process improves -- is a sweep over the Appendix B quality knob
``p_scale``.  This example evaluates a 25-point axis three ways:

* ``repro.evaluate_sweep`` with the **exact kernel**, once per point: each
  record equals a lone ``repro.evaluate`` of that point;
* ``repro.evaluate_sweep`` with **shared-demand Monte Carlo** (common random
  numbers): one sampled development history scored against every point --
  faster than per-point simulation, and the cross-point ratio curve comes
  out smooth because neighbouring points share their sampling noise;
* the same Monte Carlo sweep with *independent* per-point streams, to show
  both the cost gap and the noise the shared-demand mode removes from
  cross-point comparisons.

Run with::

    python examples/batched_sweep.py
"""

from __future__ import annotations

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from repro import evaluate, evaluate_sweep  # noqa: E402
from repro.experiments.scenarios import many_small_faults_scenario  # noqa: E402

REPLICATIONS = 100_000
SCALES = np.geomspace(0.125, 1.0, 25)


def main() -> None:
    model = many_small_faults_scenario(n=200)
    variations = [{"p_scale": float(scale)} for scale in SCALES]

    # ----------------------------------------------------------------- #
    # Exact PFD distributions: the scalar kernel for each of 25 points
    # ----------------------------------------------------------------- #
    start = time.perf_counter()
    exact = evaluate_sweep(model, "exact", variations, max_support=2048)
    exact_elapsed = time.perf_counter() - start
    print(f"exact sweep: {len(variations)} points in {exact_elapsed:.3f}s")

    # ----------------------------------------------------------------- #
    # Monte Carlo: shared demands (CRN) versus independent streams
    # ----------------------------------------------------------------- #
    start = time.perf_counter()
    shared = evaluate_sweep(
        model, "montecarlo", variations, replications=REPLICATIONS, seed=7
    )
    shared_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    independent = [
        evaluate(
            model.rescaled(variation["p_scale"]),
            "montecarlo",
            replications=REPLICATIONS,
            seed=(7, index),
        )
        for index, variation in enumerate(variations)
    ]
    independent_elapsed = time.perf_counter() - start
    print(
        f"shared-demand MC sweep: {shared_elapsed:.3f}s; "
        f"independent per-point streams: {independent_elapsed:.3f}s "
        f"({independent_elapsed / shared_elapsed:.1f}x slower)"
    )

    # ----------------------------------------------------------------- #
    # The table: exact vs simulated system mean, and the gain curve
    # ----------------------------------------------------------------- #
    print(f"\n{'p_scale':>8s} {'exact mean_2':>13s} {'CRN mc mean_2':>14s} "
          f"{'CRN gain':>9s} {'indep gain':>11s}")
    for variation, e, s, i in zip(variations, exact, shared, independent):
        print(
            f"{variation['p_scale']:>8.3f} {e['exact_mean']:>13.4e} "
            f"{s['mc_mean_system']:>14.4e} {s['mc_mean_ratio']:>9.5f} "
            f"{i['mc_mean_ratio']:>11.5f}"
        )

    # The shared-demand gain curve is monotone sample path by sample path;
    # the independent-stream curve carries fresh noise at every point.
    crn_gains = [result["mc_mean_ratio"] for result in shared]
    indep_gains = [result["mc_mean_ratio"] for result in independent]
    crn_wiggle = float(np.std(np.diff(crn_gains)))
    indep_wiggle = float(np.std(np.diff(indep_gains)))
    print(
        f"\npoint-to-point wiggle of the gain curve (std of successive "
        f"differences):\n  shared demands: {crn_wiggle:.2e}   "
        f"independent streams: {indep_wiggle:.2e} "
        f"({indep_wiggle / max(crn_wiggle, 1e-300):.0f}x noisier)"
    )
    print(
        "\nshared-demand sweeps reuse one sampled world across every point "
        "(common random numbers): equal marginals per point, shared noise "
        "across points -- use them for comparisons and trends, and "
        "independent streams when points must be independent."
    )


if __name__ == "__main__":
    main()
