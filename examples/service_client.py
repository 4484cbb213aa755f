"""The evaluation service: concurrent clients, each served on arrival.

Starts a local evaluation server (the same thing ``repro serve`` runs), then
demonstrates the serving pipeline end to end:

* **concurrent clients** -- eight clients each ask for one Monte Carlo
  evaluation at a different process-quality point (``p_scale``).  Each
  request goes to the worker pool as it arrives, so every response is
  exactly what ``repro.evaluate(model.rescaled(p_scale, 1.0), ...)``
  returns for the same seed, whatever else was in flight;
* **the serial baseline** -- the same eight points one at a time (fresh
  seeds, so every one is computed), for comparison with the burst's wall
  time;
* **the response cache** -- re-firing the concurrent burst is answered from
  the in-process LRU without any recomputation;
* **/metrics** -- the counters capacity planning would scrape.

Run with::

    python examples/service_client.py
"""

from __future__ import annotations

import pathlib
import sys
import time
from concurrent.futures import ThreadPoolExecutor

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.api import evaluate  # noqa: E402
from repro.experiments.scenarios import many_small_faults_scenario  # noqa: E402
from repro.service import EvaluationServer, ServiceClient, start_in_background  # noqa: E402

POINTS = 8
REPLICATIONS = 20_000
SEED = 7


def fire_concurrently(client: ServiceClient, model, scales) -> tuple[list, float]:
    def one(scale: float):
        return client.evaluate_detail(
            model,
            "montecarlo",
            options={"replications": REPLICATIONS},
            seed=SEED,
            p_scale=scale,
        )

    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=len(scales)) as pool:
        outcomes = list(pool.map(one, scales))
    return outcomes, time.perf_counter() - start


def main() -> None:
    model = many_small_faults_scenario(n=100)
    scales = [0.125 + 0.875 * index / (POINTS - 1) for index in range(POINTS)]

    server = EvaluationServer()
    with start_in_background(server) as handle:
        client = ServiceClient(port=handle.port)
        print(f"evaluation service up on port {handle.port}")
        print(f"workload: {POINTS} montecarlo points, {REPLICATIONS} replications each\n")

        outcomes, concurrent_elapsed = fire_concurrently(client, model, scales)
        print("concurrent clients:")
        for (result, served), scale in zip(outcomes, scales):
            print(
                f"  p_scale={scale:5.3f}  mean_system={result['mc_mean_system']:.3e}  "
                f"served: cached={served['cached']} group_size={served['group_size']}"
            )
        print(f"  wall time: {concurrent_elapsed:.3f}s")
        (result, _), scale = outcomes[0], scales[0]
        direct = evaluate(
            model.rescaled(scale, 1.0), "montecarlo", seed=SEED, replications=REPLICATIONS
        )
        assert result["mc_mean_system"] == direct["mc_mean_system"]
        print("  each record equals repro.evaluate on the rescaled model\n")

        start = time.perf_counter()
        for scale in scales:
            client.evaluate(
                model,
                "montecarlo",
                options={"replications": REPLICATIONS},
                seed=SEED + 1,  # a fresh seed: these must all be cache misses
                p_scale=scale,
            )
        serial_elapsed = time.perf_counter() - start
        print(f"serial loop over the same points: {serial_elapsed:.3f}s "
              f"(concurrent burst: {concurrent_elapsed:.3f}s)\n")

        warm, warm_elapsed = fire_concurrently(client, model, scales)
        cached = sum(1 for _, served in warm if served["cached"])
        print(f"warm burst: {cached}/{POINTS} answered from cache in {warm_elapsed:.3f}s")

        metrics = client.metrics()
        print("\nserver metrics:")
        for key in (
            "requests_total",
            "evaluations_computed",
            "dispatched_groups",
            "cache_hits_lru",
            "max_group_size",
        ):
            print(f"  {key}: {metrics[key]}")
    print("\nserver stopped.")


if __name__ == "__main__":
    main()
