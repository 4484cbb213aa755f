"""Scaling out: two shards, one router, and a failover drill.

Runs the whole cluster topology in-process (the same objects
``repro serve`` / ``repro route`` run behind a port), then demonstrates
the scale-out contract end to end:

* **digest routing** -- the router places each request by consistent
  hash of its content digest (the key every cache tier uses), so the
  points of a concurrent sweep over one model, like distinct workloads,
  spread over the shards that own their digests;
* **byte-identity through the router** -- every answer matches the
  in-process ``repro.evaluate`` result exactly: routing never changes a
  byte;
* **failover** -- one shard dies mid-demo; its key ranges spill to the
  survivor and the same workload answers identically, without a client
  retry loop in sight;
* **the remote cache tier** -- a shard warmed by earlier traffic answers
  a cold peer's ``--cache-peer`` probe, turning a would-be recompute into
  a cache hop (``served.cached == "remote"``);
* **router /metrics** -- the counters a capacity planner would scrape;
* **kill-a-replica drill** -- with ``replication=2`` the router write-all
  fans every computed result out to both replicas, so killing a shard
  loses *zero* warm cache: the survivor answers the whole warmed workload
  without recomputing a single evaluation.

Run with::

    python examples/cluster_demo.py
"""

from __future__ import annotations

import pathlib
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import suppress

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.api import evaluate  # noqa: E402
from repro.cluster import ShardRouter  # noqa: E402
from repro.experiments.scenarios import many_small_faults_scenario  # noqa: E402
from repro.service import EvaluationServer, ServiceClient, start_in_background  # noqa: E402

DISTINCT = 8
REPLICATIONS = 5_000
SEED = 7


def build_workload():
    """Distinct (model, seed) pairs: each has its own digest, so the ring
    can spread them; identical requests would all share one shard."""
    return [
        (many_small_faults_scenario(n=40 + 5 * index), SEED + index)
        for index in range(DISTINCT)
    ]


def fire(client: ServiceClient, workload):
    def one(item):
        model, seed = item
        return client.evaluate_detail(
            model, "montecarlo", options={"replications": REPLICATIONS}, seed=seed
        )

    with ThreadPoolExecutor(max_workers=len(workload)) as pool:
        return list(pool.map(one, workload))


def main() -> None:
    workload = build_workload()
    shard_a = EvaluationServer()
    shard_b = EvaluationServer()

    with start_in_background(shard_a) as handle_a:
        handle_b = start_in_background(shard_b)
        router = ShardRouter(
            [f"127.0.0.1:{handle_a.port}", f"127.0.0.1:{handle_b.port}"],
            probe_interval_ms=200.0,
        )
        with start_in_background(router) as front:
            client = ServiceClient(port=front.port)
            print(f"router on port {front.port} over shards "
                  f"{handle_a.port} and {handle_b.port}\n")

            outcomes = fire(client, workload)
            split = (shard_a.registry["evaluations_computed"],
                     shard_b.registry["evaluations_computed"])
            print(f"cold burst: {DISTINCT} distinct payloads, "
                  f"shard split {split[0]}/{split[1]}")

            # Routing never changes a byte: every routed answer matches
            # the in-process API exactly.
            for (result, _), (model, seed) in zip(outcomes, workload):
                direct = evaluate(model, "montecarlo",
                                  seed=seed, replications=REPLICATIONS)
                assert result.metric_dict() == direct.to_dict()["metrics"]
            print("all routed answers byte-identical to repro.evaluate\n")

            # Each point of a concurrent sweep has its own digest, so the
            # points spread over the shards, and each is still its own
            # rescaled model's evaluation.
            sweep_model = many_small_faults_scenario(n=100)
            scales = [0.25, 0.5, 0.75, 1.0]

            def sweep_point(scale):
                return client.evaluate_detail(
                    sweep_model, "montecarlo",
                    options={"replications": REPLICATIONS},
                    seed=SEED, p_scale=scale,
                )

            with ThreadPoolExecutor(max_workers=len(scales)) as pool:
                sweep = list(pool.map(sweep_point, scales))
            for (result, _), scale in zip(sweep, scales):
                direct = evaluate(sweep_model.rescaled(scale, 1.0), "montecarlo",
                                  seed=SEED, replications=REPLICATIONS)
                assert result.metric_dict() == direct.to_dict()["metrics"]
            after = (shard_a.registry["evaluations_computed"],
                     shard_b.registry["evaluations_computed"])
            print(f"sweep over {len(scales)} p_scale points, placed by digest: "
                  f"shard split {after[0] - split[0]}/{after[1] - split[1]}, "
                  "each point equal to repro.evaluate on its rescaled model\n")

            # Failover drill: kill shard B, then offer *fresh* work (new
            # seeds, so the router LRU cannot answer).  Keys the ring owns
            # to the dead shard fail one hop, eject it, and spill to the
            # survivor -- invisibly to the client.
            print("killing shard B ...")
            handle_b.stop()
            fresh = [(model, seed + 1000) for model, seed in workload]
            survived = fire(client, fresh)
            for (result, _), (model, seed) in zip(survived, fresh):
                direct = evaluate(model, "montecarlo",
                                  seed=seed, replications=REPLICATIONS)
                assert result.metric_dict() == direct.to_dict()["metrics"]
            snapshot = router.registry.snapshot()["counters"]
            print(f"fresh workload after the kill: {len(survived)}/{len(fresh)} "
                  "answered byte-identically by the survivor "
                  f"(failovers={snapshot['failovers']}, "
                  f"shard_ejects={snapshot['shard_ejects']})\n")

            metrics = client.metrics()
            print("router metrics:")
            for key in ("requests_total", "routed_requests", "fanout_requests",
                        "router_cache_hits", "failovers", "shard_ejects"):
                print(f"  {key}: {metrics[key]}")

    # The remote cache tier: a shard warmed by earlier traffic answers a
    # cold peer that names it with --cache-peer.
    warm = EvaluationServer()
    with start_in_background(warm) as warm_handle:
        model = many_small_faults_scenario(n=60)
        warm_client = ServiceClient(port=warm_handle.port)
        warm_client.evaluate(model, "montecarlo",
                             options={"replications": REPLICATIONS}, seed=3)

        cold = EvaluationServer(cache_peers=(f"127.0.0.1:{warm_handle.port}",))
        with start_in_background(cold) as cold_handle:
            cold_client = ServiceClient(port=cold_handle.port)
            _, served = cold_client.evaluate_detail(
                model, "montecarlo",
                options={"replications": REPLICATIONS}, seed=3,
            )
            print(f"\nremote cache tier: cold shard served from peer "
                  f"(cached={served['cached']}), computed locally: "
                  f"{cold.registry['evaluations_computed']}")

    with suppress(RuntimeError):
        handle_b.stop()

    replication_drill()
    print("\ncluster stopped.")


def replication_drill() -> None:
    """Kill a replica under ``replication=2`` and lose no warm cache.

    Every computed result was write-all fanned out to both replicas, so
    after the primary dies the survivor answers the entire warmed
    workload from its cache tier -- byte-identically, and without
    computing a single evaluation again.
    """
    workload = build_workload()
    shards = [EvaluationServer() for _ in range(3)]
    handles = [start_in_background(shard) for shard in shards]
    addresses = [f"127.0.0.1:{handle.port}" for handle in handles]
    router = ShardRouter(addresses, replication=2, lru_size=0,
                         probe_interval_ms=200.0)
    front = start_in_background(router)
    client = ServiceClient(port=front.port)
    try:
        print(f"\nreplication drill: replication=2 over {', '.join(addresses)}")
        fire(client, workload)

        # The fan-out is asynchronous; wait until every result has been
        # replicated to its second shard before pulling the plug.
        want = len(workload)  # distinct * (R - 1)
        deadline = time.monotonic() + 15.0
        while (router.registry["replica_writes"]
               + router.registry["replica_write_failures"]) < want:
            if time.monotonic() > deadline:
                raise RuntimeError("replica fan-out did not finish in time")
            time.sleep(0.05)
        computed_before = sum(s.registry["evaluations_computed"] for s in shards)
        print(f"warmed {len(workload)} payloads, "
              f"replica_writes={router.registry['replica_writes']}")

        # Kill the busiest shard -- it primaries the most keys, so the
        # drill exercises as many read fallbacks as possible.
        victim = max(range(len(shards)),
                     key=lambda i: shards[i].registry["evaluations_computed"])
        print(f"killing {addresses[victim]} "
              f"(computed {shards[victim].registry['evaluations_computed']} "
              "of the warm-up) ...")
        handles[victim].stop()

        survived = fire(client, workload)
        for (result, served), (model, seed) in zip(survived, workload):
            direct = evaluate(model, "montecarlo",
                              seed=seed, replications=REPLICATIONS)
            assert result.metric_dict() == direct.to_dict()["metrics"]
            assert served["cached"] in ("lru", "disk", "remote")
        survivors_computed = sum(
            shards[i].registry["evaluations_computed"]
            for i in range(len(shards)) if i != victim
        )
        recomputed = survivors_computed - (
            computed_before - shards[victim].registry["evaluations_computed"])
        assert recomputed == 0, f"survivors recomputed {recomputed} evaluations"
        print(f"after the kill: {len(survived)}/{len(workload)} warm payloads "
              "answered byte-identically from the surviving replicas, "
              f"0 recomputed (replica_read_fallbacks="
              f"{router.registry['replica_read_fallbacks']})")
    finally:
        client.close()
        with suppress(RuntimeError):
            front.stop()
        for handle in handles:
            with suppress(RuntimeError):
                handle.stop()


if __name__ == "__main__":
    main()
