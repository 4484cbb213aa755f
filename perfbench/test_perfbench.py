"""Tests of the benchmark's own helpers (no processes, no sockets)."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for entry in (str(HERE.parent / "src"), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchlib import layers, payloads, spans  # noqa: E402
from benchlib.stats import percentile, spread  # noqa: E402


def test_percentile_is_nearest_rank():
    samples = list(range(100, 0, -1))  # 1..100, unsorted
    assert percentile(samples, 50) == 50
    assert percentile(samples, 99) == 99
    assert percentile(samples, 100) == 100
    assert percentile(samples, 0.5) == 1
    assert percentile([7.5], 99) == 7.5
    # 11 samples: rank ceil(0.99 * 11) = 11 -> the maximum, never interpolated.
    assert percentile([float(v) for v in range(11)], 99) == 10.0
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_spread_matches_statistics_quartiles():
    figures = spread([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
    assert figures["median"] == 5.5
    assert figures["q1"] == pytest.approx(2.75)
    assert figures["q3"] == pytest.approx(8.25)
    assert figures["iqr_share"] == pytest.approx(5.5 / 5.5)
    assert figures["max_min_ratio"] == 10.0


def test_cpu_per_op_is_the_median_over_slices():
    from benchlib.workloads import Loop, Phase, _cpu_metrics

    loop = Loop(latencies=[0.001] * 6, completions=[0.5, 1.5, 1.6, 2.5, 2.6, 2.7],
                cpu_marks=[(0.0, {"client": 0.0, "router": 0.0}),
                           (1.0, {"client": 0.01, "router": 0.01}),
                           (2.0, {"client": 0.02, "router": 0.02}),
                           (3.0, {"client": 0.06, "router": 0.03})])
    phase = Phase()
    _cpu_metrics(phase, loop)
    # slices: 20 ms for 1 call, 20 ms for 2 calls, 50 ms for 3 calls
    assert phase.metrics["cpu_ms_per_op"] == pytest.approx(50.0 / 3)
    # the role split covers the whole window
    assert phase.cpu == pytest.approx({"client": 10.0, "router": 5.0})


def _event(name, pid, span_id, parent, t0, t1, trace="T"):
    return {"name": name, "trace": trace, "pid": pid, "id": span_id, "parent": parent,
            "t0": t0, "t1": t1, "attrs": None}


def test_self_time_on_a_synthetic_span_tree():
    events = [
        # client process: call [0, 10] -> encode [0, 1], exchange [1, 9]
        _event("client.call", 1, 1, None, 0.0, 10.0),
        _event("client.encode", 1, 2, 1, 0.0, 1.0),
        _event("client.exchange", 1, 3, 1, 1.0, 9.0),
        # router process: its roots attach to the client's exchange
        _event("router.http_read", 2, 1, None, 1.5, 2.0),
        _event("router.request", 2, 2, None, 2.0, 8.0),
        _event("router.hop", 2, 3, 2, 3.0, 7.0),
        _event("router.digest", 2, 4, 2, 2.0, 2.5),
        _event("metrics.observe", 2, 5, 2, 2.5, 2.75),
        # shard process: nested under the router's hop, not the exchange
        _event("shard.request", 3, 1, None, 4.0, 6.0),
        # another trace's span never becomes anyone's child
        _event("shard.request", 3, 2, None, 4.0, 6.0, trace="U"),
    ]
    spans.analyse(events)
    by_name = {(e["name"], e["trace"]): e for e in events}
    assert by_name[("client.call", "T")]["self"] == pytest.approx(1.0)
    assert by_name[("client.exchange", "T")]["self"] == pytest.approx(8.0 - 0.5 - 6.0)
    assert by_name[("router.request", "T")]["self"] == pytest.approx(6.0 - 4.0 - 0.75)
    assert by_name[("router.hop", "T")]["self"] == pytest.approx(2.0)
    assert by_name[("shard.request", "T")]["self"] == pytest.approx(2.0)
    assert by_name[("shard.request", "U")]["up"] is None
    # every second of the call is attributed exactly once
    total = sum(e["self"] for e in events if e["trace"] == "T")
    assert total == pytest.approx(10.0)
    # overlapping children are subtracted once, clipped to the parent
    assert spans._covered([(2.0, 2.5), (2.25, 2.75), (9.0, 12.0)], 2.0, 10.0) == 1.75


def test_recorder_wrappers_nest_and_undo():
    recorder = spans.Recorder("client")

    def inner():
        return 3

    def outer():
        return wrapped_inner() + 1

    wrapped_inner = spans.timed(inner, "inner", recorder, lambda a, k: "T")
    wrapped_outer = spans.timed(outer, "outer", recorder, lambda a, k: "T")
    assert wrapped_outer() == 4
    events = recorder.events()
    inner_event = next(e for e in events if e["name"] == "inner")
    outer_event = next(e for e in events if e["name"] == "outer")
    assert inner_event["parent"] == outer_event["id"]
    assert outer_event["parent"] is None

    from repro.service import client

    original = client.ServiceClient.__dict__["_exchange"]
    undo = layers.install("client", recorder)
    assert client.ServiceClient.__dict__["_exchange"] is not original
    undo()
    assert client.ServiceClient.__dict__["_exchange"] is original


def test_same_seed_gives_same_payloads():
    def dump(items):
        return [(p.model.to_dict(), p.method, p.p_scale, p.seed) for p in items]

    assert dump(payloads.working_set(3, size=12)) == dump(payloads.working_set(3, size=12))
    assert dump(payloads.working_set(3, size=12)) != dump(payloads.working_set(4, size=12))
    assert dump([payloads.cold_payload(3, i) for i in range(8)]) == dump(
        [payloads.cold_payload(3, i) for i in range(8)])
    cold = [payloads.cold_payload(3, i) for i in range(8)]
    assert len({p.seed for p in cold}) == 8
    assert [p.method for p in cold[:4]] == list(payloads.COLD_METHODS)


def test_warm_working_set_overflows_router_lru_and_fits_each_shard():
    from benchlib.workloads import PORTS
    from repro.cluster.ring import ConsistentHashRing
    from repro.service.protocol import parse_evaluate_payload

    base = PORTS["warm_hits"]
    ring = ConsistentHashRing([f"127.0.0.1:{base + 1}", f"127.0.0.1:{base + 2}"], replicas=64)
    working = payloads.working_set(1)
    assert len(working) > payloads.LRU_ENTRIES
    shares: dict[str, int] = {}
    groups = set()
    for payload in working:
        body = {"model": payload.model.to_dict(), "method": payload.method,
                **payload.call_arguments()}
        key = parse_evaluate_payload(body).group_key()
        groups.add(key)
        primary = ring.candidates(key)[0]
        shares[primary] = shares.get(primary, 0) + 1
    assert len(groups) == len(working)  # no two payloads share a batch group
    assert len(shares) == 2
    assert max(shares.values()) <= payloads.LRU_ENTRIES
