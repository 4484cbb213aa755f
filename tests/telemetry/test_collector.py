"""Span shipping: bounded queues, loss accounting, the collector's ring+file."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.service.client import split_base_url
from repro.telemetry import tracing
from repro.telemetry.collector import SpanShipper, TraceCollector, configure_shipping
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.summarize import load_events


def _event(index: int) -> dict:
    return {"name": "x", "trace": f"t{index}", "span": f"s{index}", "dur_ms": 1.0}


def _shipper(transport, **kw):
    """A shipper whose drain thread stays asleep: tests drive flush() by hand
    (huge flush interval, batch threshold never reached by enqueueing)."""
    kw.setdefault("flush_interval", 3600.0)
    kw.setdefault("batch_size", 1024)
    kw.setdefault("registry", MetricsRegistry())
    return SpanShipper("127.0.0.1:1", transport=transport, **kw)


class TestSplitBaseUrl:
    def test_host_port_with_and_without_scheme(self):
        assert split_base_url("127.0.0.1:8100") == ("127.0.0.1", 8100)
        assert split_base_url("http://box:9") == ("box", 9)

    def test_missing_port_raises(self):
        with pytest.raises(ValueError, match="host:port"):
            split_base_url("127.0.0.1")


class TestSpanShipper:
    def test_loss_accounting_shipped_plus_dropped_equals_emitted(self):
        batches: list[list] = []
        shipper = _shipper(lambda batch: batches.append(batch) or True, capacity=6)
        try:
            for index in range(10):
                shipper(_event(index))  # 6 queued, 4 dropped at the door
            shipper.flush()
            registry = shipper._registry
            assert registry["spans_shipped"] == 6
            assert registry["spans_dropped"] == 4
            assert registry["spans_shipped"] + registry["spans_dropped"] == 10
            assert [event["span"] for batch in batches for event in batch] == [
                f"s{i}" for i in range(6)
            ]
        finally:
            shipper.close()

    def test_full_queue_drops_newest_never_blocks(self):
        shipper = _shipper(lambda batch: True, capacity=2)
        try:
            for index in range(5):
                shipper(_event(index))
            with shipper._lock:
                queued = [event["span"] for event in shipper._queue]
            assert queued == ["s0", "s1"]  # oldest kept, overflow counted
            assert shipper._registry["spans_dropped"] == 3
        finally:
            shipper.close()

    def test_transient_failure_is_retried_once_without_loss(self):
        calls = []

        def transport(batch):
            calls.append(len(batch))
            return len(calls) > 1  # torn socket: first attempt fails

        shipper = _shipper(transport, batch_size=2)
        try:
            for index in range(4):
                shipper(_event(index))
            shipper.flush()
            assert calls == [2, 2, 2]  # batch 1 failed+retried, batch 2 clean
            assert shipper._registry["spans_shipped"] == 4
            assert "spans_dropped" not in shipper._registry
        finally:
            shipper.close()

    def test_dead_collector_counts_dropped_and_keeps_draining(self):
        calls = []

        def explode(batch):
            calls.append(len(batch))
            raise OSError("collector down")

        shipper = _shipper(explode, batch_size=2)
        try:
            for index in range(4):
                shipper(_event(index))
            shipper.flush()  # must not raise
            assert calls == [2, 2, 2, 2]  # two batches, each tried twice
            assert shipper._registry["spans_dropped"] == 4
        finally:
            shipper.close()

    def test_close_flushes_and_is_idempotent(self):
        batches: list[list] = []
        shipper = _shipper(lambda batch: batches.append(batch) or True)
        shipper(_event(0))
        shipper.close()
        shipper.close()
        assert sum(len(batch) for batch in batches) == 1

    def test_concurrent_flushes_never_overlap_on_the_transport(self):
        active = []
        overlaps = []
        guard = threading.Lock()

        def transport(batch):
            with guard:
                active.append(1)
                overlaps.append(len(active))
            time.sleep(0.02)
            with guard:
                active.pop()
            return True

        shipper = _shipper(transport, batch_size=1)
        try:
            for index in range(6):
                shipper(_event(index))
            start = threading.Barrier(2)

            def flush():
                start.wait()
                shipper.flush()

            threads = [threading.Thread(target=flush) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10.0)
            assert not any(thread.is_alive() for thread in threads)
            assert max(overlaps) == 1
            assert shipper._registry["spans_shipped"] == 6
            assert "spans_dropped" not in shipper._registry
        finally:
            shipper.close()

    def test_flush_ships_only_the_events_queued_at_entry(self):
        calls = []

        def transport(batch):
            # Like a POST to an in-process collector, every delivery emits a
            # fresh span (capped so a looping flush still ends).
            calls.append([event["span"] for event in batch])
            if len(calls) < 50:
                shipper(_event(100 + len(calls)))
            return True

        shipper = _shipper(transport)
        try:
            shipper(_event(0))
            assert shipper.flush() == 1
            assert len(calls) <= 2
            assert calls[0] == ["s0"]
        finally:
            shipper.close()

    def test_rejects_an_endpoint_without_a_port(self):
        with pytest.raises(ValueError, match="host:port"):
            SpanShipper("127.0.0.1", transport=lambda batch: True)

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError, match="positive"):
            SpanShipper("h:1", capacity=0)


class TestTraceCollector:
    def test_ingest_accepts_events_and_rejects_malformed_ones(self):
        collector = TraceCollector()
        accepted, rejected = collector.ingest(
            {"events": [_event(0), {"name": "no-span"}, "not-a-dict"]}
        )
        assert (accepted, rejected) == (1, 2)
        assert [event["span"] for event in collector.events()] == ["s0"]
        stats = collector.stats()
        assert stats["batches"] == 1
        assert stats["received"] == 1
        assert stats["rejected"] == 2

    def test_bare_list_payload_works_and_nonlist_raises(self):
        collector = TraceCollector()
        assert collector.ingest([_event(1)]) == (1, 0)
        with pytest.raises(ValueError, match="list"):
            collector.ingest({"events": "nope"})

    def test_ring_ages_out_oldest_events(self):
        collector = TraceCollector(capacity=3)
        collector.ingest([_event(i) for i in range(5)])
        assert [event["span"] for event in collector.events()] == ["s2", "s3", "s4"]

    def test_file_sink_feeds_trace_summarize(self, tmp_path):
        path = tmp_path / "collector.jsonl"
        collector = TraceCollector(path)
        collector.ingest([_event(0), _event(1)])
        collector.close()
        events = load_events(path)
        assert [event["span"] for event in events] == ["s0", "s1"]
        # The on-disk schema is plain JSONL, appendable across runs.
        with open(path, "a", encoding="utf-8") as stream:
            stream.write(json.dumps(_event(2)) + "\n")
        assert len(load_events(path)) == 3


class TestConfigureShipping:
    @pytest.fixture(autouse=True)
    def _clean_tracing(self):
        tracing.disable()
        yield
        tracing.disable()

    def test_traced_spans_ship_through_the_sink(self, monkeypatch):
        batches: list[list] = []
        registry = MetricsRegistry()
        shipper = configure_shipping(
            "127.0.0.1:1",
            transport=lambda batch: batches.append(batch) or True,
            flush_interval=3600.0,
            batch_size=1024,
            registry=registry,
        )
        with tracing.span("unit.op", trace_id="t-ship"):
            pass
        shipper.flush()
        shipped = [event for batch in batches for event in batch]
        assert [event["name"] for event in shipped] == ["unit.op"]
        assert shipped[0]["trace"] == "t-ship"
        assert registry["spans_shipped"] == 1
