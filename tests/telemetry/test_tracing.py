"""Tracer: no-op discipline when disabled, span nesting, file plumbing."""

from __future__ import annotations

import json
import os

import pytest

from repro import telemetry
from repro.telemetry import tracing


@pytest.fixture(autouse=True)
def _tracing_disabled():
    """Every test starts and ends with tracing off."""
    tracing.disable()
    yield
    tracing.disable()


@pytest.fixture
def sink():
    events: list[dict] = []
    tracing.configure(sink=events.append)
    return events


class TestDisabledPath:
    def test_span_returns_the_shared_noop_singleton(self):
        first = telemetry.span("anything", key="value")
        second = telemetry.span("something.else")
        assert first is second is tracing._NOOP
        with first as active:
            active.set(more="attrs")  # must be accepted and ignored

    def test_record_is_a_noop(self):
        telemetry.record("interval", 0.5)  # must not raise

    def test_enabled_reports_state(self, sink):
        assert telemetry.enabled()
        tracing.disable()
        assert not telemetry.enabled()


class TestSpans:
    def test_nested_spans_share_a_trace_and_chain_parents(self, sink):
        with telemetry.span("outer") as outer:
            with telemetry.span("inner"):
                pass
        inner_event, outer_event = sink
        assert inner_event["name"] == "inner"
        assert outer_event["name"] == "outer"
        assert inner_event["trace"] == outer_event["trace"]
        assert inner_event["parent"] == outer_event["span"]
        assert outer_event["parent"] is None
        assert outer.trace == outer_event["trace"]

    def test_explicit_trace_id_wins_over_context(self, sink):
        with telemetry.span("outer"):
            with telemetry.span("job", trace_id="feedbeeffeedbeef"):
                pass
        job_event = sink[0]
        assert job_event["trace"] == "feedbeeffeedbeef"

    def test_attrs_and_mid_span_set_land_in_the_event(self, sink):
        with telemetry.span("work", stage="probe") as active:
            active.set(tier="lru", hit=True)
        [event] = sink
        assert event["attrs"] == {"stage": "probe", "tier": "lru", "hit": True}
        assert event["dur_ms"] >= 0.0
        assert event["pid"] == os.getpid()

    def test_exceptions_stamp_an_error_attr_and_propagate(self, sink):
        with pytest.raises(RuntimeError):
            with telemetry.span("doomed"):
                raise RuntimeError("boom")
        [event] = sink
        assert event["attrs"]["error"] == "RuntimeError"

    def test_record_inherits_the_enclosing_span_as_parent(self, sink):
        with telemetry.span("outer"):
            telemetry.record("measured.elsewhere", 0.125, detail=3)
        measured, outer = sink
        assert measured["parent"] == outer["span"]
        assert measured["trace"] == outer["trace"]
        assert measured["dur_ms"] == pytest.approx(125.0)
        assert measured["attrs"] == {"detail": 3}

    def test_set_trace_id_binds_the_context(self, sink):
        token = telemetry.set_trace_id("0123456789abcdef")
        try:
            assert telemetry.current_trace_id() == "0123456789abcdef"
            with telemetry.span("work"):
                pass
        finally:
            token.var.reset(token)
        assert sink[0]["trace"] == "0123456789abcdef"
        assert telemetry.current_trace_id() is None

    def test_trace_ids_are_sixteen_hex_chars(self):
        trace_id = telemetry.new_trace_id()
        assert len(trace_id) == 16
        int(trace_id, 16)  # raises if not hex

    def test_a_crashing_sink_never_breaks_the_traced_operation(self):
        def explode(event):
            raise OSError("disk full")

        tracing.configure(sink=explode)
        with telemetry.span("survives"):
            result = 2 + 2
        assert result == 4


class TestFilePlumbing:
    def test_file_mode_appends_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracing.configure(path)
        with telemetry.span("first"):
            pass
        telemetry.record("second", 0.001)
        tracing.disable()
        lines = path.read_text().strip().splitlines()
        events = [json.loads(line) for line in lines]
        assert [event["name"] for event in events] == ["first", "second"]
        for event in events:
            assert set(event) == {"ts", "name", "trace", "span", "parent", "dur_ms", "pid", "attrs"}

    def test_configure_requires_exactly_one_destination(self, tmp_path):
        with pytest.raises(ValueError, match="exactly one"):
            tracing.configure()
        with pytest.raises(ValueError, match="exactly one"):
            tracing.configure(tmp_path / "t.jsonl", sink=lambda event: None)
