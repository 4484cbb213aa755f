"""Trace summarizer: span tables, per-request breakdowns, report rendering."""

from __future__ import annotations

import json

import pytest

from repro.telemetry.summarize import (
    build_trace_tree,
    format_summary,
    load_events,
    summarize_events,
    summarize_files,
)


def _event(name, trace, dur_ms, attrs=None, **overrides):
    event = {
        "ts": 1.0,
        "name": name,
        "trace": trace,
        "span": f"span-{name}-{dur_ms}",
        "parent": None,
        "dur_ms": dur_ms,
        "pid": 1,
        "attrs": attrs or {},
    }
    event.update(overrides)
    return event


def _request_events(trace, total, queue, kernel, cache, path="/v1/evaluate"):
    return [
        _event("server.queue_wait", trace, queue),
        _event("worker.kernel", trace, kernel),
        _event("cache.write", trace, cache),
        _event("server.request", trace, total, attrs={"path": path, "status": 200}),
    ]


class TestSummarize:
    def test_span_table_has_exact_percentiles(self):
        events = [_event("kernel.montecarlo", f"t{i}", float(i + 1)) for i in range(100)]
        summary = summarize_events(events)
        stats = summary["spans"]["kernel.montecarlo"]
        assert stats["count"] == 100
        assert stats["mean_ms"] == pytest.approx(50.5)
        assert stats["p50_ms"] == pytest.approx(50.5)
        assert stats["p95_ms"] == pytest.approx(95.05)
        assert stats["p99_ms"] == pytest.approx(99.01)
        assert stats["max_ms"] == 100.0

    def test_request_breakdown_reports_waits_and_kernel_time(self):
        events = _request_events("aaa", 20.0, queue=2.0, kernel=10.0, cache=1.0)
        summary = summarize_events(events)
        [request] = summary["requests"]
        assert request["trace"] == "aaa"
        assert request["dur_ms"] == 20.0
        assert request["queue_wait_ms"] == 2.0
        assert request["kernel_ms"] == 10.0
        assert request["cache_ms"] == 1.0
        assert request["path"] == "/v1/evaluate"
        assert request["status"] == 200

    def test_requests_sort_slowest_first_and_ignore_rootless_traces(self):
        events = (
            _request_events("fast", 5.0, queue=0.0, kernel=3.0, cache=0.0)
            + _request_events("slow", 50.0, queue=4.0, kernel=30.0, cache=2.0)
            + [_event("study.point", "rootless", 8.0)]
        )
        summary = summarize_events(events)
        assert [request["trace"] for request in summary["requests"]] == ["slow", "fast"]
        assert summary["traces"] == 3
        assert summary["events"] == len(events)

    def test_component_spans_within_a_trace_accumulate(self):
        events = [
            _event("cache.read", "t", 1.0),
            _event("cache.write", "t", 2.0),
            _event("server.cache_probe", "t", 3.0),
            _event("server.request", "t", 10.0, attrs={"path": "/x", "status": 200}),
        ]
        [request] = summarize_events(events)["requests"]
        assert request["cache_ms"] == 6.0


class TestLoadEvents:
    def test_malformed_and_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        good = _event("server.request", "t", 4.0, attrs={"path": "/x", "status": 200})
        path.write_text(
            json.dumps(good) + "\n"
            + "{torn write\n"
            + "\n"
            + json.dumps({"no": "name"}) + "\n"
            + json.dumps(_event("worker.kernel", "t", 2.0)) + "\n"
        )
        events = load_events(path)
        assert [event["name"] for event in events] == ["server.request", "worker.kernel"]
        summary = summarize_files([path])
        assert summary["events"] == 2
        assert summary["requests"][0]["kernel_ms"] == 2.0


class TestFormatSummary:
    def test_report_lists_spans_and_slowest_requests(self):
        events = _request_events("abcd1234", 20.0, queue=2.0, kernel=10.0, cache=1.0)
        text = format_summary(summarize_events(events), top=5)
        assert "events: 4" in text
        assert "server.request" in text
        assert "worker.kernel" in text
        assert "slowest requests (top 1 of 1):" in text
        assert "queue_wait_ms" in text
        assert "window_wait_ms" not in text
        assert "abcd1234" in text

    def test_top_limits_the_request_table(self):
        events = []
        for index in range(8):
            events += _request_events(f"trace{index}", float(index + 1), 0.0, 0.0, 0.0)
        text = format_summary(summarize_events(events), top=3)
        assert "slowest requests (top 3 of 8):" in text
        # Only the three slowest traces appear.
        assert "trace7" in text and "trace5" in text
        assert "trace0" not in text

    def test_counter_attributes_are_summed_and_reported(self):
        events = [
            _event("study.group", "t1", 4.0,
                   attrs={"distributions_computed": 3, "distributions_shared": 6}),
            _event("study.group", "t2", 2.0,
                   attrs={"distributions_computed": 1, "distributions_shared": 2}),
            _event("study.group", "t3", 1.0, attrs={"group_size": 5}),
        ]
        summary = summarize_events(events)
        assert summary["counters"] == {"distributions_computed": 4, "distributions_shared": 8}
        assert "counters: distributions_computed=4  distributions_shared=8" in format_summary(
            summary
        )
        assert "counters" not in format_summary(summarize_events(events[2:]))

    def test_empty_capture_renders_without_tables(self):
        text = format_summary(summarize_events([]))
        assert "events: 0" in text


def _stitched_events(trace="fleet1"):
    """One routed request as three processes would capture it: the router's
    envelope, the shard's server.request parented under it, and the worker
    kernel parented under that."""
    return [
        _event(
            "router.request", trace, 30.0,
            attrs={"path": "/v1/evaluate", "status": 200},
            span="r1", parent=None, pid=10, ts=1.0,
        ),
        _event("server.request", trace, 20.0, span="s1", parent="r1", pid=20, ts=1.2),
        _event("worker.kernel", trace, 12.0, span="w1", parent="s1", pid=30, ts=1.4),
    ]


class TestStitchedTraces:
    def test_router_root_wins_and_per_hop_columns_appear(self):
        summary = summarize_events(_stitched_events())
        assert summary["stitched"] == 1
        [request] = summary["requests"]
        assert request["dur_ms"] == 30.0  # the router envelope is the wall clock
        assert request["router_ms"] == 30.0
        assert request["shard_ms"] == 20.0
        assert request["network_ms"] == 10.0
        assert request["kernel_ms"] == 12.0

    def test_unstitched_capture_has_zero_network_residual(self):
        events = [
            _event("server.request", "t", 9.0, attrs={"path": "/x", "status": 200}),
        ]
        [request] = summarize_events(events)["requests"]
        assert request["shard_ms"] == 9.0
        assert request["router_ms"] == 0.0
        assert request["network_ms"] == 0.0
        assert summarize_events(events)["stitched"] == 0

    def test_summarize_files_concatenates_captures(self, tmp_path):
        events = _stitched_events()
        router_file, collector_file = tmp_path / "r.jsonl", tmp_path / "c.jsonl"
        router_file.write_text(json.dumps(events[0]) + "\n")
        collector_file.write_text("".join(json.dumps(e) + "\n" for e in events[1:]))
        summary = summarize_files([router_file, collector_file])
        assert summary["stitched"] == 1
        assert summary["requests"][0]["network_ms"] == 10.0

    def test_stitched_report_gains_per_hop_columns(self):
        text = format_summary(summarize_events(_stitched_events()))
        assert "stitched: 1" in text
        assert "router_ms" in text and "network_ms" in text
        # An unstitched report keeps the PR-7 table exactly.
        local = format_summary(
            summarize_events(
                [_event("server.request", "t", 5.0, attrs={"path": "/x", "status": 200})]
            )
        )
        assert "router_ms" not in local


class TestBuildTraceTree:
    def test_parent_links_nest_across_pids(self):
        roots = build_trace_tree(_stitched_events(), "fleet1")
        [root] = roots
        assert root["name"] == "router.request"
        [server] = root["children"]
        assert server["name"] == "server.request"
        assert server["pid"] == 20
        [kernel] = server["children"]
        assert kernel["name"] == "worker.kernel"

    def test_missing_parent_degrades_to_a_forest(self):
        events = _stitched_events()
        orphaned = [event for event in events if event["span"] != "r1"]
        roots = build_trace_tree(orphaned, "fleet1")
        [root] = roots  # server.request becomes the root; kernel stays nested
        assert root["name"] == "server.request"
        assert root["children"][0]["name"] == "worker.kernel"

    def test_other_traces_are_excluded(self):
        events = _stitched_events() + _stitched_events(trace="other")
        roots = build_trace_tree(events, "fleet1")
        assert len(roots) == 1
