"""``repro top`` rendering: pure screens from fleet samples, CI exit codes."""

from __future__ import annotations

from repro.telemetry.top import fetch_sample, render_dashboard, run_top


def _fleet_metrics():
    return {
        "requests_total": 120,
        "errors_total": 2,
        "healthy_shards": 2,
        "shards": 3,
        "cache_hits_lru": 30,
        "cache_misses": 10,
        "inflight_requests": 4,
        "queued_requests": 1,
        "spans_shipped": 55,
        "spans_dropped": 0,
        "histograms": {
            "request_seconds": {
                "count": 120,
                "p50": 0.010,
                "p95": 0.040,
                "p99": 0.090,
                "max": 0.200,
                "exemplar": {"trace": "deadbeef", "value": 0.2},
            }
        },
        "scope": "fleet",
        "target_count": 2,
        "targets": {
            "127.0.0.1:8001": {
                "role": "shard",
                "age_seconds": 0.4,
                "counters": {"requests_total": 80, "errors_total": 2},
                "gauges": {"process_rss_bytes": 50 * 1024 * 1024},
                "histograms": {"request_seconds": {"count": 80, "p99": 0.08}},
            },
            "self": {
                "role": "router",
                "age_seconds": 0.0,
                "counters": {"requests_total": 40, "errors_total": 0},
                "gauges": {},
                "histograms": {},
            },
        },
    }


def _slo_report(met=True):
    return {
        "objectives": [
            {
                "name": "availability",
                "window": {
                    "met": met,
                    "compliance": 0.9833,
                    "burn_rate": 16.7,
                    "budget_remaining": -15.7,
                },
            }
        ],
        "samples": 9,
    }


def _sample(at=100.0, metrics=None, slo=None):
    return {
        "at": at,
        "scope": "fleet",
        "target": "127.0.0.1:8100",
        "metrics": _fleet_metrics() if metrics is None else metrics,
        "slo": slo,
    }


class TestRenderDashboard:
    def test_single_sample_screen_carries_every_section(self):
        screen = render_dashboard(_sample(slo=_slo_report()))
        assert "repro top -- 127.0.0.1:8100 scope=fleet targets=2 healthy=2/3" in screen
        assert "requests 120 (errors 2)" in screen  # no previous: cumulative
        assert "latency p50 10.0ms  p95 40.0ms  p99 90.0ms" in screen
        assert "slowest trace deadbeef (200.0ms)" in screen
        assert "cache mix: lru 30 (75%)  miss 10 (25%)" in screen
        assert "spans 55 shipped/0 dropped" in screen
        assert "127.0.0.1:8001" in screen and "50.0MiB" in screen
        assert "availability" in screen and "[ok]" in screen

    def test_two_samples_render_throughput_rates(self):
        previous = _sample(at=100.0)
        current = _sample(at=110.0)
        current["metrics"] = dict(current["metrics"], requests_total=220, errors_total=7)
        screen = render_dashboard(current, previous)
        assert "throughput 10.0 req/s (errors 0.5/s)" in screen

    def test_breached_objective_is_marked(self):
        screen = render_dashboard(_sample(slo=_slo_report(met=False)))
        assert "[BREACH]" in screen
        assert "burn 16.7x" in screen

    def test_no_metrics_renders_a_stub_screen(self):
        screen = render_dashboard({"target": "127.0.0.1:9", "metrics": None})
        assert "no /metrics response" in screen

    def test_local_scope_sample_renders_without_fleet_sections(self):
        metrics = {
            "requests_total": 3,
            "errors_total": 0,
            "histograms": {},
        }
        screen = render_dashboard(_sample(metrics=metrics))
        assert "requests 3" in screen
        assert "target" not in screen.splitlines()[0] or "targets=" not in screen


class TestRunTop:
    def test_once_against_a_dead_endpoint_exits_nonzero(self):
        emitted: list[str] = []
        # Port 1 on localhost: nothing listens; fetch degrades to None fast.
        code = run_top("127.0.0.1", 1, once=True, out=emitted.append)
        assert code == 1
        assert "no /metrics response" in emitted[0]


class TestFetchSample:
    def test_a_shard_answers_the_local_scope_and_no_slo(self):
        """A shard refuses ``scope=fleet`` (400) and has no ``/v1/slo``
        (404): the poll falls back to the local scope and reads the SLO as
        missing."""
        from repro.service import EvaluationServer, start_in_background

        with start_in_background(EvaluationServer()) as handle:
            sample = fetch_sample("127.0.0.1", handle.port)
        assert sample["scope"] == "local"
        assert "requests_total" in sample["metrics"]
        assert sample["slo"] is None
        assert sample["target"] == f"127.0.0.1:{handle.port}"
