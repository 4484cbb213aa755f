"""Client-side retry tests: backoff schedule, typed errors, mocked clock.

No sockets: ``_request_once`` is replaced by a scripted transport and the
``sleep`` / ``rng`` injection seams record the exact backoff schedule.
"""

from __future__ import annotations

import pytest

from repro.service import ServiceClient, ServiceError
from repro.service.client import RETRYABLE_STATUSES, _parse_retry_after


def _scripted_client(failures, *, retries=3, rng=lambda: 1.0, **kwargs):
    """A client whose transport raises ``failures`` in order, then succeeds."""
    sleeps: list[float] = []
    client = ServiceClient(
        retries=retries,
        backoff_base=0.1,
        backoff_max=0.4,
        sleep=sleeps.append,
        rng=rng,
        **kwargs,
    )
    script = list(failures)
    calls = {"count": 0}

    def transport(verb, path, payload=None):
        calls["count"] += 1
        if script:
            raise script.pop(0)
        return {"ok": True}

    client._request_once = transport
    return client, sleeps, calls


class TestBackoffSchedule:
    def test_exponential_schedule_with_cap(self):
        client, sleeps, calls = _scripted_client(
            [
                ServiceError(429, "busy", code="saturated"),
                ServiceError(503, "draining", code="draining"),
                ConnectionError("refused"),
            ]
        )
        assert client.request("POST", "/v1/evaluate", {}) == {"ok": True}
        # rng pinned to 1.0: delays are exactly base * 2**attempt, capped.
        assert sleeps == [0.1, 0.2, 0.4]
        assert calls["count"] == 4

    def test_retry_after_extends_the_delay(self):
        client, sleeps, _ = _scripted_client(
            [ServiceError(429, "busy", code="saturated", retry_after=1.5)]
        )
        assert client.request("GET", "/healthz") == {"ok": True}
        assert sleeps == [1.5]

    def test_jitter_scales_into_the_half_open_band(self):
        client, _, _ = _scripted_client([], rng=lambda: 0.0)
        assert client.backoff_delay(0) == pytest.approx(0.05)  # 0.1 * 0.5
        client, _, _ = _scripted_client([], rng=lambda: 1.0)
        assert client.backoff_delay(3) == pytest.approx(0.4)  # capped at backoff_max

    def test_non_retryable_status_raises_immediately(self):
        client, sleeps, calls = _scripted_client(
            [ServiceError(400, "unknown method", code="bad_request")]
        )
        with pytest.raises(ServiceError) as excinfo:
            client.request("POST", "/v1/evaluate", {})
        assert excinfo.value.status == 400
        assert sleeps == []
        assert calls["count"] == 1

    def test_exhausted_retries_raise_the_last_error(self):
        client, sleeps, calls = _scripted_client(
            [ServiceError(503, "draining", code="draining")] * 5, retries=2
        )
        with pytest.raises(ServiceError) as excinfo:
            client.request("GET", "/v1/methods")
        assert excinfo.value.status == 503
        assert len(sleeps) == 2
        assert calls["count"] == 3

    def test_zero_retries_disables_retrying(self):
        client, sleeps, calls = _scripted_client([ConnectionError("refused")], retries=0)
        with pytest.raises(ConnectionError):
            client.request("GET", "/healthz")
        assert sleeps == [] and calls["count"] == 1

    def test_connection_errors_are_retried(self):
        client, sleeps, calls = _scripted_client(
            [ConnectionRefusedError("down"), TimeoutError("slow")]
        )
        assert client.request("GET", "/healthz") == {"ok": True}
        assert calls["count"] == 3 and len(sleeps) == 2

    def test_rejects_bad_retry_configuration(self):
        with pytest.raises(ValueError, match="retries"):
            ServiceClient(retries=-1)
        with pytest.raises(ValueError, match="positive"):
            ServiceClient(backoff_base=0.0)


class TestServiceErrorTyping:
    def test_message_carries_status_and_code(self):
        error = ServiceError(429, "server saturated", code="saturated", retry_after=2.0)
        assert str(error) == "HTTP 429 [saturated]: server saturated"
        assert error.status == 429
        assert error.detail == "server saturated"
        assert error.code == "saturated"
        assert error.retry_after == 2.0
        assert error.retryable is True

    def test_unknown_code_spelling(self):
        error = ServiceError(502, "proxy said no")
        assert str(error) == "HTTP 502 [unknown]: proxy said no"
        assert error.code is None
        assert error.retryable is False

    def test_retryable_statuses_are_the_transient_ones(self):
        assert RETRYABLE_STATUSES == {429, 503}

    def test_retry_after_parsing(self):
        assert _parse_retry_after(None) is None
        assert _parse_retry_after("1.5") == 1.5
        assert _parse_retry_after("0") == 0.0
        assert _parse_retry_after("-2") is None
        assert _parse_retry_after("Wed, 21 Oct 2026 07:28:00 GMT") is None


class TestRetryBudget:
    """``max_elapsed_s`` caps the *total* time spent retrying one request."""

    def _budgeted_client(self, failures, *, max_elapsed_s, retries=5):
        """A scripted client whose clock advances by each recorded sleep."""
        now = {"t": 0.0}
        sleeps: list[float] = []

        def sleep(delay: float) -> None:
            sleeps.append(delay)
            now["t"] += delay

        client = ServiceClient(
            retries=retries,
            backoff_base=0.1,
            backoff_max=0.4,
            max_elapsed_s=max_elapsed_s,
            sleep=sleep,
            rng=lambda: 1.0,
            clock=lambda: now["t"],
        )
        script = list(failures)
        calls = {"count": 0}

        def transport(verb, path, payload=None):
            calls["count"] += 1
            if script:
                raise script.pop(0)
            return {"ok": True}

        client._request_once = transport
        return client, sleeps, calls, now

    def test_budget_expiry_raises_the_last_typed_error(self):
        client, sleeps, calls, _ = self._budgeted_client(
            [ServiceError(503, "draining", code="draining")] * 10,
            max_elapsed_s=0.25,
        )
        with pytest.raises(ServiceError) as excinfo:
            client.request("GET", "/v1/methods")
        # Delays would be 0.1, 0.2, ...; the second sleep overruns 0.25 s,
        # so the client stops after one sleep and surfaces the typed 503.
        assert excinfo.value.status == 503
        assert sleeps == [0.1]
        assert calls["count"] == 2

    def test_budget_expiry_raises_transport_error_when_never_answered(self):
        client, sleeps, calls, _ = self._budgeted_client(
            [ConnectionRefusedError("down")] * 10, max_elapsed_s=0.05
        )
        with pytest.raises(ConnectionRefusedError):
            client.request("GET", "/healthz")
        assert sleeps == []  # even the first 0.1 s sleep would overrun
        assert calls["count"] == 1

    def test_generous_budget_changes_nothing(self):
        client, sleeps, calls, _ = self._budgeted_client(
            [ServiceError(429, "busy", code="saturated")] * 2,
            max_elapsed_s=60.0,
        )
        assert client.request("POST", "/v1/evaluate", {}) == {"ok": True}
        assert sleeps == [0.1, 0.2]
        assert calls["count"] == 3

    def test_retry_after_counts_against_the_budget(self):
        client, sleeps, calls, _ = self._budgeted_client(
            [
                ServiceError(429, "busy", code="saturated", retry_after=5.0),
                ServiceError(429, "busy", code="saturated", retry_after=5.0),
            ],
            max_elapsed_s=6.0,
        )
        with pytest.raises(ServiceError) as excinfo:
            client.request("POST", "/v1/evaluate", {})
        # One honoured Retry-After (5 s) fits; a second would overrun.
        assert excinfo.value.status == 429
        assert sleeps == [5.0]
        assert calls["count"] == 2

    def test_default_is_unbudgeted(self):
        client = ServiceClient()
        assert client.max_elapsed_s is None

    def test_rejects_non_positive_budget(self):
        with pytest.raises(ValueError, match="max_elapsed_s"):
            ServiceClient(max_elapsed_s=0.0)
        with pytest.raises(ValueError, match="max_elapsed_s"):
            ServiceClient(max_elapsed_s=-1.0)
