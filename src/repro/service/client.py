""":class:`ServiceClient`: the stdlib Python client for the evaluation service.

A thin, thread-safe wrapper over ``http.client`` that speaks the service's
JSON protocol and returns the same typed
:class:`~repro.api.results.EvaluationResult` objects the in-process API
produces -- swapping ``repro.evaluate(model, ...)`` for
``client.evaluate(model, ...)`` changes where the work runs, not what comes
back.  Connections are kept alive *per thread*: each thread reuses one
``http.client`` connection across calls (reconnecting transparently when the
server closed it between calls), so one client instance can be shared
freely across threads (the concurrent-client pattern of
``examples/service_client.py``) without paying a TCP handshake per
request.

It is the program's one blocking HTTP client: the span shipper and
``repro top`` call :meth:`ServiceClient.request` with ``retries=0``, and
:func:`split_base_url` parses every peer address.  The event loop's
counterpart -- the router's shard hops and a shard's cache-peer probes --
is :class:`repro.cluster.transport.ShardTransport`.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from typing import Any, Callable, Mapping, Sequence
from urllib.parse import urlsplit

from repro.api.results import EvaluationRequest, EvaluationResult

__all__ = ["BackoffPolicy", "RETRYABLE_STATUSES", "ServiceClient", "ServiceError", "split_base_url"]

#: Statuses worth retrying: transient server-side saturation (429) and
#: draining/unavailability (503).  Everything else is either the caller's
#: fault (4xx) or a typed evaluation failure a retry would only repeat.
RETRYABLE_STATUSES = frozenset({429, 503})

#: Failures of a reused keep-alive connection that mean the server closed it
#: between calls (``http.client.RemoteDisconnected`` is a reset); only these
#: are retried on a fresh connection.
_STALE_ERRORS = (ConnectionResetError, BrokenPipeError, ConnectionAbortedError)


class ServiceError(RuntimeError):
    """A non-2xx service response, fully typed.

    Attributes
    ----------
    status:
        The HTTP status code.
    code:
        The machine-readable error code the server attaches to every error
        body (``"bad_request"``, ``"saturated"``, ``"draining"``,
        ``"deadline_exceeded"``, ``"worker_crash"``, ``"evaluation_failed"``,
        ...); ``None`` when the body carried none (e.g. a non-JSON proxy
        response).
    detail:
        The human-readable one-line error message.
    retry_after:
        Parsed ``Retry-After`` header in seconds, when the server sent one.
    trace_id:
        The server's trace id for the failed request (from the error body or
        the ``x-repro-trace-id`` response header), so a client-side log line
        can be correlated with the server's trace capture; ``None`` when the
        response carried none.  Included in ``str(error)``.
    """

    def __init__(
        self,
        status: int,
        message: str,
        *,
        code: str | None = None,
        retry_after: float | None = None,
        trace_id: str | None = None,
    ) -> None:
        rendered = f"HTTP {status} [{code or 'unknown'}]: {message}"
        if trace_id:
            rendered += f" (trace {trace_id})"
        super().__init__(rendered)
        self.status = status
        self.message = message
        self.detail = message
        self.code = code
        self.retry_after = retry_after
        self.trace_id = trace_id

    @property
    def retryable(self) -> bool:
        return self.status in RETRYABLE_STATUSES


class BackoffPolicy:
    """Exponential backoff with jitter, honouring ``Retry-After``.

    ``base * 2**attempt`` capped at ``maximum``, scaled by a random factor
    in [0.5, 1.0]; a server-sent ``Retry-After`` sets the floor.  Shared by
    :class:`ServiceClient` (per-call retries) and the cluster router
    (per-hop retries, :mod:`repro.cluster.router`) so the two layers cannot
    drift apart in retry behaviour.  ``rng`` is the injection seam that
    makes a whole backoff schedule assertable in tests.
    """

    def __init__(
        self,
        base: float = 0.05,
        maximum: float = 2.0,
        rng: Callable[[], float] = random.random,
    ) -> None:
        if base <= 0.0 or maximum <= 0.0:
            raise ValueError("backoff base and maximum must be positive")
        self.base = base
        self.maximum = maximum
        self.rng = rng

    def delay(self, attempt: int, retry_after: float | None = None) -> float:
        """The delay before retry ``attempt`` (0-based), jitter applied."""
        delay = min(self.maximum, self.base * (2.0**attempt))
        delay *= 0.5 + 0.5 * self.rng()
        if retry_after is not None:
            delay = max(delay, retry_after)
        return delay


def _parse_retry_after(value: str | None) -> float | None:
    if value is None:
        return None
    try:
        parsed = float(value)
    except ValueError:
        return None  # HTTP-date spelling: ignored, backoff still applies
    return parsed if parsed >= 0.0 else None


def split_base_url(base: str) -> tuple[str, int]:
    """``(host, port)`` from ``host:port`` or ``http://host:port``; else ``ValueError``.

    The one parser of every address the program dials: shards, peer
    routers, cache peers and trace collectors.
    """
    parts = urlsplit(base if "//" in base else f"http://{base}")
    try:
        if parts.hostname and parts.port:
            return parts.hostname, parts.port
    except ValueError:  # a port that is not a number, or out of range
        pass
    raise ValueError(f"address {base!r} needs host:port")


def _model_payload(model, scenario: str | None) -> dict:
    """The request's model source: a ``FaultModel`` in the bytes spelling, a
    mapping as given, or a scenario name."""
    if (model is None) == (scenario is None):
        raise ValueError("provide exactly one of model and scenario")
    if scenario is not None:
        return {"scenario": scenario}
    if hasattr(model, "content"):
        return {"model": model.content().wire()}
    if isinstance(model, Mapping):
        return {"model": dict(model)}
    raise ValueError(f"model must be a FaultModel or a mapping, got {type(model).__name__}")


class ServiceClient:
    """Talk to a running ``repro serve`` instance.

    A :class:`~repro.core.fault_model.FaultModel` goes out in the bytes
    spelling of :mod:`repro.service.protocol`: ``p_f64`` and ``q_f64``, base64
    of the little-endian float64 vectors, with ``names`` left out when they
    are the defaults ``fault_1 .. fault_n``.  A mapping goes out as given, so
    list-spelled models still work; both spellings are the same request.

    Transient failures are retried transparently: connection errors (the
    server is restarting, a worker crash bounced it) and retryable statuses
    (429 saturated, 503 draining) back off exponentially with jitter --
    ``backoff_base * 2**attempt`` capped at ``backoff_max``, scaled by a
    random factor in [0.5, 1.0] -- honouring the server's ``Retry-After``
    when it is longer.  Retrying is safe because every response is
    deterministic and content-keyed: a retried request returns the same
    bytes the first attempt would have.  ``retries=0`` disables retrying.

    ``max_elapsed_s`` is the **retry budget**: the total time a call may
    spend across attempts and backoff sleeps.  A sleep that would overrun
    the budget is skipped and the last failure raised instead -- a typed
    :class:`ServiceError` when the server answered (429/503, ``Retry-After``
    attached), the transport error otherwise -- so honoured ``Retry-After``
    values can never stretch a call past the caller's own deadline.
    ``None`` (the default) sets no budget: only ``retries`` bounds a call.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8000,
        timeout: float = 120.0,
        *,
        retries: int = 2,
        backoff_base: float = 0.05,
        backoff_max: float = 2.0,
        max_elapsed_s: float | None = None,
        sleep: Callable[[float], None] = time.sleep,
        rng: Callable[[], float] = random.random,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if max_elapsed_s is not None and max_elapsed_s <= 0.0:
            raise ValueError(f"max_elapsed_s must be positive, got {max_elapsed_s}")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.max_elapsed_s = max_elapsed_s
        self._clock = clock
        self.backoff = BackoffPolicy(backoff_base, backoff_max, rng=rng)
        # Injection seams for the retry tests: a recorded fake clock and a
        # pinned jitter make the whole backoff schedule assertable.
        self._sleep = sleep
        # One keep-alive connection per thread (http.client connections are
        # not thread-safe); client-side transport stats behind one lock.
        self._local = threading.local()
        self._stats_lock = threading.Lock()
        self._stats = {"connections_opened": 0, "reconnects": 0}

    def backoff_delay(self, attempt: int, retry_after: float | None = None) -> float:
        """The delay before retry ``attempt`` (0-based), jitter applied."""
        return self.backoff.delay(attempt, retry_after)

    # ----------------------------------------------------------------- #
    # Transport: per-thread keep-alive connections
    # ----------------------------------------------------------------- #
    @property
    def stats(self) -> dict:
        """Client-side transport counters, copied under the lock.

        ``connections_opened`` counts fresh TCP connections (one per thread
        in the steady state), ``reconnects`` counts kept-alive connections
        found stale on reuse (the server closed them between calls).
        """
        with self._stats_lock:
            return dict(self._stats)

    def _count(self, name: str) -> None:
        with self._stats_lock:
            self._stats[name] += 1

    def _connection(self) -> tuple[http.client.HTTPConnection, bool]:
        """This thread's connection and whether it is being *reused*."""
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            return connection, True
        connection = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        self._local.connection = connection
        self._count("connections_opened")
        return connection, False

    def _drop_connection(self) -> None:
        connection = getattr(self._local, "connection", None)
        self._local.connection = None
        if connection is not None:
            connection.close()

    def close(self) -> None:
        """Close *this thread's* kept-alive connection (idempotent).

        Other threads' connections close when their thread ends (or are
        reaped with the client object); a closed client remains usable --
        the next call simply opens a fresh connection.
        """
        self._drop_connection()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _exchange(self, verb: str, path: str, body: bytes | None, headers: dict):
        """One request/response over this thread's connection.

        A *reused* connection that the server closed between calls (which
        HTTP/1.1 keep-alive explicitly allows) is stale: it is dropped and
        the exchange retried once on a fresh connection (counted in
        ``reconnects``).  Only a server-side close counts as stale; any other
        failure -- a read timeout above all, where the server may still be
        working on the request -- propagates to the retry loop, as does every
        failure of a *fresh* connection.  An unparseable response raises
        ``ConnectionError``: every transport failure is an ``OSError``.
        """
        connection, reused = self._connection()
        try:
            return self._round_trip(connection, verb, path, body, headers)
        except _STALE_ERRORS:
            if not reused:
                raise
            self._count("reconnects")
        connection, _ = self._connection()
        return self._round_trip(connection, verb, path, body, headers)

    def _round_trip(self, connection, verb: str, path: str, body: bytes | None, headers: dict):
        try:
            connection.request(verb, path, body=body, headers=headers)
            response = connection.getresponse()
            return response, response.read()
        except OSError:
            self._drop_connection()
            raise
        except http.client.HTTPException as error:
            self._drop_connection()
            raise ConnectionError(f"malformed response: {error!r}") from error

    def request(self, verb: str, path: str, payload: dict | None = None) -> dict:
        """One JSON call, retried as the class docstring says; the decoded body.

        A non-2xx answer or a non-JSON body raises :class:`ServiceError`, a
        transport failure its ``OSError``.
        """
        last_error: Exception | None = None
        started = self._clock()
        for attempt in range(self.retries + 1):
            retry_after = None
            try:
                return self._request_once(verb, path, payload)
            except ServiceError as error:
                if not error.retryable or attempt >= self.retries:
                    raise
                retry_after = error.retry_after
                last_error = error
            except (ConnectionError, TimeoutError, OSError) as error:
                # The transport failed (refused, reset, timed out).  A reset
                # or read timeout may come after the server received the
                # request, so a retry can repeat its work; that is safe
                # because evaluation is deterministic and idempotent.
                if attempt >= self.retries:
                    raise
                last_error = error
            delay = self.backoff_delay(attempt, retry_after)
            if (
                self.max_elapsed_s is not None
                and self._clock() - started + delay > self.max_elapsed_s
            ):
                # The budget expired: sleeping again -- even for an
                # honoured Retry-After -- would overrun the caller's total
                # deadline.  Surface the last failure as-is (the typed
                # ServiceError when the server answered).
                raise last_error
            self._sleep(delay)
        raise last_error  # pragma: no cover - the loop always returns or raises

    def _request_once(self, verb: str, path: str, payload: dict | None = None) -> dict:
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json"} if body is not None else {}
        response, raw = self._exchange(verb, path, body, headers)
        try:
            data = json.loads(raw) if raw else {}
        except json.JSONDecodeError as error:
            raise ServiceError(
                response.status,
                f"non-JSON response: {error}",
                trace_id=response.getheader("x-repro-trace-id"),
            ) from error
        if response.status >= 400:
            if isinstance(data, Mapping):
                message = data.get("error", raw.decode("utf-8", "replace"))
                code = data.get("code")
                trace_id = data.get("trace_id")
            else:
                message, code, trace_id = raw.decode("utf-8", "replace"), None, None
            raise ServiceError(
                response.status,
                message,
                code=code,
                retry_after=_parse_retry_after(response.getheader("Retry-After")),
                trace_id=trace_id or response.getheader("x-repro-trace-id"),
            )
        return data

    # ----------------------------------------------------------------- #
    # Evaluation
    # ----------------------------------------------------------------- #
    def evaluate_detail(
        self,
        model=None,
        method: str = "",
        *,
        scenario: str | None = None,
        options: Mapping[str, Any] | None = None,
        seed: int | None = None,
        p_scale: float = 1.0,
        q_scale: float = 1.0,
        timeout_ms: float | None = None,
    ) -> tuple[EvaluationResult, dict]:
        """One evaluation, returning ``(result, served)``.

        ``served`` is the server's provenance record: ``cached`` (``None``,
        ``"lru"``, ``"disk"``, ``"remote"`` or ``"router"``) and
        ``group_size`` (the evaluations the computing pool job ran; 0 when
        cached) -- how the response was produced, useful for tests and
        capacity work.
        ``timeout_ms`` is the per-request server-side deadline (a 504 with
        code ``deadline_exceeded`` when overrun).
        """
        payload: dict[str, Any] = {**_model_payload(model, scenario), "method": method}
        if options:
            payload["options"] = dict(options)
        if seed is not None:
            payload["seed"] = seed
        if p_scale != 1.0:
            payload["p_scale"] = p_scale
        if q_scale != 1.0:
            payload["q_scale"] = q_scale
        if timeout_ms is not None:
            payload["timeout_ms"] = timeout_ms
        data = self.request("POST", "/v1/evaluate", payload)
        return EvaluationResult.from_dict(data["result"]), data.get("served", {})

    def evaluate(self, model=None, method: str = "", **kwargs) -> EvaluationResult:
        """One evaluation; the remote analogue of :func:`repro.evaluate`."""
        result, _ = self.evaluate_detail(model, method, **kwargs)
        return result

    def evaluate_batch(
        self,
        model=None,
        requests: Sequence | None = None,
        *,
        scenario: str | None = None,
        seed: int | None = None,
        timeout_ms: float | None = None,
    ) -> list[EvaluationResult]:
        """Many methods on one model; the remote :func:`repro.evaluate_batch`."""
        if not requests:
            raise ValueError("evaluate_batch needs a non-empty sequence of requests")
        wire: list[Any] = []
        for request in requests:
            coerced = EvaluationRequest.coerce(request)
            wire.append({"method": coerced.method, **coerced.option_dict()})
        payload: dict[str, Any] = {**_model_payload(model, scenario), "requests": wire}
        if seed is not None:
            payload["seed"] = seed
        if timeout_ms is not None:
            payload["timeout_ms"] = timeout_ms
        data = self.request("POST", "/v1/evaluate/batch", payload)
        return [EvaluationResult.from_dict(record) for record in data["results"]]

    # ----------------------------------------------------------------- #
    # Introspection
    # ----------------------------------------------------------------- #
    def methods(self) -> list[dict]:
        """The registry's method schemas (``repro methods`` as JSON)."""
        return self.request("GET", "/v1/methods")["methods"]

    def health(self) -> dict:
        return self.request("GET", "/healthz")

    def health_peers(self) -> dict:
        """The shared health view (router eject/readmit table, shard status)."""
        return self.request("GET", "/v1/health/peers")

    def metrics(self) -> dict:
        return self.request("GET", "/metrics")
