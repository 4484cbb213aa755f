"""The shared asyncio HTTP/1.1 front: framing and the serving skeleton.

Both serving layers -- the evaluation server (:mod:`repro.service.server`)
and the cluster shard router (:mod:`repro.cluster.router`) -- speak the same
minimal, dependency-free HTTP/1.1 over ``asyncio`` streams: Content-Length
framed bodies, keep-alive by default, JSON payloads (or pre-rendered text
for the Prometheus exposition).  Both also share one skeleton,
:class:`HttpApp`: the keep-alive connection loop with its trace-id and
latency bookkeeping, the route table with its 404/405 answers, the
400/500 error envelope, ``/metrics`` and the listen/close lifecycle.  It
lives here so the two fronts cannot drift: a request the server accepts is
a request the router can terminate, byte for byte, and both answer errors
in the same shape.  The router's client side frames shard responses with
the same bounded reader (:func:`read_frame`), so a response is held to the
limits a request is.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable
from urllib.parse import parse_qs

from repro import telemetry
from repro.telemetry.metrics import MetricsRegistry, histogram_summary, render_prometheus

__all__ = [
    "MAX_BODY_BYTES",
    "MAX_HEADER_BYTES",
    "MAX_HEADER_LINES",
    "REASONS",
    "HttpApp",
    "HttpError",
    "HttpRequest",
    "parse_json_body",
    "read_frame",
    "read_request",
    "render_response",
    "write_response",
]

#: Largest accepted message body.  A 10k-fault inline model is ~0.5 MB of
#: JSON; 32 MB leaves two orders of magnitude of headroom while bounding a
#: misbehaving peer's memory impact.
MAX_BODY_BYTES = 32 * 1024 * 1024

#: Bounds of one message's head (start line plus header lines), request or
#: response.  Real peers send a few hundred bytes in under a dozen lines.
MAX_HEADER_BYTES = 64 * 1024
MAX_HEADER_LINES = 100

REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


@dataclass
class HttpRequest:
    """One framed request off the wire (or the framing error it produced)."""

    verb: str = ""
    path: str = ""
    query: str = ""
    headers: dict[str, str] | None = None
    body: bytes = b""
    close: bool = False
    #: The framing failure; the connection handler answers it and closes.
    #: ``None`` for a well-formed request.
    error: HttpError | None = None


_HEAD_TOO_LARGE = (
    f"message head exceeds {MAX_HEADER_BYTES} bytes or {MAX_HEADER_LINES} header lines"
)


async def read_frame(reader: asyncio.StreamReader) -> tuple[str, dict[str, str], bytes] | None:
    """Read one HTTP/1.1 message: ``(start line, headers, body)``.

    The one frame reader of both sides of the wire: :func:`read_request`
    frames requests with it, :class:`repro.cluster.transport.ShardTransport`
    shard responses.  Returns ``None`` at a clean end of stream.  Raises
    :class:`HttpError` when framing fails -- 431 ``header_too_large`` for a
    head over :data:`MAX_HEADER_BYTES` or :data:`MAX_HEADER_LINES`, 400
    ``bad_request`` for a bad Content-Length, 413 ``payload_too_large`` for
    a body over :data:`MAX_BODY_BYTES` -- after which the stream position is
    untrustworthy and the caller must drop the connection.
    """
    headers: dict[str, str] = {}
    try:
        start_line = await reader.readline()
        if not start_line:
            return None
        size = len(start_line)
        for _ in range(MAX_HEADER_LINES + 1):
            line = await reader.readline()
            size += len(line)
            if size > MAX_HEADER_BYTES:
                raise ValueError
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            raise ValueError
    except ValueError:  # over a bound, or one line past the stream's buffer limit
        raise HttpError(431, _HEAD_TOO_LARGE, "header_too_large") from None
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        length = -1  # non-integer: rejected below with negatives
    if length < 0:
        raise HttpError(400, "bad Content-Length")
    if length > MAX_BODY_BYTES:
        raise HttpError(413, f"body exceeds {MAX_BODY_BYTES} bytes", "payload_too_large")
    body = await reader.readexactly(length) if length else b""
    return start_line.decode("latin-1").strip(), headers, body


async def read_request(reader: asyncio.StreamReader) -> HttpRequest | None:
    """Read one request off ``reader``; ``None`` at a clean end of stream.

    A framing failure (see :func:`read_frame`, or a malformed request line)
    comes back as a request whose ``error`` is set -- the caller responds
    with it and drops the connection.
    """
    try:
        frame = await read_frame(reader)
    except HttpError as error:
        return HttpRequest(error=error, close=True)
    if frame is None:
        return None
    request_line, headers, body = frame
    parts = request_line.split()
    if len(parts) != 3:
        return HttpRequest(error=HttpError(400, "malformed request line"), close=True)
    verb, target, version = parts
    close = (
        headers.get("connection", "").lower() == "close" or version.upper() == "HTTP/1.0"
    )
    path, _, query = target.partition("?")
    return HttpRequest(
        verb=verb.upper(),
        path=path,
        query=query,
        headers=headers,
        body=body,
        close=close,
    )


def render_response(
    status: int,
    payload: dict | list | str,
    close: bool,
    extra_headers: dict | None = None,
) -> bytes:
    """Render a full response (head + body) ready to write.

    A ``str`` payload is pre-rendered text (the Prometheus exposition);
    everything else is JSON.
    """
    if isinstance(payload, str):
        data = payload.encode("utf-8")
        content_type = "text/plain; version=0.0.4; charset=utf-8"
    else:
        data = (json.dumps(payload) + "\n").encode("utf-8")
        content_type = "application/json"
    extras = "".join(
        f"{name}: {value}\r\n" for name, value in (extra_headers or {}).items()
    )
    head = (
        f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(data)}\r\n"
        f"{extras}"
        f"Connection: {'close' if close else 'keep-alive'}\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + data


async def write_response(
    writer: asyncio.StreamWriter,
    status: int,
    payload: dict | list | str,
    close: bool,
    extra_headers: dict | None = None,
) -> None:
    writer.write(render_response(status, payload, close, extra_headers))
    await writer.drain()


class HttpError(Exception):
    """An error answer raised from a handler: ``(status, message, code)``.

    The skeleton turns it into the standard error body
    ``{"error": message, "code": code}`` (plus the request's ``trace_id``).
    """

    def __init__(self, status: int, message: str, code: str = "bad_request") -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.code = code


def parse_json_body(body: bytes, what: str = "request body") -> Any:
    """Decode a JSON request body; an empty body reads as ``None``.

    Raises :class:`HttpError` 400 ``bad_request`` naming ``what`` when the
    bytes are not JSON.
    """
    try:
        return json.loads(body or b"null")
    except json.JSONDecodeError as error:
        raise HttpError(400, f"{what} is not valid JSON: {error}") from error


class HttpApp:
    """The serving skeleton shared by the shard server and the router.

    A subclass declares :attr:`routes` -- ``path -> {verb: handler method
    name}``, where a path ending in ``/`` matches every path under it.  A
    handler takes the :class:`HttpRequest` and returns either a payload
    (answered 200) or a ``(status, payload, extra_headers)`` triple; it may
    be a coroutine.  Raising :class:`HttpError` answers that error,
    ``ValueError`` a 400 ``bad_request`` with its message, anything else a
    500 built by :meth:`_failure`.

    A subclass also defines ``registry``, ``_metrics_snapshot()``,
    ``_listening_message(host, port)``, ``aclose()``, and two one-line
    hooks kept on the subclass so each stays replaceable per class and per
    module: ``_route`` (delegating to :meth:`_dispatch`) and
    ``_handle_connection`` (passing its own module's ``read_request`` and
    ``write_response`` to :meth:`_serve_connection`).
    """

    routes: dict[str, dict[str, str]] = {}
    #: Root span of one handled request.
    request_span = "server.request"
    #: The 500 answer to an unexpected handler exception: (message prefix, code).
    failure = ("evaluation failed", "evaluation_failed")
    #: ``/metrics?scope=`` values this role serves.
    metrics_scopes: tuple[str, ...] = ("local",)
    default_port = 8000
    #: Log requests slower than this many milliseconds to stderr (``None``: off).
    slow_request_ms: float | None = None
    registry: MetricsRegistry

    def __init__(self) -> None:
        self._started = time.time()
        # Open client connections (kept alive between requests); closed at
        # shutdown so parked handler tasks end via EOF, not cancellation.
        self._connections: set[asyncio.StreamWriter] = set()

    # ----------------------------------------------------------------- #
    # Routing and the error envelope
    # ----------------------------------------------------------------- #
    async def _dispatch(
        self, verb: str, path: str, body: bytes, query: str = ""
    ) -> tuple[int, dict | list | str, dict]:
        verbs = self.routes.get(path) or self.routes.get(path[: path.rfind("/") + 1])
        try:
            if verbs is None:
                raise HttpError(404, f"unknown path {path!r}", "not_found")
            if verb not in verbs:
                raise HttpError(
                    405, f"{path} expects {' or '.join(verbs)}, got {verb}", "method_not_allowed"
                )
            answer = getattr(self, verbs[verb])(HttpRequest(verb, path, query, body=body))
            if asyncio.iscoroutine(answer):
                answer = await answer
        except HttpError as error:
            return error.status, {"error": error.message, "code": error.code}, {}
        except ValueError as error:
            return 400, {"error": str(error), "code": "bad_request"}, {}
        except Exception as error:  # noqa: BLE001 - the front must not die
            return self._failure(error)
        return answer if isinstance(answer, tuple) else (200, answer, {})

    def _failure(self, error: Exception) -> tuple[int, dict, dict]:
        message, code = self.failure
        return 500, {"error": f"{message}: {type(error).__name__}: {error}", "code": code}, {}

    # ----------------------------------------------------------------- #
    # /metrics
    # ----------------------------------------------------------------- #
    def _serve_metrics(self, request: HttpRequest) -> dict | str:
        params = parse_qs(request.query)
        wanted = params.get("format", ["json"])[-1]
        scope = params.get("scope", ["local"])[-1]
        if wanted not in ("json", "prom"):
            raise HttpError(400, f"unknown metrics format {wanted!r}; use 'json' or 'prom'")
        if scope not in self.metrics_scopes:
            raise HttpError(
                400,
                f"unknown metrics scope {scope!r}; shards serve 'local', "
                "routers 'local' or 'fleet'",
            )
        return self._render_metrics(scope, wanted)

    def _render_metrics(self, scope: str, wanted: str) -> dict | str:
        """The local scope: Prometheus text, or the flat JSON schema.

        Counters and gauges are flat top-level keys; histograms sit under
        one ``"histograms"`` key, each with derived p50/p95/p99.
        """
        snapshot = self._metrics_snapshot()
        if wanted == "prom":
            return render_prometheus(snapshot)
        body: dict[str, Any] = {**snapshot["counters"], **snapshot["gauges"]}
        body["histograms"] = {
            name: histogram_summary(data) for name, data in snapshot["histograms"].items()
        }
        return body

    # ----------------------------------------------------------------- #
    # The connection loop
    # ----------------------------------------------------------------- #
    async def _serve_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        read: Callable,
        write: Callable,
    ) -> None:
        """Answer requests on one kept-alive connection until it closes.

        ``read``/``write`` are the caller module's ``read_request`` and
        ``write_response``.
        """
        self._connections.add(writer)
        try:
            while True:
                request = await read(reader)
                if request is None:
                    break
                if request.error is not None:
                    error = request.error
                    trace_id = telemetry.new_trace_id()
                    await write(
                        writer,
                        error.status,
                        {"error": error.message, "code": error.code, "trace_id": trace_id},
                        True,
                        {"x-repro-trace-id": trace_id},
                    )
                    break
                self.registry.inc("requests_total")
                headers = request.headers or {}
                # Every request gets a trace id -- the client's own when it
                # sent one (x-repro-trace-id), so multi-hop callers
                # correlate; echoed on the response either way.
                trace_id = headers.get("x-repro-trace-id") or telemetry.new_trace_id()
                # A router forwards its enclosing span id so this request's
                # root span nests under it in the stitched fleet trace.
                parent_span = headers.get("x-repro-parent-span") or None
                trace_token = telemetry.set_trace_id(trace_id)
                handled_from = time.perf_counter()
                try:
                    with telemetry.span(
                        self.request_span,
                        trace_id=trace_id,
                        parent_id=parent_span,
                        path=request.path,
                        verb=request.verb,
                    ) as request_span:
                        status, payload, extra_headers = await self._route(
                            request.verb, request.path, request.body, request.query
                        )
                        request_span.set(status=status)
                finally:
                    trace_token.var.reset(trace_token)
                elapsed = time.perf_counter() - handled_from
                self.registry.observe("request_seconds", elapsed, trace_id=trace_id)
                if self.slow_request_ms is not None and elapsed * 1000.0 > self.slow_request_ms:
                    print(
                        f"slow request: {request.verb} {request.path} -> {status} "
                        f"in {elapsed * 1000.0:.1f} ms (trace {trace_id})",
                        file=sys.stderr,
                        flush=True,
                    )
                if status >= 400:
                    self.registry.inc("errors_total")
                    if isinstance(payload, dict) and "error" in payload:
                        payload.setdefault("trace_id", trace_id)
                extra_headers = {**(extra_headers or {}), "x-repro-trace-id": trace_id}
                await write(writer, status, payload, request.close, extra_headers)
                if request.close:
                    break
        except (asyncio.IncompleteReadError, ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-request; nothing to answer
        except asyncio.CancelledError:
            # Shutdown cancelled a request still in flight.  End the task
            # normally: CPython 3.11's stream callback calls exception() on
            # a cancelled handler task and prints the CancelledError.
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    # ----------------------------------------------------------------- #
    # Lifecycle
    # ----------------------------------------------------------------- #
    async def start(
        self, host: str = "127.0.0.1", port: int | None = None
    ) -> asyncio.AbstractServer:
        """Bind and start accepting connections; returns the asyncio server."""
        self._started = time.time()
        return await asyncio.start_server(
            self._handle_connection,
            host=host,
            port=self.default_port if port is None else port,
        )

    async def serve_forever(self, host: str = "127.0.0.1", port: int | None = None) -> None:
        """Run until cancelled (the ``repro serve`` / ``repro route`` main loop)."""
        server = await self.start(host, port)
        addr = server.sockets[0].getsockname()
        print(self._listening_message(addr[0], addr[1]), flush=True)
        try:
            async with server:
                await server.serve_forever()
        finally:
            await self.aclose()

    async def _close_connections(self, timeout: float = 1.0) -> None:
        """Close kept-alive client connections and wait up to ``timeout``.

        Their parked handler tasks see EOF and exit cleanly; cancelling
        them instead trips a noisy CPython 3.11 streams callback.
        """
        for writer in list(self._connections):
            writer.close()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while self._connections and loop.time() < deadline:
            await asyncio.sleep(0.01)
