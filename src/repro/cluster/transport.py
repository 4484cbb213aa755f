"""Asyncio keep-alive HTTP/1.1 client connections to one backend shard.

The event loop's HTTP client, mirroring the per-thread keep-alive of the
blocking :class:`repro.service.client.ServiceClient`: each shard gets a
small pool of persistent connections multiplexed across concurrent router
requests, so a hop costs a round trip, not a TCP handshake.  A pooled
connection the shard closed between uses is detected on reuse (EOF or a
reset where the response should be) and replaced transparently, counted in
``stats["reconnects"]``.  The idle pool is bounded (:data:`MAX_IDLE`): a
concurrency burst -- a batch fan-out plus replica writes landing together
-- opens extra connections, but only :data:`MAX_IDLE` of them park afterwards;
the rest close on release (``stats["connections_trimmed"]``), so a
long-lived router's descriptor count tracks steady-state concurrency, not
its historical peak.

Responses are read by :func:`repro.service.http.read_frame`, within the
bounds a request has.  Transport failures -- a response that fails framing
among them, whose connection is closed, never pooled -- raise
``ConnectionError``/``OSError``/``TimeoutError``: the router's signal to
eject the shard and spill its keys.  HTTP-level failures (any well-framed
status) are returned, not raised, because they are the shard *answering*.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field

from repro.service.client import _STALE_ERRORS, split_base_url
from repro.service.http import HttpError, read_frame

__all__ = ["ShardTransport", "TransportResponse"]

#: Idle connections a transport parks per shard; the rest close on release.
MAX_IDLE = 8


@dataclass
class TransportResponse:
    """One parsed shard response."""

    status: int
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self):
        try:
            return json.loads(self.body) if self.body else None
        except json.JSONDecodeError:
            return None


class ShardTransport:
    """A keep-alive connection pool to one shard."""

    def __init__(self, base: str, timeout: float = 120.0) -> None:
        self.base = base
        self.host, self.port = split_base_url(base)
        self.timeout = timeout
        self._idle: list[tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []
        self._closed = False
        self.stats = {"connections_opened": 0, "reconnects": 0, "connections_trimmed": 0}

    async def _connect(self) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        reader, writer = await asyncio.open_connection(self.host, self.port)
        self.stats["connections_opened"] += 1
        return reader, writer

    @staticmethod
    def _close_pair(writer: asyncio.StreamWriter) -> None:
        try:
            writer.close()
        except Exception:  # noqa: BLE001 - already torn down
            pass

    def _render(self, verb: str, path: str, body: bytes, headers: dict) -> bytes:
        lines = [
            f"{verb} {path} HTTP/1.1",
            f"Host: {self.host}:{self.port}",
            f"Content-Length: {len(body)}",
        ]
        if body:
            lines.append("Content-Type: application/json")
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        head = "\r\n".join(lines) + "\r\n\r\n"
        return head.encode("latin-1") + body

    async def request(
        self,
        verb: str,
        path: str,
        body: bytes = b"",
        headers: dict | None = None,
        timeout: float | None = None,
    ) -> TransportResponse:
        """One round trip; raises ``OSError``-family on transport failure."""
        budget = self.timeout if timeout is None else timeout
        return await asyncio.wait_for(
            self._request_inner(verb, path, body, headers or {}), budget
        )

    async def _request_inner(
        self, verb: str, path: str, body: bytes, headers: dict
    ) -> TransportResponse:
        payload = self._render(verb, path, body, headers)
        reused = bool(self._idle)
        reader, writer = self._idle.pop() if reused else await self._connect()
        response = await self._round_trip(reader, writer, payload, stale_ok=reused)
        if response is None:
            # The shard closed this kept-alive connection between uses.
            # Retry once on a fresh connection, where the same failure is
            # the shard actually being down, and raises.
            self.stats["reconnects"] += 1
            reader, writer = await self._connect()
            response = await self._round_trip(reader, writer, payload, stale_ok=False)
        if self._closed or response.headers.get("connection", "").lower() == "close":
            self._close_pair(writer)
        elif len(self._idle) >= MAX_IDLE:
            self.stats["connections_trimmed"] += 1
            self._close_pair(writer)
        else:
            self._idle.append((reader, writer))
        return response

    async def _round_trip(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        payload: bytes,
        stale_ok: bool,
    ) -> TransportResponse | None:
        """Send ``payload`` and read its response; a failure closes the connection.

        Returns ``None`` when ``stale_ok`` and the shard closed the
        connection before answering; otherwise that raises
        ``ConnectionError``, as does a response that fails framing.
        """
        try:
            writer.write(payload)
            await writer.drain()
            frame = await read_frame(reader)
            if frame is None:  # EOF where the status line should be
                raise ConnectionResetError(f"shard {self.base} closed the connection")
            status_line, headers, body = frame
            parts = status_line.split(None, 2)
            if len(parts) < 2 or not parts[1].isdigit():
                raise ConnectionError(f"shard {self.base} sent the status line {status_line!r}")
        except BaseException as error:
            self._close_pair(writer)
            if stale_ok and isinstance(error, _STALE_ERRORS):
                return None
            if isinstance(error, (HttpError, asyncio.IncompleteReadError)):
                raise ConnectionError(f"shard {self.base} sent a broken response: {error}") from error
            raise
        return TransportResponse(status=int(parts[1]), headers=headers, body=body)

    async def aclose(self) -> None:
        """Close every pooled connection; in-flight exchanges finish and drop."""
        self._closed = True
        while self._idle:
            _, writer = self._idle.pop()
            self._close_pair(writer)
