"""Client keep-alive: connection reuse, per-thread isolation, reconnects.

Real sockets: the reuse and stale-connection behaviours live below
``_request_once``, so the scripted-transport idiom of
``test_client_retry.py`` cannot reach them.
"""

from __future__ import annotations

import http.server
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.service import EvaluationServer, ServiceClient, start_in_background


class TestConnectionReuse:
    def test_sequential_requests_share_one_connection(self):
        server = EvaluationServer()
        with start_in_background(server) as handle:
            client = ServiceClient(port=handle.port)
            for _ in range(3):
                assert client.health()["status"] in ("ok", "draining")
            assert client.stats == {"connections_opened": 1, "reconnects": 0}
            client.close()

    def test_threads_get_their_own_connections(self):
        """One connection per thread: http.client connections are not
        thread-safe, so sharing would corrupt interleaved exchanges."""
        server = EvaluationServer()
        with start_in_background(server) as handle:
            client = ServiceClient(port=handle.port)
            barrier = threading.Barrier(2)

            def probe():
                barrier.wait(5.0)  # both threads hold a connection at once
                return client.health()["status"]

            with ThreadPoolExecutor(max_workers=2) as pool:
                statuses = list(pool.map(lambda _: probe(), range(2)))
            assert statuses == ["ok", "ok"]
            assert client.stats["connections_opened"] == 2
            assert client.stats["reconnects"] == 0
            client.close()

    def test_close_drops_the_calling_threads_connection(self):
        server = EvaluationServer()
        with start_in_background(server) as handle:
            with ServiceClient(port=handle.port) as client:
                client.health()
                client.close()
                client.health()  # reopens transparently
                assert client.stats["connections_opened"] == 2
                assert client.stats["reconnects"] == 0


class _OneShotHandler(http.server.BaseHTTPRequestHandler):
    """Answers one request per TCP connection, then closes it silently --
    the keep-alive betrayal a restarted or idle-timeouting server commits."""

    protocol_version = "HTTP/1.1"

    def do_GET(self):
        body = json.dumps({"status": "ok"}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        self.close_connection = True  # no Connection: close header sent

    def log_message(self, *args):
        pass


class _FreezingHandler(http.server.BaseHTTPRequestHandler):
    """Answers the first request it sees, then freezes on every later one
    until ``release`` is set -- a gray failure: the server holds the
    connection open but never replies."""

    protocol_version = "HTTP/1.1"
    requests = 0
    release = threading.Event()

    def do_GET(self):
        type(self).requests += 1
        if type(self).requests > 1:
            type(self).release.wait(10.0)
            return
        body = json.dumps({"status": "ok"}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class TestReconnect:
    def test_read_timeout_on_kept_alive_connection_is_not_resent(self):
        """A timeout after the request went out is not a stale connection:
        the server has the request, so re-sending it would duplicate work
        and stretch the call past its timeout."""
        handler = type("Handler", (_FreezingHandler,), {"release": threading.Event()})
        stub = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
        thread = threading.Thread(target=stub.serve_forever, daemon=True)
        thread.start()
        timeout = 0.3
        try:
            client = ServiceClient(port=stub.server_address[1], timeout=timeout, retries=0)
            assert client.health()["status"] == "ok"  # opens the kept-alive connection
            started = time.perf_counter()
            with pytest.raises(TimeoutError):
                client.health()
            assert time.perf_counter() - started < 1.5 * timeout
            assert handler.requests == 2
            assert client.stats["reconnects"] == 0
            client.close()
        finally:
            handler.release.set()
            stub.shutdown()
            stub.server_close()
            thread.join(5.0)

    def test_stale_kept_alive_connection_reconnects_once(self):
        stub = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _OneShotHandler)
        thread = threading.Thread(target=stub.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(port=stub.server_address[1], retries=0)
            assert client.health()["status"] == "ok"  # opens connection 1
            # The stub closed connection 1 after answering; this request
            # finds it stale and must retry once on a fresh connection --
            # invisibly to the caller, visibly in the stats.
            assert client.health()["status"] == "ok"
            assert client.stats["connections_opened"] == 2
            assert client.stats["reconnects"] == 1
            client.close()
        finally:
            stub.shutdown()
            thread.join(5.0)

    def test_fresh_connection_failure_is_a_real_error(self):
        """EOF on a *fresh* connection is the server being down, not a stale
        keep-alive -- it must raise, not loop reconnecting."""
        probe = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _OneShotHandler)
        port = probe.server_address[1]
        probe.server_close()  # nothing listens on this port now
        client = ServiceClient(port=port, retries=0)
        with pytest.raises(ConnectionError):
            client.health()
        assert client.stats["reconnects"] == 0


class _GarbageHandler(http.server.BaseHTTPRequestHandler):
    """Answers with bytes that are not an HTTP response."""

    def do_GET(self):
        self.wfile.write(b"SURPRISE\r\n\r\n")
        self.close_connection = True

    def log_message(self, *args):
        pass


def test_an_unparseable_response_is_a_connection_error():
    """Callers that map transport failures (``OSError``) to a miss or a
    dropped batch must see a garbage answer as one too."""
    stub = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _GarbageHandler)
    thread = threading.Thread(target=stub.serve_forever, daemon=True)
    thread.start()
    try:
        with ServiceClient(port=stub.server_address[1], retries=0) as client:
            with pytest.raises(ConnectionError, match="malformed response"):
                client.health()
    finally:
        stub.shutdown()
        stub.server_close()
        thread.join(5.0)
    assert not thread.is_alive()
