"""The shared serving skeleton: shard and router answer errors alike.

Both fronts are :class:`repro.service.http.HttpApp` subclasses, so an
unknown path, a wrong verb, a body that is not JSON and a bad ``/metrics``
format must produce the same status, code and (for the 405) message on
either role, each error body carrying the response's trace id.  The
framing seam is pinned too: each front reads and writes through its own
module's ``read_request``/``write_response`` globals, which is where the
per-layer benchmark wraps them.
"""

from __future__ import annotations

import http.client
import json
import logging
import socket
import threading
from contextlib import contextmanager

import pytest

from repro.cluster import ShardRouter
from repro.core.fault_model import FaultModel
from repro.service import EvaluationServer, ServiceClient, start_in_background
from repro.service.http import MAX_HEADER_LINES

MODEL = {"p": [0.05, 0.02, 0.01], "q": [1e-4, 5e-4, 2e-3]}


@contextmanager
def _shard_and_router():
    shard = start_in_background(EvaluationServer(batch_window_ms=1.0))
    try:
        router = start_in_background(
            ShardRouter([f"127.0.0.1:{shard.port}"], probe_interval_ms=10_000.0)
        )
        try:
            yield {"shard": shard, "router": router}
        finally:
            router.stop()
    finally:
        shard.stop()


@pytest.fixture(scope="module")
def fronts():
    with _shard_and_router() as handles:
        yield handles


def _exchange(port: int, verb: str, path: str, body: bytes | None = None):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request(verb, path, body=body)
        response = connection.getresponse()
        payload = json.loads(response.read())
        return response.status, payload, response.getheader("x-repro-trace-id")
    finally:
        connection.close()


@pytest.mark.parametrize("role", ["shard", "router"])
class TestErrorEnvelope:
    def test_unknown_path_is_404_not_found(self, fronts, role):
        status, payload, trace = _exchange(fronts[role].port, "GET", "/nowhere")
        assert status == 404
        assert payload["code"] == "not_found"
        assert payload["trace_id"] == trace

    def test_wrong_verb_is_405_with_one_message(self, fronts, role):
        status, payload, trace = _exchange(fronts[role].port, "GET", "/v1/evaluate")
        assert status == 405
        assert payload["code"] == "method_not_allowed"
        assert payload["error"] == "/v1/evaluate expects POST, got GET"
        assert payload["trace_id"] == trace

    def test_non_json_evaluate_body_is_400(self, fronts, role):
        status, payload, trace = _exchange(
            fronts[role].port, "POST", "/v1/evaluate", b"{not json"
        )
        assert status == 400
        assert payload["code"] == "bad_request"
        assert "not valid JSON" in payload["error"]
        assert payload["trace_id"] == trace

    def test_unknown_metrics_format_is_400(self, fronts, role):
        status, payload, trace = _exchange(fronts[role].port, "GET", "/metrics?format=xml")
        assert status == 400
        assert payload["code"] == "bad_request"
        assert payload["trace_id"] == trace


def _raw_exchange(port: int, head: bytes) -> bytes:
    """Send ``head`` from a thread while reading; returns the status line.

    The front answers an oversized head before reading all of it and then
    closes, so the tail of the send may meet a reset: only the answer that
    arrived first matters.
    """
    sock = socket.create_connection(("127.0.0.1", port), timeout=30)
    sender = threading.Thread(target=_send_ignoring_reset, args=(sock, head))
    sender.start()
    received = b""
    try:
        while b"\r\n" not in received:
            chunk = sock.recv(65536)
            if not chunk:
                break
            received += chunk
    except ConnectionResetError:
        pass
    finally:
        sender.join()
        sock.close()
    return received.split(b"\r\n", 1)[0]


def _send_ignoring_reset(sock: socket.socket, data: bytes) -> None:
    try:
        sock.sendall(data)
    except OSError:
        pass


@pytest.mark.parametrize("role", ["shard", "router"])
class TestHeaderBounds:
    def test_a_header_line_over_64k_is_431(self, fronts, role, caplog):
        head = b"GET /healthz HTTP/1.1\r\nX-Long: " + b"a" * 70_000 + b"\r\n\r\n"
        with caplog.at_level(logging.ERROR):
            status = _raw_exchange(fronts[role].port, head)
        assert status == b"HTTP/1.1 431 Request Header Fields Too Large"
        assert not [record for record in caplog.records if record.levelno >= logging.ERROR]
        assert _exchange(fronts[role].port, "GET", "/healthz")[0] == 200

    def test_too_many_header_lines_are_431(self, fronts, role, caplog):
        head = b"GET /healthz HTTP/1.1\r\n" + b"X-A: b\r\n" * 200_000 + b"\r\n"
        with caplog.at_level(logging.ERROR):
            status = _raw_exchange(fronts[role].port, head)
        assert status == b"HTTP/1.1 431 Request Header Fields Too Large"
        assert not [record for record in caplog.records if record.levelno >= logging.ERROR]
        assert _exchange(fronts[role].port, "GET", "/healthz")[0] == 200

    def test_the_header_line_limit_is_inclusive(self, fronts, role):
        head = (
            b"GET /healthz HTTP/1.1\r\n"
            + b"X-A: b\r\n" * (MAX_HEADER_LINES - 1)
            + b"Connection: close\r\n\r\n"
        )
        assert _raw_exchange(fronts[role].port, head) == b"HTTP/1.1 200 OK"

    def test_bare_lf_line_endings_are_accepted(self, fronts, role):
        head = b"GET /healthz HTTP/1.1\nHost: x\nConnection: close\n\n"
        assert _raw_exchange(fronts[role].port, head) == b"HTTP/1.1 200 OK"


def test_each_front_frames_through_its_module_globals(monkeypatch):
    from repro.cluster import router as router_module
    from repro.service import server as server_module

    counts: dict[str, int] = {}

    def counting(module, name: str) -> None:
        original = getattr(module, name)
        key = f"{module.__name__}.{name}"
        counts[key] = 0

        async def wrapper(*args, **kwargs):
            counts[key] += 1
            return await original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module in (server_module, router_module):
        counting(module, "read_request")
        counting(module, "write_response")
    model = FaultModel.from_dict(MODEL)
    with _shard_and_router() as handles:
        for role in ("shard", "router"):
            ServiceClient(port=handles[role].port).evaluate(model, "moments")
    assert all(count >= 1 for count in counts.values()), counts
