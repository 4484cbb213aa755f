"""Malformed shard responses are transport failures, never answers.

The router reads shard responses with the frame reader that reads requests
(:func:`repro.service.http.read_frame`), so a response that fails framing --
a Content-Length that is not a non-negative integer, a head over
``MAX_HEADER_BYTES`` or ``MAX_HEADER_LINES`` -- closes its connection and
raises ``ConnectionError``.  The router then ejects the shard and spills to
the next one, as for a dead shard: the client sees the healthy shard's 200,
or a 503 ``no_healthy_shards`` when no shard is left, and never a 4xx.
The fake shard is an asyncio server that answers every request with one
canned malformed response.
"""

from __future__ import annotations

import asyncio
import threading
from contextlib import contextmanager

import pytest

from repro.cluster import ShardRouter
from repro.cluster.transport import ShardTransport
from repro.core.fault_model import FaultModel
from repro.service import EvaluationServer, ServiceClient, ServiceError, start_in_background
from repro.service.http import MAX_HEADER_LINES, read_request
from repro.service.protocol import parse_evaluate_payload

MODEL = {"p": [0.05, 0.02, 0.01], "q": [1e-4, 5e-4, 2e-3]}

MALFORMED = {
    "non_integer_length": b"HTTP/1.1 200 OK\r\nContent-Length: abc\r\n\r\n{}",
    "negative_length": b'HTTP/1.1 200 OK\r\nContent-Length: -5\r\n\r\n{"result": {}}',
    "header_line_over_64k": (
        b"HTTP/1.1 200 OK\r\nX-Long: " + b"a" * 70_000 + b"\r\nContent-Length: 2\r\n\r\n{}"
    ),
    "too_many_header_lines": (
        b"HTTP/1.1 200 OK\r\n"
        + b"X-A: b\r\n" * MAX_HEADER_LINES
        + b"Content-Length: 2\r\n\r\n{}"
    ),
}


@contextmanager
def fake_shard(response: bytes):
    """An asyncio server on its own thread answering every request with ``response``."""
    loop = asyncio.new_event_loop()
    handlers: set[asyncio.Task] = set()

    async def handle(reader, writer):
        handlers.add(asyncio.current_task())
        try:
            while await read_request(reader) is not None:
                writer.write(response)
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            handlers.discard(asyncio.current_task())

    server = loop.run_until_complete(asyncio.start_server(handle, "127.0.0.1", 0))
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()

    async def shutdown():
        server.close()
        await server.wait_closed()
        for task in list(handlers):
            task.cancel()
        await asyncio.gather(*handlers, return_exceptions=True)

    try:
        yield f"127.0.0.1:{server.sockets[0].getsockname()[1]}"
    finally:
        asyncio.run_coroutine_threadsafe(shutdown(), loop).result(10.0)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10.0)
        assert not thread.is_alive()
        loop.close()


def _payload_owned_by(router: ShardRouter, shard: str) -> dict:
    """A /v1/evaluate payload whose digest lands on ``shard``."""
    for seed in range(1000):
        payload = {
            "model": MODEL,
            "method": "montecarlo",
            "options": {"replications": 500},
            "seed": seed,
        }
        if router.ring.owner(parse_evaluate_payload(payload).digest()) == shard:
            return payload
    raise AssertionError(f"no seed in 0..999 hashed to {shard}")  # pragma: no cover


@pytest.mark.parametrize("case", sorted(MALFORMED))
class TestMalformedShardResponse:
    def test_transport_raises_and_pools_nothing(self, case):
        with fake_shard(MALFORMED[case]) as shard:
            transport = ShardTransport(shard, timeout=10.0)

            async def run():
                try:
                    with pytest.raises(ConnectionError, match="broken response"):
                        await transport.request("GET", "/healthz")
                    return list(transport._idle)
                finally:
                    await transport.aclose()

            assert asyncio.run(run()) == []

    def test_router_ejects_and_spills_to_the_healthy_shard(self, case):
        healthy = start_in_background(EvaluationServer())
        try:
            with fake_shard(MALFORMED[case]) as bad:
                router = ShardRouter(
                    [bad, f"127.0.0.1:{healthy.port}"],
                    probe_interval_ms=3_600_000.0,
                    retries=0,
                )
                payload = _payload_owned_by(router, bad)
                front = start_in_background(router)
                try:
                    with ServiceClient(port=front.port, retries=0) as client:
                        result = client.evaluate(
                            FaultModel.from_dict(MODEL),
                            "montecarlo",
                            options=payload["options"],
                            seed=payload["seed"],
                        )
                    assert result.method == "montecarlo"
                    assert router.registry["shard_ejects"] == 1
                    assert router.registry["failovers"] == 1
                    assert router.health.is_excluded(bad)
                    assert router.transports[bad]._idle == []
                finally:
                    front.stop()
        finally:
            healthy.stop()

    def test_a_lone_bad_shard_is_503_no_healthy_shards(self, case):
        with fake_shard(MALFORMED[case]) as bad:
            router = ShardRouter([bad], probe_interval_ms=3_600_000.0, retries=0)
            front = start_in_background(router)
            try:
                with ServiceClient(port=front.port, retries=0) as client:
                    with pytest.raises(ServiceError) as excinfo:
                        client.methods()
                assert excinfo.value.status == 503
                assert excinfo.value.code == "no_healthy_shards"
                assert router.registry["shard_ejects"] == 1
                assert router.transports[bad]._idle == []
            finally:
                front.stop()
