"""The server's process pool: forked workers on direct pipes.

Cancellation, typed errors, worker death and loop changes are driven on
:class:`repro.service.pool.WorkerPool` directly and through
:class:`EvaluationServer`; shutdown is driven on a real ``repro serve``
process group with SIGINT.  The server's retry after a worker crash is
pinned by ``TestPoolRestart`` in ``test_fault_tolerance.py``.
"""

from __future__ import annotations

import ast
import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import time
import urllib.request
from concurrent.futures import BrokenExecutor
from pathlib import Path

import pytest

from repro import faults
from repro.api import evaluate
from repro.core.fault_model import FaultModel
from repro.service import EvaluationServer
from repro.service.pool import ReplyError, WorkerPool

SRC = Path(__file__).resolve().parents[2] / "src"
MODEL = {"p": [0.05, 0.02, 0.01], "q": [1e-4, 5e-4, 2e-3]}
#: The pool names a dead worker's exit code only when it has already been
#: reaped: it never waits for the process on the event loop.
_DIED_WITH_CODE_3 = r"^a worker process died( \(exit code 3\))?$"


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.clear()
    yield
    faults.clear()


def _sleep(seconds: float) -> float:
    time.sleep(seconds)
    return seconds


def _sleep_pid(seconds: float) -> int:
    time.sleep(seconds)
    return os.getpid()


def _die(code: int):
    os._exit(code)


def _touch(path: str) -> str:
    Path(path).write_text("ran")
    return path


def _echo(value):
    return value


def _raise_value_error(message: str):
    raise ValueError(message)


def _unpicklable(_):
    return lambda: None


class _NeedsTwoArguments(Exception):
    def __init__(self, first, second):
        super().__init__(f"{first}/{second}")


def _raise_unpicklable(_):
    raise _NeedsTwoArguments("a", "b")


def _pool_run(size: int, scenario):
    """Run ``scenario(pool)`` on a fresh pool, then close it."""

    async def run():
        pool = WorkerPool(size)
        try:
            return await asyncio.wait_for(scenario(pool), 30.0)
        finally:
            await pool.aclose(5.0)

    return asyncio.run(run())


class TestCancellation:
    def test_a_job_cancelled_while_queued_never_runs(self, tmp_path):
        marker = tmp_path / "ran"

        async def scenario(pool):
            running = pool.submit(_sleep, 0.3)
            queued = pool.submit(_touch, str(marker))
            queued.cancel()
            assert await running == 0.3
            return await pool.submit(_echo, "next")

        assert _pool_run(1, scenario) == "next"
        assert not marker.exists()

    def test_a_job_cancelled_while_running_does_not_wedge_its_worker(self):
        async def scenario(pool):
            running = pool.submit(_sleep, 0.3)
            await asyncio.sleep(0.05)
            running.cancel()
            started = time.perf_counter()
            answer = await asyncio.wait_for(pool.submit(_echo, "served"), 10.0)
            return answer, time.perf_counter() - started

        answer, waited = _pool_run(1, scenario)
        assert answer == "served"
        assert waited < 5.0


class TestReplies:
    def test_a_worker_exception_comes_back_as_itself(self):
        async def scenario(pool):
            with pytest.raises(ValueError, match="bad input"):
                await pool.submit(_raise_value_error, "bad input")
            return await pool.submit(_echo, 7)

        assert _pool_run(1, scenario) == 7

    @pytest.mark.parametrize("function", [_unpicklable, _raise_unpicklable])
    def test_a_reply_that_cannot_cross_the_pipe_is_typed(self, function):
        async def scenario(pool):
            with pytest.raises(ReplyError):
                await pool.submit(function, None)
            return await pool.submit(_echo, "alive")

        assert _pool_run(1, scenario) == "alive"

    def test_each_worker_runs_one_job_at_a_time(self):
        async def scenario(pool):
            return await asyncio.gather(*(pool.submit(_sleep_pid, 0.2) for _ in range(2)))

        first, second = _pool_run(2, scenario)
        assert first != second

    def test_a_dead_worker_fails_every_job_with_broken_executor(self):
        async def scenario(pool):
            dying = pool.submit(_die, 3)
            queued = pool.submit(_echo, "never")
            for job in (dying, queued):
                with pytest.raises(BrokenExecutor, match=_DIED_WITH_CODE_3):
                    await job
            with pytest.raises(BrokenExecutor):
                pool.submit(_echo, "refused")

        _pool_run(1, scenario)


class TestServerPool:
    def test_a_worker_value_error_keeps_its_http_status(self):
        faults.inject("worker.evaluate", error=ValueError, message="rejected in the worker")
        body = json.dumps({"model": MODEL, "method": "moments"}).encode()
        answers = []
        for workers in (0, 1):
            server = EvaluationServer(workers=workers)
            try:
                answers.append(asyncio.run(server._route("POST", "/v1/evaluate", body))[:2])
            finally:
                asyncio.run(server.aclose(drain_seconds=0.0))
        (thread_status, thread_payload), (pool_status, pool_payload) = answers
        assert pool_status == thread_status == 400
        assert pool_payload == thread_payload
        assert "rejected in the worker" in pool_payload["error"]

    def test_a_job_cancelled_while_running_leaves_the_server_serving(self):
        server = EvaluationServer(workers=1)

        async def run():
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(server._run_in_pool(_sleep, 0.3), 0.05)
            return await asyncio.wait_for(
                server._serve_evaluate({"model": MODEL, "method": "moments"}), 10.0
            )

        try:
            response = asyncio.run(run())
            assert server.registry["pool_restarts"] == 0
        finally:
            asyncio.run(server.aclose(drain_seconds=0.0))
        expected = evaluate(FaultModel.from_dict(MODEL), "moments")
        assert response["result"]["metrics"] == expected.to_dict()["metrics"]

    def test_a_zero_drain_does_not_wait_for_a_running_job(self):
        server = EvaluationServer(workers=1)

        async def run():
            job = asyncio.ensure_future(server._run_in_pool(_sleep, 30.0))
            await asyncio.sleep(0.5)
            started = time.monotonic()
            await server.aclose(drain_seconds=0.0)
            elapsed = time.monotonic() - started
            with pytest.raises(asyncio.CancelledError):
                await job
            return elapsed

        assert asyncio.run(run()) < 2.0

    def test_a_released_server_forks_no_new_pool(self):
        server = EvaluationServer(workers=1)
        assert asyncio.run(server._run_in_pool(_echo, "first")) == "first"
        asyncio.run(server.aclose(drain_seconds=0.0))
        with pytest.raises(RuntimeError, match="released its executor"):
            asyncio.run(server._run_in_pool(_echo, "late"))
        assert server._executor is None

    def test_one_server_works_across_event_loops(self):
        server = EvaluationServer(workers=1)
        try:
            first = asyncio.run(server._serve_evaluate({"model": MODEL, "method": "moments"}))
            second = asyncio.run(
                server._serve_evaluate({"model": MODEL, "method": "moments", "p_scale": 0.5})
            )
            assert server.registry["pool_restarts"] == 0
        finally:
            asyncio.run(server.aclose(drain_seconds=0.0))
        for response, scale in ((first, 1.0), (second, 0.5)):
            expected = evaluate(FaultModel.from_dict(MODEL).rescaled(scale, 1.0), "moments")
            assert response["result"]["metrics"] == expected.to_dict()["metrics"]


#: Runs in a fresh interpreter, so the server has imported only what its
#: own start-up and its pool's fork import.
_WORKER_MODULES_SCRIPT = """
import asyncio, json, sys
from repro.service.server import EvaluationServer

def repro_modules(_):
    return sorted(name for name in sys.modules if name.startswith("repro"))

server = EvaluationServer(workers=1)

async def run():
    before = await server._run_in_pool(repro_modules, None)
    for method in ("exact", "tail-quantile", "montecarlo", "moments"):
        response = await server._serve_evaluate({"model": %r, "method": method})
        assert "result" in response, response
    return before, await server._run_in_pool(repro_modules, None)

try:
    before, after = asyncio.run(run())
finally:
    asyncio.run(server.aclose(drain_seconds=0.0))
print(json.dumps(sorted(set(after) - set(before))))
""" % (MODEL,)


def test_the_pool_forks_with_the_kernels_already_imported():
    completed = subprocess.run(
        [sys.executable, "-c", _WORKER_MODULES_SCRIPT],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert json.loads(completed.stdout) == []


def test_the_kernel_list_covers_every_built_in_methods_imports():
    from repro.api import methods

    tree = ast.parse(Path(methods.__file__).read_text(encoding="utf-8"))
    imported = {
        node.module
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.ImportFrom)
    }
    assert imported <= set(methods.KERNEL_MODULES)


def _get(port: int, path: str, body: bytes | None = None) -> int:
    request = urllib.request.Request(f"http://127.0.0.1:{port}{path}", data=body)
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status


def _group_alive(group: int) -> bool:
    try:
        os.killpg(group, 0)
    except ProcessLookupError:
        return False
    return True


def test_sigint_to_the_process_group_shuts_down_cleanly():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", str(port), "--workers", "2"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 60.0
        while True:
            try:
                _get(port, "/healthz")
                break
            except OSError:
                assert process.poll() is None, "repro serve exited during start-up"
                assert time.monotonic() < deadline, "repro serve did not come up"
                time.sleep(0.05)
        body = json.dumps({"model": MODEL, "method": "moments"}).encode()
        assert _get(port, "/v1/evaluate", body) == 200
        os.killpg(process.pid, signal.SIGINT)
        _, stderr = process.communicate(timeout=30)
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
    assert process.returncode == 0
    assert "Traceback" not in stderr.decode()
    assert stderr.decode().strip() == "shutting down"
    # The workers left with their server: nothing of the group lingers.
    deadline = time.monotonic() + 10.0
    while _group_alive(process.pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not _group_alive(process.pid)
