"""The evaluation server's process pool: forked workers on direct pipes.

Each worker is a fork-context :class:`multiprocessing.Process` holding one
end of a socket pair; the server keeps the other end and reads it with
``loop.add_reader``.  A job is one pickled ``(function, argument)``
envelope: it waits in a FIFO until a worker is idle, is written to that
worker's pipe, and the worker writes back one pickled ``(ok, value)``
reply.  No helper thread sits between the event loop and a worker, unlike
:class:`concurrent.futures.ProcessPoolExecutor`, whose manager and
queue-feeder threads cost most of a short job's hand-off.

Semantics the server relies on:

* each worker has at most one job in flight; a job cancelled while it
  waits is never sent, and one cancelled while it runs has its reply
  dropped -- its worker then takes the next job;
* a worker's exception comes back as itself (the server maps it to a
  status like any in-process error); a result or exception that cannot
  cross the pipe becomes a :class:`ReplyError`, and the worker lives on;
* a worker that dies -- end of file on its pipe, or its process sentinel
  firing -- breaks the whole pool, as a broken ``ProcessPoolExecutor``
  does: every job in flight or waiting fails with
  :class:`concurrent.futures.BrokenExecutor` and the surviving workers are
  terminated, so the server can rebuild the pool and retry;
* workers ignore SIGINT and leave their target function on an explicit
  stop message (:meth:`WorkerPool.aclose`), so a Ctrl-C to the process
  group shuts down through the server and every worker exits normally
  (running its ``multiprocessing`` finalizers).

The pool follows the event loop that submits to it: the server may be
driven by several short-lived loops in turn, and the pipe readers move to
the current loop on the next submit.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import multiprocessing.util
import pickle
import signal
from collections import deque
from concurrent.futures import BrokenExecutor

__all__ = ["ReplyError", "WorkerPool"]

_PROTOCOL = pickle.HIGHEST_PROTOCOL
#: The stop message (a job envelope is never empty).
_STOP = b""


class ReplyError(RuntimeError):
    """A worker's result or exception that could not cross the pipe."""


def _work(connection, parent_ends) -> None:
    """A worker's main loop: one job envelope in, one reply out."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # Forked copies of the server's pipe ends would keep this worker from
    # seeing end of file when the server dies.
    for end in parent_ends:
        end.close()
    while True:
        try:
            envelope = connection.recv_bytes()
        except (EOFError, OSError):
            return
        if envelope == _STOP:
            return
        try:
            function, argument = pickle.loads(envelope)
            reply = (True, function(argument))
        except Exception as error:  # noqa: BLE001 - shipped to the server
            reply = (False, error)
        try:
            data = pickle.dumps(reply, _PROTOCOL)
        except Exception as error:  # noqa: BLE001 - the worker must not wedge
            kind = "result" if reply[0] else f"{type(reply[1]).__name__} exception"
            data = pickle.dumps(
                (False, ReplyError(f"worker {kind} could not be pickled: {error}")), _PROTOCOL
            )
        try:
            connection.send_bytes(data)
        except OSError:
            return  # the server is gone


def _pending(job: asyncio.Future | None) -> bool:
    """Whether ``job`` still waits for an outcome that can be delivered."""
    return job is not None and not job.done() and not job.get_loop().is_closed()


class _Worker:
    __slots__ = ("process", "connection", "job")

    def __init__(self, process, connection) -> None:
        self.process = process
        self.connection = connection
        #: The future of the job in flight (``None``: idle).
        self.job: asyncio.Future | None = None


def _stop_workers(connections) -> None:
    """Send every worker the stop message (also run at interpreter exit, so
    the exit-time join of non-daemon children never waits on a live worker)."""
    for connection in connections:
        try:
            connection.send_bytes(_STOP)
        except (OSError, ValueError):
            pass  # already dead or closed


class WorkerPool:
    """``size`` forked workers, started on the first submit."""

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError(f"a worker pool needs at least one worker, got {size}")
        self.size = size
        self._workers: list[_Worker] = []
        self._waiting: deque[tuple[asyncio.Future, bytes]] = deque()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._broken: str | None = None
        self._closing = False
        self._connections: list = []
        self._finalizer = multiprocessing.util.Finalize(
            self, _stop_workers, args=(self._connections,), exitpriority=10
        )

    # ----------------------------------------------------------------- #
    # Jobs
    # ----------------------------------------------------------------- #
    def submit(self, function, argument) -> asyncio.Future:
        """Queue ``function(argument)``; returns a future on the running loop.

        Raises :class:`BrokenExecutor` once a worker has died.
        """
        if self._broken is not None:
            raise BrokenExecutor(self._broken)
        if self._closing:
            raise RuntimeError("cannot submit to a worker pool that is shutting down")
        loop = asyncio.get_running_loop()
        envelope = pickle.dumps((function, argument), _PROTOCOL)
        if not self._workers:
            self._start()
        self._bind(loop)
        future = loop.create_future()
        self._waiting.append((future, envelope))
        self._send_waiting()
        return future

    def _send_waiting(self) -> None:
        for worker in self._workers:
            if worker.job is not None:
                continue
            while self._waiting:
                future, envelope = self._waiting.popleft()
                if future.done():
                    continue  # cancelled while it waited: never sent
                try:
                    worker.connection.send_bytes(envelope)
                except OSError:
                    self._break(worker, future)
                    return
                worker.job = future
                break
            if not self._waiting:
                return

    def _on_reply(self, worker: _Worker) -> None:
        try:
            data = worker.connection.recv_bytes()
        except (EOFError, OSError):
            self._on_exit(worker)
            return
        job, worker.job = worker.job, None
        if _pending(job):
            try:
                ok, value = pickle.loads(data)
            except Exception as error:  # noqa: BLE001 - typed, the worker lives on
                ok, value = False, ReplyError(f"worker reply could not be unpickled: {error}")
            if ok:
                job.set_result(value)
            else:
                job.set_exception(value)
        self._send_waiting()

    def _on_exit(self, worker: _Worker) -> None:
        if self._closing or self._broken is not None:
            self._unwatch(worker)
            return
        self._break(worker)

    def _break(self, dead: _Worker, sending: asyncio.Future | None = None) -> None:
        """``dead`` died: fail every job, terminate the survivors."""
        # Reading the exit code reaps the process without waiting: after end
        # of file it may still be exiting, and the event loop must not block.
        code = dead.process.exitcode
        self._broken = "a worker process died" + (
            "" if code is None else f" (exit code {code})"
        )
        error = BrokenExecutor(self._broken)
        jobs = [worker.job for worker in self._workers]
        jobs += [future for future, _ in self._waiting] + [sending]
        self._waiting.clear()
        for job in jobs:
            if _pending(job):
                job.set_exception(error)
        for worker in self._workers:
            worker.job = None
            self._unwatch(worker)
            if worker.process.exitcode is None:
                worker.process.terminate()
            worker.connection.close()
        self._finalizer.cancel()

    # ----------------------------------------------------------------- #
    # Processes and loop binding
    # ----------------------------------------------------------------- #
    def _start(self) -> None:
        context = multiprocessing.get_context("fork")
        for _ in range(self.size):
            ours, theirs = context.Pipe()
            process = context.Process(
                target=_work,
                args=(theirs, [*self._connections, ours]),
                name="repro-eval-worker",
            )
            process.start()
            # Only the worker keeps its end: its death is then end of file here.
            theirs.close()
            self._connections.append(ours)
            self._workers.append(_Worker(process, ours))

    def _bind(self, loop: asyncio.AbstractEventLoop) -> None:
        """Read the pipes on ``loop`` (a closed loop's readers are moot)."""
        if self._loop is loop:
            return
        for worker in self._workers:
            self._unwatch(worker)
        self._loop = loop
        for worker in self._workers:
            loop.add_reader(worker.connection.fileno(), self._on_reply, worker)
            loop.add_reader(worker.process.sentinel, self._on_exit, worker)

    def _unwatch(self, worker: _Worker) -> None:
        if self._loop is None or self._loop.is_closed() or worker.connection.closed:
            return
        self._loop.remove_reader(worker.connection.fileno())
        self._loop.remove_reader(worker.process.sentinel)

    # ----------------------------------------------------------------- #
    # Shutdown
    # ----------------------------------------------------------------- #
    async def aclose(self, timeout: float) -> None:
        """Stop every worker and wait up to ``timeout`` s for it to exit.

        Waiting jobs are cancelled; a job still running finishes first (its
        reply is read and delivered).  Workers still alive at the timeout
        are killed and their jobs cancelled.
        """
        if self._closing or self._broken is not None:
            return
        self._closing = True
        for future, _ in self._waiting:
            future.cancel()
        self._waiting.clear()
        if not self._workers:
            return
        loop = asyncio.get_running_loop()
        self._bind(loop)
        self._finalizer()
        deadline = loop.time() + timeout
        while any(w.process.is_alive() for w in self._workers) and loop.time() < deadline:
            await asyncio.sleep(0.01)
        for worker in self._workers:
            self._unwatch(worker)
            if worker.process.is_alive():
                worker.process.kill()
            worker.process.join(1.0)
            worker.connection.close()
            if _pending(worker.job):
                worker.job.cancel()
