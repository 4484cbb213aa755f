"""Start, probe, measure and stop a router-plus-shards topology.

Each ``repro serve`` / ``repro route`` process starts through
``perfbench/launcher.py`` in a session of its own, so that it and every pool
worker it forks share one process group: teardown interrupts the leader
(SIGINT, the program's normal shutdown), waits, then kills and reaps
whatever is left in the group.

Ports are fixed per workload rather than ephemeral: ring placement hashes
the ``host:port`` strings, so fixed ports keep the key split across shards
a function of the seed alone.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

HOST = "127.0.0.1"
LAUNCHER = Path(__file__).resolve().parent.parent / "launcher.py"


def _bindable(port: int) -> bool:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            probe.bind((HOST, port))
        except OSError:
            return False
    return True


def pick_ports(base: int, count: int, attempts: int = 20) -> list[int]:
    """``count`` consecutive free ports from ``base``, stepping by 10 when busy."""
    for attempt in range(attempts):
        ports = [base + 10 * attempt + offset for offset in range(count)]
        if all(_bindable(port) for port in ports):
            return ports
    raise RuntimeError(f"no {count} free consecutive ports near {base}")


def get_json(port: int, path: str, timeout: float = 5.0):
    connection = http.client.HTTPConnection(HOST, port, timeout=timeout)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        body = response.read()
        if response.status != 200:
            raise RuntimeError(f"GET {path} on port {port} answered {response.status}")
        return json.loads(body)
    finally:
        connection.close()


def _pids_in_group(group: int) -> list[int]:
    """Live (not zombie) processes in process group ``group``."""
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[2]) == group and fields[0] != "Z":
            pids.append(int(entry.name))
    return pids


_TICK = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of one process and its reaped children (0
    when it is gone).  CPU time, unlike wall time, leaves out the time a
    shared host's hypervisor gives the core to another guest."""
    try:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return sum(int(value) for value in fields[11:15]) / _TICK


def peak_rss_mb(pid: int) -> float:
    """VmHWM of one process, in MB (0 when it is gone)."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Fleet:
    """Two ``repro serve`` shards behind one ``repro route``."""

    def __init__(self, workdir: Path, ports: list[int], shard_args: list[str],
                 router_args: list[str], spans_dir: str | None = None) -> None:
        self.workdir = Path(workdir)
        self.router_port, *self.shard_ports = ports
        self.shard_args = shard_args
        self.router_args = router_args
        self.spans_dir = spans_dir
        self.processes: list[subprocess.Popen] = []
        self.roles: list[str] = []

    def _spawn(self, role: str, command: list[str]) -> subprocess.Popen:
        launcher = [sys.executable, str(LAUNCHER)]
        if self.spans_dir is not None:
            launcher += ["--spans", self.spans_dir, "--role", role]
        log = open(self.workdir / f"{role}-{len(self.processes)}.log", "wb")
        try:
            process = subprocess.Popen(
                launcher + ["--", *command],
                stdout=log, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
                start_new_session=True,
            )
        finally:
            log.close()
        self.processes.append(process)
        self.roles.append(role)
        return process

    def _wait_healthy(self, port: int, process: subprocess.Popen, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if process.poll() is not None:
                raise RuntimeError(f"process on port {port} exited with {process.returncode}")
            try:
                get_json(port, "/healthz", timeout=1.0)
                return
            except (OSError, RuntimeError, http.client.HTTPException):
                time.sleep(0.02)
        raise RuntimeError(f"port {port} not healthy within {timeout:g}s")

    def start(self) -> float:
        """Spawn everything and wait until all answer ``/healthz``; returns seconds."""
        started = time.perf_counter()
        shards = [
            self._spawn("shard", ["serve", "--port", str(port), *self.shard_args])
            for port in self.shard_ports
        ]
        for port, process in zip(self.shard_ports, shards):
            self._wait_healthy(port, process)
        # The router starts once the shards answer: its first probes must
        # not find a shard still binding, or that shard's keys would spill
        # to the other one until the next probe readmits it.
        shard_specs = []
        for port in self.shard_ports:
            shard_specs += ["--shard", f"{HOST}:{port}"]
        router = self._spawn(
            "router", ["route", "--port", str(self.router_port), *shard_specs, *self.router_args]
        )
        self._wait_healthy(self.router_port, router)
        return time.perf_counter() - started

    def shard_metrics(self) -> list[dict]:
        return [get_json(port, "/metrics") for port in self.shard_ports]

    def router_metrics(self) -> dict:
        return get_json(self.router_port, "/metrics")

    def peak_rss_mb(self) -> float:
        """Summed VmHWM of every process of the topology, pool workers included."""
        return sum(
            peak_rss_mb(pid)
            for process in self.processes
            for pid in _pids_in_group(process.pid)
        )

    def cpu_seconds(self) -> dict[str, float]:
        """CPU seconds used so far, summed per role; a shard's pool workers
        count under ``worker``."""
        used: dict[str, float] = {}
        for role, process in zip(self.roles, self.processes):
            for pid in _pids_in_group(process.pid):
                key = role if pid == process.pid else "worker"
                used[key] = used.get(key, 0.0) + cpu_seconds(pid)
        return used

    def stop(self) -> None:
        """Interrupt router then shards, wait, then kill and reap leftovers."""
        for process in reversed(self.processes):
            if process.poll() is None:
                process.send_signal(signal.SIGINT)
        for process in reversed(self.processes):
            try:
                process.wait(timeout=20.0)
            except subprocess.TimeoutExpired:
                os.killpg(process.pid, signal.SIGKILL)
                process.wait(timeout=10.0)
        for process in self.processes:
            deadline = time.monotonic() + 20.0
            while _pids_in_group(process.pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            for pid in _pids_in_group(process.pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            while _pids_in_group(process.pid) and time.monotonic() < deadline + 10.0:
                time.sleep(0.05)
        self.processes = []
