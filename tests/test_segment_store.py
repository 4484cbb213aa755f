"""What the result cache's append-only log promises.

Every writing process appends entry lines to one log, ``segment-0.log``,
each line under an exclusive ``flock``, and a reader refreshes its index on
a miss.  So two processes sharing a directory serve each other's entries,
live and sequential writers alike leave one log of whole lines, a writer
killed in mid-line leaves a readable cache, the later of two stores wins, a
reader reads the log in bounded blocks, and ``info``/``clear`` see the log
and the files of the earlier layouts (a segment per live writer, a file per
entry).
"""

from __future__ import annotations

import asyncio
import json
import os
import pathlib
import signal
import subprocess
import sys

from repro.cache import ResultCache, payload_digest
from repro.service import EvaluationServer
from repro.service.protocol import parse_evaluate_payload
from repro.studies import StudySpec, plan_study, run_study

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

MODEL = {"p": [0.05, 0.02, 0.01], "q": [1e-4, 5e-4, 2e-3]}
SPEC = {
    "name": "shared-directory",
    "base": {"model": MODEL},
    "sweep": {"grid": [{"name": "p_scale", "values": [0.5, 1.0]}]},
    "methods": [{"name": "exact"}],
}


def _python(code: str, *arguments: str, **popen) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.Popen([sys.executable, "-c", code, *arguments], env=env, **popen)


def _study_in_child(cache_dir: pathlib.Path) -> dict:
    """Run :data:`SPEC` against ``cache_dir`` in another process; its summary."""
    code = (
        "import json, sys\n"
        "from repro.studies import StudySpec, run_study\n"
        "result = run_study(StudySpec.from_dict(json.loads(sys.argv[1])), cache_dir=sys.argv[2])\n"
        "print(json.dumps(result.summary))\n"
    )
    child = _python(code, json.dumps(SPEC), str(cache_dir), stdout=subprocess.PIPE, text=True)
    out, _ = child.communicate(timeout=300)
    assert child.returncode == 0
    return json.loads(out)


def test_a_study_and_a_server_serve_each_others_entries(tmp_path):
    cache_dir = tmp_path / "cache"
    server = EvaluationServer(cache_dir=str(cache_dir))
    half, whole = ({"model": MODEL, "method": "exact", "p_scale": 0.5},
                   {"model": MODEL, "method": "exact"})
    assert [parse_evaluate_payload(body).digest() for body in (half, whole)] == [
        entry.digest for entry in plan_study(StudySpec.from_dict(SPEC))
    ]

    async def evaluate(body) -> dict:
        route = await server._route("POST", "/v1/evaluate", json.dumps(body).encode())
        status, document = route[:2]
        assert status == 200
        return document

    async def run():
        try:
            # The server computes one point; the study, in another process,
            # serves it from the log and computes the other.
            assert (await evaluate(half))["served"]["cached"] is None
            summary = await asyncio.to_thread(_study_in_child, cache_dir)
            assert (summary["cached"], summary["computed"]) == (1, 1)
            # The server's index knew only its own entry: the miss refreshes
            # it, and the study's entry is served from disk.
            computed = server.registry["evaluations_computed"]
            assert (await evaluate(whole))["served"]["cached"] == "disk"
            assert server.registry["evaluations_computed"] == computed
        finally:
            await server.aclose(drain_seconds=0.0)

    asyncio.run(run())
    assert [path.name for path in cache_dir.iterdir()] == ["segment-0.log"]


def _store_three(root: pathlib.Path) -> list[str]:
    cache = ResultCache(root)
    digests = [payload_digest({"entry": index}) for index in range(3)]
    for index, digest in enumerate(digests):
        cache.store(digest, {"entry": index}, {"value": index / 7})
    return digests


def test_a_torn_last_line_is_a_miss_and_the_rest_still_load(tmp_path):
    root = tmp_path / "cache"
    digests = _store_three(root)
    [segment] = root.glob("segment-*.log")
    torn = payload_digest({"entry": "torn"})
    line = f'{torn} {{"digest": "{torn}", "metrics": {{"value": 1.0}}, "payload": {{}}}}'
    with open(segment, "ab") as handle:
        handle.write(line[: len(line) // 2].encode())
    fresh = ResultCache(root)
    assert fresh.load(torn) is None
    assert [fresh.load(digest)["metrics"] for digest in digests] == [
        {"value": index / 7} for index in range(3)
    ]
    assert fresh.info()["entries"] == 3


def test_a_writer_reusing_a_torn_segment_starts_on_a_new_line(tmp_path):
    # The writer that held the first segment died in mid-line: this
    # process's first entry must not be glued to the torn one.
    root = tmp_path / "cache"
    root.mkdir()
    segment = root / "segment-0.log"
    segment.write_bytes(b'0123 {"digest": "0123", "met')
    digest = payload_digest({"after": "torn"})
    ResultCache(root).store(digest, {}, {"value": 2.0})
    assert [path.name for path in root.iterdir()] == ["segment-0.log"]
    assert ResultCache(root).load(digest)["metrics"] == {"value": 2.0}
    assert ResultCache(root).load("0123") is None


def test_sequential_and_live_writers_share_the_log(tmp_path):
    root = tmp_path / "cache"
    for index in range(3):
        ResultCache(root).store(payload_digest({"run": index}), {}, {"value": index})
    assert [path.name for path in root.iterdir()] == ["segment-0.log"]
    first, second = ResultCache(root), ResultCache(root)
    first.store(payload_digest({"live": 1}), {}, {"value": 1.0})
    second.store(payload_digest({"live": 2}), {}, {"value": 2.0})
    first.store(payload_digest({"live": 3}), {}, {"value": 3.0})
    assert [path.name for path in root.iterdir()] == ["segment-0.log"]
    assert second.load(payload_digest({"live": 3}))["metrics"] == {"value": 3.0}
    assert ResultCache(root).info()["entries"] == 6


#: Stores three entries, then dies in the write of a large fourth: its
#: ``os.write`` puts the first half of the line on disk, reports it and waits
#: for the SIGKILL -- a real prefix in the file, as a kill in mid-write leaves.
_WRITER = """
import os, sys, time
from repro.cache import ResultCache, payload_digest
cache = ResultCache(sys.argv[1])
for index in range(4):
    if index == 3:
        write = os.write
        def half_then_wait(descriptor, data):
            write(descriptor, data[: len(data) // 2])
            print("torn", flush=True)
            time.sleep(120)
        os.write = half_then_wait
    cache.store(payload_digest({"large": index}), {"large": index},
                {"values": [index + k / 7 for k in range(20_000)]})
"""


def test_a_writer_killed_in_mid_write_leaves_a_readable_cache(tmp_path):
    root = tmp_path / "cache"
    child = _python(_WRITER, str(root), stdout=subprocess.PIPE, text=True)
    try:
        assert child.stdout.readline() == "torn\n"
    finally:
        child.send_signal(signal.SIGKILL)
        child.communicate()
    assert child.returncode == -signal.SIGKILL
    [segment] = root.glob("segment-*.log")
    assert not segment.read_bytes().endswith(b"\n")
    cache = ResultCache(root)
    for index in range(4):
        entry = cache.load(payload_digest({"large": index}))
        if index == 3:
            assert entry is None
        else:
            assert entry["metrics"] == {"values": [index + k / 7 for k in range(20_000)]}
    assert cache.info()["entries"] == 3
    digest = payload_digest({"after": "kill"})
    cache.store(digest, {}, {"value": 3.0})
    assert ResultCache(root).load(digest)["metrics"] == {"value": 3.0}


def test_a_second_store_of_a_digest_in_one_process_wins(tmp_path):
    root = tmp_path / "cache"
    digest = payload_digest({"twice": True})
    first = ResultCache(root)
    first.store(digest, {}, {"value": 1.0})
    first.store(digest, {}, {"value": 2.0})
    assert first.load(digest)["metrics"] == {"value": 2.0}
    ResultCache(root).store(digest, {}, {"value": 3.0})
    assert ResultCache(root).load(digest)["metrics"] == {"value": 3.0}
    assert ResultCache(root).info()["entries"] == 1


def test_info_and_clear_see_segments_and_old_entry_files(tmp_path):
    root = tmp_path / "cache"
    digests = _store_three(root)
    old = payload_digest({"old": "layout"})
    shard = root / old[:2]
    shard.mkdir()
    (shard / f"{old}.json").write_text(
        json.dumps({"digest": old, "metrics": {"value": 0.5}, "payload": {}}, sort_keys=True)
    )
    (shard / f".{old[:8]}-crashed.tmp").write_text("{")
    (root / "notes.txt").write_text("not a cache file")
    cache = ResultCache(root)
    # The old layout is read as a miss, but it is counted and cleared.
    assert cache.load(old) is None
    sizes = sum(path.stat().st_size for path in root.rglob("*") if path.is_file())
    assert cache.info() == {
        "path": str(root.resolve()),
        "entries": len(digests) + 1,
        "bytes": sizes - (root / "notes.txt").stat().st_size,
    }
    assert cache.clear() == len(digests) + 1
    assert [path.name for path in root.iterdir()] == ["notes.txt"]
    assert cache.info()["entries"] == 0
    assert all(cache.load(digest) is None for digest in digests)
    # The clearing instance writes on into a fresh segment.
    cache.store(digests[0], {}, {"value": 9.0})
    assert ResultCache(root).load(digests[0])["metrics"] == {"value": 9.0}


def test_a_writer_whose_segment_was_cleared_elsewhere_opens_a_new_one(tmp_path):
    root = tmp_path / "cache"
    writer = ResultCache(root)
    writer.store(payload_digest({"before": 1}), {}, {"value": 1.0})
    assert ResultCache(root).clear() == 1
    digest = payload_digest({"after": 1})
    writer.store(digest, {}, {"value": 2.0})
    assert ResultCache(root).load(digest)["metrics"] == {"value": 2.0}
    assert ResultCache(root).info()["entries"] == 1


def test_a_study_reruns_warm_from_its_segment(tmp_path):
    spec = StudySpec.from_dict(SPEC)
    cold = run_study(spec, cache_dir=str(tmp_path / "cache"), jobs=2)
    warm = run_study(spec, cache_dir=str(tmp_path / "cache"), jobs=2)
    assert (cold.summary["computed"], warm.summary["computed"]) == (2, 0)
    assert warm.records == cold.records


def test_a_clear_elsewhere_takes_effect_on_the_next_load(tmp_path):
    root = tmp_path / "cache"
    digests = _store_three(root)
    reader = ResultCache(root)
    assert reader.load(digests[0]) is not None
    assert ResultCache(root).clear() == 3
    assert [reader.load(digest) for digest in digests] == [None, None, None]


def test_segments_are_read_in_blocks_smaller_than_their_lines(tmp_path, monkeypatch):
    import repro.cache

    root = tmp_path / "cache"
    writer = ResultCache(root)
    sizes = [0, 3, 1, 200, 2, 40]
    digests = [payload_digest({"sized": index}) for index in range(len(sizes))]
    for index, (digest, size) in enumerate(zip(digests, sizes)):
        writer.store(digest, {"sized": index}, {"values": [k / 7 for k in range(size)]})
    [segment] = root.glob("segment-*.log")
    with open(segment, "ab") as handle:
        handle.write(b"f" * 300)  # a torn last line longer than a block
    # Blocks shorter than a digest, than a line and than the torn tail.
    for block in (7, 64, 1000, 1 << 20):
        monkeypatch.setattr(repro.cache, "_BLOCK", block)
        reader = ResultCache(root)
        assert [reader.load(digest)["metrics"] for digest in digests] == [
            {"values": [k / 7 for k in range(size)]} for size in sizes
        ]
        assert reader.info()["entries"] == len(sizes)


def _entry_line(digest: str, metrics: dict) -> str:
    entry = {"digest": digest, "metrics": metrics, "payload": {}}
    return f"{digest} {json.dumps(entry, sort_keys=True)}\n"


def test_other_segments_of_the_per_writer_layout_are_misses(tmp_path):
    # A directory written by live writers that each took a segment: only
    # the log, segment-0.log, is served, and clear removes every segment.
    root = tmp_path / "cache"
    root.mkdir()
    digests = [payload_digest({"segment": index}) for index in range(4)]
    for index, digest in enumerate(digests):
        (root / f"segment-{index}.log").write_text(_entry_line(digest, {"value": index}))
    (root / "notes.txt").write_text("not a cache file")
    cache = ResultCache(root)
    assert cache.load(digests[0])["metrics"] == {"value": 0}
    assert [cache.load(digest) for digest in digests[1:]] == [None, None, None]
    sizes = sum((root / f"segment-{index}.log").stat().st_size for index in range(4))
    assert (cache.info()["entries"], cache.info()["bytes"]) == (1, sizes)
    assert cache.clear() == 1
    assert [path.name for path in root.iterdir()] == ["notes.txt"]


def test_a_refresh_holds_one_block_not_the_segment(tmp_path):
    import tracemalloc

    root = tmp_path / "cache"
    root.mkdir()
    with open(root / "segment-0.log", "w", encoding="utf-8") as handle:
        for index in range(4):
            digest = payload_digest({"blob": index})
            entry = {"digest": digest, "metrics": {"blob": "x" * 2_000_000}, "payload": {}}
            handle.write(f"{digest} {json.dumps(entry, sort_keys=True)}\n")
    tracemalloc.start()
    try:
        cache = ResultCache(root)
        assert cache.info()["entries"] == 4
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000  # the segment is 8 MB; a block is 1 MiB
    assert cache.load(payload_digest({"blob": 3}))["metrics"] == {"blob": "x" * 2_000_000}


def test_threads_sharing_a_cache_lose_no_store(tmp_path):
    import threading

    root = tmp_path / "cache"
    cache = ResultCache(root)
    threads, per_thread = 8, 40
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def work(worker: int) -> None:
            for index in range(per_thread):
                digest = payload_digest({"thread": worker, "index": index})
                cache.store(digest, {}, {"value": index})
                assert cache.load(digest)["metrics"] == {"value": index}
                cache.load(payload_digest({"absent": worker, "index": index}))

        pool = [threading.Thread(target=work, args=(worker,)) for worker in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in pool)
    finally:
        sys.setswitchinterval(interval)
    reader = ResultCache(root)
    assert all(
        reader.load(payload_digest({"thread": worker, "index": index}))["metrics"]
        == {"value": index}
        for worker in range(threads)
        for index in range(per_thread)
    )
    assert reader.info()["entries"] == threads * per_thread
    assert [path.name for path in root.iterdir()] == ["segment-0.log"]


_CONCURRENT_WRITER = """
import sys
from repro.cache import ResultCache, payload_digest
cache = ResultCache(sys.argv[1])
writer = int(sys.argv[2])
for index in range(50):
    digest = payload_digest({"writer": writer, "index": index})
    cache.store(digest, {"writer": writer, "index": index}, {"value": index})
"""


def _lines_by_writer(log: pathlib.Path) -> dict[int, list[int]]:
    """The store order of each writer's lines in ``log``; every line must parse whole."""
    order: dict[int, list[int]] = {}
    for line in log.read_bytes().splitlines():
        digest, text = line.split(b" ", 1)
        entry = json.loads(text)
        assert entry["digest"] == digest.decode()
        order.setdefault(entry["payload"]["writer"], []).append(entry["payload"]["index"])
    return order


def test_concurrent_writers_share_one_log(tmp_path):
    root = tmp_path / "cache"
    root.mkdir()
    writers = 6
    children = [_python(_CONCURRENT_WRITER, str(root), str(writer)) for writer in range(writers)]
    assert [child.wait(timeout=300) for child in children] == [0] * writers
    assert [path.name for path in root.iterdir()] == ["segment-0.log"]
    assert _lines_by_writer(root / "segment-0.log") == {
        writer: list(range(50)) for writer in range(writers)
    }
    assert ResultCache(root).info()["entries"] == writers * 50


def test_a_forked_child_appends_on_its_own_descriptor(tmp_path):
    import fcntl
    import select

    root = tmp_path / "cache"
    cache = ResultCache(root)
    cache.store(payload_digest({"writer": 0, "index": 0}), {"writer": 0, "index": 0}, {})
    parent_descriptor = cache._writer[1]
    # The parent holds the log's lock on its own descriptor.  A child that
    # appended on the inherited one would share that lock and not wait.
    fcntl.flock(parent_descriptor, fcntl.LOCK_EX)
    readable, writable = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            signal.alarm(120)  # a child stuck on the lock dies, not the suite
            os.close(readable)
            for index in range(200):
                cache.store(payload_digest({"writer": 1, "index": index}),
                            {"writer": 1, "index": index}, {"value": index})
                if index == 0:
                    os.write(writable, b"stored")
            status = 0 if cache._writer[0] == os.getpid() else 2
        finally:
            os._exit(status)
    os.close(writable)
    try:
        assert select.select([readable], [], [], 0.5)[0] == []
    finally:
        fcntl.flock(parent_descriptor, fcntl.LOCK_UN)
    for index in range(1, 200):
        cache.store(payload_digest({"writer": 0, "index": index}),
                    {"writer": 0, "index": index}, {"value": index})
    assert os.waitpid(pid, 0)[1] == 0
    assert os.read(readable, 16) == b"stored"
    os.close(readable)
    assert cache._writer[1] == parent_descriptor
    assert _lines_by_writer(root / "segment-0.log") == {0: list(range(200)), 1: list(range(200))}
    assert ResultCache(root).info()["entries"] == 400
