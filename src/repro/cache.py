"""Content-addressed on-disk cache for evaluation results.

Every evaluation has a *canonical payload* (base model, resolved parameters,
normalised method options, seed entropy, cache format version).  Its SHA-256
digest is the cache key: two requests that mean the same evaluation hash the
same no matter which surface (a study spec, the evaluation service, a Python
call) they came from, so

* re-running a study against the same cache directory recomputes nothing;
* editing one sweep axis leaves every unchanged point's key (and cached
  record) intact, so only the new points are computed;
* renaming a study, reordering axes or moving a model file does not
  invalidate anything;
* the evaluation service's disk tier (``repro serve --cache-dir``) shares
  this format, so deterministic-method entries warmed by a study are served
  to service traffic without recomputation.

An entry is ``{"digest", "payload", "metrics"}``: the key, the canonical
payload it hashes and the evaluation's metric mapping.  This module is the
one place that knows that shape.  :meth:`ResultCache.store` builds every
entry (the study runner, the service's disk tier, its ``PUT
/v1/cache/<digest>`` surface and the benchmarks' per-point side all call
it), :func:`is_entry` decides what a read may accept (the disk tier and a
peer shard's answer alike), and :func:`result_record` turns a payload plus
metrics back into the wire result record a cache hit serves.

Entries live in append-only *segments*, a log-structured store after
Bitcask (Sheehy & Smith, Basho, 2010).  Each writing process appends to one
segment, ``segment-<n>.log`` under the cache root, which it opens on its
first :meth:`ResultCache.store` and holds with an exclusive ``flock``: the
lowest-numbered segment no live writer holds, so sequential runs append to
one segment and a directory has as many as it had writers at once.  A
forked child opens its own.  An entry is one line, ``<digest>
<json.dumps(entry, sort_keys=True)>`` and a newline.

A reader keeps an in-memory index from digest to (segment, offset, length)
and refreshes it only on a miss: one ``scandir`` of the root and one
``stat`` per segment, reading only what a segment gained since, in blocks
of :data:`_BLOCK` bytes.  It holds no descriptor: a hit opens, reads and
closes its segment, and a hit whose line no longer reads (a ``clear``
elsewhere) refreshes like a miss.  So a study and ``repro serve
--cache-dir`` sharing a directory each serve the other's entries after a
miss.  A line without its newline (a writer killed in
mid-write) is not indexed, and a line that does not parse, fails
:func:`is_entry` or names another digest is a miss, so a damaged cache
degrades to recomputation.  The later of two lines for a digest wins.
Directories of the earlier one-file-per-entry layout (``xx/<digest>.json``)
read as misses; :meth:`ResultCache.info` counts those files and
:meth:`ResultCache.clear` removes them.

The study runner and the evaluation service both use this module;
:mod:`repro.studies` re-exports its public names.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path
from typing import Any, Mapping

__all__ = [
    "CACHE_FORMAT_VERSION",
    "ResultCache",
    "canonical_json",
    "is_entry",
    "payload_digest",
    "result_record",
    "text_digest",
]

#: Bump to invalidate every existing cache entry (e.g. when a method's
#: numerical meaning changes without its options changing).  Version 2:
#: ``exact`` / ``tail-quantile`` report bracketed quantiles and exceedances.
CACHE_FORMAT_VERSION = 2


def canonical_json(payload) -> str:
    """Serialise ``payload`` into the canonical (hashable) JSON form.

    Keys are sorted, separators are minimal and NaN/Infinity are rejected, so
    equal payloads always produce equal bytes.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)


def payload_digest(payload) -> str:
    """SHA-256 hex digest of the canonical form of ``payload``."""
    return text_digest(canonical_json(payload))


def text_digest(text: str) -> str:
    """SHA-256 hex digest of an already canonical payload text."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def is_entry(value) -> bool:
    """Whether ``value`` can be served as a cache entry: an object whose
    ``metrics`` is an object.

    Anything else -- a truncated or foreign JSON document, a peer's garbage
    answer -- is a miss, so a damaged tier degrades to recomputation.
    """
    return isinstance(value, dict) and isinstance(value.get("metrics"), dict)


def result_record(payload: Mapping[str, Any], metrics: Mapping[str, Any]) -> dict | None:
    """The wire result record of an evaluation, rebuilt from its canonical
    payload and cached ``metrics``.

    The payload carries the method name, its resolved options and the seed
    entropy (``payload["method"]`` is ``{"name": ..., **options}``), so the
    record needs nothing else.  Options are listed in sorted order, as
    :meth:`~repro.api.results.EvaluationResult.to_dict` lists a computed
    record's, so a hit serves the computed record's bytes.
    ``elapsed_seconds`` is 0.0 -- nothing was evaluated.  Returns ``None``
    for a payload without a method (a legacy or foreign entry).
    """
    method = payload.get("method") if isinstance(payload, Mapping) else None
    if not isinstance(method, Mapping) or "name" not in method:
        return None
    return {
        "method": method["name"],
        "options": {key: method[key] for key in sorted(method) if key != "name"},
        "metrics": dict(metrics),
        "seed_entropy": payload.get("entropy"),
        "elapsed_seconds": 0.0,
    }


#: A segment is ``segment-<n>.log`` under the cache root.
_SEGMENT_PREFIX = "segment-"
_SEGMENT_SUFFIX = ".log"
#: A refresh reads a segment in blocks of this many bytes.
_BLOCK = 1 << 20
#: Bytes of a line's start kept across blocks: its digest and the space after.
_HEAD = 128


class _Segment:
    """One segment file: its inode and how many of its bytes are indexed."""

    __slots__ = ("name", "inode", "indexed")

    def __init__(self, name: str, inode: int) -> None:
        self.name = name
        self.inode = inode
        self.indexed = 0


class ResultCache:
    """A directory of content-addressed evaluation entries in append-only segments.

    One instance may be shared by threads (the service's I/O threads share
    its disk tier): a lock covers the index and the writer.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._directory = os.fspath(self.root)
        self._lock = threading.Lock()
        #: digest -> (segment name, offset, length) of its entry's JSON text.
        self._index: dict[str, tuple[str, int, int]] = {}
        self._segments: dict[str, _Segment] = {}
        #: (pid, descriptor, segment) of this process's append handle.
        self._writer: tuple[int, int, _Segment] | None = None

    def load(self, digest: str) -> dict | None:
        """Return the cached entry, or ``None`` on a miss or unreadable entry.

        A digest missing from the index, or whose indexed line no longer
        reads as its entry (a ``clear`` elsewhere), refreshes the index
        first.  A line that does not parse, is not entry-shaped or names
        another digest is a miss, so a damaged cache degrades to
        recomputation rather than crashing the caller.
        """
        from repro import telemetry

        with telemetry.span("cache.read", digest=digest[:12]) as read_span:
            with self._lock:
                location = self._index.get(digest)
                entry = None if location is None else self._read(digest, location)
                if entry is None:
                    self._refresh()
                    fresh = self._index.get(digest)
                    if fresh is not None and fresh != location:
                        entry = self._read(digest, fresh)
            read_span.set(hit=entry is not None)
            return entry

    def store(self, digest: str, payload: Mapping[str, Any], metrics: Mapping[str, Any]) -> None:
        """Append the entry of ``payload`` and its ``metrics`` under ``digest``:
        ``json.dumps({"digest", "payload", "metrics"}, sort_keys=True)``, after
        the digest and a space, as one line of this process's segment."""
        from repro import telemetry

        with telemetry.span("cache.write", digest=digest[:12]):
            text = json.dumps(
                {"digest": digest, "payload": payload, "metrics": metrics}, sort_keys=True
            ).encode("utf-8")
            line = b"%s %s\n" % (digest.encode("utf-8"), text)
            with self._lock:
                descriptor, segment = self._append_handle()
                try:
                    if os.write(descriptor, line) != len(line):
                        raise OSError(f"short write to {segment.name}")
                    end = os.lseek(descriptor, 0, os.SEEK_CUR)
                except BaseException:
                    # The next store starts on a fresh handle, after a newline.
                    self._drop_writer()
                    raise
                if segment.indexed == end - len(line):
                    segment.indexed = end
                self._index[digest] = (segment.name, end - len(text) - 1, len(text))

    def info(self) -> dict:
        """Inspect the cache: entry count, total bytes and resolved path.

        Entries are the distinct digests in the segments plus any files of
        the earlier one-file-per-entry layout (never served, but
        :meth:`clear` removes them).  Bytes include stray files in those
        shard directories, which occupy the directory either way.
        """
        with self._lock:
            total_bytes = self._refresh()
            entries = len(self._index)
        for shard in self._legacy_shards():
            for path in shard.iterdir():
                try:
                    total_bytes += path.stat().st_size
                except OSError:
                    continue
                entries += path.suffix == ".json"
        return {
            "path": str(self.root.resolve()),
            "entries": entries,
            "bytes": total_bytes,
        }

    def clear(self) -> int:
        """Delete every cache entry; returns the number of entries removed.

        Only segments and the entry files of the earlier layout, with their
        (then empty) shard directories, are removed -- the cache root itself
        and any foreign files in it are left alone, so pointing the CLI at
        the wrong directory cannot destroy anything but cache entries.
        """
        with self._lock:
            self._refresh()
            removed = len(self._index)
            for name in self._segments:
                try:
                    os.unlink(os.path.join(self._directory, name))
                except OSError:
                    continue
            self._drop_writer()
            self._segments = {}
            self._index = {}
        for shard in self._legacy_shards():
            for path in shard.glob("*.json"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    continue
            # Stray temp files from crashed writes go with their shard.
            for path in shard.glob(".*.tmp"):
                try:
                    path.unlink()
                except OSError:
                    continue
            try:
                shard.rmdir()
            except OSError:
                pass  # foreign files keep the shard alive
        return removed

    def __del__(self) -> None:
        if hasattr(self, "_writer"):
            self._drop_writer()

    def _legacy_shards(self) -> list[Path]:
        """The two-character shard directories of the one-file-per-entry layout."""
        return [path for path in sorted(self.root.iterdir())
                if len(path.name) == 2 and path.is_dir()]

    def _read(self, digest: str, location: tuple[str, int, int]) -> dict | None:
        """The entry at ``location`` if it parses, is entry-shaped and names ``digest``."""
        name, offset, length = location
        try:
            descriptor = os.open(os.path.join(self._directory, name), os.O_RDONLY)
            try:
                text = os.pread(descriptor, length, offset)
            finally:
                os.close(descriptor)
            entry = json.loads(text)
        except (OSError, ValueError):
            return None
        return entry if is_entry(entry) and entry.get("digest") == digest else None

    def _append_handle(self) -> tuple[int, _Segment]:
        """This process's append descriptor and its segment, opened on first use.

        A writer holds an exclusive ``flock`` on its segment and takes the
        lowest-numbered one no live writer holds, so sequential runs append
        to one segment and a directory has as many segments as it had
        writers at once.  A handle inherited from another pid (a forked
        parent's) or whose file was unlinked (a ``clear`` elsewhere) is
        replaced by a fresh one.
        """
        pid = os.getpid()
        if self._writer is not None and self._writer[0] == pid:
            if os.fstat(self._writer[1]).st_nlink:
                return self._writer[1], self._writer[2]
        self._drop_writer()
        import fcntl

        number = 0
        while True:
            name = f"{_SEGMENT_PREFIX}{number}{_SEGMENT_SUFFIX}"
            descriptor = os.open(
                os.path.join(self._directory, name), os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644
            )
            try:
                try:
                    fcntl.flock(descriptor, fcntl.LOCK_EX | fcntl.LOCK_NB)
                except BlockingIOError:
                    os.close(descriptor)
                    number += 1
                    continue
                status = os.fstat(descriptor)
                if not status.st_nlink:
                    # Unlinked by a ``clear`` between the open and the lock.
                    os.close(descriptor)
                    continue
                # A writer that held this segment may have died in mid-line:
                # end that line so this process's first one starts on its own.
                if status.st_size and os.pread(descriptor, 1, status.st_size - 1) != b"\n":
                    os.write(descriptor, b"\n")
                segment = self._track(name, status.st_ino)
            except BaseException:
                os.close(descriptor)
                raise
            self._writer = (pid, descriptor, segment)
            return descriptor, segment

    def _drop_writer(self) -> None:
        if self._writer is not None:
            descriptor, self._writer = self._writer[1], None
            try:
                os.close(descriptor)
            except OSError:
                pass

    def _track(self, name: str, inode: int) -> _Segment:
        """The state of segment ``name``, started afresh if the file was replaced."""
        segment = self._segments.get(name)
        if segment is not None and segment.inode != inode:
            self._forget(segment)
            segment = None
        if segment is None:
            segment = self._segments[name] = _Segment(name, inode)
        return segment

    def _forget(self, segment: _Segment) -> None:
        """Drop a segment that vanished or was replaced, and unindex its lines."""
        del self._segments[segment.name]
        self._index = {
            digest: location for digest, location in self._index.items()
            if location[0] != segment.name
        }

    def _refresh(self) -> int:
        """Index the lines the segments gained since the last refresh.

        One ``scandir`` of the root and one ``stat`` per segment; a segment
        that vanished is forgotten.  Returns the segments' total bytes.
        """
        seen = set()
        total_bytes = 0
        with os.scandir(self._directory) as items:
            for item in items:
                name = item.name
                if not (name.startswith(_SEGMENT_PREFIX) and name.endswith(_SEGMENT_SUFFIX)):
                    continue
                try:
                    status = item.stat()
                except OSError:
                    continue
                seen.add(name)
                total_bytes += status.st_size
                segment = self._track(name, status.st_ino)
                if status.st_size < segment.indexed:
                    # Truncated in place: index it again from the start.
                    self._forget(segment)
                    segment = self._track(name, status.st_ino)
                if status.st_size > segment.indexed:
                    try:
                        self._scan(segment, status.st_size)
                    except OSError:
                        continue
        for name in self._segments.keys() - seen:
            self._forget(self._segments[name])
        return total_bytes

    def _scan(self, segment: _Segment, size: int) -> None:
        """Index ``segment``'s complete lines between its indexed mark and ``size``.

        The file is read in blocks of :data:`_BLOCK` bytes, and only the
        first :data:`_HEAD` bytes of a line that spans blocks are carried, so
        a refresh holds one block however large the segment or its lines.  A
        last line without its newline -- torn, or still being written --
        stays unindexed until a later refresh finds it complete.
        """
        descriptor = os.open(os.path.join(self._directory, segment.name), os.O_RDONLY)
        try:
            if os.fstat(descriptor).st_ino != segment.inode:
                return  # replaced since the stat: the next refresh sees it
            index = self._index
            name = segment.name
            line_start = position = segment.indexed
            head = b""  # the start of a line begun in an earlier block
            while position < size:
                block = os.pread(descriptor, min(_BLOCK, size - position), position)
                if not block:
                    break
                start = 0
                end = block.find(b"\n")
                if end >= 0 and head:
                    # The line begun in an earlier block ends in this one.
                    head += block[:min(end, _HEAD)]
                    space = head.find(b" ", 0, _HEAD)
                    if space > 0:
                        value = line_start + space + 1
                        index[head[:space].decode("utf-8", "replace")] = (
                            name, value, position + end - value
                        )
                    start = end + 1
                    end = block.find(b"\n", start)
                while end >= 0:
                    space = block.find(b" ", start, start + _HEAD)
                    if start < space < end:
                        index[block[start:space].decode("utf-8", "replace")] = (
                            name, position + space + 1, end - space - 1
                        )
                    start = end + 1
                    end = block.find(b"\n", start)
                if start or not head:
                    line_start = position + start
                    head = block[start:start + _HEAD]
                else:
                    head += block[:max(0, _HEAD - len(head))]
                position += len(block)
            segment.indexed = line_start
        finally:
            os.close(descriptor)
