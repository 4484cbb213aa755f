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

Entries live in one append-only log per cache directory, ``segment-0.log``
under the cache root, after Bitcask (Sheehy & Smith, Basho, 2010).  An
entry is one line, ``<digest> <json.dumps(entry, sort_keys=True)>`` and a
newline.  Every writer appends to the same log: a process opens it once
(a forked child opens its own), and each :meth:`ResultCache.store` takes an
exclusive ``flock``, reopens the log if a ``clear`` elsewhere unlinked it,
ends a line torn by a writer killed in mid-write, writes its line in one
``os.write`` and lets go.

A reader keeps an in-memory index from digest to (offset, length) and
refreshes it only on a miss, with one ``stat`` of the log: a missing log
empties the index, a new inode or a shorter file is indexed again from the
start, and a longer one has only its new bytes read, in blocks of
:data:`_BLOCK` bytes.  It holds no descriptor: a hit opens, reads and
closes the log, and a hit whose line no longer reads (a ``clear``
elsewhere) refreshes like a miss.  So a study and ``repro serve
--cache-dir`` sharing a directory each serve the other's entries after a
miss.  A line without its newline (a writer killed in mid-write) is not
indexed, and a line that does not parse, fails :func:`is_entry` or names
another digest is a miss, so a damaged cache degrades to recomputation.
The later of two lines for a digest wins.

Two earlier layouts read as misses: the other ``segment-<n>.log`` files of
the one-segment-per-live-writer layout, and the one-file-per-entry layout
(``xx/<digest>.json``).  :meth:`ResultCache.info` counts their bytes (and
the entry files) and :meth:`ResultCache.clear` removes them.

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


#: Every writer appends to this one log under the cache root.
_LOG = "segment-0.log"
#: A refresh reads the log in blocks of this many bytes.
_BLOCK = 1 << 20
#: Bytes of a line's start kept across blocks: its digest and the space after.
_HEAD = 128


class ResultCache:
    """A directory of content-addressed evaluation entries in one append-only log.

    One instance may be shared by threads (the service's I/O threads share
    its disk tier): a lock covers the index and the writer.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._path = os.path.join(os.fspath(self.root), _LOG)
        self._lock = threading.Lock()
        #: digest -> (offset, length) of its entry's JSON text in the log.
        self._index: dict[str, tuple[int, int]] = {}
        #: The indexed log's inode and how many of its bytes are indexed.
        self._inode: int | None = None
        self._indexed = 0
        #: (pid, descriptor) of this process's append handle.
        self._writer: tuple[int, int] | None = None

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
        the digest and a space, as one line of the log, under its ``flock``."""
        import fcntl

        from repro import telemetry

        with telemetry.span("cache.write", digest=digest[:12]):
            text = json.dumps(
                {"digest": digest, "payload": payload, "metrics": metrics}, sort_keys=True
            ).encode("utf-8")
            line = b"%s %s\n" % (digest.encode("utf-8"), text)
            with self._lock:
                try:
                    while True:
                        descriptor = self._append_handle()
                        fcntl.flock(descriptor, fcntl.LOCK_EX)
                        status = os.fstat(descriptor)
                        if status.st_nlink:
                            break
                        # Unlinked by a ``clear`` elsewhere: append to a new log.
                        self._drop_writer()
                    size = status.st_size
                    if not size:
                        # Nothing indexed can point into an empty log.
                        self._index, self._inode, self._indexed = {}, status.st_ino, 0
                    # The indexed mark sits after a newline; anywhere else a
                    # writer may have died in mid-line: end that line so
                    # this one starts on its own.
                    caught_up = self._inode == status.st_ino and self._indexed == size
                    if not caught_up and os.pread(descriptor, 1, size - 1) != b"\n":
                        os.write(descriptor, b"\n")
                    if os.write(descriptor, line) != len(line):
                        raise OSError(f"short write to {_LOG}")
                    end = os.lseek(descriptor, 0, os.SEEK_CUR)
                    fcntl.flock(descriptor, fcntl.LOCK_UN)
                except BaseException:
                    # Closing lets go of the lock; the next store reopens.
                    self._drop_writer()
                    raise
                if caught_up:
                    self._indexed = end
                self._index[digest] = (end - len(text) - 1, len(text))

    def info(self) -> dict:
        """Inspect the cache: entry count, total bytes and resolved path.

        Entries are the distinct digests in the log plus any files of the
        one-file-per-entry layout (never served, but :meth:`clear` removes
        them).  Bytes include the other segments of the
        one-segment-per-writer layout and stray files in the entry files'
        shard directories, which occupy the directory either way.
        """
        with self._lock:
            total_bytes = self._refresh()
            entries = len(self._index)
        shard_files = [path for shard in self._legacy_shards() for path in shard.iterdir()]
        for path in self._old_segments() + shard_files:
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

        Only the log, the other segments of the one-segment-per-writer
        layout and the entry files of the one-file-per-entry layout, with
        their (then empty) shard directories, are removed -- the cache root
        itself and any foreign files in it are left alone, so pointing the
        CLI at the wrong directory cannot destroy anything but cache entries.
        """
        with self._lock:
            self._refresh()
            removed = len(self._index)
            for path in [self._path, *self._old_segments()]:
                try:
                    os.unlink(path)
                except OSError:
                    continue
            self._drop_writer()
            self._index, self._inode, self._indexed = {}, None, 0
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

    def _old_segments(self) -> list[Path]:
        """The segments of the one-segment-per-writer layout other than the log."""
        return [path for path in self.root.glob("segment-*.log") if path.name != _LOG]

    def _legacy_shards(self) -> list[Path]:
        """The two-character shard directories of the one-file-per-entry layout."""
        return [path for path in sorted(self.root.iterdir())
                if len(path.name) == 2 and path.is_dir()]

    def _read(self, digest: str, location: tuple[int, int]) -> dict | None:
        """The entry at ``location`` if it parses, is entry-shaped and names ``digest``."""
        offset, length = location
        try:
            descriptor = os.open(self._path, os.O_RDONLY)
            try:
                text = os.pread(descriptor, length, offset)
            finally:
                os.close(descriptor)
            entry = json.loads(text)
        except (OSError, ValueError):
            return None
        return entry if is_entry(entry) and entry.get("digest") == digest else None

    def _append_handle(self) -> int:
        """This process's append descriptor on the log, opened on first use.

        A descriptor inherited from another pid (a forked parent's) is
        replaced by the child's own, so the two lock the log apart.
        """
        pid = os.getpid()
        if self._writer is None or self._writer[0] != pid:
            self._drop_writer()
            descriptor = os.open(self._path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
            self._writer = (pid, descriptor)
        return self._writer[1]

    def _drop_writer(self) -> None:
        if self._writer is not None:
            descriptor, self._writer = self._writer[1], None
            try:
                os.close(descriptor)
            except OSError:
                pass

    def _refresh(self) -> int:
        """Index the lines the log gained since the last refresh, after one
        ``stat``; returns the log's size."""
        try:
            status = os.stat(self._path)
        except OSError:
            self._index, self._inode, self._indexed = {}, None, 0
            return 0
        if status.st_ino != self._inode or status.st_size < self._indexed:
            # A new log, or one truncated in place: index it from the start.
            self._index, self._inode, self._indexed = {}, status.st_ino, 0
        if status.st_size > self._indexed:
            try:
                self._scan(status.st_size)
            except OSError:
                pass
        return status.st_size

    def _scan(self, size: int) -> None:
        """Index the log's complete lines between its indexed mark and ``size``.

        The file is read in blocks of :data:`_BLOCK` bytes, and only the
        first :data:`_HEAD` bytes of a line that spans blocks are carried, so
        a refresh holds one block however large the log or its lines.  A
        last line without its newline -- torn, or still being written --
        stays unindexed until a later refresh finds it complete.
        """
        descriptor = os.open(self._path, os.O_RDONLY)
        try:
            if os.fstat(descriptor).st_ino != self._inode:
                return  # replaced since the stat: the next refresh sees it
            index = self._index
            line_start = position = self._indexed
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
                            value, position + end - value
                        )
                    start = end + 1
                    end = block.find(b"\n", start)
                while end >= 0:
                    space = block.find(b" ", start, start + _HEAD)
                    if start < space < end:
                        index[block[start:space].decode("utf-8", "replace")] = (
                            position + space + 1, end - space - 1
                        )
                    start = end + 1
                    end = block.find(b"\n", start)
                if start or not head:
                    line_start = position + start
                    head = block[start:start + _HEAD]
                else:
                    head += block[:max(0, _HEAD - len(head))]
                position += len(block)
            self._indexed = line_start
        finally:
            os.close(descriptor)
