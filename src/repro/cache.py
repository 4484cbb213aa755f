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

Entries are one JSON file per digest, sharded by the first two hex digits,
written atomically (temp file + ``os.replace``) so parallel writers and
crashed runs never leave a corrupt entry behind.

The study runner and the evaluation service both use this module;
:mod:`repro.studies` re-exports its public names.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

__all__ = [
    "CACHE_FORMAT_VERSION",
    "ResultCache",
    "canonical_json",
    "payload_digest",
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


class ResultCache:
    """A directory of content-addressed per-evaluation result records."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, digest: str) -> Path:
        """Where the entry for ``digest`` lives (whether or not it exists)."""
        return self.root / digest[:2] / f"{digest}.json"

    def load(self, digest: str) -> dict | None:
        """Return the cached entry, or ``None`` on miss / unreadable entry.

        A file that parses but is not an entry-shaped object (a truncated or
        foreign JSON document) is also treated as a miss, so a damaged cache
        degrades to recomputation rather than crashing the caller.
        """
        from repro import telemetry

        path = self.path_for(digest)
        with telemetry.span("cache.read", digest=digest[:12]) as read_span:
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    entry = json.load(handle)
            except (OSError, json.JSONDecodeError):
                read_span.set(hit=False)
                return None
            if not isinstance(entry, dict) or not isinstance(entry.get("metrics"), dict):
                read_span.set(hit=False)
                return None
            read_span.set(hit=True)
            return entry

    def store(self, digest: str, entry: dict) -> None:
        """Atomically write ``entry`` under ``digest``."""
        import tempfile

        from repro import telemetry

        with telemetry.span("cache.write", digest=digest[:12]):
            path = self.path_for(digest)
            path.parent.mkdir(parents=True, exist_ok=True)
            descriptor, temp_name = tempfile.mkstemp(
                dir=path.parent, prefix=f".{digest[:8]}-", suffix=".tmp"
            )
            try:
                with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                    handle.write(json.dumps(entry, sort_keys=True))
                os.replace(temp_name, path)
            except BaseException:
                try:
                    os.unlink(temp_name)
                except OSError:
                    pass
                raise

    def info(self) -> dict:
        """Inspect the cache: entry count, total bytes and resolved path.

        Walks the shard directories once; stray non-entry files (editor
        backups, the temp files of a crashed write) are not counted as
        entries but their bytes are included, since they occupy the
        directory either way.
        """
        entries = 0
        total_bytes = 0
        for path in self.root.glob("*/*"):
            if not path.is_file():
                continue
            try:
                total_bytes += path.stat().st_size
            except OSError:
                continue
            if path.suffix == ".json":
                entries += 1
        return {
            "path": str(self.root.resolve()),
            "entries": entries,
            "bytes": total_bytes,
        }

    def clear(self) -> int:
        """Delete every cache entry; returns the number of entries removed.

        Only entry files and their (now empty) shard directories are
        removed -- the cache root itself and any foreign files in it are
        left alone, so pointing the CLI at the wrong directory cannot
        destroy anything but cache entries.
        """
        removed = 0
        for shard in sorted(self.root.glob("*")):
            if not shard.is_dir() or len(shard.name) != 2:
                continue
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

    def __contains__(self, digest: str) -> bool:
        return self.path_for(digest).is_file()

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.json"))
