"""Tests for the content-addressed result cache."""

from __future__ import annotations

import json

import pytest

from repro.cache import is_entry
from repro.studies import ResultCache, canonical_json, payload_digest


class TestCanonicalJson:
    def test_key_order_does_not_matter(self):
        assert canonical_json({"a": 1, "b": 2}) == canonical_json({"b": 2, "a": 1})

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})

    def test_float_representation_is_stable(self):
        value = 0.1 + 0.2  # not exactly 0.3
        assert canonical_json({"x": value}) == canonical_json({"x": value})
        assert canonical_json({"x": value}) != canonical_json({"x": 0.3})


class TestPayloadDigest:
    def test_equal_payloads_equal_digests(self):
        a = {"params": {"n": 10, "p_scale": 0.5}, "method": {"name": "moments"}}
        b = {"method": {"name": "moments"}, "params": {"p_scale": 0.5, "n": 10}}
        assert payload_digest(a) == payload_digest(b)

    def test_any_change_changes_digest(self):
        base = {"params": {"n": 10}, "method": {"name": "moments"}, "entropy": 1}
        assert payload_digest(base) != payload_digest({**base, "entropy": 2})
        assert payload_digest(base) != payload_digest({**base, "params": {"n": 11}})


def _segment_lines(root) -> list[bytes]:
    """Every line of every segment under ``root``, newline included."""
    return [
        line
        for path in sorted(root.glob("segment-*.log"))
        for line in path.read_bytes().splitlines(keepends=True)
    ]


def _overwrite_entry(root, digest: str, text: str) -> None:
    """Make the one segment under ``root`` hold ``text`` as ``digest``'s entry."""
    [segment] = root.glob("segment-*.log")
    segment.write_text(f"{digest} {text}\n", encoding="utf-8")


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        digest = payload_digest({"x": 1})
        assert cache.load(digest) is None
        assert cache.info()["entries"] == 0
        cache.store(digest, {}, {"mean": 0.25})
        assert cache.load(digest)["metrics"] == {"mean": 0.25}
        assert ResultCache(tmp_path / "cache").load(digest)["metrics"] == {"mean": 0.25}
        assert cache.info()["entries"] == 1

    def test_entries_are_lines_of_one_segment_per_process(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        digests = [payload_digest({"y": index}) for index in range(3)]
        for digest in digests:
            cache.store(digest, {}, {})
        assert [path.name for path in (tmp_path / "cache").iterdir()] == ["segment-0.log"]
        lines = _segment_lines(tmp_path / "cache")
        assert [line.split(b" ", 1)[0].decode() for line in lines] == digests

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        digest = payload_digest({"z": 3})
        cache.store(digest, {}, {})
        _overwrite_entry(tmp_path / "cache", digest, "{not json")
        assert cache.load(digest) is None
        assert ResultCache(tmp_path / "cache").load(digest) is None

    def test_wrong_shaped_entry_is_a_miss(self, tmp_path):
        # Valid JSON that is not an entry (foreign file, truncated write)
        # must degrade to recomputation, not crash the runner.
        cache = ResultCache(tmp_path / "cache")
        digest = payload_digest({"z": 4})
        cache.store(digest, {}, {})
        for text in ('["oops"]', '{"payload": {}}'):  # the second has no metrics
            _overwrite_entry(tmp_path / "cache", digest, text)
            assert cache.load(digest) is None
            assert ResultCache(tmp_path / "cache").load(digest) is None

    def test_store_appends_and_leaves_no_temp_file(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        digest = payload_digest({"w": 4})
        cache.store(digest, {}, {"a": 1})
        cache.store(digest, {}, {"a": 2})  # overwrite
        assert cache.load(digest)["metrics"] == {"a": 2}
        leftovers = [p for p in (tmp_path / "cache").rglob("*") if p.suffix == ".tmp"]
        assert leftovers == []
        assert len(_segment_lines(tmp_path / "cache")) == 2

    def test_stored_entries_are_valid_json(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        digest = payload_digest({"v": 5})
        cache.store(digest, {}, {"x": 1.5})
        [line] = _segment_lines(tmp_path / "cache")
        assert json.loads(line.split(b" ", 1)[1])["metrics"]["x"] == 1.5

    def test_stored_bytes_are_sorted_key_json(self, tmp_path):
        # The on-disk format: the digest, a space, exactly
        # json.dumps(entry, sort_keys=True) and a newline.
        cache = ResultCache(tmp_path / "cache")
        digest = payload_digest({"u": 6})
        payload = {
            "model": {"names": ["Ärger", "故障"], "p": [0.5, 1e-17]},
            "options": {"level": 0.99, "nested": {"b": 1, "a": [None, -0.0]}},
        }
        metrics = {"mean": 0.1 + 0.2, "tiny": 5e-324, "missing": None}
        cache.store(digest, payload, metrics)
        [line] = _segment_lines(tmp_path / "cache")
        entry = {"metrics": metrics, "payload": payload, "digest": digest}
        assert line == f"{digest} {json.dumps(entry, sort_keys=True)}\n".encode("utf-8")
        assert cache.load(digest) == entry
        assert ResultCache(tmp_path / "cache").load(digest) == entry


class TestIsEntry:
    def test_an_entry_is_an_object_with_a_metrics_object(self):
        assert is_entry({"metrics": {}})
        assert is_entry({"digest": "ab", "payload": {}, "metrics": {"x": 1.0}})

    @pytest.mark.parametrize(
        "value", [None, [], ["oops"], {}, {"payload": {}}, {"metrics": None}, {"metrics": [1]}]
    )
    def test_anything_else_is_not(self, value):
        assert not is_entry(value)
