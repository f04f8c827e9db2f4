"""Unit tests for the persistent verdict store (`repro.store`).

The store's contract is resilience-first: whatever is on disk — whole
segments, torn tails, stale fingerprints, leftover temp files, garbage —
opening and probing must degrade to a smaller cache, never raise.  These
tests exercise that contract file-by-file, plus the maintenance verbs
behind ``python -m repro cache``.
"""

from __future__ import annotations

import json

import pytest

from repro.store import (
    NO_PREFIX_FP,
    StoredVerdict,
    VerdictStore,
    checker_fingerprint,
    key_digest,
    prefix_fingerprint,
)

KEY_A = ("Let", ("Var", "x"), ("Lit", 1))
KEY_B = ("Let", ("Var", "y"), ("Lit", 2))
KEY_C = ("App", ("Var", "f"), ("Lit", True))


class TestFingerprints:
    def test_checker_fingerprint_is_stable_hex(self):
        fp = checker_fingerprint()
        assert fp == checker_fingerprint()
        assert len(fp) == 32
        int(fp, 16)  # hex digest

    def test_key_digest_distinguishes_programs(self):
        assert key_digest(KEY_A) != key_digest(KEY_B)
        assert key_digest(KEY_A) == key_digest(KEY_A)

    def test_prefix_fingerprint_sentinel(self):
        assert prefix_fingerprint(None) == NO_PREFIX_FP
        assert prefix_fingerprint(()) == NO_PREFIX_FP
        assert prefix_fingerprint([]) == NO_PREFIX_FP

    def test_prefix_fingerprint_depends_on_keys_and_order(self):
        ab = prefix_fingerprint([KEY_A, KEY_B])
        ba = prefix_fingerprint([KEY_B, KEY_A])
        assert ab != NO_PREFIX_FP
        assert ab != ba
        assert ab == prefix_fingerprint((KEY_A, KEY_B))


class TestRoundTrip:
    def test_put_get_same_process(self, tmp_path):
        store = VerdictStore(tmp_path / "s")
        assert store.get(NO_PREFIX_FP, KEY_A) is None  # miss
        assert store.put(NO_PREFIX_FP, KEY_A, False, "full",
                         err="boom", err_kind="mismatch")
        entry = store.get(NO_PREFIX_FP, KEY_A)
        assert entry == StoredVerdict(ok=False, kind="full",
                                      err="boom", err_kind="mismatch")
        assert (store.hits, store.misses, store.writes) == (1, 1, 1)

    def test_survives_reopen(self, tmp_path):
        with VerdictStore(tmp_path / "s") as store:
            store.put(NO_PREFIX_FP, KEY_A, True, "full")
            store.put("deadbeef", KEY_B, False, "reused", err="no")
        again = VerdictStore(tmp_path / "s")
        assert len(again) == 2
        assert again.get(NO_PREFIX_FP, KEY_A).ok is True
        reused = again.get("deadbeef", KEY_B)
        assert (reused.ok, reused.kind, reused.err) == (False, "reused", "no")

    def test_prefix_regime_partitions_entries(self, tmp_path):
        store = VerdictStore(tmp_path / "s")
        store.put(NO_PREFIX_FP, KEY_A, True, "full")
        assert store.get("otherprefix", KEY_A) is None

    def test_put_refuses_non_storable_kinds(self, tmp_path):
        store = VerdictStore(tmp_path / "s")
        assert not store.put(NO_PREFIX_FP, KEY_A, False, "crash")
        assert not store.put(NO_PREFIX_FP, KEY_A, False, "fallback")
        assert store.writes == 0
        assert store.flush() is None

    def test_put_refuses_duplicates(self, tmp_path):
        store = VerdictStore(tmp_path / "s")
        assert store.put(NO_PREFIX_FP, KEY_A, True, "full")
        assert not store.put(NO_PREFIX_FP, KEY_A, True, "full")
        assert store.writes == 1

    def test_read_only_never_writes(self, tmp_path):
        (tmp_path / "s").mkdir()
        store = VerdictStore(tmp_path / "s", read_only=True)
        assert not store.put(NO_PREFIX_FP, KEY_A, True, "full")
        store.close()
        assert list((tmp_path / "s").iterdir()) == []

    def test_read_only_missing_directory_degrades(self, tmp_path):
        store = VerdictStore(tmp_path / "absent", read_only=True)
        assert store.get(NO_PREFIX_FP, KEY_A) is None

    def test_flush_every_publishes_automatically(self, tmp_path):
        store = VerdictStore(tmp_path / "s", flush_every=2)
        store.put(NO_PREFIX_FP, KEY_A, True, "full")
        assert not list((tmp_path / "s").glob("seg-*"))
        store.put(NO_PREFIX_FP, KEY_B, True, "full")
        assert len(list((tmp_path / "s").glob("seg-*"))) == 1


def _segment(store_dir):
    segments = sorted(store_dir.glob("seg-*.jsonl"))
    assert segments, "expected a published segment"
    return segments[0]


class TestCorruptionDegrades:
    """Torn and corrupt files shrink the cache; they never raise."""

    @pytest.fixture
    def populated(self, tmp_path):
        with VerdictStore(tmp_path / "s") as store:
            store.put(NO_PREFIX_FP, KEY_A, True, "full")
            store.put(NO_PREFIX_FP, KEY_B, False, "full", err="no")
        return tmp_path / "s"

    def test_garbage_line_skipped_rest_kept(self, populated):
        seg = _segment(populated)
        seg.write_text(seg.read_text() + "{not json\n")
        store = VerdictStore(populated)
        assert store.skipped_lines == 1
        assert len(store) == 2

    def test_torn_tail_skipped_rest_kept(self, populated):
        seg = _segment(populated)
        text = seg.read_text()
        seg.write_text(text[: len(text) - 10])  # tear the last line
        store = VerdictStore(populated)
        assert store.skipped_lines == 1
        assert store.get(NO_PREFIX_FP, KEY_A) is not None
        assert store.get(NO_PREFIX_FP, KEY_B) is None

    def test_missing_fields_skipped(self, populated):
        seg = _segment(populated)
        seg.write_text(seg.read_text() + json.dumps({"ok": True}) + "\n")
        store = VerdictStore(populated)
        assert store.skipped_lines == 1
        assert len(store) == 2

    def test_garbage_header_skips_segment(self, populated):
        seg = _segment(populated)
        body = seg.read_text().splitlines()
        seg.write_text("\n".join(["garbage header"] + body[1:]) + "\n")
        store = VerdictStore(populated)
        assert store.skipped_segments == 1
        assert len(store) == 0

    def test_future_schema_version_skips_segment(self, populated):
        seg = _segment(populated)
        lines = seg.read_text().splitlines()
        header = json.loads(lines[0])
        header["v"] = 2
        seg.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        store = VerdictStore(populated)
        assert store.skipped_segments == 1
        assert len(store) == 0

    def test_empty_segment_skipped(self, populated):
        (populated / "seg-0000000000000-1-9.jsonl").write_text("")
        store = VerdictStore(populated)
        assert store.skipped_segments == 1
        assert len(store) == 2

    def test_tmp_files_ignored(self, populated):
        (populated / ".tmp-999-1").write_text('{"p": "torn')
        store = VerdictStore(populated)
        assert len(store) == 2
        assert store.skipped_segments == 0


class TestInvalidation:
    def _write_stale_segment(self, store_dir, n=3):
        store_dir.mkdir(parents=True, exist_ok=True)
        lines = [json.dumps({"v": 1, "checker": "0" * 32})]
        for i in range(n):
            lines.append(json.dumps(
                {"p": NO_PREFIX_FP, "k": f"{i:032d}", "ok": True, "kind": "full"}
            ))
        (store_dir / "seg-0000000000000-1-1.jsonl").write_text(
            "\n".join(lines) + "\n"
        )

    def test_stale_checker_entries_not_indexed(self, tmp_path):
        self._write_stale_segment(tmp_path / "s")
        store = VerdictStore(tmp_path / "s")
        assert len(store) == 0
        assert store.invalidated == 3

    def test_take_invalidated_reports_once(self, tmp_path):
        self._write_stale_segment(tmp_path / "s")
        store = VerdictStore(tmp_path / "s")
        assert store.take_invalidated() == 3
        assert store.take_invalidated() == 0

    def test_refresh_does_not_recount_invalidated(self, tmp_path):
        self._write_stale_segment(tmp_path / "s")
        store = VerdictStore(tmp_path / "s")
        store.refresh()
        assert store.invalidated == 3
        assert store.take_invalidated() == 3
        store.refresh()
        assert store.take_invalidated() == 0

    def test_compact_deletes_stale_segments(self, tmp_path):
        self._write_stale_segment(tmp_path / "s")
        with VerdictStore(tmp_path / "s") as store:
            store.put(NO_PREFIX_FP, KEY_A, True, "full")
        summary = VerdictStore(tmp_path / "s").compact()
        assert summary["removed_segments"] == 1
        assert summary["remaining_segments"] == 1
        fresh = VerdictStore(tmp_path / "s")
        assert fresh.invalidated == 0
        assert len(fresh) == 1


class CountingReads(VerdictStore):
    """Records the name of every segment the store reads."""

    def __init__(self, path, **kwargs):
        self.reads = []
        super().__init__(path, **kwargs)

    def _read_segment_text(self, segment):
        self.reads.append(segment.name)
        return super()._read_segment_text(segment)


class TestRefresh:
    """One open store per process: ``refresh`` loads only new segments."""

    def test_verdict_flushed_by_one_store_served_by_another(self, tmp_path):
        writer = VerdictStore(tmp_path / "s")
        reader = VerdictStore(tmp_path / "s")
        writer.put(NO_PREFIX_FP, KEY_A, True, "full")
        published = writer.flush()
        assert reader.get(NO_PREFIX_FP, KEY_A) is None
        reader.refresh()
        entry = reader.get(NO_PREFIX_FP, KEY_A)
        assert entry is not None and entry.ok
        assert entry.segment == published

    def test_each_segment_is_read_once(self, tmp_path):
        writer = CountingReads(tmp_path / "s")
        reader = CountingReads(tmp_path / "s")
        writer.put(NO_PREFIX_FP, KEY_A, True, "full")
        published = writer.flush()
        writer.refresh()
        assert writer.reads == []  # its own segment counts as seen
        reader.refresh()
        reader.refresh()
        assert reader.reads == [published]

    def test_corrupt_segment_stays_skipped(self, tmp_path):
        store_dir = tmp_path / "s"
        store_dir.mkdir()
        (store_dir / "seg-0000000000000-1-1.jsonl").write_text("garbage\n")
        store = CountingReads(store_dir)
        store.refresh()
        assert store.skipped_segments == 1
        assert len(store.reads) == 1

    def test_own_published_verdicts_record_hits(self, tmp_path):
        store = VerdictStore(tmp_path / "s")
        store.put(NO_PREFIX_FP, KEY_A, True, "full")
        published = store.flush()
        assert store.get(NO_PREFIX_FP, KEY_A).segment == published
        store.flush()
        assert (tmp_path / "s" / "hits" / published).exists()

    def test_flush_writes_hit_markers_without_pending_writes(self, tmp_path):
        with VerdictStore(tmp_path / "s") as seed:
            seed.put(NO_PREFIX_FP, KEY_A, True, "full")
        store = VerdictStore(tmp_path / "s")
        segment = store.get(NO_PREFIX_FP, KEY_A).segment
        assert store.flush() is None  # nothing to publish
        assert (tmp_path / "s" / "hits" / segment).exists()


class TestCompaction:
    def test_compact_drops_tmp_files(self, tmp_path):
        with VerdictStore(tmp_path / "s") as store:
            store.put(NO_PREFIX_FP, KEY_A, True, "full")
        (tmp_path / "s" / ".tmp-4242-7").write_text("half a segm")
        summary = VerdictStore(tmp_path / "s").compact()
        assert summary["removed_tmp"] == 1
        assert summary["remaining_segments"] == 1

    def test_size_cap_evicts_least_recently_hit(self, tmp_path):
        import time

        store = VerdictStore(tmp_path / "s")
        for key in (KEY_A, KEY_B, KEY_C):
            store.put(NO_PREFIX_FP, key, True, "full")
            store.flush()
            time.sleep(0.01)  # distinct segment mtimes
        store.close()
        # Hit the *oldest* segment from a fresh reader so recency inverts
        # written order: its marker stamp (now) beats the younger
        # segments' mtimes.
        reader = VerdictStore(tmp_path / "s")
        reader.get(NO_PREFIX_FP, KEY_A)
        reader.close()
        time.sleep(0.01)

        survivor = VerdictStore(tmp_path / "s")
        seg_a = survivor.get(NO_PREFIX_FP, KEY_A).segment
        one_size = max(
            p.stat().st_size for p in (tmp_path / "s").glob("seg-*.jsonl")
        )
        summary = survivor.compact(max_bytes=one_size)
        assert summary["removed_segments"] == 2
        assert summary["remaining_bytes"] <= one_size
        remaining = [p.name for p in (tmp_path / "s").glob("seg-*.jsonl")]
        assert remaining == [seg_a]  # the hit segment survived

    def test_clear_removes_everything(self, tmp_path):
        with VerdictStore(tmp_path / "s") as store:
            store.put(NO_PREFIX_FP, KEY_A, True, "full")
            store.get(NO_PREFIX_FP, KEY_A)
        (tmp_path / "s" / ".tmp-1-1").write_text("x")
        store = VerdictStore(tmp_path / "s")
        assert store.clear() >= 2
        assert len(store) == 0
        assert not list((tmp_path / "s").glob("seg-*"))
        again = VerdictStore(tmp_path / "s")
        assert len(again) == 0


class TestStats:
    def test_stats_counts_segments_and_entries(self, tmp_path):
        with VerdictStore(tmp_path / "s") as store:
            store.put(NO_PREFIX_FP, KEY_A, True, "full")
            store.put(NO_PREFIX_FP, KEY_B, False, "full", err="no")
        (tmp_path / "s" / ".tmp-1-1").write_text("x")
        stats = VerdictStore(tmp_path / "s").stats()
        assert stats.segments == 1
        assert stats.entries == 2
        assert stats.bytes > 0
        assert stats.tmp_files == 1
        assert stats.per_segment[0][1] == 2
        as_dict = stats.as_dict()
        assert as_dict["entries"] == 2
        assert as_dict["per_segment"][0]["entries"] == 2
