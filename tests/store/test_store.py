"""Unit tests for the persistent verdict store (`repro.store`).

The store's contract is resilience-first: whatever is on disk — a valid
database, garbage bytes, a newer schema, rows from another checker, files
of the older segment format — opening and probing must degrade to a
smaller cache, never raise.  These tests exercise that contract, the
failure seam, plus the maintenance verbs behind ``python -m repro cache``.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.store import (
    NO_PREFIX_FP,
    STORE_SCHEMA_VERSION,
    StoredVerdict,
    VerdictStore,
    checker_fingerprint,
    key_digest,
    prefix_fingerprint,
)
from repro.store.verdicts import DB_NAME, FLUSH_EVERY

KEY_A = ("Let", ("Var", "x"), ("Lit", 1))
KEY_B = ("Let", ("Var", "y"), ("Lit", 2))
KEY_C = ("App", ("Var", "f"), ("Lit", True))


def _raw(store_dir):
    """A plain sqlite3 connection to a store's database (autocommit)."""
    return sqlite3.connect(store_dir / DB_NAME, isolation_level=None)


def _last_used(store_dir, key):
    with _raw(store_dir) as db:
        return db.execute(
            "SELECT last_used FROM verdicts WHERE key = ?", (key_digest(key),)
        ).fetchone()[0]


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
        assert len(store) == 1

    def test_survives_reopen(self, tmp_path):
        with VerdictStore(tmp_path / "s") as store:
            store.put(NO_PREFIX_FP, KEY_A, True, "full")
            store.put("deadbeef", KEY_B, False, "reused", err="no")
        again = VerdictStore(tmp_path / "s")
        assert len(again) == 2
        assert again.get(NO_PREFIX_FP, KEY_A).ok is True
        reused = again.get("deadbeef", KEY_B)
        assert (reused.ok, reused.kind, reused.err) == (False, "reused", "no")
        with _raw(tmp_path / "s") as db:
            assert db.execute("PRAGMA user_version").fetchone()[0] \
                == STORE_SCHEMA_VERSION
            assert db.execute("PRAGMA journal_mode").fetchone()[0] == "wal"

    def test_prefix_regime_partitions_entries(self, tmp_path):
        store = VerdictStore(tmp_path / "s")
        store.put(NO_PREFIX_FP, KEY_A, True, "full")
        assert store.get("otherprefix", KEY_A) is None

    def test_put_refuses_non_storable_kinds(self, tmp_path):
        store = VerdictStore(tmp_path / "s")
        assert not store.put(NO_PREFIX_FP, KEY_A, False, "crash")
        assert not store.put(NO_PREFIX_FP, KEY_A, False, "fallback")
        assert len(store) == 0
        assert store.flush() == 0

    def test_put_refuses_duplicates(self, tmp_path):
        store = VerdictStore(tmp_path / "s")
        assert store.put(NO_PREFIX_FP, KEY_A, True, "full")
        assert not store.put(NO_PREFIX_FP, KEY_A, True, "full")
        assert store.flush() == 1

    def test_read_only_never_writes(self, tmp_path):
        (tmp_path / "s").mkdir()
        store = VerdictStore(tmp_path / "s", read_only=True)
        assert not store.put(NO_PREFIX_FP, KEY_A, True, "full")
        store.close()
        assert list((tmp_path / "s").iterdir()) == []

    def test_read_only_missing_directory_degrades(self, tmp_path):
        store = VerdictStore(tmp_path / "absent", read_only=True)
        assert store.get(NO_PREFIX_FP, KEY_A) is None
        store.close()
        assert not (tmp_path / "absent").exists()  # created nothing
        assert store.io_errors == 0

    def test_flush_every_publishes_automatically(self, tmp_path):
        store = VerdictStore(tmp_path / "s")
        reader = VerdictStore(tmp_path / "s")
        for i in range(FLUSH_EVERY - 1):
            store.put(NO_PREFIX_FP, ("k", i), True, "full")
        assert len(reader) == 0  # still buffered
        store.put(NO_PREFIX_FP, ("k", FLUSH_EVERY), True, "full")
        assert len(reader) == FLUSH_EVERY

    def test_empty_path_is_refused(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValueError):
            VerdictStore("")
        assert list(tmp_path.iterdir()) == []


class TestCorruptionDegrades:
    """Unusable database files disable the store; they never raise."""

    @pytest.fixture
    def populated(self, tmp_path):
        with VerdictStore(tmp_path / "s") as store:
            store.put(NO_PREFIX_FP, KEY_A, True, "full")
            store.put(NO_PREFIX_FP, KEY_B, False, "full", err="no")
        return tmp_path / "s"

    def test_garbage_file_disables_the_store(self, tmp_path):
        store_dir = tmp_path / "s"
        store_dir.mkdir()
        garbage = bytes(range(256)) * 64
        (store_dir / DB_NAME).write_bytes(garbage)
        store = VerdictStore(store_dir)
        assert store.io_errors == 1
        assert store.get(NO_PREFIX_FP, KEY_A) is None
        assert not store.put(NO_PREFIX_FP, KEY_A, True, "full")
        store.close()
        assert (store_dir / DB_NAME).read_bytes() == garbage

    def test_future_schema_version_disables_the_store(self, populated):
        with _raw(populated) as db:
            db.execute(f"PRAGMA user_version = {STORE_SCHEMA_VERSION + 1}")
        before = (populated / DB_NAME).read_bytes()
        store = VerdictStore(populated)
        assert store.io_errors == 1
        assert store.get(NO_PREFIX_FP, KEY_A) is None  # never read
        assert not store.put(NO_PREFIX_FP, KEY_C, True, "full")
        store.close()
        assert store.compact() == {
            "removed_entries": 0, "remaining_entries": 0, "remaining_bytes": 0,
        }
        assert (populated / DB_NAME).read_bytes() == before  # never written

    def test_tmp_files_ignored(self, populated):
        """Leftovers of the older JSONL segment format are ignored."""
        (populated / ".tmp-999-1").write_text('{"p": "torn')
        (populated / "seg-0000000000000-1-1.jsonl").write_text("garbage\n")
        (populated / "hits").mkdir()
        (populated / "hits" / "seg-0000000000000-1-1.jsonl").write_text("1\n")
        store = VerdictStore(populated)
        assert len(store) == 2
        assert store.io_errors == 0
        assert store.clear() == 2
        store.close()
        assert (populated / ".tmp-999-1").exists()


class TestInvalidation:
    def _write_stale_rows(self, store_dir, n=3):
        VerdictStore(store_dir).close()
        with _raw(store_dir) as db:
            db.executemany(
                "INSERT INTO verdicts VALUES (?, ?, ?, 1, 'full', NULL, NULL, 0)",
                [("0" * 32, NO_PREFIX_FP, f"{i:032d}") for i in range(n)],
            )

    def test_stale_checker_entries_not_indexed(self, tmp_path):
        self._write_stale_rows(tmp_path / "s")
        store = VerdictStore(tmp_path / "s")
        assert len(store) == 0
        assert store.invalidated == 3

    def test_take_invalidated_reports_once(self, tmp_path):
        self._write_stale_rows(tmp_path / "s")
        store = VerdictStore(tmp_path / "s")
        assert store.take_invalidated() == 3
        assert store.take_invalidated() == 0

    def test_compact_deletes_stale_rows(self, tmp_path):
        self._write_stale_rows(tmp_path / "s")
        with VerdictStore(tmp_path / "s") as store:
            store.put(NO_PREFIX_FP, KEY_A, True, "full")
        summary = VerdictStore(tmp_path / "s").compact()
        assert summary["removed_entries"] == 3
        assert summary["remaining_entries"] == 1
        fresh = VerdictStore(tmp_path / "s")
        assert fresh.invalidated == 0
        assert len(fresh) == 1


class TestRefresh:
    """An open store needs no refresh step: every probe reads what any
    process has committed, and hits are recorded as last-used times."""

    def test_verdict_flushed_by_one_store_served_by_another(self, tmp_path):
        writer = VerdictStore(tmp_path / "s")
        reader = VerdictStore(tmp_path / "s")
        writer.put(NO_PREFIX_FP, KEY_A, True, "full")
        assert reader.get(NO_PREFIX_FP, KEY_A) is None
        assert writer.flush() == 1
        entry = reader.get(NO_PREFIX_FP, KEY_A)
        assert entry is not None and entry.ok

    def test_own_published_verdicts_record_hits(self, tmp_path):
        clock = iter([10.0, 20.0])
        store = VerdictStore(tmp_path / "s", clock=lambda: next(clock))
        store.put(NO_PREFIX_FP, KEY_A, True, "full")
        store.flush()
        assert _last_used(tmp_path / "s", KEY_A) == 10.0
        assert store.get(NO_PREFIX_FP, KEY_A) is not None
        store.flush()
        assert _last_used(tmp_path / "s", KEY_A) == 20.0

    def test_flush_records_hits_without_pending_writes(self, tmp_path):
        with VerdictStore(tmp_path / "s", clock=lambda: 1.0) as seed:
            seed.put(NO_PREFIX_FP, KEY_A, True, "full")
        store = VerdictStore(tmp_path / "s", clock=lambda: 5.0)
        assert store.get(NO_PREFIX_FP, KEY_A) is not None
        assert store.flush() == 0  # nothing new to commit
        assert _last_used(tmp_path / "s", KEY_A) == 5.0


class FailingSql(VerdictStore):
    """Fails every SQL statement that mentions ``fail_on``, once open."""

    def __init__(self, path, fail_on=None, **kwargs):
        self.fail_on = None
        super().__init__(path, **kwargs)
        self.fail_on = fail_on

    def _sql(self, statement, *params):
        if self.fail_on and self.fail_on in statement:
            raise sqlite3.OperationalError("injected failure")
        return super()._sql(statement, *params)


class TestIoErrors:
    def test_failed_probe_is_a_miss(self, tmp_path):
        with VerdictStore(tmp_path / "s") as seed:
            seed.put(NO_PREFIX_FP, KEY_A, True, "full")
        store = FailingSql(tmp_path / "s", fail_on="SELECT ok")
        assert store.get(NO_PREFIX_FP, KEY_A) is None
        assert store.io_errors == 1
        store.fail_on = None  # the disk has recovered
        assert store.get(NO_PREFIX_FP, KEY_A) is not None

    def test_failed_flush_rolls_back_and_drops_the_buffer(self, tmp_path):
        store = FailingSql(tmp_path / "s", fail_on="UPDATE")
        store.put(NO_PREFIX_FP, KEY_A, True, "full")
        store.flush()
        store.put(NO_PREFIX_FP, KEY_B, True, "full")
        assert store.get(NO_PREFIX_FP, KEY_A) is not None  # a hit to record
        assert store.flush() == 0  # the UPDATE failed after the INSERT
        assert store.io_errors == 1
        assert store.get(NO_PREFIX_FP, KEY_B) is None  # buffer dropped
        store.fail_on = None
        store.close()
        with _raw(tmp_path / "s") as db:  # the INSERT was rolled back too
            assert db.execute("SELECT count(*) FROM verdicts").fetchone() == (1,)

    def test_take_io_errors_returns_and_zeroes(self, tmp_path):
        store = FailingSql(tmp_path / "s", fail_on="SELECT ok")
        store.get(NO_PREFIX_FP, KEY_A)
        assert store.take_io_errors() == 1
        assert store.take_io_errors() == 0

    def test_oracle_drains_io_errors_into_metrics_and_events(self, tmp_path):
        from repro.core import Oracle
        from repro.miniml.parser import parse_program
        from repro.obs import MetricsRegistry

        events = []

        class Recorder:
            enabled = True

            def emit(self, type, **fields):
                events.append((type, fields))

        registry = MetricsRegistry()
        store = FailingSql(tmp_path / "s", fail_on="SELECT ok")
        oracle = Oracle(metrics=registry, events=Recorder())
        oracle.attach_store(store)
        oracle.check(parse_program("let x = 1"))
        store.close()
        assert registry.value("oracle.store.io_errors") == 1
        assert ("store_io_error", {"errors": 1}) in events


class TestCompaction:
    def test_size_cap_evicts_least_recently_hit(self, tmp_path):
        now = [0.0]
        store = VerdictStore(tmp_path / "s", clock=lambda: now[0])
        for i in range(300):
            store.put(NO_PREFIX_FP, ("k", i), True, "full", err="x" * 100)
        store.flush()
        # Hit the oldest third afterwards: hit rows must outlive the rest.
        now[0] = 1.0
        for i in range(100):
            assert store.get(NO_PREFIX_FP, ("k", i)) is not None
        store.close()

        survivor = VerdictStore(tmp_path / "s")
        cap = survivor.stats().bytes // 2
        summary = survivor.compact(max_bytes=cap)
        assert 100 <= summary["remaining_entries"] < 300
        assert summary["remaining_bytes"] <= cap
        assert summary["removed_entries"] + summary["remaining_entries"] == 300
        kept = {i for i in range(300)
                if survivor.get(NO_PREFIX_FP, ("k", i)) is not None}
        assert set(range(100)) <= kept  # every hit row survived

    def test_clear_removes_everything(self, tmp_path):
        with VerdictStore(tmp_path / "s") as store:
            store.put(NO_PREFIX_FP, KEY_A, True, "full")
            store.put(NO_PREFIX_FP, KEY_B, True, "full")
        store = VerdictStore(tmp_path / "s")
        assert store.clear() == 2
        assert len(store) == 0
        again = VerdictStore(tmp_path / "s")
        assert len(again) == 0


class TestStats:
    def test_stats_counts_entries_and_bytes(self, tmp_path):
        with VerdictStore(tmp_path / "s") as store:
            store.put(NO_PREFIX_FP, KEY_A, True, "full")
            store.put(NO_PREFIX_FP, KEY_B, False, "full", err="no")
        stats = VerdictStore(tmp_path / "s", read_only=True).stats()
        assert stats.entries == 2
        assert stats.invalidated == 0
        assert stats.bytes > 0
        assert stats.io_errors == 0
