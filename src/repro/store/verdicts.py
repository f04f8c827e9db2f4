"""Disk-backed verdict store: one sqlite3 file, short write transactions.

A store directory holds ``verdicts.sqlite3`` (WAL mode): one table keyed by
(checker fingerprint, prefix fingerprint, key digest) with a last-used
time.  A probe checks this process's write buffer, then runs one indexed
``SELECT``, so it sees every verdict any process has committed; a flush
commits the buffer in one short ``BEGIN IMMEDIATE`` transaction, never
held across a search.  Degrade, never raise (the
:mod:`repro.core.resilience` contract): failed SQL is a miss or a rolled
back flush, counted in ``io_errors``; a corrupt database, or one from a
newer schema, disables the store.  Rows from another checker are never
served: they count as invalidated and ``compact`` deletes them.
"""

from __future__ import annotations

import math
import sqlite3
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Set, Tuple

from .fingerprint import STORE_SCHEMA_VERSION, checker_fingerprint, key_digest

#: The database file inside a store directory.
DB_NAME = "verdicts.sqlite3"

#: Buffered verdicts that trigger an automatic :meth:`VerdictStore.flush`.
FLUSH_EVERY = 512

#: Verdict kinds that may be persisted.  Crash/fallback outcomes are
#: checker *failures*, not answers — they must be recomputed every run.
STORABLE_KINDS = ("full", "reused", "invalidated")

_SCHEMA = """CREATE TABLE IF NOT EXISTS verdicts (
    checker TEXT NOT NULL,
    prefix TEXT NOT NULL,
    key TEXT NOT NULL,
    ok INTEGER NOT NULL,
    kind TEXT NOT NULL,
    err TEXT,
    err_kind TEXT,
    last_used REAL NOT NULL,
    PRIMARY KEY (checker, prefix, key)
) WITHOUT ROWID"""

#: Rows under another checker, as two primary-key range scans (``!=``
#: would scan the whole table).
_STALE = "checker < ?1 OR checker > ?1"

_ERRORS = (sqlite3.Error, OSError)


@dataclass(frozen=True)
class StoredVerdict:
    """One persisted oracle answer."""

    ok: bool
    kind: str  # accounting kind the verdict was computed under
    err: Optional[str] = None  # rendered checker message, when failing
    err_kind: Optional[str] = None  # error class tag (display fidelity)


@dataclass
class StoreStats:
    """Shape returned by :meth:`VerdictStore.stats` (and ``cache stats``)."""

    path: str
    entries: int = 0  # verdicts served under the current checker
    invalidated: int = 0  # rows under another checker
    bytes: int = 0  # database size (page count x page size)
    io_errors: int = 0  # failed SQL, including an unusable database file


class VerdictStore:
    """A content-addressed verdict cache shared by many processes.

    ``path`` is the store directory.  A ``read_only`` store creates
    nothing and writes nothing (``repro cache stats`` opens it this way).
    """

    def __init__(self, path, *, read_only: bool = False, clock=time.time):
        if not str(path):
            raise ValueError("empty store path (name a directory)")
        self.path = Path(path)
        self.read_only = read_only
        self._clock = clock
        self._fingerprint = checker_fingerprint()
        self._pending: Dict[Tuple[str, str], StoredVerdict] = {}
        self._used: Set[Tuple[str, str]] = set()
        self.invalidated = 0
        #: Failed SQL (probe → miss, flush → rollback), or an unusable
        #: database at open.  Drained by :meth:`take_io_errors`.
        self.io_errors = 0
        self._invalidated_unreported = 0
        #: None while the store is disabled (no database, or unusable).
        self._db: Optional[sqlite3.Connection] = None
        if not read_only:
            self.path.mkdir(parents=True, exist_ok=True)
        self._open()

    def _open(self) -> None:
        """Connect, create or check the schema and count stale rows; any
        failure leaves the store disabled."""
        file = self.path / DB_NAME
        if self.read_only and not file.is_file():
            return
        mode = "ro" if self.read_only else "rwc"
        uri = f"{file.absolute().as_uri()}?mode={mode}"
        try:
            self._db = sqlite3.connect(uri, uri=True, isolation_level=None)
            version = self._sql("PRAGMA user_version").fetchone()[0]
            if version > STORE_SCHEMA_VERSION:
                raise sqlite3.DatabaseError(f"newer store schema {version}")
            if version < STORE_SCHEMA_VERSION and not self.read_only:
                self._sql("PRAGMA journal_mode=WAL")
                self._transaction([
                    (_SCHEMA,),
                    (f"PRAGMA user_version = {STORE_SCHEMA_VERSION}",),
                ])
            stale = self._sql(f"SELECT count(*) FROM verdicts WHERE {_STALE}",
                              self._fingerprint)
            self.invalidated = stale.fetchone()[0]
        except _ERRORS:
            self.io_errors += 1
            self._disconnect()
            return
        self._invalidated_unreported = self.invalidated

    def _sql(self, statement: str, *params) -> sqlite3.Cursor:
        """Run one SQL statement: the seam every query goes through
        (fault injection overrides it)."""
        return self._db.execute(statement, params)

    def _transaction(self, statements) -> None:
        """Run ``(sql, *params)`` statements in one ``BEGIN IMMEDIATE``
        transaction, rolled back if any of them raises."""
        self._sql("BEGIN IMMEDIATE")
        try:
            for statement in statements:
                self._sql(*statement)
            self._sql("COMMIT")
        except BaseException:
            self._db.rollback()
            raise

    def _disconnect(self) -> None:
        if self._db is not None:
            self._db.close()
        self._db = None

    def __len__(self) -> int:
        """Verdicts served under the current checker, buffered included."""
        return (self._count() if self._db else 0) + len(self._pending)

    def _count(self) -> int:
        return self._sql("SELECT count(*) FROM verdicts WHERE checker = ?",
                         self._fingerprint).fetchone()[0]

    def get(self, prefix_fp: str, structural_key: object) -> Optional[StoredVerdict]:
        """Probe for a verdict under ``(checker, prefix regime, program)``."""
        address = (prefix_fp, key_digest(structural_key))
        entry = self._pending.get(address)
        if entry is None and self._db is not None:
            try:
                row = self._sql(
                    "SELECT ok, kind, err, err_kind FROM verdicts"
                    " WHERE checker = ? AND prefix = ? AND key = ?",
                    self._fingerprint, *address,
                ).fetchone()
            except _ERRORS:
                self.io_errors += 1
                row = None
            if row is not None:
                entry = StoredVerdict(bool(row[0]), row[1], row[2], row[3])
                self._used.add(address)
        return entry

    def put(
        self,
        prefix_fp: str,
        structural_key: object,
        ok: bool,
        kind: str,
        err: Optional[str] = None,
        err_kind: Optional[str] = None,
    ) -> bool:
        """Buffer a verdict; returns True when it was actually enqueued.

        Crash/fallback kinds, read-only and disabled stores are silently
        refused — only clean answers are worth remembering.
        """
        if self._db is None or self.read_only or kind not in STORABLE_KINDS:
            return False
        address = (prefix_fp, key_digest(structural_key))
        if address in self._pending:
            return False  # already buffered: verdicts are deterministic
        self._pending[address] = StoredVerdict(ok, kind, err, err_kind)
        if len(self._pending) >= FLUSH_EVERY:
            self.flush()
        return True

    def take_invalidated(self) -> int:
        """Invalidated-entry count not yet surfaced to metrics (once)."""
        n, self._invalidated_unreported = self._invalidated_unreported, 0
        return n

    def take_io_errors(self) -> int:
        """I/O errors since the last call (the oracle drains these into
        ``oracle.store.io_errors`` and a ``store_io_error`` event)."""
        n, self.io_errors = self.io_errors, 0
        return n

    def flush(self) -> int:
        """Commit buffered verdicts and last-hit times in one short
        transaction; returns the number of verdicts committed.

        The buffer is emptied either way: after a failed commit its
        verdicts are simply recomputed when next asked for.
        """
        pending, used = self._pending, self._used
        self._pending, self._used = {}, set()
        if self._db is None or self.read_only or not (pending or used):
            return 0
        now, fp = self._clock(), self._fingerprint
        insert = "INSERT OR IGNORE INTO verdicts VALUES (?, ?, ?, ?, ?, ?, ?, ?)"
        touch = ("UPDATE verdicts SET last_used = ?"
                 " WHERE checker = ? AND prefix = ? AND key = ?")
        statements = [(insert, fp, prefix, key, v.ok, v.kind, v.err, v.err_kind, now)
                      for (prefix, key), v in pending.items()]
        statements += [(touch, now, fp, prefix, key) for prefix, key in used]
        try:
            self._transaction(statements)
        except _ERRORS:
            self.io_errors += 1
            return 0
        return len(pending)

    def close(self) -> None:
        """Flush, then release the database connection."""
        self.flush()
        self._disconnect()

    def __enter__(self) -> "VerdictStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _bytes(self) -> int:
        return self._sql("SELECT page_count * page_size"
                         " FROM pragma_page_count(), pragma_page_size()").fetchone()[0]

    def stats(self) -> StoreStats:
        stats = StoreStats(path=str(self.path), invalidated=self.invalidated)
        try:
            stats.entries = len(self)
            stats.bytes = self._bytes() if self._db else 0
        except _ERRORS:
            self.io_errors += 1
        stats.io_errors = self.io_errors
        return stats

    def _delete(self, where: str, *params) -> int:
        """Delete the matching rows, then rebuild the file to release
        their pages; returns the number of rows deleted."""
        removed = self._sql(f"DELETE FROM verdicts WHERE {where}", *params).rowcount
        self._sql("VACUUM")
        return removed

    def clear(self) -> int:
        """Delete every verdict; returns how many were removed."""
        self._pending, self._used = {}, set()
        try:
            return self._delete("1") if self._db else 0
        except _ERRORS:
            self.io_errors += 1
            return 0

    def compact(self, max_bytes: Optional[int] = None) -> dict:
        """Delete rows written under another checker, then — when
        ``max_bytes`` is given — evict least-recently-used rows until the
        database fits under the cap (or is empty)."""
        removed = 0
        if self._db is not None:
            try:
                removed += self._delete(_STALE, self._fingerprint)
                self.invalidated = 0
                size, rows = self._bytes(), self._count()
                while max_bytes is not None and size > max_bytes and rows:
                    # Evict the overshoot's share of rows, coldest first.
                    n = max(1, math.ceil(rows * (size - max_bytes) / size))
                    removed += self._delete(
                        "(checker, prefix, key) IN (SELECT checker, prefix, key"
                        " FROM verdicts ORDER BY last_used, prefix, key LIMIT ?)",
                        n,
                    )
                    size, rows = self._bytes(), self._count()
            except _ERRORS:
                self.io_errors += 1
        stats = self.stats()
        return {
            "removed_entries": removed,
            "remaining_entries": stats.entries,
            "remaining_bytes": stats.bytes,
        }
