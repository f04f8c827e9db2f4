"""Persistent cross-run verdict store (disk tier behind the oracle memo).

SEMINAL's cost model is oracle calls: the searcher asks the type-checker
thousands of yes/no questions, and most of them recur verbatim across
runs — re-explaining the same file after an edit, re-running the corpus
study, or serving repeated traffic.  The in-process memo cache and prefix
reuse (PR 2) only live for one process; this package persists verdicts to
disk so every subsequent run warm-starts.

Contents:

* :mod:`repro.store.fingerprint` — the content-addressed key scheme:
  ``(checker fingerprint, prefix-snapshot fingerprint, structural key)``.
* :mod:`repro.store.verdicts` — :class:`VerdictStore`: one sqlite3 file
  that concurrent processes share (one indexed ``SELECT`` per probe, one
  short transaction per flush); failures degrade to cache misses, never
  raise (the :mod:`repro.core.resilience` contract).
* :mod:`repro.store.cli` — ``python -m repro cache stats|clear|compact``.
"""

from .fingerprint import (
    NO_PREFIX_FP,
    STORE_SCHEMA_VERSION,
    checker_fingerprint,
    key_digest,
    prefix_fingerprint,
)
from .verdicts import StoredVerdict, StoreStats, VerdictStore

__all__ = [
    "NO_PREFIX_FP",
    "STORE_SCHEMA_VERSION",
    "StoreStats",
    "StoredVerdict",
    "VerdictStore",
    "checker_fingerprint",
    "key_digest",
    "prefix_fingerprint",
]
