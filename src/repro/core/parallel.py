"""File-level parallelism for batch runs: one whole search per worker task.

:func:`repro.core.seminal.explain_many` (the batch front end,
``python -m repro explain --jobs N FILE...``) fans *programs* across a
plain ``ProcessPoolExecutor``; :func:`explain_batch_worker` is the task
each worker runs.  A whole search is the only grain coarse enough to
amortize a process hop: a single oracle check costs about as much as
pickling the candidate, so candidates are always checked in-process.

This module holds the pieces the batch path shares: :func:`resolve_jobs`
(normalize a ``jobs`` knob), :func:`_fork_context` (prefer ``fork``
workers) and :func:`terminate_executor` (prompt teardown on interrupt).
"""

from __future__ import annotations

import os
import pickle
from typing import Union

#: ``jobs`` sentinel: use one worker per CPU.
AUTO_JOBS = "auto"

Jobs = Union[int, str, None]

#: The verdict stores a pool worker keeps open across its tasks, keyed by
#: ``(pid, path)``.  Workers never close them: every task commits its
#: verdicts and last-hit times before returning.
_WORKER_STORES: dict = {}


def resolve_jobs(jobs: Jobs) -> int:
    """Normalize a ``jobs`` knob to a worker count (1 = serial).

    ``None`` and ``1`` mean serial; :data:`AUTO_JOBS` means one worker per
    CPU (so on a single-core machine ``"auto"`` *is* serial); an integer
    is used as given.  Anything else raises ``ValueError``.
    """
    if jobs is None or jobs == 1:
        return 1
    if jobs == AUTO_JOBS:
        return max(1, os.cpu_count() or 1)
    try:
        n = int(jobs)
        integral = float(jobs) == n
    except (TypeError, ValueError):
        raise ValueError(f"jobs must be a positive int or {AUTO_JOBS!r}, got {jobs!r}")
    if not integral or n < 1:
        raise ValueError(f"jobs must be a positive int or {AUTO_JOBS!r}, got {jobs!r}")
    return n


def _fork_context():
    """Prefer ``fork`` workers (fast start, inherits imports); fall back to
    the platform default where fork is unavailable."""
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return None


def terminate_executor(executor) -> None:
    """Tear a process pool down *promptly*: terminate worker processes
    (a hung worker would otherwise survive ``shutdown``), then release the
    executor without waiting.  Never raises — teardown is best-effort."""
    try:
        procs = list(getattr(executor, "_processes", {}).values())
    except Exception:  # pragma: no cover - executor internals moved
        procs = []
    for proc in procs:
        try:
            proc.terminate()
        except Exception:  # pragma: no cover - already dead
            pass
    try:
        executor.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - teardown best-effort
        pass


def explain_batch_worker(
    label: str, source: str, top: int, kwargs_blob: bytes
) -> bytes:
    """One whole ``explain()`` call, packaged for a worker process.

    Returns a pickled :class:`repro.core.seminal.BatchEntry` — rendering
    happens worker-side so the summary survives even if the full
    :class:`ExplainResult` cannot cross the process boundary (the entry is
    then shipped with ``result=None``).  Input failures (parse errors,
    undecodable text) become ``error`` entries, not exceptions: one bad
    file must never sink the batch.  A path-valued ``store`` is opened on
    the worker's first task and reused by its later ones.
    """
    from repro.core.seminal import _explain_entry

    entry = _explain_entry(
        label, source, top, pickle.loads(kwargs_blob), _WORKER_STORES
    )
    try:
        return pickle.dumps(entry)
    except Exception:
        entry.result = None
        return pickle.dumps(entry)
