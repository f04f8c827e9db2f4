"""Tests for file-level batch parallelism (`explain_many`, `repro.core.parallel`).

The contract under test:

* **Determinism** — ``jobs=N`` batch entries equal ``jobs=1`` entries, in
  input order.
* **Counter identity** — for every corpus program, the metrics snapshot a
  batch worker ships home equals the counters of the same search run
  in-process, and its rendered answers equal ``explain(source).render()``.
* **Crash isolation** — a batch worker that dies outright (``os._exit``)
  costs nothing but time: the files it held are re-run serially in the
  parent and the entries still equal the serial batch.
* **Single-file searches stay in-process** — ``explain`` never starts a
  process pool, and takes no pool options.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
import pickle
import time

import pytest

import repro.core.parallel as parallel
from repro.core import explain, explain_many
from repro.core.parallel import AUTO_JOBS, resolve_jobs, terminate_executor
from repro.core.searcher import SearchConfig
from repro.corpus import generate_corpus
from repro.obs import MetricsRegistry

FIG2 = """\
let map2 f aList bList =
  List.map (fun (a, b) -> f a b) (List.combine aList bList)
let lst = map2 (fun (x, y) -> x + y) [1;2;3] [4;5;6]
"""

ILL_TYPED = "let f x = x + 1\nlet b = f true\n"
WELL_TYPED = "let f x = x + 1\nlet b = f 2\n"
PARSE_ERROR = "let let = ("


def _entry_signature(entries):
    return [
        (e.label, e.ok, e.error, e.report, e.best, e.suggestions, e.oracle_calls)
        for e in entries
    ]


class TestResolveJobs:
    def test_serial_values(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1

    def test_explicit_count(self):
        assert resolve_jobs(4) == 4
        assert resolve_jobs("3") == 3

    def test_auto_is_cpu_count(self):
        assert resolve_jobs(AUTO_JOBS) == max(1, os.cpu_count() or 1)

    @pytest.mark.parametrize("bad", [0, -1, "many", 1.5])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            resolve_jobs(bad)


class TestExplainMany:
    SOURCES = [FIG2, WELL_TYPED, PARSE_ERROR, ILL_TYPED]
    LABELS = ["fig2.ml", "ok.ml", "broken.ml", "bool.ml"]

    def test_serial_batch_order_and_outcomes(self):
        entries = explain_many(self.SOURCES, self.LABELS)
        assert [e.label for e in entries] == self.LABELS
        assert [e.ok for e in entries] == [False, True, False, False]
        assert entries[2].error is not None
        assert entries[0].suggestions > 0
        assert entries[0].result is not None

    def test_parallel_batch_matches_serial(self):
        serial = explain_many(self.SOURCES, self.LABELS)
        parallel_entries = explain_many(self.SOURCES, self.LABELS, jobs=2)
        assert _entry_signature(parallel_entries) == _entry_signature(serial)

    def test_parallel_batch_uses_workers(self):
        entries = explain_many([FIG2, ILL_TYPED], jobs=2)
        pids = {e.worker_pid for e in entries}
        assert os.getpid() not in pids

    def test_default_labels(self):
        entries = explain_many([WELL_TYPED])
        assert entries[0].label == "program[0]"

    def test_label_count_mismatch(self):
        with pytest.raises(ValueError):
            explain_many([WELL_TYPED], ["a", "b"])

    def test_results_are_picklable(self):
        """Full ExplainResults (including checker errors with node/type
        payloads) must survive the process boundary."""
        for source in (FIG2, ILL_TYPED):
            result = explain(source)
            clone = pickle.loads(pickle.dumps(result))
            assert clone.checker_message == result.checker_message
            assert len(clone.suggestions) == len(result.suggestions)

    def test_parallel_batch_ships_full_results(self):
        entries = explain_many([ILL_TYPED], jobs=2)
        assert entries[0].result is not None
        assert entries[0].result.checker_message


#: The real worker, kept before any test swaps the module attribute.
_REAL_WORKER = parallel.explain_batch_worker

#: The label whose worker process kills itself.
_DOOMED = "doomed.ml"


def _dying_worker(label, source, top, kwargs_blob):
    """A batch worker that dies outright on the doomed file — no ``except``
    in the pool can catch ``os._exit``."""
    if label == _DOOMED:
        os._exit(13)
    return _REAL_WORKER(label, source, top, kwargs_blob)


def _always_dies(label, source, top, kwargs_blob):
    """A batch worker that never survives its task."""
    os._exit(13)


def _raises_on_doomed(label, source, top, kwargs_blob):
    """A batch worker that raises (and so stays alive) on the doomed file."""
    if label == _DOOMED:
        raise RuntimeError("worker-side failure")
    return _REAL_WORKER(label, source, top, kwargs_blob)


class TestWorkerDeath:
    SOURCES = [FIG2, ILL_TYPED, WELL_TYPED, PARSE_ERROR]
    LABELS = ["fig2.ml", _DOOMED, "ok.ml", "broken.ml"]

    def test_dead_worker_file_reruns_serially_in_parent(self, monkeypatch):
        serial = explain_many(self.SOURCES, self.LABELS)
        # explain_many looks the worker up through the module at call
        # time, so the swap reaches the forked workers.
        monkeypatch.setattr(parallel, "explain_batch_worker", _dying_worker)
        entries = explain_many(self.SOURCES, self.LABELS, jobs=2)
        assert _entry_signature(entries) == _entry_signature(serial)
        doomed = entries[self.LABELS.index(_DOOMED)]
        assert doomed.worker_pid == os.getpid()
        assert doomed.result is not None

    @pytest.mark.parametrize("position", range(4))
    def test_dead_worker_at_any_position_reruns_in_parent(
        self, monkeypatch, position
    ):
        labels = ["a.ml", "b.ml", "c.ml", "d.ml"]
        labels[position] = _DOOMED
        serial = explain_many(self.SOURCES, labels)
        monkeypatch.setattr(parallel, "explain_batch_worker", _dying_worker)
        entries = explain_many(self.SOURCES, labels, jobs=2)
        assert _entry_signature(entries) == _entry_signature(serial)
        assert entries[position].worker_pid == os.getpid()

    def test_every_worker_dies(self, monkeypatch):
        serial = explain_many(self.SOURCES, self.LABELS)
        monkeypatch.setattr(parallel, "explain_batch_worker", _always_dies)
        entries = explain_many(self.SOURCES, self.LABELS, jobs=2)
        assert _entry_signature(entries) == _entry_signature(serial)
        assert {e.worker_pid for e in entries} == {os.getpid()}

    def test_worker_exception_reruns_that_file_in_parent(self, monkeypatch):
        serial = explain_many(self.SOURCES, self.LABELS)
        monkeypatch.setattr(parallel, "explain_batch_worker", _raises_on_doomed)
        entries = explain_many(self.SOURCES, self.LABELS, jobs=2)
        assert _entry_signature(entries) == _entry_signature(serial)
        doomed = self.LABELS.index(_DOOMED)
        assert entries[doomed].worker_pid == os.getpid()
        assert all(
            e.worker_pid != os.getpid()
            for i, e in enumerate(entries)
            if i != doomed
        )

    def test_broken_executor_degrades_whole_batch_to_serial(self, monkeypatch):
        class BrokenExecutor:
            def __init__(self, *args, **kwargs):
                pass

            def submit(self, *args, **kwargs):
                raise RuntimeError("cannot start workers")

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        serial = explain_many(self.SOURCES, self.LABELS)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", BrokenExecutor)
        entries = explain_many(self.SOURCES, self.LABELS, jobs=2)
        assert _entry_signature(entries) == _entry_signature(serial)
        assert {e.worker_pid for e in entries} == {os.getpid()}


def _exited(pid: int) -> bool:
    """True once ``pid`` has exited (a zombie awaiting its reaper counts)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return True
    return state in ("Z", "X")


class TestTerminateExecutor:
    def test_kills_a_busy_worker_promptly(self):
        pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=1, mp_context=parallel._fork_context()
        )
        pool.submit(time.sleep, 60)
        deadline = time.monotonic() + 10
        while not pool._processes and time.monotonic() < deadline:
            time.sleep(0.01)
        pids = list(pool._processes)
        assert pids
        terminate_executor(pool)
        # The executor's own thread may reap the worker first, so poll the
        # process table rather than join() from here.
        deadline = time.monotonic() + 10
        while not all(map(_exited, pids)) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert all(map(_exited, pids))

    def test_never_raises(self):
        pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=1, mp_context=parallel._fork_context()
        )
        pool.shutdown(wait=True)
        terminate_executor(pool)
        terminate_executor(object())


#: Whole-corpus identity between in-process searches and batch workers.
CORPUS = generate_corpus(scale=0.15, seed=11)
CORPUS_IDS = [
    f"{f.programmer}-{f.assignment}-{i}"
    for i, f in enumerate(CORPUS.representatives)
]


@pytest.fixture(scope="module")
def corpus_runs():
    """Every corpus program searched in-process (with its counters) and
    through one ``jobs=2`` batch that ships metrics home."""
    programs = [f.program for f in CORPUS.representatives]
    serial = []
    for program in programs:
        registry = MetricsRegistry()
        serial.append((explain(program, metrics=registry), registry.counters()))
    entries = explain_many(
        programs, CORPUS_IDS, jobs=2, collect_metrics=True
    )
    return serial, entries


class TestCorpusBatchIdentity:
    @pytest.mark.parametrize("index", range(len(CORPUS_IDS)), ids=CORPUS_IDS)
    def test_batch_counters_equal_in_process(self, corpus_runs, index):
        serial, entries = corpus_runs
        _, counters = serial[index]
        assert entries[index].metrics["counters"] == counters

    @pytest.mark.parametrize("index", range(len(CORPUS_IDS)), ids=CORPUS_IDS)
    def test_batch_answers_equal_in_process(self, corpus_runs, index):
        serial, entries = corpus_runs
        result, _ = serial[index]
        entry = entries[index]
        assert entry.report == result.render()
        assert entry.best == result.render_best()
        assert entry.oracle_calls == result.oracle_calls
        assert entry.suggestions == len(result.suggestions)
        assert entry.result is not None
        assert entry.result.render(limit=len(result.suggestions)) == result.render(
            limit=len(result.suggestions)
        )

    def test_counter_dicts_are_nontrivial(self, corpus_runs):
        serial, _ = corpus_runs
        counters = serial[0][1]
        assert counters["oracle.calls"] > 0
        assert any(k.startswith("search.") for k in counters)
        assert any(k.startswith("enum.") for k in counters)

    def test_every_entry_ran_in_a_worker(self, corpus_runs):
        _, entries = corpus_runs
        assert all(e.worker_pid != os.getpid() for e in entries)


class _NoPool:
    """Stands in for ``ProcessPoolExecutor``: building one is a failure."""

    def __init__(self, *args, **kwargs):
        raise AssertionError("a process pool was started")


class TestSingleFileSearchIsInProcess:
    def test_explain_starts_no_pool(self, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _NoPool)
        monkeypatch.setattr(multiprocessing.Process, "start", _NoPool)
        assert explain(FIG2).suggestions

    def test_serial_batch_starts_no_pool(self, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _NoPool)
        entries = explain_many([FIG2, ILL_TYPED], jobs=1)
        assert {e.worker_pid for e in entries} == {os.getpid()}

    def test_one_file_batch_starts_no_pool(self, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _NoPool)
        entries = explain_many([FIG2], jobs=4)
        assert entries[0].worker_pid == os.getpid()
        assert entries[0].suggestions > 0

    @pytest.mark.parametrize(
        "option, value",
        [
            ("jobs", 2),
            ("dedup", False),
            ("supervision", None),
            ("candidate_timeout_seconds", 30.0),
            ("worker_rss_limit_mb", 512.0),
            ("worker_fault_plan", None),
        ],
    )
    def test_explain_takes_no_pool_option(self, option, value):
        with pytest.raises(TypeError):
            explain(FIG2, **{option: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("jobs", 2),
            ("parallel_batch_size", 8),
            ("dedup", False),
            ("worker_fault_plan", None),
            ("supervision", None),
            ("candidate_timeout_seconds", 30.0),
            ("worker_rss_limit_mb", 512.0),
        ],
    )
    def test_search_config_has_no_pool_field(self, field, value):
        with pytest.raises(TypeError):
            SearchConfig(**{field: value})
