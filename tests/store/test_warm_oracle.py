"""Warm-start contract: a persistent store changes *cost*, never *answers*.

The acceptance bar, verbatim from the design: suggestions, ranks, and
``--stats`` must be byte-identical whether the store is cold, warm, or
absent; and a warm second run over the corpus must spend strictly fewer
real checker invocations (the ``oracle.calls`` *metric* — the logical
``Oracle.calls`` attribute still counts every question so budgets behave
identically).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core import explain, explain_many
from repro.core.messages import render_suggestion
from repro.core.oracle import Oracle
from repro.core.quickfix import fix_all
from repro.corpus import generate_corpus
from repro.miniml.parser import parse_program
from repro.obs import MetricsRegistry
from repro.store import NO_PREFIX_FP, VerdictStore

FIG2 = """\
let map2 f aList bList =
  List.map (fun (a, b) -> f a b) (List.combine aList bList)
let lst = map2 (fun (x, y) -> x + y) [1;2;3] [4;5;6]
"""

ILL_TYPED = "let f x = x + 1\nlet b = f true\n"


def _signature(result):
    return (
        result.ok,
        result.bad_decl_index,
        result.oracle_calls,
        result.render(limit=50),
        [render_suggestion(s) for s in result.suggestions],
    )


class TestOracleStoreTier:
    def test_warm_oracle_skips_real_checks(self, tmp_path):
        program = parse_program(ILL_TYPED)
        cold_metrics = MetricsRegistry()
        cold = Oracle(metrics=cold_metrics,
                      store=VerdictStore(tmp_path / "s"))
        cold_result = cold.check(program)
        cold.store.close()
        assert cold.store_misses > 0
        assert cold.store_writes > 0

        warm_metrics = MetricsRegistry()
        warm = Oracle(metrics=warm_metrics,
                      store=VerdictStore(tmp_path / "s"))
        warm_result = warm.check(program)
        assert warm.store_hits > 0
        # Logical accounting identical; the real-invocation metric is not.
        assert warm.calls == cold.calls
        assert warm_metrics.value("oracle.calls") == 0
        assert cold_metrics.value("oracle.calls") > 0
        assert warm_metrics.value("oracle.store.hits") == warm.store_hits

        assert warm_result.ok == cold_result.ok
        assert warm_result.error.render() == cold_result.error.render()
        assert getattr(warm_result.error, "kind", None) == getattr(
            cold_result.error, "kind", None
        )

    def test_memo_still_first_tier(self, tmp_path):
        program = parse_program(ILL_TYPED)
        oracle = Oracle(cache=True, store=VerdictStore(tmp_path / "s"))
        oracle.check(program)
        hits_before = oracle.store_hits
        oracle.check(program)  # in-memory memo answers, store untouched
        assert oracle.store_hits == hits_before

    def test_reset_keeps_store_attached(self, tmp_path):
        oracle = Oracle(store=VerdictStore(tmp_path / "s"))
        oracle.check(parse_program(ILL_TYPED))
        oracle.reset()
        assert oracle.store is not None
        assert (oracle.store_hits, oracle.store_misses, oracle.store_writes) \
            == (0, 0, 0)


class TestExplainStoreDeterminism:
    def test_cold_warm_absent_byte_identical(self, tmp_path):
        absent = explain(FIG2)
        cold = explain(FIG2, store=tmp_path / "s")
        warm = explain(FIG2, store=tmp_path / "s")
        assert _signature(cold) == _signature(absent)
        assert _signature(warm) == _signature(absent)

    def test_warm_run_hits_store(self, tmp_path):
        explain(FIG2, store=tmp_path / "s")
        metrics = MetricsRegistry()
        explain(FIG2, store=tmp_path / "s", metrics=metrics)
        assert metrics.value("oracle.store.hits") > 0
        assert metrics.value("oracle.calls") \
            < metrics.value("oracle.store.hits")

    def test_fix_all_accepts_store(self, tmp_path):
        cold = fix_all(ILL_TYPED, store=tmp_path / "s")
        metrics = MetricsRegistry()
        warm = fix_all(ILL_TYPED, store=tmp_path / "s", metrics=metrics)
        assert (warm.source, warm.ok, warm.applied) \
            == (cold.source, cold.ok, cold.applied)
        assert metrics.value("oracle.store.hits") > 0


CORPUS = generate_corpus(scale=0.15, seed=11)


def _batch_signature(entries):
    return [
        (e.label, e.ok, e.error, e.report, e.best, e.suggestions,
         e.oracle_calls)
        for e in entries
    ]


def _aggregate_calls(entries):
    total = MetricsRegistry()
    for entry in entries:
        if entry.metrics:
            total.merge_snapshot(entry.metrics)
    return total.value("oracle.calls")


@pytest.fixture(scope="module")
def in_process_reports():
    """Store-less ``explain(source).render()`` per corpus representative."""
    return [explain(f.program).render() for f in CORPUS.representatives]


class TestCorpusWarmVsCold:
    """The headline acceptance test, serial and across batch workers."""

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_warm_byte_identical_and_strictly_cheaper(
        self, tmp_path, jobs, in_process_reports
    ):
        sources = [f.program for f in CORPUS.representatives]
        labels = [
            f"{f.programmer}/{f.assignment}" for f in CORPUS.representatives
        ]
        store = tmp_path / f"store-j{jobs}"
        baseline = explain_many(sources, labels, jobs=jobs,
                                collect_metrics=True)
        cold = explain_many(sources, labels, jobs=jobs, store=store,
                            collect_metrics=True)
        warm = explain_many(sources, labels, jobs=jobs, store=store,
                            collect_metrics=True)

        assert _batch_signature(cold) == _batch_signature(baseline)
        assert _batch_signature(warm) == _batch_signature(baseline)
        assert [e.report for e in cold] == in_process_reports
        assert [e.report for e in warm] == in_process_reports

        cold_calls = _aggregate_calls(cold)
        warm_calls = _aggregate_calls(warm)
        assert warm_calls < cold_calls


BATCH = [FIG2, ILL_TYPED, "let x = 1 + 2\n", FIG2 + "let y = 0\n",
         ILL_TYPED + "let z = 3\n", "let w = true\n"]


@pytest.fixture
def opened_in(monkeypatch, tmp_path):
    """Log the pid of every ``VerdictStore`` construction, from any process
    (forked batch workers inherit the patch and append to the same file)."""
    log = tmp_path / "opened.log"
    original = VerdictStore.__init__

    def logging_init(self, *args, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        original(self, *args, **kwargs)

    monkeypatch.setattr(VerdictStore, "__init__", logging_init)
    return lambda: [int(pid) for pid in log.read_text().split()] \
        if log.exists() else []


class TestBatchOpensStoreOncePerProcess:
    def test_serial_batch_opens_the_store_once(self, tmp_path, opened_in):
        entries = explain_many(BATCH, jobs=1, store=tmp_path / "s")
        assert all(e.error is None for e in entries)
        assert opened_in() == [os.getpid()]

    def test_worker_batch_opens_it_once_per_worker(self, tmp_path, opened_in):
        entries = explain_many(BATCH, jobs=2, store=tmp_path / "s")
        pids = opened_in()
        assert len(pids) == len(set(pids))
        assert set(pids) == {e.worker_pid for e in entries}
        assert os.getpid() not in pids

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_invalidated_counted_once_per_open_store(self, tmp_path, jobs):
        store_dir = tmp_path / "s"
        store_dir.mkdir()
        stale = [json.dumps({"v": 1, "checker": "0" * 32})] + [
            json.dumps({"p": NO_PREFIX_FP, "k": f"{i:032d}", "ok": True,
                        "kind": "full"})
            for i in range(5)
        ]
        (store_dir / "seg-0000000000000-1-1.jsonl").write_text(
            "\n".join(stale) + "\n"
        )
        entries = explain_many(BATCH[:3], jobs=jobs, store=store_dir,
                               collect_metrics=True)
        total = MetricsRegistry()
        for entry in entries:
            total.merge_snapshot(entry.metrics)
        opens = len({e.worker_pid for e in entries})
        assert total.value("oracle.store.invalidated") == 5 * opens
        if jobs == 1:
            assert total.value("oracle.store.invalidated") == 5

    def test_compact_after_worker_batch_keeps_hit_segments(self, tmp_path):
        store_dir = tmp_path / "s"
        # Programs that share no question, so no verdict is published twice
        # (a duplicate's older copy is never served, hence never hit).
        sources = [FIG2, ILL_TYPED]
        explain_many(sources, jobs=2, store=store_dir)
        cold_segments = sorted(p.name for p in store_dir.glob("seg-*.jsonl"))
        with VerdictStore(store_dir) as other:
            other.put(NO_PREFIX_FP, ("never", "asked"), True, "full")
        [never_hit] = {
            p.name for p in store_dir.glob("seg-*.jsonl")
        } - set(cold_segments)

        explain_many(sources, jobs=2, store=store_dir)  # warm: workers hit
        for name in cold_segments:
            assert (store_dir / "hits" / name).exists(), name
        total = sum(p.stat().st_size for p in store_dir.glob("seg-*.jsonl"))
        summary = VerdictStore(store_dir).compact(max_bytes=total - 1)
        assert summary["removed_segments"] == 1
        assert not (store_dir / never_hit).exists()
