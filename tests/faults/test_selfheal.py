"""Acceptance tests for failing store I/O.

**Flaky store I/O** — failing SQL in the verdict store degrades: a failed
probe is a cache miss and a failed flush rolls back; cold and warm runs
stay byte-identical and nothing escapes ``explain``.
"""

from __future__ import annotations

from repro.core import explain
from repro.core.messages import render_suggestion
from repro.faults import FlakyStore
from repro.obs import MetricsRegistry

FIG2 = """\
let map2 f aList bList =
  List.map (fun (a, b) -> f a b) (List.combine aList bList)
let lst = map2 (fun (x, y) -> x + y) [1;2;3] [4;5;6]
"""


class TestFlakyStoreIO:
    def test_cold_run_with_flaky_store_matches_storeless(self, tmp_path):
        plain = explain(FIG2)
        store = FlakyStore(tmp_path / "store", fail_every=2)
        flaky = explain(FIG2, store=store)
        store.close()
        assert store.injected_io_failures > 0
        assert [render_suggestion(s) for s in flaky.suggestions] == [
            render_suggestion(s) for s in plain.suggestions
        ]
        assert flaky.oracle_calls == plain.oracle_calls

    def test_warm_run_matches_cold_under_flaky_io(self, tmp_path):
        path = tmp_path / "store"
        cold_store = FlakyStore(path, fail_every=2)
        cold = explain(FIG2, store=cold_store)
        cold_store.close()
        warm_store = FlakyStore(path, fail_every=2)
        warm = explain(FIG2, store=warm_store)
        warm_store.close()
        assert [render_suggestion(s) for s in warm.suggestions] == [
            render_suggestion(s) for s in cold.suggestions
        ]
        assert warm.ok == cold.ok

    def test_failing_probes_degrade_to_cache_misses(self, tmp_path):
        """Every statement failing on a warm store: each probe degrades
        to a miss (a real check), never a raise."""
        path = tmp_path / "store"
        explain(FIG2, store=path)  # clean seed run, verdicts committed
        store = FlakyStore(path, fail_every=1)
        registry = MetricsRegistry()
        result = explain(FIG2, store=store, metrics=registry)
        store.close()
        # Every probe that reached the database failed and missed; only
        # the search's own buffered verdicts could still hit.
        misses = registry.value("oracle.store.misses")
        assert misses > 0
        assert store.injected_io_failures >= misses
        assert registry.value("oracle.store.io_errors") >= misses
        plain = explain(FIG2)
        assert [render_suggestion(s) for s in result.suggestions] == [
            render_suggestion(s) for s in plain.suggestions
        ]

    def test_store_io_counters_reach_oracle_metrics(self, tmp_path):
        registry = MetricsRegistry()
        store = FlakyStore(tmp_path / "store", fail_every=2)
        explain(FIG2, store=store, metrics=registry)
        store.close()
        assert registry.value("oracle.store.io_errors") > 0
