"""One structural keyer per search (interning shared across checks).

The oracle's verdict cache and the declaration outcome table key the same
subtrees; each used to keep a private memo and re-walk shared structure.  The searcher now owns a single
:class:`~repro.tree.StructuralKeyer` per search, adopts it into the
oracle, and reports how much it interned as ``search.keys.interned``.
"""

from repro.core import Oracle
from repro.core.searcher import SearchConfig, Searcher
from repro.miniml import parse_program
from repro.obs.metrics import MetricsRegistry
from repro.tree import StructuralKeyer

ILL_TYPED = "let a = 1\nlet b = a + 1\nlet c = b ^ a"


class TestSharedKeyer:
    def test_oracle_adopts_the_search_keyer(self):
        searcher = Searcher(config=SearchConfig())
        assert searcher.oracle._keyer is searcher._keyer

    def test_adopt_refuses_custom_key_fn(self):
        oracle = Oracle(key_fn=lambda node: repr(node))
        assert oracle.adopt_keyer(StructuralKeyer()) is False

    def test_interned_property_counts_memo_entries(self):
        keyer = StructuralKeyer()
        assert keyer.interned == 0
        program = parse_program(ILL_TYPED)
        keyer(program)
        assert keyer.interned > 0

    def test_search_emits_interned_metric(self):
        metrics = MetricsRegistry()
        searcher = Searcher(
            config=SearchConfig(), oracle=Oracle(metrics=metrics), metrics=metrics
        )
        searcher.search_program(parse_program(ILL_TYPED))
        assert metrics.value("search.keys.interned") > 0

    def test_keyer_resets_between_searches(self):
        solo = "let solo = 1 + true"
        fresh = Searcher(config=SearchConfig())
        fresh.search_program(parse_program(solo))
        searcher = Searcher(config=SearchConfig())
        searcher.search_program(parse_program(ILL_TYPED))
        assert searcher._keyer.interned > 0
        searcher.search_program(parse_program(solo))
        # A fresh search starts from a cleared memo: the second program
        # interns exactly what it would on a brand-new searcher, without
        # any of the first program's entries.
        assert searcher._keyer.interned == fresh._keyer.interned
