"""Dependency pruning is invisible: corpus-wide output equivalence.

The ISSUE's acceptance bar for the declaration outcome table is *byte
identity* of everything user-visible: for every corpus representative,
with pruning on vs off — same suggestions, same ranks, same ``--stats``
summary, same event log.  Only the ``oracle.decl.*`` telemetry (and wall
time) may differ.
"""

import io
import json

import pytest

from repro.core import explain
from repro.core.messages import render_suggestion
from repro.corpus import generate_corpus
from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry

CORPUS_SCALE = 0.1
CORPUS_SEED = 7

#: Metric families allowed to differ when toggling ``depprune`` — the
#: pruning telemetry itself, and keyer interning (the table interns
#: declaration keys the off-configuration never builds).
TOGGLE_SENSITIVE = ("oracle.decl.", "search.keys.interned")

#: Event fields that are run-scoped, not behaviour: wall-clock values and
#: process ids (the ``t`` field is already pinned by the injected clock).
VOLATILE_FIELDS = ("t", "pid", "wall_time", "seconds", "elapsed_seconds")


@pytest.fixture(scope="module")
def corpus_files():
    return generate_corpus(scale=CORPUS_SCALE, seed=CORPUS_SEED).representatives


def _run(program, **kwargs):
    buf = io.StringIO()
    events = EventLog(buf, clock=lambda: 0.0)
    metrics = MetricsRegistry()
    result = explain(program, metrics=metrics, events=events, **kwargs)
    events.close()
    return result, metrics, buf.getvalue()


def _events(raw):
    out = []
    for line in raw.splitlines():
        record = json.loads(line)
        for fld in VOLATILE_FIELDS:
            record.pop(fld, None)
        out.append(record)
    return out


def _visible(result):
    return (
        result.ok,
        result.bad_decl_index,
        result.oracle_calls,
        result.budget_exhausted,
        [render_suggestion(s) for s in result.suggestions],
        result.stats.summary() if result.stats is not None else None,
    )


def _stable_counters(metrics):
    return {
        k: v
        for k, v in metrics.counters().items()
        if not any(k.startswith(p) for p in TOGGLE_SENSITIVE)
    }


def _decl_counters(metrics):
    return {
        k: v for k, v in metrics.counters().items() if k.startswith("oracle.decl.")
    }


class TestSerialEquivalence:
    def test_corpus_on_vs_off_jobs1(self, corpus_files):
        replayed_total = 0
        for corpus_file in corpus_files:
            on, m_on, ev_on = _run(corpus_file.program)
            off, m_off, ev_off = _run(corpus_file.program, depprune=False)
            assert _visible(on) == _visible(off)
            assert _stable_counters(m_on) == _stable_counters(m_off)
            assert _events(ev_on) == _events(ev_off)
            assert m_off.value("oracle.decl.replayed") == 0
            replayed_total += m_on.value("oracle.decl.replayed")
        # The sweep as a whole must actually have pruned something.
        assert replayed_total > 0


class TestRebindingCut:
    """Shadowing probe at the full-search level: rebinding the mutated
    name keeps the suffix replayable, and both searches agree anyway."""

    SRC = (
        "let size = 4\n"
        "let bad = size + true\n"
        "let size = 100\n"
        "let uses = size * 2\n"
    )

    def test_rebound_suffix_is_pruned_and_identical(self):
        on, m_on, _ = _run(self.SRC)
        off, m_off, _ = _run(self.SRC, depprune=False)
        assert _visible(on) == _visible(off)
        assert m_on.value("oracle.decl.replayed") > 0
        assert m_on.value("oracle.decl.degraded") == 0
