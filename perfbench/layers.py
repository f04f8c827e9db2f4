"""Per-layer tracing for the benchmark, done entirely from outside ``src/``.

:func:`install` wraps the public entry points of each ``repro`` layer (the
table :data:`TARGETS`) so that every call records a span — layer name,
start, end and the span that was open when it began — in a
:class:`Recorder`.  Spans stay in memory; :func:`reduce_spans` turns them
into per-layer busy seconds when the run ends:

* a layer's *inclusive* seconds sum its outermost spans only, so a
  recursive or re-entrant layer is not counted twice;
* a layer's *self* seconds are each span's duration minus the part its
  child spans cover (parse time minus lexing, oracle time minus checker,
  keying, probing and store time, ...).

``Installation.remove`` restores every original binding, so one process
can alternate traced and untraced passes to measure the tracing overhead.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: One recorded span: (name, start, end, parent index or -1).
Span = Tuple[str, float, float, int]

#: The per-file root span the benchmark opens around each request.  It is
#: not a layer: its self time is the time no layer wrapper covers.
FILE = "file"


class Recorder:
    """Stack-based in-memory span recorder (one per process)."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        # Pop through any span a non-local exit left open above us.
        while self._stack and self._stack.pop() != index:
            pass

    def take(self) -> Tuple[List[Span], Dict[str, int]]:
        """Hand over every closed span and count, and start afresh."""
        spans = [tuple(s) for s in self.spans]
        counts = dict(self.counts)
        self.reset()
        return spans, counts


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: ``module``'s ``attr`` (``Class.method``)."""

    layer: str
    module: str
    attr: str
    #: Optional ``(counter name, fn(result) -> int)`` tallied per call.
    tally: Optional[Tuple[str, Callable]] = None


TARGETS: Tuple[Target, ...] = (
    Target("lexer", "repro.miniml.lexer", "tokenize", ("lexer.tokens", len)),
    Target("parser", "repro.miniml.parser", "parse_program"),
    Target("searcher", "repro.core.searcher", "Searcher.search_program"),
    Target("localize", "repro.core.searcher", "Searcher._localize_bad_decl"),
    Target("triage", "repro.core.triage", "triage_node"),
    Target("enumerator", "repro.core.enumerator", "MiniMLEnumerator.changes",
           ("enumerator.changes", len)),
    Target("oracle", "repro.core.oracle", "Oracle.check",
           ("oracle.passed", lambda result: int(bool(result.ok)))),
    Target("infer", "repro.miniml.infer", "typecheck_program"),
    Target("infer", "repro.miniml.infer", "typecheck_speculative"),
    Target("infer", "repro.miniml.infer", "snapshot_prefix"),
    Target("infer", "repro.miniml.infer", "record_decl_table"),
    Target("infer", "repro.miniml.infer", "replay_decl_table"),
    Target("infer", "repro.miniml.infer", "SpeculativeState.__init__"),
    Target("infer", "repro.miniml.infer", "SpeculativeState.check"),
    Target("keyer", "repro.tree", "StructuralKeyer.__call__"),
    Target("depth_probe", "repro.tree", "DepthProbe.exceeds"),
    Target("ranker", "repro.core.ranker", "rank"),
    Target("messages", "repro.core.messages", "render_report"),
    Target("messages", "repro.core.messages", "render_suggestion"),
    Target("store.open", "repro.store.verdicts", "VerdictStore.__init__"),
    Target("store.get", "repro.store.verdicts", "VerdictStore.get",
           ("store.hits", lambda result: int(result is not None))),
    Target("store.put", "repro.store.verdicts", "VerdictStore.put"),
    Target("store.flush", "repro.store.verdicts", "VerdictStore.flush"),
    Target("store.flush", "repro.store.verdicts", "VerdictStore.close"),
)


def _wrap(fn: Callable, target: Target, recorder: Recorder) -> Callable:
    layer = target.layer
    tally_name, tally = target.tally or (None, None)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = recorder.begin(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(index)
        if tally is not None:
            recorder.counts[tally_name] += tally(result)
        return result

    return traced


class Installation:
    """The wrappers :func:`install` put in place, and how to remove them."""

    def __init__(self) -> None:
        #: Undo log: (owner, name, original binding).
        self.replaced: List[Tuple[object, str, object]] = []
        #: ``module:attr`` of every target that was not found.
        self.missing: List[str] = []

    def remove(self) -> None:
        """Restore every binding the wrappers replaced."""
        while self.replaced:
            owner, name, original = self.replaced.pop()
            setattr(owner, name, original)


def install(recorder: Recorder,
            targets: Sequence[Target] = TARGETS) -> Installation:
    """Wrap every target that exists, recording into ``recorder``.

    A module-level function is rebound in every loaded ``repro`` module that
    imported it by name; a method is replaced on its class.
    """
    installed = Installation()
    for target in targets:
        try:
            owner = importlib.import_module(target.module)
            *owner_path, name = target.attr.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            original = owner.__dict__[name]
        except (ImportError, AttributeError, KeyError):
            installed.missing.append(f"{target.module}:{target.attr}")
            continue
        wrapper = _wrap(original, target, recorder)
        if owner_path:
            installed.replaced.append((owner, name, original))
            setattr(owner, name, wrapper)
            continue
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for alias, value in list(vars(module).items()):
                if value is original:
                    installed.replaced.append((module, alias, original))
                    setattr(module, alias, wrapper)
    return installed


# ---------------------------------------------------------------------------
# Reduction: spans -> per-layer seconds
# ---------------------------------------------------------------------------


@dataclass
class LayerTimes:
    """Per-layer totals over a set of spans."""

    inclusive: Dict[str, float]
    self_time: Dict[str, float]
    calls: Dict[str, int]


def reduce_spans(spans: Sequence[Span]) -> LayerTimes:
    """Inclusive (outermost-only) seconds, self seconds and calls per name."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    inclusive: Dict[str, float] = defaultdict(float)
    self_time: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for index, (name, start, end, parent) in enumerate(spans):
        duration = end - start
        self_time[name] += duration - child_time[index]
        calls[name] += 1
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            inclusive[name] += duration
    return LayerTimes(dict(inclusive), dict(self_time), dict(calls))


def merge_times(parts: Sequence[LayerTimes]) -> LayerTimes:
    """Sum the totals of several processes' reductions."""
    out = LayerTimes({}, {}, {})
    for part in parts:
        for mine, theirs in ((out.inclusive, part.inclusive),
                             (out.self_time, part.self_time),
                             (out.calls, part.calls)):
            for name, value in theirs.items():
                mine[name] = mine.get(name, 0) + value
    return out
