"""The three workloads: inputs, one pass over them, and its known answers.

* ``study`` — the representatives of the full-scale corpus, each sent to
  ``explain(source)`` in-process (the paper's Section 3 workload).
* ``well-typed`` — for each representative, the declarations before its
  first mutated declaration (``Mutation.path``, i.e. ground truth), each
  sent to ``explain(source)`` in-process: files that type-check.
* ``recompile`` — every raw file of the half-scale corpus, same-problem
  repeats included, written in timestamp order and run through one
  ``python -m repro explain --dir D --store S --jobs 2`` process with an
  empty store.

A pass is one closed-loop sweep over a workload's inputs from a single
client: the next file is sent only after the previous message came back.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.core.seminal import explain
from repro.corpus.generator import generate_corpus
from repro.corpus.grading import grade_seminal
from repro.miniml.ast_nodes import Program
from repro.miniml.pretty import pretty_program
from repro.obs import MetricsRegistry

import pace
from layers import FILE, LayerTimes, Recorder

WORKLOADS = ("study", "well-typed", "recompile")
#: Corpus scale per workload.  ``recompile`` runs the half-scale corpus:
#: every assignment and programmer still appears, and one CLI pass stays
#: short enough for a run to repeat it.
SCALES = {"study": 1.0, "well-typed": 1.0, "recompile": 0.5}
#: Seconds of ``--seconds`` budgeted to one pass, per workload.  A run
#: makes ``round(seconds / PASS_SECONDS)`` passes (at least
#: :data:`MIN_PASSES`): the count depends on the run length alone, never
#: on how fast the code under test happens to be, so every commit takes
#: the same samples.  On the 2-vCPU host the benchmark was sized on, an
#: untraced pass takes 4-6 s (``study``), 0.8-1.4 s (``well-typed``) and
#: 10-15 s (``recompile``).  ``well-typed`` is budgeted more than its pass
#: takes, because its per-file medians settle within 15 passes;
#: ``recompile`` less, because its run-to-run spread needs four passes.
PASS_SECONDS = {"study": 6.0, "well-typed": 2.0, "recompile": 7.5}
MIN_PASSES = 2


RECOMPILE_JOBS = 2
#: A CLI pass that takes longer than this is killed and counted as failed.
CLI_TIMEOUT_S = 120.0


def pass_count(workload: str, seconds: float) -> int:
    """How many passes a run of ``seconds`` makes of ``workload``."""
    return max(MIN_PASSES, round(seconds / PASS_SECONDS[workload]))


@dataclass
class Inputs:
    """One workload's generated inputs and their known answers."""

    workload: str
    seed: int
    scale: float
    labels: List[str]
    sources: List[str]
    #: The known verdict per file: True for "type-checks".
    expect_ok: List[bool]
    #: The injected mutations per ill-typed file (None for well-typed ones).
    mutated: List[object]
    #: Where the sources were written (``recompile`` only).
    source_dir: Optional[Path] = None

    @property
    def digest(self) -> str:
        """Fingerprint of the generated sources: runs whose digests differ
        measured different inputs and are never compared."""
        h = hashlib.sha256()
        for label, source in zip(self.labels, self.sources):
            h.update(label.encode() + b"\0" + source.encode() + b"\0")
        return h.hexdigest()[:16]

    def fingerprint(self) -> Dict[str, object]:
        return {"workload": self.workload, "seed": self.seed,
                "scale": self.scale, "files": len(self.sources),
                "digest": self.digest}


def make_inputs(workload: str, seed: int, scale: float,
                workdir: Path) -> Inputs:
    """Generate a workload's inputs (the set-up the benchmark times)."""
    corpus = generate_corpus(seed=seed, scale=scale)
    if workload == "study":
        reps = corpus.representatives
        return Inputs(workload, seed, scale,
                      labels=[f"rep{i:04d}" for i in range(len(reps))],
                      sources=[pretty_program(f.program) for f in reps],
                      expect_ok=[False] * len(reps),
                      mutated=[f.mutated for f in reps])
    if workload == "well-typed":
        labels, sources = [], []
        for i, f in enumerate(corpus.representatives):
            first = min(m.path[0][1] for m in f.mutated.mutations)
            if first > 0:
                labels.append(f"rep{i:04d}")
                sources.append(pretty_program(Program(f.program.decls[:first])))
        return Inputs(workload, seed, scale, labels, sources,
                      expect_ok=[True] * len(sources),
                      mutated=[None] * len(sources))
    if workload == "recompile":
        files = sorted(corpus.files, key=lambda f: f.timestamp)
        source_dir = workdir / "src"
        shutil.rmtree(source_dir, ignore_errors=True)
        source_dir.mkdir(parents=True)
        labels, sources = [], []
        for i, f in enumerate(files):
            path = source_dir / f"f{i:05d}.ml"
            source = pretty_program(f.program)
            path.write_text(source)
            labels.append(str(path))
            sources.append(source)
        return Inputs(workload, seed, scale, labels, sources,
                      expect_ok=[False] * len(files),
                      mutated=[f.mutated for f in files],
                      source_dir=source_dir)
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class PassResult:
    """What one pass over the inputs measured and produced."""

    traced: bool
    wall_s: float
    #: Per-file seconds to message, by label (missing files absent).
    latencies: Dict[str, float]
    #: ``wall_s`` and ``latencies`` at the reference speed (see ``pace``).
    scaled_wall_s: float
    scaled: Dict[str, float]
    #: Digest of every rendered report of the pass, in input order.
    reports_digest: str
    #: Labels of files that raised, got the wrong verdict, degraded or
    #: became an error row.
    failures: List[str] = field(default_factory=list)
    #: Per-file grades (see :func:`grade_result`), when the pass graded.
    grades: List[int] = field(default_factory=list)
    #: The rendered report per label (CLI passes; checked against the
    #: in-process reference afterwards).
    reports: Dict[str, str] = field(default_factory=dict)
    #: Traced passes only: registry counters, per-layer span totals,
    #: wrapper tallies, and the CLI-level figures of a traced CLI pass.
    counters: Dict[str, int] = field(default_factory=dict)
    layers: Optional[LayerTimes] = None
    tallies: Dict[str, int] = field(default_factory=dict)
    extra: Dict[str, float] = field(default_factory=dict)
    #: Wrapped entry points that were not found.
    missing: List[str] = field(default_factory=list)


def _digest(texts: List[str]) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode() + b"\0")
    return h.hexdigest()[:16]


def inprocess_pass(inputs: Inputs, recorder: Optional[Recorder],
                   grade: bool = False) -> PassResult:
    """Send every source to ``explain`` and render its report.

    With ``grade`` the pass also grades each result (untimed) and keeps
    only the grades, so no pass holds on to its results.
    """
    registry = MetricsRegistry() if recorder is not None else None
    latencies: Dict[str, float] = {}
    scaled: Dict[str, float] = {}
    reports, failures, grades = [], [], []
    clock = time.perf_counter
    before = pace.speed()
    for label, source, expect_ok, mutated in zip(
        inputs.labels, inputs.sources, inputs.expect_ok, inputs.mutated
    ):
        t0 = clock()
        span = recorder.begin(FILE) if recorder is not None else None
        try:
            result = explain(source, metrics=registry)
            text = result.render()
        except Exception as err:  # counted and reported, never fatal
            result, text = None, f"raised {type(err).__name__}: {err}"
            print(f"error: {label}: {text}", file=sys.stderr)
        finally:
            if recorder is not None:
                recorder.end(span)
        t1 = clock()
        # The host's speed on either side of the file.
        after = pace.speed()
        latencies[label] = t1 - t0
        scaled[label] = (t1 - t0) * (before + after) / 2
        before = after
        reports.append(text)
        if result is None or result.ok != expect_ok or result.degraded:
            failures.append(label)
        if grade:
            grades.append(grade_result(mutated, result))
    return PassResult(recorder is not None, sum(latencies.values()), latencies,
                      sum(scaled.values()), scaled, _digest(reports),
                      failures, grades=grades,
                      counters=registry.counters() if registry is not None else {})


def grade_result(mutated, result) -> int:
    """0, 1 or 2 for one file's displayed report.

    For an ill-typed input this is ``grade_seminal`` against its injected
    mutations.  A well-typed file's known answer is "type-checks" with no
    suggestion: 2 for exactly that, else 0.
    """
    if result is None:
        return 0
    if mutated is None:
        return 2 if result.ok and not result.suggestions else 0
    return grade_seminal(mutated, result).score


def accuracy(grades: List[int]) -> Dict[str, float]:
    """Shares of files graded 2 (suggestion) and at least 1 (location)."""
    n = len(grades)
    return {"suggestion_accuracy": sum(g == 2 for g in grades) / n,
            "location_accuracy": sum(g >= 1 for g in grades) / n}


def _run_cli(cmd: List[str], cwd: Path, env: Dict[str, str]):
    """Run one CLI process in its own session; kill the group on timeout."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return None, out, err
    except BaseException:
        # Interrupted or terminated: take the CLI and its workers down too.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out, err


def _sections(lines: List[str]) -> Dict[str, str]:
    """Split ``--verbose`` output (``== label ==`` then the report, blank
    lines between) into one report per label."""
    sections: Dict[str, List[str]] = {}
    current: List[str] = []
    for line in lines:
        if line.startswith("== ") and line.endswith(" =="):
            current = sections.setdefault(line[3:-3], [])
        else:
            current.append(line)
    out = {}
    for label, body in sections.items():
        if body and body[-1] == "":
            body = body[:-1]
        out[label] = "\n".join(body)
    return out


def reference(inputs: Inputs) -> Dict[str, object]:
    """In-process ``explain`` result per distinct source (the known answer
    a CLI report must reproduce)."""
    out: Dict[str, object] = {}
    for source in inputs.sources:
        if source not in out:
            out[source] = explain(source)
    return out


def cli_pass(inputs: Inputs, root: Path, workdir: Path,
             traced: bool) -> PassResult:
    """One ``python -m repro explain --dir`` process over the written files,
    starting from an empty verdict store."""
    store = workdir / "store"
    shutil.rmtree(store, ignore_errors=True)
    events = workdir / "events.jsonl"
    events.unlink(missing_ok=True)
    trace_dir = workdir / "trace"
    args = ["explain", "--dir", str(inputs.source_dir), "--store", str(store),
            "--jobs", str(RECOMPILE_JOBS), "--verbose", "--events", str(events)]
    if traced:
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
        cmd = [sys.executable, str(Path(__file__).with_name("tracedcli.py")),
               str(trace_dir)] + args
    else:
        cmd = [sys.executable, "-m", "repro"] + args
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    launched = time.time()
    started = time.perf_counter()
    with pace.Sampler() as sampler:
        code, out, _ = _run_cli(cmd, root, env)
    wall = time.perf_counter() - started
    speed = sampler.mean()

    n = len(inputs.labels)
    lines = out.splitlines()
    rows = lines[1:1 + n]
    labels = [row.split()[0] for row in rows if row.split()]
    failures = []
    if code not in (1, 3) or labels != inputs.labels:
        failures = list(inputs.labels)
    else:
        for row in rows:
            status = row.split()[1]
            if status not in ("ill-typed", "no-answer") or row.endswith("[degraded]"):
                failures.append(row.split()[0])
    elapsed: Dict[str, float] = {}
    counters: Dict[str, int] = {}
    if events.exists():
        for line in events.read_text().splitlines():
            record = json.loads(line)
            if record["type"] == "search_finished":
                elapsed[record["label"]] = record["elapsed_seconds"]
            elif record["type"] == "metrics":
                counters = record["counters"]
    result = PassResult(traced, wall, elapsed, wall * speed,
                        {label: t * speed for label, t in elapsed.items()},
                        _digest(lines[2 + n:]), failures,
                        reports=_sections(lines[2 + n:]))
    if traced:
        from tracedcli import read_trace

        result.counters = counters
        result.layers, result.tallies, result.extra, result.missing = (
            read_trace(trace_dir, launched))
    return result
