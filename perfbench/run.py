"""Benchmark of record: ``study``, ``well-typed`` and ``recompile``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload study --seed 2007 --seconds 30 --trace 0

One run generates the workload's inputs from ``--seed`` (timing that set-up
several times), then runs a fixed number of closed-loop passes over them
from one client, set by ``--seconds`` alone (see
``workloads.PASS_SECONDS``), checks every output against its known answer,
and prints one JSON line last: ``{"correct", "attempted", "failed",
"metrics"}``.

``--trace 0`` reports the end-to-end metrics (:data:`END_TO_END`).
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics (:data:`PER_LAYER`), measured by wrapping each layer's
entry points from outside ``src/`` (see ``layers.py``); per-layer seconds
and counts are per pass over the workload's inputs.

Scratch files live under ``.perfbench/`` in the working directory; the
per-run record (input fingerprint, report digests, every metric) is kept
in ``.perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: (name, unit, better) — reported with ``--trace 0``.
END_TO_END = (
    ("files_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("suggestion_accuracy", "ratio", "higher"),
    ("location_accuracy", "ratio", "higher"),
    ("ok_share", "ratio", "higher"),
)

#: (name, unit, better) — reported with ``--trace 1``.
PER_LAYER = (
    ("lexer.s", "s", "lower"),
    ("lexer.tokens_per_s", "1/s", "higher"),
    ("parser.self_s", "s", "lower"),
    ("searcher.localize_s", "s", "lower"),
    ("searcher.self_s", "s", "lower"),
    ("triage.s", "s", "lower"),
    ("enumerator.s", "s", "lower"),
    ("enumerator.changes", "count", "lower"),
    ("oracle.calls", "count", "lower"),
    ("oracle.checks", "count", "lower"),
    ("oracle.self_s", "s", "lower"),
    ("oracle.pass_ratio", "ratio", "higher"),
    ("oracle.memo_hit_ratio", "ratio", "higher"),
    ("infer.s", "s", "lower"),
    ("oracle.prefix.reused", "count", "higher"),
    ("oracle.decl.checked", "count", "lower"),
    ("oracle.decl.replayed", "count", "higher"),
    ("oracle.trail.speculated", "count", "higher"),
    ("oracle.full_checks", "count", "lower"),
    ("oracle.prefix.fallbacks", "count", "lower"),
    ("oracle.decl.fallbacks", "count", "lower"),
    ("oracle.trail.fallbacks", "count", "lower"),
    ("tree.key_s", "s", "lower"),
    ("tree.depth_probe_s", "s", "lower"),
    ("ranker.s", "s", "lower"),
    ("messages.s", "s", "lower"),
    ("store.open_s", "s", "lower"),
    ("store.get_s", "s", "lower"),
    ("store.put_s", "s", "lower"),
    ("store.flush_s", "s", "lower"),
    ("store.hit_ratio", "ratio", "higher"),
    ("cli.startup_s", "s", "lower"),
    ("batch.pool_overhead_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.uncovered_share", "ratio", "lower"),
)

#: How many times one run times the set-up (it reports the median).
SETUP_REPEATS = 3
#: Files explained untimed before the first pass (imports, lazy tables).
WARMUP_FILES = 3
#: Registry counters reported per pass as they are.
REGISTRY_COUNTS = (
    "oracle.calls", "oracle.prefix.reused", "oracle.decl.checked",
    "oracle.decl.replayed", "oracle.trail.speculated", "oracle.full_checks",
    "oracle.prefix.fallbacks", "oracle.decl.fallbacks",
    "oracle.trail.fallbacks",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("study", "well-typed", "recompile"))
    parser.add_argument("--seed", type=int, default=2007)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(inputs, count, trace, workdir, spans_out):
    """``count`` closed-loop passes; when tracing, untraced and traced
    passes alternate.  Each pass starts from a collected heap."""
    import layers
    import workloads

    recorder = layers.Recorder()
    passes = []
    for index in range(count):
        traced = trace and index % 2 == 1
        gc.collect()
        if inputs.workload == "recompile":
            result = workloads.cli_pass(inputs, ROOT, workdir, traced)
        elif traced:
            installed = layers.install(recorder)
            try:
                result = workloads.inprocess_pass(inputs, recorder,
                                                  grade=not passes)
            finally:
                installed.remove()
            spans, result.tallies = recorder.take()
            spans_out.append(spans)
            result.layers = layers.reduce_spans(spans)
            result.missing = installed.missing
        else:
            result = workloads.inprocess_pass(inputs, None, grade=not passes)
        passes.append(result)
    return passes


def check(inputs, passes):
    """Failures per pass plus the report-digest comparison across passes;
    returns (failed count, accuracy metrics, report digests)."""
    import workloads
    from stats import ratio

    failed = sum(len(p.failures) for p in passes)
    if inputs.workload == "recompile":
        known = workloads.reference(inputs)
        for p in passes:
            for label, source in zip(inputs.labels, inputs.sources):
                if label in p.failures:
                    continue
                if p.reports.get(label) != known[source].render():
                    p.failures.append(label)
                    failed += 1
        # A CLI report either equals the in-process one (and so grades the
        # same) or fails; its accuracy is the share of the in-process
        # grades the CLI delivered.
        grades = [workloads.grade_result(mutated, known[source])
                  for mutated, source in zip(inputs.mutated, inputs.sources)]
        failing = {label for p in passes for label in p.failures}
        delivered = workloads.accuracy(
            [0 if label in failing else grade
             for label, grade in zip(inputs.labels, grades)])
        reached = workloads.accuracy(grades)
        accuracy = {name: ratio(delivered[name], reached[name])
                    for name in delivered}
    else:
        accuracy = workloads.accuracy(passes[0].grades)
    digests = {p.reports_digest for p in passes}
    if len(digests) > 1:
        # Repetitions of one code version must render identical reports.
        failed = len(inputs.labels) * len(passes)
    return failed, accuracy, sorted(digests)


def time_metrics(inputs, passes, scaled=True):
    """``files_per_s`` and the latency percentiles over the untraced passes,
    at the reference speed (``scaled``, see ``pace``) or as measured.

    Times are medians over the passes: the latency percentiles are over
    each file's median time to message, and ``files_per_s`` is over the
    sum of those medians in-process, or over the median pass's wall clock
    for the CLI (whose files overlap in its worker pool).  Over consecutive
    windows of five ``study`` passes, the per-file medians moved about half
    as much as the per-file fastest times.
    """
    from stats import percentile

    timed = [p for p in passes if not p.traced]
    per_file = [(p.scaled if scaled else p.latencies) for p in timed]
    typical = [statistics.median(t[label] for t in per_file if label in t)
               for label in inputs.labels
               if any(label in t for t in per_file)]
    typical_ms = [1000.0 * seconds for seconds in typical]
    if inputs.workload == "recompile":
        files_per_s = len(inputs.labels) / statistics.median(
            p.scaled_wall_s if scaled else p.wall_s for p in timed)
    else:
        files_per_s = len(typical) / sum(typical)
    return {"files_per_s": files_per_s,
            "latency_p50_ms": percentile(typical_ms, 50),
            "latency_p90_ms": percentile(typical_ms, 90)}


def end_to_end(inputs, passes, setup_times, accuracy, failed, attempted):
    """The end-to-end metrics; every time is at the reference speed."""
    if inputs.workload == "recompile":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = peak_rss_kb()
    return dict(
        time_metrics(inputs, passes),
        setup_s=statistics.median(setup_times),
        peak_rss_mb=rss_kb / 1024.0,
        suggestion_accuracy=accuracy["suggestion_accuracy"],
        location_accuracy=accuracy["location_accuracy"],
        ok_share=1.0 - failed / attempted,
    )


def reset_peak_rss() -> None:
    """Start the process's peak-RSS mark afresh (Linux ``clear_refs``), so
    that set-up and warm-up do not set the peak the passes report."""
    Path("/proc/self/clear_refs").write_text("5")


def peak_rss_kb() -> int:
    """The process's peak RSS in KiB since :func:`reset_peak_rss`."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def per_layer(passes):
    from layers import FILE, merge_times
    from stats import ratio

    traced = [p for p in passes if p.traced]
    n = len(traced)
    times = merge_times([p.layers for p in traced])
    tallies, counters, extra = {}, {}, {}
    for p in traced:
        for mine, theirs in ((tallies, p.tallies), (counters, p.counters),
                             (extra, p.extra)):
            for name, value in theirs.items():
                mine[name] = mine.get(name, 0) + value

    def inclusive(layer):
        return times.inclusive.get(layer, 0.0) / n

    def self_s(layer):
        return times.self_time.get(layer, 0.0) / n

    checks = times.calls.get("oracle", 0)
    memo_hits = counters.get("search.dedup_skipped", 0) + counters.get(
        "oracle.cache.hits", 0)
    out = {
        "lexer.s": inclusive("lexer"),
        "lexer.tokens_per_s": ratio(tallies.get("lexer.tokens", 0),
                                    times.inclusive.get("lexer", 0.0)),
        "parser.self_s": self_s("parser"),
        "searcher.localize_s": inclusive("localize"),
        "searcher.self_s": self_s("searcher"),
        "triage.s": inclusive("triage"),
        "enumerator.s": inclusive("enumerator"),
        "enumerator.changes": tallies.get("enumerator.changes", 0) / n,
        "oracle.checks": checks / n,
        "oracle.self_s": self_s("oracle"),
        "oracle.pass_ratio": ratio(tallies.get("oracle.passed", 0), checks),
        "oracle.memo_hit_ratio": ratio(
            memo_hits, counters.get("search.dedup_skipped", 0) + checks),
        "infer.s": inclusive("infer"),
        "tree.key_s": inclusive("keyer"),
        "tree.depth_probe_s": inclusive("depth_probe"),
        "ranker.s": inclusive("ranker"),
        "messages.s": inclusive("messages"),
        "store.open_s": inclusive("store.open"),
        "store.get_s": inclusive("store.get"),
        "store.put_s": inclusive("store.put"),
        "store.flush_s": inclusive("store.flush"),
        "store.hit_ratio": ratio(tallies.get("store.hits", 0),
                                 times.calls.get("store.get", 0)),
        "cli.startup_s": extra.get("cli.startup_s", 0.0) / n,
        "batch.pool_overhead_s": extra.get("batch.pool_overhead_s", 0.0) / n,
        "trace.overhead_s": statistics.median([p.wall_s for p in traced])
        - statistics.median([p.wall_s for p in passes if not p.traced]),
        "trace.uncovered_share": ratio(times.self_time.get(FILE, 0.0),
                                       times.inclusive.get(FILE, 0.0)),
    }
    for name in REGISTRY_COUNTS:
        out[name] = counters.get(name, 0) / n
    return out


def bench(workload, seed, scale, count, trace, workdir):
    """One run: set up ``workload`` at ``seed`` and ``scale`` (timed
    :data:`SETUP_REPEATS` times), make ``count`` passes and check them.

    Returns the result object, the per-run record and the traced passes'
    raw spans.  ``workdir`` holds the written sources and the store, and
    is removed at the end.
    """
    import pace
    import workloads

    sys.setrecursionlimit(max(sys.getrecursionlimit(), 10000))
    try:
        setup_times, setup_scaled = [], []
        for _ in range(SETUP_REPEATS):
            before = pace.speed()
            started = time.perf_counter()
            inputs = workloads.make_inputs(workload, seed, scale, workdir)
            setup_times.append(time.perf_counter() - started)
            setup_scaled.append(setup_times[-1] * (before + pace.speed()) / 2)
        fingerprint = inputs.fingerprint()
        print("inputs " + json.dumps(fingerprint, sort_keys=True), flush=True)
        if workload != "recompile":
            for source in inputs.sources[:WARMUP_FILES]:
                workloads.explain(source).render()
        # The benchmark's own data stays out of every later collection,
        # and the passes' peak memory is their own.
        gc.collect()
        gc.freeze()
        reset_peak_rss()
        spans_out = []
        passes = measure(inputs, count, trace, workdir, spans_out)
        missing = sorted({name for p in passes for name in p.missing})
        attempted = len(inputs.labels) * len(passes)
        failed, accuracy, digests = check(inputs, passes)
        if trace:
            metrics = per_layer(passes)
            specs = PER_LAYER
        else:
            metrics = end_to_end(inputs, passes, setup_scaled, accuracy,
                                 failed, attempted)
            specs = END_TO_END
    finally:
        gc.unfreeze()
        shutil.rmtree(workdir, ignore_errors=True)
    if missing:
        print("warning: layer entry points not found: " + ", ".join(missing),
              file=sys.stderr)
    print("reports " + json.dumps({"digests": digests,
                                   "passes": len(passes)}), flush=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, _ in specs},
    }
    # The times as measured, before scaling to the reference speed.
    measured = dict(time_metrics(inputs, passes, scaled=False),
                    setup_s=statistics.median(setup_times))
    print("measured " + json.dumps(measured), flush=True)
    record = dict(result, inputs=fingerprint, reports=digests,
                  measured=measured, pass_walls=[p.wall_s for p in passes],
                  traced=[p.traced for p in passes], missing=missing)
    return result, record, spans_out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Termination unwinds like an exception, so a running CLI pass kills
    # its process group and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    out_dir = Path(".perfbench") / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    # A fixed relative path: file labels (and so the input and report
    # digests) must not depend on the process or the checkout's location.
    result, record, spans_out = bench(
        args.workload, args.seed, workloads.SCALES[args.workload],
        workloads.pass_count(args.workload, args.seconds), args.trace,
        Path(".perfbench") / args.workload)
    stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1))
    if spans_out:
        with open(f"{stem}.spans.pkl", "wb") as handle:
            pickle.dump(spans_out, handle)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
