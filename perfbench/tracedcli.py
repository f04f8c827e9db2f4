"""Run ``python -m repro`` with the layer wrappers installed.

Usage: ``python perfbench/tracedcli.py TRACE_DIR explain ...``

Every process of the run — the CLI parent and each forked batch worker —
records spans in memory.  A batch worker writes its spans to
``TRACE_DIR/spans-<pid>.pkl`` after each task (pool workers leave through
``os._exit``, so an exit hook would never run); the parent writes its own
spans and ``TRACE_DIR/meta.json`` (wrapper set-up seconds, batch
start/end, summed per-file seconds, jobs) when the CLI returns.  :func:`read_trace` reduces
the directory to per-layer totals.
"""

from __future__ import annotations

import functools
import json
import os
import pickle
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import (  # noqa: E402
    FILE, LayerTimes, Recorder, install, merge_times, reduce_spans,
)


def _flush(recorder: Recorder, trace_dir: Path) -> None:
    spans, counts = recorder.take()
    with open(trace_dir / f"spans-{os.getpid()}.pkl", "ab") as handle:
        pickle.dump((spans, counts), handle)


def main(argv) -> int:
    trace_dir = Path(argv[0])
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    import repro.cli
    import repro.core.parallel
    import repro.core.seminal

    installing = time.time()
    recorder = Recorder()
    installed = install(recorder)
    os.register_at_fork(after_in_child=recorder.reset)
    meta: Dict[str, object] = {"missing": installed.missing}

    worker = repro.core.parallel.explain_batch_worker

    @functools.wraps(worker)
    def traced_worker(*args, **kwargs):
        span = recorder.begin(FILE)
        try:
            return worker(*args, **kwargs)
        finally:
            recorder.end(span)
            _flush(recorder, trace_dir)

    batch = repro.core.seminal.explain_many

    @functools.wraps(batch)
    def timed_batch(sources, labels=None, *, jobs=1, **kwargs):
        meta["batch_start"] = time.time()
        entries = batch(sources, labels, jobs=jobs, **kwargs)
        meta["batch_end"] = time.time()
        meta["jobs"] = repro.core.parallel.resolve_jobs(jobs)
        meta["search_s"] = sum(e.elapsed_seconds for e in entries)
        return entries

    repro.core.parallel.explain_batch_worker = traced_worker
    repro.core.seminal.explain_many = timed_batch
    meta["install_s"] = time.time() - installing
    try:
        return repro.cli.main(argv[1:])
    finally:
        _flush(recorder, trace_dir)
        (trace_dir / "meta.json").write_text(json.dumps(meta))


def read_trace(trace_dir: Path, launched: float) -> Tuple[
        LayerTimes, Dict[str, int], Dict[str, float], List[str]]:
    """Reduce one traced CLI run: per-layer totals over all its processes,
    summed tallies, the CLI-level figures, and the missing entry points.

    ``launched`` is the wall-clock time the benchmark started the process;
    ``cli.startup_s`` runs from there to the batch start, less the time
    spent installing the wrappers.
    """
    parts, tallies = [], {}
    for path in sorted(trace_dir.glob("spans-*.pkl")):
        with open(path, "rb") as handle:
            while True:
                try:
                    spans, counts = pickle.load(handle)
                except EOFError:
                    break
                parts.append(reduce_spans(spans))
                for name, value in counts.items():
                    tallies[name] = tallies.get(name, 0) + value
    meta = json.loads((trace_dir / "meta.json").read_text())
    extra = {
        "cli.startup_s": meta["batch_start"] - launched - meta["install_s"],
        "batch.pool_overhead_s": meta["batch_end"] - meta["batch_start"]
        - meta["search_s"] / meta["jobs"],
    }
    return merge_times(parts), tallies, extra, meta["missing"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
