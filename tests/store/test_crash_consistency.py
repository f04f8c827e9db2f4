"""Crash consistency: a writer killed mid-run must never poison the store.

Every flush is one sqlite transaction, so a reader can only ever observe
whole commits.  These tests kill writing processes for real — ``os._exit``
on the Nth oracle check or between ``BEGIN`` and ``COMMIT``, the kill no
``except`` can catch, and a SIGINT mid-flush — and then assert the
recovery story: the next reader opens cleanly, serves whatever was
committed, sees nothing of the dead transaction, and the next run
backfills the verdicts the crash lost.  Writers flushing at once all
land.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[2] / "src")

ILL_TYPED = "let f x = x + 1\nlet b = f true\n"

#: Runs in a child process: checks programs against an oracle that
#: hard-exits the whole process on the Nth call, flushing the verdict
#: store after every check so earlier answers are already committed when
#: the kill lands.
WRITER_SCRIPT = """
import os
import sys
from repro.core.oracle import Oracle
from repro.miniml.parser import parse_program
from repro.store import VerdictStore

store_dir, crash_every = sys.argv[1], int(sys.argv[2])


class KillingOracle(Oracle):
    def _check_once(self, program):
        if self.calls % crash_every == 0:
            os._exit(23)
        return super()._check_once(program)


store = VerdictStore(store_dir)
oracle = KillingOracle(store=store)
programs = [
    "let a = 1 + 2",
    "let b = true && false",
    "let c = [1; 2; 3]",
    "let d = 1 + true",
    "let e = if 1 then 2 else 3",
    "let f x = x + 1\\nlet g = f true",
]
for source in programs:
    oracle.check(parse_program(source))
    store.flush()
print("survived", oracle.calls)
"""

#: Runs in a child process: commits two verdicts, then dies with
#: ``os._exit`` after the third verdict's INSERT, before its COMMIT.
MID_TRANSACTION_KILL_SCRIPT = """
import os, sys
from repro.store import NO_PREFIX_FP, VerdictStore

class DieBeforeCommit(VerdictStore):
    def _sql(self, statement, *params):
        if statement == "COMMIT" and getattr(self, "die", False):
            os._exit(29)
        return super()._sql(statement, *params)

store = DieBeforeCommit(sys.argv[1])
store.put(NO_PREFIX_FP, ("committed-1",), True, "full")
store.put(NO_PREFIX_FP, ("committed-2",), False, "full", err="no")
store.flush()
store.die = True
store.put(NO_PREFIX_FP, ("lost",), True, "full")
store.flush()
print("UNREACHED", flush=True)
"""

#: Runs in a child process: buffers 200 verdicts of its own, waits until
#: the agreed start time, then flushes them — several of these collide.
CONCURRENT_WRITER_SCRIPT = """
import sys, time
from repro.store import NO_PREFIX_FP, VerdictStore

store = VerdictStore(sys.argv[1])
tag, start = sys.argv[2], float(sys.argv[3])
for i in range(200):
    store.put(NO_PREFIX_FP, (tag, i), i % 2 == 0, "full")
time.sleep(max(0.0, start - time.time()))
print("committed", store.flush(), "errors", store.io_errors, flush=True)
store.close()
"""


def _child(script, *args, **kwargs):
    return subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
        timeout=120,
        **kwargs,
    )


def _run_writer(store_dir, crash_every):
    return _child(WRITER_SCRIPT, store_dir, crash_every)


class TestHardExitWriter:
    def test_killed_writer_leaves_usable_store(self, tmp_path):
        from repro.store import VerdictStore

        store_dir = tmp_path / "s"
        proc = _run_writer(store_dir, crash_every=4)
        assert proc.returncode == 23  # hard-exit fired, writer is dead
        assert "survived" not in proc.stdout

        store = VerdictStore(store_dir)
        # Verdicts committed before the kill are served; the run after the
        # kill never raises on whatever the corpse left behind.
        assert len(store) == 3
        assert store.io_errors == 0
        assert store.invalidated == 0

    def test_next_run_backfills_lost_verdicts(self, tmp_path):
        from repro.core.oracle import Oracle
        from repro.miniml.parser import parse_program
        from repro.store import VerdictStore

        store_dir = tmp_path / "s"
        assert _run_writer(store_dir, crash_every=4).returncode == 23
        before = len(VerdictStore(store_dir, read_only=True))

        oracle = Oracle(store=VerdictStore(store_dir))
        oracle.check(parse_program(ILL_TYPED))
        oracle.store.close()

        after = VerdictStore(store_dir, read_only=True)
        assert len(after) > before  # the crash-lost verdicts re-accumulate
        assert after.io_errors == 0

    def test_torn_tmp_from_dead_writer_is_invisible(self, tmp_path):
        from repro.store import NO_PREFIX_FP, VerdictStore

        store_dir = tmp_path / "s"
        proc = _child(MID_TRANSACTION_KILL_SCRIPT, store_dir)
        assert proc.returncode == 29, proc.stderr
        assert "UNREACHED" not in proc.stdout
        # A temp file of the older segment format, from a writer that died
        # before its rename: ignored like the dead transaction.
        (store_dir / ".tmp-31337-1").write_text('{"v": 1, "chec')

        reader = VerdictStore(store_dir)
        assert reader.io_errors == 0
        assert len(reader) == 2  # both committed verdicts, nothing torn
        assert reader.get(NO_PREFIX_FP, ("lost",)) is None
        assert reader.get(NO_PREFIX_FP, ("committed-2",)).err == "no"
        # The store stays writable after the recovery.
        reader.put(NO_PREFIX_FP, ("after",), True, "full")
        assert reader.flush() == 1


#: More writers than the two cores of the development host.
TAGS = ("left", "middle", "right")


class TestConcurrentWriters:
    def test_processes_flushing_at_once_all_land(self, tmp_path):
        import time

        from repro.store import NO_PREFIX_FP, VerdictStore

        store_dir = tmp_path / "s"
        VerdictStore(store_dir).close()  # every writer finds the schema
        start = time.time() + 2.0
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", CONCURRENT_WRITER_SCRIPT,
                 str(store_dir), tag, str(start)],
                env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for tag in TAGS
        ]
        outs = [proc.communicate(timeout=120) for proc in procs]
        for proc, (out, err) in zip(procs, outs):
            assert proc.returncode == 0, err
            assert out.split() == ["committed", "200", "errors", "0"]

        reader = VerdictStore(store_dir, read_only=True)
        assert len(reader) == 200 * len(TAGS)
        for tag in TAGS:
            for i in range(200):
                entry = reader.get(NO_PREFIX_FP, (tag, i))
                assert entry is not None and entry.ok == (i % 2 == 0)


#: Runs in a child process: commits some verdicts, then starts a flush
#: that blocks *inside* its transaction — after the INSERT, before the
#: COMMIT — prints a marker, and waits for the parent's SIGINT.  The
#: interrupt therefore provably lands mid-flush, the worst possible moment.
INTERRUPTED_WRITER_SCRIPT = """
import sys, time
from repro.store import NO_PREFIX_FP, VerdictStore

class MidWriteStall(VerdictStore):
    def _sql(self, statement, *params):
        if statement == "COMMIT" and getattr(self, "stall", False):
            print("MID-WRITE", flush=True)
            time.sleep(30)  # SIGINT lands here
        return super()._sql(statement, *params)

store = MidWriteStall(sys.argv[1])
store.put(NO_PREFIX_FP, ("published-1",), True, "full")
store.put(NO_PREFIX_FP, ("published-2",), False, "full")
store.flush()
store.stall = True
store.put(NO_PREFIX_FP, ("torn",), True, "full")
store.flush()
print("UNREACHED", flush=True)
"""


class TestSigintWriter:
    def test_interrupt_mid_publication_leaves_store_clean(self, tmp_path):
        import os
        import signal

        from repro.store import NO_PREFIX_FP, VerdictStore

        store_dir = tmp_path / "s"
        proc = subprocess.Popen(
            [sys.executable, "-c", INTERRUPTED_WRITER_SCRIPT, str(store_dir)],
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        line = proc.stdout.readline().strip()
        assert line == "MID-WRITE"
        os.kill(proc.pid, signal.SIGINT)
        out, _ = proc.communicate(timeout=30)
        assert "UNREACHED" not in out  # the interrupt really killed it
        assert proc.returncode != 0

        reader = VerdictStore(store_dir)
        assert len(reader) == 2  # both committed verdicts, nothing torn
        assert reader.get(NO_PREFIX_FP, ("torn",)) is None
        assert reader.io_errors == 0
