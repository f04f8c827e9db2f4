"""Interrupting a live search must shut the pool down, not orphan it.

These tests run the real CLI in a subprocess (its own session, so the
test runner's terminal is untouched), deliver SIGINT to the *parent
process only* — the workers are forked children that never see the
signal themselves — and assert the contract: exit code 130, a one-line
notice on stderr, and no worker processes left behind.

One platform caveat shapes the harness: a SIGINT that lands while the
parent is *inside* ``os.fork()`` (spawning a pool worker) can surface in
an at-fork callback, where CPython suppresses it ("Exception ignored
in...") — the interrupt is silently lost and the run completes normally.
The interrupt must land early (these searches are fast), which is
exactly when forks happen, so the harness retries the occasional
swallowed delivery instead of trying to dodge the window.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

ILL_TYPED = "let f x = x + 1\nlet b = f true\n"


def _procs_mentioning(token: str):
    """PIDs whose command line contains ``token`` (fork workers inherit
    the parent's cmdline, so the unique tmp path tags the whole tree)."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            cmdline = (Path("/proc") / entry / "cmdline").read_bytes()
        except OSError:
            continue
        if token.encode() in cmdline:
            pids.append(int(entry))
    return pids


def _wait_until(predicate, timeout: float, interval: float = 0.05) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def _interrupt_run(argv, token, attempts: int = 5):
    """Run ``argv``, SIGINT the parent the moment its pool starts
    forking, and return ``(returncode, stdout, stderr)``.

    Retries when the interrupt was provably swallowed by the fork race
    (the run completed normally despite the signal).  Each attempt
    starts from a clean process table so the token scan never counts a
    previous attempt's dying workers.
    """
    last = None
    for _ in range(attempts):
        assert _wait_until(
            lambda: _procs_mentioning(token) == [], timeout=30.0
        ), "previous attempt's processes never exited"
        proc = subprocess.Popen(
            argv,
            env={"PYTHONPATH": SRC,
                 "PATH": os.environ.get("PATH", "/usr/bin:/bin")},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,  # our own terminal must not see the ^C
        )
        try:
            spawned = _wait_until(
                lambda: len(_procs_mentioning(token)) >= 2, timeout=30.0
            )
            assert spawned, "the batch pool never spawned a worker"
            os.kill(proc.pid, signal.SIGINT)  # the parent ONLY
            out, err = proc.communicate(timeout=60)
            last = (proc.returncode, out, err)
        except subprocess.TimeoutExpired:
            last = None  # wedged: kill and retry below
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        if last is not None and last[0] == 130:
            return last
    assert last is not None, "every attempt timed out waiting for exit"
    return last


@pytest.fixture
def corpus_dir(tmp_path):
    # Enough work that the batch is reliably still running when the
    # interrupt lands (each file is an independent full search).
    directory = tmp_path / "sigint-corpus"
    directory.mkdir()
    for i in range(24):
        (directory / f"prog{i:02d}.ml").write_text(ILL_TYPED)
    return directory


class TestSigintMidSearch:
    def test_interrupt_exits_130_and_leaves_no_orphans(self, corpus_dir):
        token = str(corpus_dir)
        code, out, err = _interrupt_run(
            [sys.executable, "-m", "repro", "explain", "--dir", token,
             "--jobs", "2"],
            token,
        )
        assert code == 130, (out, err)
        assert "interrupted" in err
        # Prompt shutdown took the workers with it: nothing in the
        # process table still mentions our unique corpus path.
        assert _wait_until(
            lambda: _procs_mentioning(token) == [], timeout=10.0
        ), f"orphan workers: {_procs_mentioning(token)}"

    def test_interrupted_store_is_usable_next_run(self, corpus_dir, tmp_path):
        from repro.store import VerdictStore

        token = str(corpus_dir)
        store_dir = tmp_path / "store"
        code, out, err = _interrupt_run(
            [sys.executable, "-m", "repro", "explain", "--dir", token,
             "--jobs", "2", "--store", str(store_dir)],
            token,
        )
        assert code == 130, (out, err)
        # Whatever the interrupted run managed to commit is served; an
        # interrupted transaction is invisible (never a raise, no I/O
        # error on open).
        store = VerdictStore(store_dir)
        assert store.io_errors == 0
        store.close()
