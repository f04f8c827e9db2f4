"""Host speed, measured next to the work, so that times can be put at one
reference speed.

The 2-vCPU host the benchmark was sized on runs every core between full
and about half speed, switching every few seconds as other tenants load
the machine; a process's CPU time stretches with its wall clock, so the
slowdown is in the cores, not in scheduling.  A fixed pure-Python kernel,
timed in thread CPU time right next to each file, slows down in step.  In
back-to-back passes in one process, the pass totals' coefficient of
variation was 0.184 as measured and 0.035 with each file's time scaled by
the kernel's speed around it (20 ``well-typed`` passes), and 0.164 against
0.015 (8 ``study`` passes).

:func:`speed` is the host's speed now, as a share of the speed at which
the kernel takes :data:`REFERENCE_S`.  A time multiplied by it is the time
the same work would have taken at that reference speed.  The kernel does
not touch the code under test, so a change to that code moves the scaled
times in the same proportion as the measured ones.
"""

from __future__ import annotations

import threading
import time
from typing import List

#: The kernel's thread CPU seconds at the host's full speed (about the
#: fastest tenth of samples on the reference host).
REFERENCE_S = 0.00022
#: Kernel repetitions per sample; the fastest one counts, so an interrupt
#: landing in one repetition does not read as a slow host.
REPEATS = 3


class _Node:
    __slots__ = ("kind", "value", "next")

    def __init__(self, kind, value, next):
        self.kind, self.value, self.next = kind, value, next


#: The kernel's input: a line of MiniML-like source, repeated.
_TEXT = "let rec f x = match x with | [] -> 0 | h :: t -> h + f t in f [1; 2] " * 16


def kernel_seconds() -> float:
    """Thread CPU seconds of one run of the fixed kernel (fastest of
    :data:`REPEATS`).  Like a front end, it splits text into words and
    allocates, links and walks small objects, so the host's slow phases
    slow it as they slow the workloads (with a pure arithmetic loop in its
    place, the scaled pass totals above varied twice as much)."""
    best = float("inf")
    for _ in range(REPEATS):
        started = time.thread_time()
        counts, head, out = {}, None, []
        for index, word in enumerate(_TEXT.split()):
            head = _Node(word[:1], (word, index), head)
            counts[word] = counts.get(word, 0) + 1
        while head is not None:
            out.append(head.kind + str(head.value[1]))
            head = head.next
        "".join(out)
        best = min(best, time.thread_time() - started)
    return best


def speed() -> float:
    """The host's speed now, relative to the reference speed."""
    return REFERENCE_S / kernel_seconds()


class Sampler:
    """Samples :func:`speed` on a background thread while another process
    does the work (the benchmark process itself waits on it)."""

    def __init__(self, interval_s: float = 0.05) -> None:
        self.interval_s = interval_s
        self.samples: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.is_set():
            self.samples.append(speed())
            self._stop.wait(self.interval_s)

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def mean(self) -> float:
        """The mean speed over the sampled interval (samples are evenly
        spaced in time, so this is the time-average)."""
        return sum(self.samples) / len(self.samples)
