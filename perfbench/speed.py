"""Machine-speed probe: the yardstick that every reported time is divided by.

The benchmark runs on a few cores of a shared host.  How fast a core runs
changes from second to second, by up to a factor of 1.7, with what the
host's other tenants do; the program's time and its CPU time change with it,
and no time is stolen.  A fixed piece of pure-``fractions`` work (the
*chunk*, written here and using nothing of the program) slows down in step
with the program when both run on the same core close together in time.

So a probed process runs one chunk every ``INTERVAL_S`` seconds of wall time
from a ``SIGALRM`` handler, on its main thread, between the program's own
steps, and records how long each chunk took.  The process is pinned to one
core so that the program and its chunks share that core.  A time measured
in the process is then reported in *reference seconds*:

    (wall time - time spent in chunks) * REF_CHUNK_S / mean chunk time

that is, how long the work would have taken on a core where one chunk takes
``REF_CHUNK_S``.  A change to the program moves this figure just as it moves
the wall time; a change in the host's load does not.  The chunks add about
4% to the wall time and are taken out again.
"""
from __future__ import annotations

import os
import signal
import time
from fractions import Fraction

#: wall-clock seconds between two chunks
INTERVAL_S = 0.01
#: seconds one chunk takes on an uncontended core of the tuning machine
#: (Intel Xeon, Python 3.11); it only fixes the scale of reference seconds
REF_CHUNK_S = 3.3e-4

_TERMS = [Fraction(3**k + 1, 2**k + 7) for k in range(1, 13)]


def chunk() -> Fraction:
    """A fixed piece of rational arithmetic, like the program's own inner loops."""
    acc = Fraction(0)
    for a in _TERMS:
        for b in _TERMS[:5]:
            acc += a * b
    return acc


def pin_to_one_core() -> None:
    """Keep this process, and all its threads, on the lowest core it may use."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Probe:
    """Runs a chunk every ``INTERVAL_S`` while installed and keeps the tallies."""

    def __init__(self) -> None:
        self.chunks = 0
        self.chunk_s = 0.0  # time spent in chunks, handler included

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        chunk()
        self.chunks += 1
        self.chunk_s += time.perf_counter() - start

    def install(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def uninstall(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> "tuple[int, float]":
        return self.chunks, self.chunk_s

    def to_json(self) -> dict:
        return {"chunks": self.chunks, "chunk_s": self.chunk_s}


def scale(chunks: int, chunk_s: float) -> float:
    """Reference seconds per plain second, at the mean speed of ``chunks`` chunks that took ``chunk_s``."""
    if chunks == 0:
        raise ValueError("no speed-probe chunk ran during the measured span")
    return REF_CHUNK_S * chunks / chunk_s


def reference_seconds(wall_s: float, chunks: int, chunk_s: float) -> float:
    """A wall time with the chunks that ran in it, in reference seconds without them."""
    return (wall_s - chunk_s) * scale(chunks, chunk_s)
