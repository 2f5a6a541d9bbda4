"""How fast the host runs right now, from fixed reference loops.

On a shared host the same code runs at different speeds from one second
to the next: a pure-Python loop was seen to switch between two speeds
about 1.4x apart every few seconds, and to stay in the slow one for a
minute or more at other times.  No estimator over the workload's own
timings removes a slowdown that lasts a whole run.

So the worker times fixed reference loops, which are benchmark code and
never change with the library, every ``EVERY_S`` seconds between
questions (and ``run.py`` before each set-up probe).  Each question's
time is scaled by ``NOMINAL_MS / local``,
where ``local`` is the median of the reference samples nearest to it in
time: what the question would have taken with the host at the speed at
which the reference takes ``NOMINAL_MS``.  The scale is a unit, not a
correction to the program: a change that halves a question's time still
halves its scaled time.

Each workload uses the reference loops that slow down as it does, as
seen in sets of runs on a 2-core Xeon VM: the interpreter loop alone for
the pure-Python heuristic climbs and analysis questions, and the
interpreter and NumPy loops together for the exhaustive batch kernel,
which mixes Python control with array work.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

EVERY_S = 0.2  # reference sample interval, between questions
NEIGHBOURS = 2  # samples taken on each side of a question


def python_loop() -> int:
    """Interpreter-bound: small-int arithmetic and dict stores."""
    s = 0
    d = {}
    for i in range(15000):
        s += i * i % 7
        d[i & 63] = s
    return s


_WORDS = None


def numpy_loop() -> int:
    """Memory- and vector-bound: shifts, a mask and a modulo over 4 MB."""
    global _WORDS
    if _WORDS is None:
        _WORDS = np.arange(1 << 19, dtype=np.uint64)
    b = (_WORDS << np.uint64(3)) & (_WORDS >> np.uint64(2))
    return int((b % np.uint64(7)).sum())


# what each loop takes with the host at full speed on a 2-core Xeon VM
NOMINAL_MS = {python_loop: 2.0, numpy_loop: 7.0}

REFERENCES = {
    "exhaustive": (python_loop, numpy_loop),
    "heuristic": (python_loop,),
    "analyze": (python_loop,),
}


class Speedometer:
    """Reference samples taken between questions, and the scale they give."""

    def __init__(self, workload: str):
        self.loops = REFERENCES[workload]
        self.nominal_ns = sum(NOMINAL_MS[f] for f in self.loops) * 1e6
        self.at_ns: list[int] = []
        self.took_ns: list[int] = []
        for f in self.loops:  # first calls allocate and warm caches
            f()

    def sample(self, force: bool = False) -> None:
        """Time the reference loops, unless a sample is more recent than EVERY_S."""
        now = time.perf_counter_ns()
        if not force and self.at_ns and now - self.at_ns[-1] < EVERY_S * 1e9:
            return
        took = 0
        for f in self.loops:
            start = time.perf_counter_ns()
            f()
            took += time.perf_counter_ns() - start
        self.at_ns.append(now)
        self.took_ns.append(took)

    def scale(self, at_ns: int) -> float:
        """NOMINAL / the median of the samples nearest to `at_ns`."""
        k = bisect.bisect(self.at_ns, at_ns)
        near = self.took_ns[max(0, k - NEIGHBOURS):k + NEIGHBOURS]
        return self.nominal_ns / statistics.median(near)

    def summary(self) -> dict:
        ms = [t / 1e6 for t in self.took_ns]
        return {
            "loops": [f.__name__ for f in self.loops],
            "nominal_ms": self.nominal_ns / 1e6,
            "samples": len(ms),
            "median_ms": statistics.median(ms),
            "min_ms": min(ms),
            "max_ms": max(ms),
        }
