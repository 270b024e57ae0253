"""A fixed reference loop that tells how fast the host runs Python now.

On a shared host the same Python code runs up to twice as slowly at one
moment as at another, and the level drifts over minutes, so raw times of
one workload differ by a fifth or more between runs.  The benchmark
interleaves short timed units of this loop with its own work and scales
every time it reports by ``NOMINAL_S / median(unit times)``: a time at a
fixed, nominal host speed.

The loop is plain integer arithmetic in a Python ``for`` loop.  Its
time moves with the host's load by about the same factor as the repo's
compile and VM work: over 8-second windows, the log of that work's time
follows the log of the loop's time with a slope of about 1, and their
ratio varies a third as much as the work's time alone.  (A loop of dict
and list traffic moved nearly twice as much as the work.)  It depends
on nothing in ``src/``: a change to the repo cannot speed it up or slow
it down.
"""
from __future__ import annotations

import statistics
import time
from typing import List

#: Median time of one unit on a 2-vCPU Intel Xeon VM at a quiet moment;
#: it only sets the scale of the reported times.
NOMINAL_S = 1.8e-4


def unit() -> int:
    """One unit of reference work (about 0.2 ms)."""
    total = 0
    for i in range(2500):
        total += i * i % 7
    return total


class Reference:
    """Unit times sampled alongside one stretch of timed work."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        #: Time spent sampling, which the timed work must not include.
        self.spent = 0.0

    def sample(self, seconds: float) -> None:
        """Time units until they add up to ``seconds`` (at least one)."""
        clock = time.perf_counter
        started = clock()
        total = 0.0
        while total < seconds or not total:
            begun = clock()
            unit()
            elapsed = clock() - begun
            self.samples.append(elapsed)
            total += elapsed
        self.spent += clock() - started

    def scale(self) -> float:
        """Factor that turns a time measured alongside the samples into a
        time at the nominal host speed."""
        return NOMINAL_S / statistics.median(self.samples)
