"""Machine-speed reference samples, for timings that survive a shared host.

On a shared machine the speed of one core drifts while a run is going:
on a shared 2-core machine a fixed pure-Python loop varied by about
25 % between tenths of a second and by 20-40 % between runs minutes
apart, and the drift was the same in wall-clock and in CPU time, so it
is the core that is slower, not the process that waits.  A wall-clock
job time then says as much about the neighbours as about fgrow.

So the worker interleaves a fixed reference kernel with the jobs: one
sample after every ``PERIOD_S`` of job time, each a run of ``kernel``
timed on its own.  A job's time is then scaled by the machine's speed
around it: ``NOMINAL_S`` divided by the mean sample time within
``WINDOW_S`` of the job (and at least the samples just before and just
after it).  The result reads as the job's time on a machine on which
one sample takes ``NOMINAL_S``, about what this kernel takes on an
idle core of the 2-core machine the benchmark was written on.

The kernel is fixed, lives here and never calls fgrow, so a change to
fgrow moves the normalized times by the same share as the raw ones.
It does the list, tuple and dict work fgrow does, because a kernel of
integer arithmetic alone followed fgrow's slowdowns less well; it runs
with the garbage collector off and frees what it allocates, so it
neither triggers nor pays for a collection of fgrow's objects.
"""

from __future__ import annotations

import bisect
import gc
import random
import time

PERIOD_S = 0.01
WINDOW_S = 1.0
NOMINAL_S = 0.25e-3

_WORD = tuple(random.Random(7).choice((1, -1, 2, -2)) for _ in range(1000))


def kernel() -> int:
    """Free reduction of a fixed word on a list stack, then its length-4
    windows as tuple keys of a fresh dict: the list, tuple and dict
    work fgrow's word and graph code does.  The collector is off while
    it runs, and what it allocates is freed before it returns, so it
    leaves fgrow's garbage-collection schedule as it found it."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        stack = []
        for x in _WORD:
            if stack and stack[-1] == -x:
                stack.pop()
            else:
                stack.append(x)
        seen = {}
        for i in range(0, len(_WORD) - 4, 2):
            seen[_WORD[i : i + 4]] = i
        return len(stack) + len(seen)
    finally:
        if collecting:
            gc.enable()


class Speed:
    """Reference samples taken between jobs: start times and durations."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []
        self.debt = 0.0
        for _ in range(20):  # warm the kernel's code and data
            kernel()

    def sample(self) -> None:
        start = time.perf_counter()
        kernel()
        self.at.append(start)
        self.took.append(time.perf_counter() - start)

    def sample_for(self, seconds: float) -> None:
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            self.sample()

    def after_job(self, job_s: float) -> None:
        """One sample per ``PERIOD_S`` of job time, so the samples are
        spread over the run in proportion to the time jobs took."""
        self.debt += job_s
        while self.debt >= PERIOD_S:
            self.sample()
            self.debt -= PERIOD_S

    def factor(self, start: float, end: float) -> float:
        """``NOMINAL_S`` over the mean sample time near [start, end]."""
        at = self.at
        lo = min(bisect.bisect_left(at, start - WINDOW_S), max(0, bisect.bisect_left(at, start) - 1))
        hi = max(bisect.bisect_right(at, end + WINDOW_S), bisect.bisect_right(at, end) + 1)
        near = self.took[lo:hi]
        return NOMINAL_S * len(near) / sum(near)

    def mean_s(self) -> float:
        return sum(self.took) / len(self.took)
