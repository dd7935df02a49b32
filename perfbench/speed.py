"""Times at reference speed, from speed samples taken while the jobs run.

On a shared machine a CPU's speed jumps between states up to 2x apart, for
a fraction of a second or for minutes, as other tenants come and go.  A
``Speedometer`` samples that speed throughout: a wall-clock timer signal
interrupts the process every ``SAMPLE_EVERY_S`` seconds, and its handler
times the probe, a fixed pure-Python task (an exact polynomial expansion,
no jetlag code) run with the garbage collector off, since a collection's
cost grows with whatever the process holds, not with the machine's speed.

``scaled(start, end)`` turns a span of the harness's clock into reference
time: the handler's own time inside the span is taken out, and the rest is
multiplied by ``REFERENCE_S`` over the mean probe time of the samples inside
the span and the nearest one on either side.  A job and the probes running
in the middle of it slow down together, so the scaled time follows the job's
own work, and a change to jetlag leaves the probe as it is.
"""

from __future__ import annotations

import gc
import random
import signal
import time
from bisect import bisect_left, bisect_right

from .gen import expand_power

SAMPLE_EVERY_S = 0.025
REFERENCE_S = 0.0006  # scaled times are at the speed where the probe takes this


def probe() -> float:
    """Seconds for one exact expansion of a fixed polynomial power."""
    start = time.perf_counter()
    expand_power(random.Random(0), ("x", "y", "z"), ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)), 3)
    return time.perf_counter() - start


class Speedometer:
    """Speed samples over the ``with`` block it guards; one is taken on
    entry and one on exit, so every span inside has a sample on each side."""

    def __init__(self):
        self.at = []  # clock reading when each sample started
        self.probes = []  # the probe's time in each sample
        self.costs = []  # each sample's whole time, taken out of the spans
        self._previous = None
        self._busy = False

    def _sample(self, _signum=None, _frame=None):
        if self._busy:  # a signal that lands inside the handler is dropped
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            seconds = probe()
            self.at.append(start)
            self.probes.append(seconds)
            self.costs.append(time.perf_counter() - start)
        finally:
            if collecting:
                gc.enable()
            self._busy = False

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def own(self, start: float, end: float) -> float:
        """Seconds of [start, end] not spent in the sampler."""
        lo, hi = bisect_left(self.at, start), bisect_right(self.at, end)
        return end - start - sum(self.costs[lo:hi])

    def scaled(self, start: float, end: float) -> float:
        """Reference-speed seconds of [start, end], a span inside the block."""
        lo, hi = bisect_left(self.at, start), bisect_right(self.at, end)
        near = self.probes[max(lo - 1, 0) : hi + 1]
        return self.own(start, end) * REFERENCE_S * len(near) / sum(near)
