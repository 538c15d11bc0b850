"""Reference seconds: measured time corrected for the machine's current speed.

On a shared host the speed of a CPU drifts by tens of percent over seconds to
minutes, which no amount of repetition inside a 30-second run averages out.
So while a run measures, SIGPROF fires every TICK_S of CPU time and the
handler times one run of a fixed pure-Python loop that never calls the
program under test.  The machine's speed at a sample is REFERENCE_S over the
loop's time.  An interval measured with `Clock.now` is converted to reference
seconds: its length, less the handler's own time inside it, times the mean
speed sampled within WINDOW_S of the interval.  Samples are evenly spaced in
CPU time, so for a long interval this is the work done in it, measured in
seconds of a machine that runs the loop in REFERENCE_S.  A change to the
program moves reference seconds exactly as it moves seconds.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
from fractions import Fraction
from time import perf_counter

TICK_S = 0.01
WINDOW_S = 0.05
REFERENCE_S = 0.00025


def reference_loop() -> int:
    """Fixed interpreter work: small tuples, dict updates, bit tricks, a Fraction."""
    acc = 0
    table: dict = {}
    for i in range(200):
        key = (i & 7, i >> 3 & 15)
        table[key] = table.get(key, 0) + 1
        row = i | 1
        while row:
            acc ^= row & -row
            row &= row - 1
        acc += hash(key) & 255
    return acc + (Fraction(acc % 97 + 1, 7) * Fraction(3, 5)).numerator


class Clock:
    def __init__(self) -> None:
        self._ends: list[float] = []  # perf_counter at the end of each sample
        self._loops: list[float] = []  # the loop time of each sample
        self._spent = 0.0  # handler time so far

    def _sample(self, signum=None, frame=None) -> None:
        start = perf_counter()
        reference_loop()
        end = perf_counter()
        self._ends.append(end)
        self._loops.append(end - start)
        self._spent += end - start

    @contextlib.contextmanager
    def running(self):
        """Sample the speed, periodically and once on entry and on exit."""
        previous = signal.signal(signal.SIGPROF, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_PROF, TICK_S, TICK_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)
            self._sample()

    def now(self) -> tuple[float, float]:
        return perf_counter(), self._spent

    def speed(self, start: tuple[float, float], end: tuple[float, float]) -> float:
        """Mean speed sampled near two `now()` stamps, once sampling has moved past them."""
        low = bisect.bisect_left(self._ends, start[0] - WINDOW_S)
        high = bisect.bisect_right(self._ends, end[0] + WINDOW_S)
        if low == high:  # no sample nearby: take the nearest ones
            low, high = max(low - 1, 0), min(high + 1, len(self._ends))
        return statistics.fmean(REFERENCE_S / loop for loop in self._loops[low:high])

    def seconds(self, start: tuple[float, float], end: tuple[float, float]) -> float:
        """Reference seconds between two `now()` stamps."""
        return elapsed(start, end) * self.speed(start, end)


def elapsed(start: tuple[float, float], end: tuple[float, float]) -> float:
    """Seconds between two `Clock.now()` stamps, less the sampling handler's time."""
    return (end[0] - start[0]) - (end[1] - start[1])
