"""Calibrated time: timings divided by the speed of the machine at that moment.

On a shared machine the same pure-Python work can take 30 % longer for
seconds or minutes at a time.  While a `Sampler` is active, a fixed reference
loop, which imports nothing from ybekit, runs from a timer signal every
INTERVAL_S in the measured thread itself.  An interval is reported as its
length less the reference runs inside it, times NOMINAL_S over the mean
reference time within WINDOW_S of it: its length on a machine where the
reference takes NOMINAL_S.  A change to ybekit moves calibrated times as it moves raw times.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.0015
INTERVAL_S = 0.05
WINDOW_S = 0.5  # reference samples this close to an interval calibrate it
_ROWS = tuple(tuple((i * 7 + j) % 5 - 2 for j in range(16)) for i in range(16))
_HALF = Fraction(1, 2)


def _reference() -> int:
    """Integer loops with zero skips, a little Fraction arithmetic and tuple
    building: the same mix as the program's residual and elimination."""
    acc = 0
    for _ in range(8):
        for row in _ROWS:
            for x in row:
                if x:
                    acc += x * x
        for row in _ROWS[:4]:
            acc += sum(_HALF * x for x in row).numerator
        acc += len(tuple(tuple(row) for row in _ROWS))
    return acc


class Sampler:
    """Times the reference loop from SIGALRM every INTERVAL_S while active."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, *_):
        start = time.perf_counter()
        _reference()
        self.samples.append((start, time.perf_counter() - start))

    def reference(self, start: float, end: float) -> float:
        """Mean reference time of the samples taken within WINDOW_S of
        [start, end]; takes one now if there is none.  Samples are evenly
        spaced in time, so the mean follows the average slowdown; the
        window keeps a short interval from resting on one or two samples."""
        lo = bisect.bisect_left(self.samples, (start - WINDOW_S,))
        hi = bisect.bisect_left(self.samples, (end + WINDOW_S,))
        if lo == hi:
            self._tick()
            return self.samples[-1][1]
        return statistics.fmean(d for _, d in self.samples[lo:hi])

    def calibrated(self, start: float, end: float) -> float:
        """Calibrated seconds of [start, end], less the reference runs in it."""
        lo = bisect.bisect_left(self.samples, (start,))
        hi = bisect.bisect_left(self.samples, (end,))
        spent = sum(min(t + d, end) - t for t, d in self.samples[lo:hi])
        return (end - start - spent) * NOMINAL_S / self.reference(start, end)
