"""Machine speed, sampled while the workload runs, so times read at a fixed speed.

On a shared machine the speed of a core drifts by 20% and more over seconds
to minutes, and the drift moves every timing of a run together.  While a
Pace runs, an interval timer interrupts the process every SAMPLE_EVERY_S and
times a fixed loop of Fraction and big-integer arithmetic, the kind of work
the program does, also in the middle of a long op.  A timing is
scaled by REFERENCE_S over the median loop time from WINDOW_S before it to
WINDOW_S after it: it then reads as at the speed where the loop takes
REFERENCE_S, the median loop time on the machine the benchmark was made on.
The loop belongs to the benchmark, so a change to the program cannot move it.
The time spent in the loop is kept out of every timing through `clock`.
The benchmark runs on one CPU, with its subprocesses, so the loop samples
the CPU that does the work.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time
from fractions import Fraction

LOOP_STEPS = 60
REFERENCE_S = 0.00066
SAMPLE_EVERY_S = 0.05
WINDOW_S = 1.0
MIN_SAMPLES = 5


_BIG = 3 ** 3000


def loop_time(steps: int = LOOP_STEPS) -> float:
    start = time.perf_counter()
    f, x = Fraction(1, 3), 0
    for i in range(steps):
        f = (f * 7 + Fraction(i, 11)) / 3
        x += _BIG * (i + 1) % 1000003
    return time.perf_counter() - start


class Pace:
    """Loop times taken on a timer, and the scale they imply for a timing."""

    def __init__(self, loop=loop_time):
        self.loop = loop
        self.times: list[float] = []  # when each sample ended, ascending
        self.samples: list[float] = []
        self.stolen = 0.0  # seconds spent sampling

    def clock(self) -> float:
        """perf_counter without the time spent sampling."""
        return time.perf_counter() - self.stolen

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        self.samples.append(self.loop())
        end = time.perf_counter()
        self.times.append(end)
        self.stolen += end - start

    @contextlib.contextmanager
    def running(self):
        """Sample on SIGALRM every SAMPLE_EVERY_S for the duration of the block."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def median(self) -> float:
        return statistics.median(self.samples)

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the median loop time around [start, end]."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if hi - lo < MIN_SAMPLES:  # widen to the nearest samples on both sides
            lo = max(0, min(lo, bisect.bisect_left(self.times, start) - MIN_SAMPLES))
            hi = min(len(self.times), max(hi, bisect.bisect_right(self.times, end) + MIN_SAMPLES))
        return REFERENCE_S / statistics.median(self.samples[lo:hi])

    def scaled(self, timings) -> list[float]:
        """The seconds of each (start, end, seconds) timing, at the reference speed."""
        return [seconds * self.scale(start, end) for start, end, seconds in timings]
