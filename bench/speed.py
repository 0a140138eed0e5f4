"""Machine-speed sampling, so that timings on a shared host can be compared.

On a shared machine the speed of one core swings by up to 2x over minutes,
as other tenants load its sibling.  Wall time alone then varies more
between runs than any change worth detecting.  `Sampler` runs a fixed
pure-Python kernel (Fraction, float, tuple and dict work, like shadowsum's
own) from a SIGALRM handler every INTERVAL seconds, in the benchmark's own
thread, so the samples see the core the jobs run on, during the jobs.

A job's *scaled* time is its wall time, minus the time the handler took,
multiplied by NOMINAL_S / (mean kernel time of the samples taken during
the job, widened by WINDOW on each side).  So the scaled time is
what the job would have taken at the kernel's nominal speed.
"""

from __future__ import annotations

import bisect
import math
import signal
import time
from fractions import Fraction

INTERVAL = 0.02
WINDOW = 0.1          # samples this far before and after a job count for it
# kernel time on an otherwise idle core of the reference machine
# (Intel Xeon, 2 vCPUs, CPython 3.11); it only fixes the unit
NOMINAL_S = 2.3e-4

perf = time.perf_counter


def kernel() -> float:
    acc = 0.0
    table = {}
    f = Fraction(1, 3)
    for i in range(32):
        f = (f * 3 + Fraction(i, 7)) / 5
        t = (i, i * 2.5, math.sin(i * 0.01))
        table[i % 17] = t
        acc += math.hypot(t[1], t[2]) + len(table)
    return acc + float(f)


class Sampler:
    def __init__(self):
        self.times = []       # start of each sample
        self.kernel_s = []    # kernel duration of each sample
        self.handler_s = []   # handler duration of each sample
        self._previous = None

    def _tick(self, signum, frame):
        t0 = perf()
        kernel()
        t1 = perf()
        self.times.append(t0)
        self.kernel_s.append(t1 - t0)
        self.handler_s.append(perf() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scaled(self, start: float, end: float) -> float:
        """Seconds from `start` to `end`, less the handler's share, at
        nominal speed."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        wall = end - start - sum(self.handler_s[lo:hi])
        lo = bisect.bisect_left(self.times, start - WINDOW)
        hi = bisect.bisect_right(self.times, end + WINDOW)
        window = self.kernel_s[lo:hi] or self.kernel_s[max(lo - 1, 0):lo + 1]
        return wall * NOMINAL_S * len(window) / sum(window)
