"""Wall time converted to seconds at a fixed reference speed.

The machines this benchmark runs on are small shared VMs whose speed
drifts by tens of percent in regimes that last seconds.  A fixed
pure-Python reference loop, with no lamcalc code in it, is timed every
``INTERVAL_S`` seconds of the workload from a ``SIGALRM`` handler.  Each
stretch of workload between two samples is scaled by
``NOMINAL_S / mean(two adjacent samples)``, each sample first replaced by
the median of its neighbourhood, so a stretch that ran while
the machine was slow is shrunk and one that ran while it was fast is
stretched.  The time spent in the handler itself counts for nothing.

Every time the benchmark reports is ``Clock.scaled(a, b)`` for two
``time.perf_counter()`` readings ``a <= b`` taken while the clock ran.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from bisect import bisect_right
from contextlib import contextmanager

__all__ = ["Clock", "reference_time", "NOMINAL_S", "INTERVAL_S"]

# Median time of one reference sample on the machine the bounds were set
# on (Python 3.11, 2-core VM); a scaled second is a second at that speed.
NOMINAL_S = 0.0018

# Sampling period.  The speed regimes last seconds, so five samples a
# second follow them; the samples cost about 3% of the run.
INTERVAL_S = 0.2

# Each sample is replaced by the median of the samples within this many
# places of it, about a second of the run.  A single sample can read two
# or three times too slow when the host preempts the handler; unsmoothed,
# it shrinks the work on both sides of it by up to half.
SMOOTH = 2

# The reference work: tuples built and hashed, dict and set membership
# tests and updates, then plain integer arithmetic.  Only operators are
# used, no calls, so that a profiler slows it as little as possible.
# Measured against cold rounds of the kernel on a 2-core VM, the first
# half alone swings with the machine's speed only about 0.75 times as far
# as the kernel does, the second half alone 1.4 times as far; together
# they swing 1.05 times as far, and scaling by them leaves the least
# spread.
_N_TABLES = 1250
_N_ARITH = 10000


def _reference_once() -> float:
    t0 = time.perf_counter()
    d: dict = {}
    s: set = set()
    acc = 0
    for i in range(_N_TABLES):
        k = (i & 31, i >> 5, i % 13)
        if k in d:
            d[k] += 1
        else:
            d[k] = 1
        s |= {k[0]}
        if (k, acc & 255) in s:
            acc += 1
    for i in range(_N_ARITH):
        acc = (acc * 31 + i) & 0xFFFF
    return time.perf_counter() - t0


def reference_time() -> float:
    """Median of three timings of the reference loop, collector paused.

    Everything the loop allocates is freed before the collector resumes,
    so the loop leaves the collector's counters as it found them.
    """

    enabled = gc.isenabled()
    gc.disable()
    try:
        return statistics.median(_reference_once() for _ in range(3))
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Samples the reference loop while running; converts wall intervals.

    Use as a context manager around everything that is timed.  Samples
    are taken on entry, every ``INTERVAL_S`` seconds, and on exit; each
    sample records when the handler started and ended and the reference
    time it measured.
    """

    def __init__(self) -> None:
        # When each sample started and ended, and the reference time it
        # measured.  Floats only: the handler leaves no object the garbage
        # collector tracks, so it does not shift when collections happen.
        self._h: list[float] = []
        self._e: list[float] = []
        self._r: list[float] = []
        self._busy = False
        self._old_handler = None
        self._prefix: list[float] = []
        self._factors: list[float] = []

    def _sample(self) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            self._h.append(time.perf_counter())
            self._r.append(reference_time())
            self._e.append(time.perf_counter())
        finally:
            self._busy = False

    def _handler(self, signum, frame) -> None:
        self._sample()

    def __enter__(self) -> "Clock":
        for _ in range(5):  # the interpreter specialises the loop's code
            reference_time()
        self._old_handler = signal.signal(signal.SIGALRM, self._handler)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        self._sample()
        self._build()

    @contextmanager
    def hold(self):
        """Take no samples inside the block, only one on each side of it.

        A profiler slows the reference loop along with the kernel, so a
        profiled block is timed at the speed measured just outside it.
        """

        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._sample()
        try:
            yield
        finally:
            self._sample()
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def _build(self) -> None:
        # Work stretch j runs from the end of sample j to the start of
        # sample j+1; _prefix[j] is the scaled time before stretch j.
        h, e = self._h, self._e
        r = [
            statistics.median(self._r[max(0, j - SMOOTH) : j + SMOOTH + 1])
            for j in range(len(self._r))
        ]
        self._factors = [NOMINAL_S / ((r[j] + r[j + 1]) / 2) for j in range(len(r) - 1)]
        self._prefix = [0.0]
        for j, f in enumerate(self._factors):
            self._prefix.append(self._prefix[-1] + (h[j + 1] - e[j]) * f)

    def _at(self, t: float) -> float:
        j = bisect_right(self._e, t) - 1  # the stretch that began last before t
        if j < 0 or t > self._e[-1]:
            raise ValueError("time read outside the clock's run")
        if j == len(self._factors):  # inside the closing sample
            return self._prefix[j]
        return self._prefix[j] + (min(t, self._h[j + 1]) - self._e[j]) * self._factors[j]

    def scaled(self, a: float, b: float) -> float:
        """Seconds at reference speed between wall readings ``a`` and ``b``."""

        return self._at(b) - self._at(a)

    def handler_time(self, a: float, b: float) -> float:
        """Wall seconds spent sampling between readings ``a`` and ``b``."""

        return sum(max(0.0, min(e, b) - max(h, a)) for h, e in zip(self._h, self._e))

    def reference_summary(self) -> dict[str, float]:
        """Median reference time and (max - min) / median of the samples."""

        mid = statistics.median(self._r)
        return {"median_ms": 1000 * mid, "spread": (max(self._r) - min(self._r)) / mid}
