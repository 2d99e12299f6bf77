"""Machine-speed probe for the timed metrics.

The shared machines this benchmark runs on switch between a fast and a slow
state every few seconds, about 1.5x apart, for CPU time as much as for wall
time.  The benchmark therefore runs a fixed pure-Python probe, sharing no
code with elemhyp, next to everything it times: every quarter second inside
a timed loop, and just before and after every set-up.  The probe mixes float
error-free sums on tuples, a dict of tuple keys filled and read with a sort,
and a double-double-style loop of small objects, method calls and math
functions; the mix followed the speed of elemhyp's calls across the two
states better than any of its parts alone.

Each measured time is reported at a reference speed, the speed at which the
probe takes REF_S:

    reported time = raw time * REF_S / median(probe times near it)

where "near" means started within WINDOW_S of the measured interval.  The
raw figures are printed on the human-readable lines.
"""

from __future__ import annotations

import bisect
import math
import random
import statistics
import time

REF_S = 0.005
EVERY_S = 0.25    # probe interval inside a timed loop
WINDOW_S = 1.0    # probes this close to a timed interval set its factor

_KEYS = [(v, i) for i, v in enumerate(random.Random(0).random() for _ in range(12000))]


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


class _Pair:
    """A float pair with method calls and allocation, as in double-double code."""

    __slots__ = ("hi", "lo")

    def __init__(self, hi, lo=0.0):
        self.hi = hi
        self.lo = lo

    def add(self, other):
        s, e = _two_sum(self.hi, other.hi)
        e += self.lo + other.lo
        t = s + e
        return _Pair(t, e - (t - s))

    def mul(self, other):
        p = self.hi * other.hi
        return _Pair(p, self.hi * other.lo + self.lo * other.hi)


def probe() -> float:
    """Seconds taken by the fixed probe."""
    t0 = time.perf_counter()
    # float error-free sums on tuples
    acc = (0.0, 0.0)
    for i in range(1000):
        s, e = _two_sum(acc[0], 1.0 / (i + 1))
        acc = (s, e + acc[1])
    # a dict of tuple keys filled and read, a sort
    table = {}
    for key in _KEYS:
        table[key] = key[0] * 2.0
    total = 0.0
    for key in _KEYS[::3]:
        total += table[key]
    sorted(key[0] for key in _KEYS[:6000])
    # objects, method calls and math functions
    acc, x, term = _Pair(0.0), _Pair(0.999, 1e-17), _Pair(1.0)
    for k in range(1, 700):
        term = term.mul(x)
        acc = acc.add(_Pair(term.hi / k, term.lo / k))
        math.log1p(term.hi)
        math.exp(-term.hi)
    return time.perf_counter() - t0


def around(count=3) -> list:
    """count probes in a row, stamped ``[start, seconds]``."""
    return [[time.perf_counter(), probe()] for _ in range(count)]


def factor(samples) -> float:
    """Multiplier that turns raw times into times at the reference speed."""
    return REF_S / statistics.median(dt for _, dt in samples)


def local_factors(samples, intervals) -> list:
    """The factor of each (start, seconds) interval, from the probes that
    started within WINDOW_S of it; the loop's overall factor if none did."""
    samples = sorted(samples)
    starts = [t for t, _ in samples]
    overall = factor(samples)
    out = []
    for t0, dt in intervals:
        lo = bisect.bisect_left(starts, t0 - WINDOW_S)
        hi = bisect.bisect_right(starts, t0 + dt + WINDOW_S)
        out.append(factor(samples[lo:hi]) if hi > lo else overall)
    return out


class Sampler:
    """Runs the probe whenever EVERY_S has passed since the last one."""

    def __init__(self):
        self.samples = around(1)
        self.spent = 0.0
        self._next = time.perf_counter() + EVERY_S

    def tick(self):
        now = time.perf_counter()
        if now >= self._next:
            self.samples.append([now, probe()])
            self.spent += self.samples[-1][1]
            self._next = now + EVERY_S
