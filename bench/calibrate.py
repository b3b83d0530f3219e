"""Calibration kernel: a fixed piece of pure-Python work, timed during jobs.

The 2-vCPU host this benchmark was defined on is shared, and the speed of
one thread on it is not constant: it switches between a normal speed and
one up to 1.6 times faster, in bursts of a tenth of a second to a second
and in phases of minutes, as the neighbours' load changes.  Raw job times
therefore spread by 25-40% from one run to the next, whatever statistic
is taken over a run.

While a worker runs its jobs, `Probes` times `kernel()` every
PROBE_EVERY_S from a SIGALRM handler, so long jobs are sampled all the
way through.  The handler's time is left out of the job's time.  The
runner scales each job's time by REFERENCE_S over the mean kernel time
taken during it (or, for a job too short to hold a probe, the probes just
before and after it).  A job that ran while the machine was fast is
scaled up; one that ran at normal speed stays about as it was.  The
kernel does the same kind of work as erjw (objects with operator
methods, gcd-reduced fractions, sparse elimination, dict-keyed
polynomial products) and never imports erjw, so a change to erjw cannot
change it.
"""

from __future__ import annotations

import math
import random
import signal
from fractions import Fraction
from time import perf_counter

# Median of measure() on the host that defined the benchmark (Intel Xeon,
# 2 vCPUs, Python 3.11.7) at its normal speed.  Scaled times are times at
# that speed; only their ratios between commits matter.
REFERENCE_S = 0.0030

# Wall time from the end of one probe to the start of the next.
PROBE_EVERY_S = 0.1


class _Q:
    """A reduced fraction, like erjw's 2-local scalars."""

    __slots__ = ("n", "d")

    def __init__(self, n, d=1):
        g = math.gcd(n, d)
        if g > 1:
            n //= g
            d //= g
        self.n = n
        self.d = d

    def __sub__(self, o):
        return _Q(self.n * o.d - o.n * self.d, self.d * o.d)

    def __mul__(self, o):
        return _Q(self.n * o.n, self.d * o.d)

    def __truediv__(self, o):
        if o.n < 0:
            return _Q(-self.n * o.d, -self.d * o.n)
        return _Q(self.n * o.d, self.d * o.n)

    def __bool__(self):
        return self.n != 0


def _matrix(size):
    rng = random.Random(1)
    return [[_Q(rng.randint(-4, 4), rng.choice((1, 3, 5)))
             if rng.random() < 0.3 else _Q(0) for _ in range(size)]
            for _ in range(size)]


def _eliminate(M):
    """Row reduction with a least-2-valuation pivot; returns the rank."""
    rows, cols = len(M), len(M[0])
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            x = M[i][c]
            if x and (piv is None
                      or (x.n & -x.n) < (M[piv][c].n & -M[piv][c].n)):
                piv = i
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        p = M[r][c]
        for i in range(rows):
            if i != r and M[i][c]:
                f = M[i][c] / p
                M[i] = [a - f * b if b else a for a, b in zip(M[i], M[r])]
        r += 1
    return r


def _poly_square():
    """Square of a bivariate polynomial with Fraction coefficients."""
    a = {(i, j): Fraction(i + 1, 2 * j + 1)
         for i in range(6) for j in range(4)}
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in a.items():
            if i1 + i2 < 8:
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, 0) + c1 * c2
    return len(out)


def _counting():
    """Integer and dict bookkeeping, as in degree enumeration."""
    d = {}
    for i in range(1, 800):
        key = (i % 101, i % 7)
        d[key] = d.get(key, 0) + i * i
    return sum((v * 3) // (k[0] + 1) for k, v in d.items())


def kernel():
    """The fixed work; the same result on every call."""
    return _eliminate(_matrix(12)), _poly_square(), _counting()


def measure() -> float:
    """Seconds one kernel() call takes now."""
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


class Probes:
    """Kernel timings taken every PROBE_EVERY_S while started.

    `times` holds (start, seconds) of every probe, start on the
    perf_counter clock; `spent_in(t0, t1)` is the handler time inside
    [t0, t1], which the caller takes out of a job's time.  The timer is
    one-shot and re-armed at the end of the handler, so probes never nest.
    """

    def __init__(self):
        self.times: list[tuple[float, float]] = []
        self._spans: list[tuple[float, float]] = []

    def _fire(self, signum, frame):
        start = perf_counter()
        kernel()
        end = perf_counter()
        self.times.append((start, end - start))
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)
        self._spans.append((start, perf_counter()))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def spent_in(self, t0: float, t1: float) -> float:
        return sum(max(0.0, min(e, t1) - max(s, t0)) for s, e in self._spans)

    def between(self, t0: float, t1: float) -> list[float]:
        """Kernel seconds of the probes that started in [t0, t1)."""
        return [d for s, d in self.times if t0 <= s < t1]
