"""Host-speed reference: a fixed pure-Python loop timed between ops.

The benchmark host is shared, and its speed drifts: for tens of seconds
to minutes every op runs up to 2x slower, with CPU time equal to wall
time, so neither longer runs nor CPU time remove the drift.  This loop
(the determinant of a fixed 7x7 matrix by Fraction elimination, standard
library only, so no change to normsys can change its cost) is timed
before the first set-up and op and after each.  The host factor of a
set-up or op is the mean of the two samples around it divided by
``NOMINAL_S``, and the timed metrics divide its wall time by that
factor: they read in milliseconds (or seconds) at the speed at which one
sample takes ``NOMINAL_S``, the speed of the quiet baseline host.  Raw wall times are printed and kept in the
run record beside them.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

NOMINAL_S = 0.010
REPS = 30
MATRIX = [[Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i * j) % 4) + 7 * (i == j)
           for j in range(7)] for i in range(7)]


def _det(rows) -> Fraction:
    a = [r[:] for r in rows]
    n, d = len(a), Fraction(1)
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c] != 0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            d = -d
        d *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                for k in range(c, n):
                    a[r][k] -= f * a[c][k]
    return d


def sample() -> float:
    """Seconds for REPS determinants, with the cyclic collector off so
    that heap the library left behind does not change the loop's cost."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        for _ in range(REPS):
            _det(MATRIX)
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def adjust(walls: list, samples: list) -> list:
    """Each wall time divided by its host factor; ``samples`` has one more
    entry than ``walls``, the samples taken before and after each."""
    return [w * 2 * NOMINAL_S / (samples[i] + samples[i + 1])
            for i, w in enumerate(walls)]
