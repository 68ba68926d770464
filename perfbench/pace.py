"""Correction of measured times for the host's momentary speed.

The host is shared and its clock moves: the same QL solve took 45 ms and
76 ms in 10-second windows a minute apart, and a run of `solve` read from
7.7 s to 12.5 s per round over ten seeds.  So the benchmark times
`reference`, a fixed task that calls no program code, after every
operation, and reports the times of a round as

    raw * sqrt(REFERENCE_S / median(reference times of the round)).

REFERENCE_S is about the reference's time on an otherwise idle 2-core
development machine.  The square root is deliberate.  The reference is
compute-bound and small, while the program also waits on memory: when the
host sped up, the program sped up anywhere from as much as the reference
(a QL solve 1.50-fold against 1.59-fold) to far less (whole `closed-forms`
and `solve` rounds 1.1- to 1.3-fold against 1.5- to 1.8-fold).  Full
scaling overshot those rounds by 40%; none left the 1.3-fold swings of
`solve`; the square root halves both errors.  A change to the program
cannot change the reference, so it shows in full.
"""

from __future__ import annotations

import math
import statistics
import time
from fractions import Fraction
from types import SimpleNamespace

from .checks import explicit_value

REFERENCE_S = 4.06e-3

_PARAMS = SimpleNamespace(gamma=Fraction(4, 3), delta=Fraction(7, 5), N=5)


def reference() -> float:
    """Wall time of a task shaped like the program's two kinds of work:
    terminating 3F2 sums over Fraction (the benchmark's own explicit sum),
    and Givens sweeps over Python lists of floats."""
    t0 = time.perf_counter()
    for n in range(_PARAMS.N + 1):
        for x in (1, 3):
            explicit_value("dual_hahn", _PARAMS, n, x)
    n = 200
    diag, off = [0.0] * n, [float(i % 7 + 1) for i in range(n)]
    for _ in range(6):
        s = c = 1.0
        p, h = 0.0, 0.5
        for i in range(n - 2, -1, -1):
            f, b = s * off[i], c * off[i]
            r = math.hypot(f, h)
            off[i + 1] = r
            s, c = f / r, h / r
            h = diag[i + 1] - p
            r = (diag[i] - h) * s + 2.0 * c * b
            p = s * r
            diag[i + 1] = h + p
            h = c * r - b
    return time.perf_counter() - t0


def factor(samples) -> float:
    """Correction for times measured while `samples` (reference times) were taken."""
    return math.sqrt(REFERENCE_S / statistics.median(samples))
