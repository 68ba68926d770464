"""Random admissible parameter draws for the verification suites.

Free parameters are non-integer rationals drawn with pairwise-distinct
prime denominators.  Every degenerate configuration (vanishing coefficient
denominators, weight-formula poles) requires some signed combination of
parameters to be an integer, which distinct prime denominators rule out,
so the draws stay clear of them by construction.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .doubles import DoubleCase
from .families import RACAH_SELECTORS, DualHahnParams, FamilyParams, HahnParams, RacahParams


def rand_noninteger(rng: random.Random, den: int, lo: int = -1, hi: int = 5) -> Fraction:
    """Non-integer rational p/den strictly inside (lo, hi); distinct prime
    dens keep combinations of several draws non-integer."""
    num = rng.randrange(lo * den + 1, hi * den)
    while num % den == 0:
        num = rng.randrange(lo * den + 1, hi * den)
    return Fraction(num, den)


def rand_dual_hahn(rng: random.Random, max_n: int) -> DualHahnParams:
    n = rng.randint(2, max(2, max_n))
    return DualHahnParams(rand_noninteger(rng, 3), rand_noninteger(rng, 5), n)


def rand_hahn(rng: random.Random, max_n: int) -> HahnParams:
    n = rng.randint(2, max(2, max_n))
    return HahnParams(rand_noninteger(rng, 3), rand_noninteger(rng, 5), n)


def rand_racah(rng: random.Random, max_n: int, selector: str = "alpha") -> RacahParams:
    """Racah parameters with the requested degree-cap selector.

    For the alpha selector the free parameters land in the range where the
    matrix constructions apply (beta above N+gamma, gamma and delta above
    -1 with delta-1 still above -1 for hatted families).
    """
    n = rng.randint(2, max(2, max_n))
    if selector == "alpha":
        g = rand_noninteger(rng, 3)
        d = rand_noninteger(rng, 5, lo=0)
        beta = n + g + 1 + rand_noninteger(rng, 7, lo=0, hi=3)
        return RacahParams(Fraction(-n - 1), beta, g, d, "alpha")
    if selector == "beta_delta":
        a = rand_noninteger(rng, 3)
        g = rand_noninteger(rng, 5)
        b = rand_noninteger(rng, 7)
        return RacahParams(a, b, g, Fraction(-n - 1) - b, "beta_delta")
    a = rand_noninteger(rng, 3)
    b = rand_noninteger(rng, 5)
    d = rand_noninteger(rng, 7, lo=0)
    return RacahParams(a, b, Fraction(-n - 1), d, "gamma")


def rand_params_for_case(case: DoubleCase, rng: random.Random, max_n: int,
                         draw_index: int = 0) -> FamilyParams:
    """A parameter draw matching the case's family; Racah draws rotate
    through the three degree-cap selectors."""
    if case.family is DualHahnParams:
        return rand_dual_hahn(rng, max_n)
    if case.family is HahnParams:
        return rand_hahn(rng, max_n)
    return rand_racah(rng, max_n, RACAH_SELECTORS[draw_index % len(RACAH_SELECTORS)])
