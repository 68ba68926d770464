"""Exact rational kernel: Pochhammer symbols, terminating hypergeometric
series, sums of products as one Fraction, common denominators, and scaled
square roots of rationals.

Everything here is pure and exact; the one way out to floats is
`root_floats`, which rounds every c * sqrt(r) the program renders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import truediv
from typing import Iterable, List, Sequence, Tuple, Union

import numpy as np

RationalLike = Union[Fraction, int]


class NonTerminatingSeries(ValueError):
    """No numerator parameter is a nonpositive integer."""


class DenominatorPole(ZeroDivisionError):
    """A denominator Pochhammer vanishes at or before the termination index."""


def is_nonpositive_int(a: RationalLike) -> bool:
    a = Fraction(a)
    return a.denominator == 1 and a.numerator <= 0


def pochhammer(a: RationalLike, k: int) -> Fraction:
    """Rising factorial (a)_k = a (a+1) ... (a+k-1), with (a)_0 = 1.

    With a = p/q, (a)_k = prod_j (p + j q) / q^k: integer products and one
    `Fraction` at the end."""
    if k < 0:
        raise ValueError("pochhammer needs k >= 0")
    a = Fraction(a)
    p, q = a.numerator, a.denominator
    top = 1
    for j in range(k):
        top *= p + j * q
    return Fraction(top, q ** k)


def rbinom(a: RationalLike, k: int) -> Fraction:
    """Binomial coefficient binom(a, k) for rational a and integer k >= 0,
    defined through Pochhammer symbols: (a-k+1)_k / k!."""
    if k < 0:
        raise ValueError("rbinom needs k >= 0")
    return pochhammer(Fraction(a) - k + 1, k) / math.factorial(k)


def hyper_terminating(
    numerators: Sequence[RationalLike],
    denominators: Sequence[RationalLike],
    z: RationalLike,
) -> Fraction:
    """Terminating generalized hypergeometric series, exactly.

    Returns sum_{k=0}^{n} [prod (num)_k / prod (den)_k] z^k / k!, where n is
    the smallest value -a over nonpositive-integer numerator parameters a,
    summed in integers with one `Fraction` for the result.
    Raises NonTerminatingSeries if no numerator terminates the sum, and
    DenominatorPole if a denominator Pochhammer vanishes at k <= n.
    """
    nums = [Fraction(a) for a in numerators]
    dens = [Fraction(d) for d in denominators]
    z = Fraction(z)

    stops = [-a.numerator for a in nums if is_nonpositive_int(a)]
    if not stops:
        raise NonTerminatingSeries(f"no nonpositive integer among numerators {nums}")
    n = min(stops)
    for d in dens:
        if is_nonpositive_int(d) and -d.numerator < n:
            raise DenominatorPole(
                f"denominator parameter {d} vanishes before termination index {n}"
            )

    # term ratio prod(a + k) / prod(d + k) * z / (k + 1) as the integers
    # u_k / v_k over the parameters' denominators; Horner from the last term
    num_scale = z.numerator
    for d in dens:
        num_scale *= d.denominator
    den_scale = z.denominator
    for a in nums:
        den_scale *= a.denominator
    top = bot = 1
    for k in reversed(range(n)):
        u, v = num_scale, den_scale * (k + 1)
        for a in nums:
            u *= a.numerator + k * a.denominator
        for d in dens:
            v *= d.numerator + k * d.denominator
        top, bot = bot * v + u * top, bot * v
    return Fraction(top, bot)


def sum_of_products(terms: Iterable[Sequence[RationalLike]],
                    over: RationalLike = 1) -> Fraction:
    """The sum over `terms` of the product of each term's factors, divided
    by `over`, as one Fraction: the factors' integer numerators and
    denominators are combined over the running product of the terms'
    denominators, and the only gcd is the one that reduces the result.
    A zero `over` raises ZeroDivisionError."""
    top, bottom = 0, 1
    for factors in terms:
        num = den = 1
        for f in factors:
            num *= f.numerator
            den *= f.denominator
        if den == bottom:
            top += num
        else:
            top = top * den + num * bottom
            bottom *= den
    return Fraction(top * over.denominator, bottom * over.numerator)


def over_lcm(values: Sequence[Fraction]) -> Tuple[List[int], int]:
    """Integers t_i and the least D with values[i] = t_i / D; ([], 1) for
    no values."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def sqrt_exact(r: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if r < 0:
        return None
    pn = _isqrt_exact(r.numerator)
    pd = _isqrt_exact(r.denominator)
    if pn is None or pd is None:
        return None
    return Fraction(pn, pd)


def _isqrt_exact(m: int) -> int | None:
    s = math.isqrt(m)
    return s if s * s == m else None


def root_floats(coef_num: Iterable[int], coef_den: Iterable[int],
                rad_num: Iterable[int], rad_den: Iterable[int]) -> np.ndarray:
    """The floats of c_i sqrt(r_i), c_i = coef_num[i]/coef_den[i] and r_i =
    rad_num[i]/rad_den[i] >= 0: each rational rounded once by an int true
    division (OverflowError past the float range), IEEE sqrt, one product
    (inf on overflow), and +0.0 for a zero of either sign."""
    c = np.array(list(map(truediv, coef_num, coef_den)), dtype=float)
    r = np.array(list(map(truediv, rad_num, rad_den)), dtype=float)
    with np.errstate(over="ignore"):
        return c * np.sqrt(r) + 0.0


_ZERO, _ONE = Fraction(0), Fraction(1)


@dataclass(frozen=True, eq=False, slots=True)
class ScaledRoot:
    """The number coef * sqrt(radicand) with both parts rational, radicand >= 0.

    Not a closed arithmetic type; an exact carrier for matrix entries,
    eigenvalues and prefactors whose square is rational.  Spectra,
    eigencolumns, supports and symmetric offdiagonals keep coef in
    {-1, 0, 1}, so their radicand is the square.  Equality, hashing and
    ordering go by value: ScaledRoot(2, 1) == ScaledRoot.of(2).
    """

    coef: Fraction
    radicand: Fraction

    def __post_init__(self):
        if self.radicand.numerator < 0:  # the sign of an int or Fraction
            raise ValueError("radicand must be >= 0")

    @classmethod
    def zero(cls) -> "ScaledRoot":
        return cls(_ZERO, _ZERO)

    @classmethod
    def sqrt(cls, radicand: RationalLike) -> "ScaledRoot":
        r = radicand if type(radicand) is Fraction else Fraction(radicand)
        return cls(_ONE if r else _ZERO, r)

    @classmethod
    def of(cls, value: RationalLike) -> "ScaledRoot":
        """Embed an exact rational (e.g. an integer eigenvalue)."""
        v = Fraction(value)
        return cls(Fraction((v > 0) - (v < 0)), v * v)

    # a coef of +-1, as in every spectrum and symmetric entry, is skipped
    @property
    def square(self) -> Fraction:
        c, r = self.coef, self.radicand
        return r if c == 1 or c == -1 else c * c * r

    @property
    def sign(self) -> int:
        """-1, 0 or 1, read off the int numerators of coef and radicand."""
        if not self.radicand.numerator:
            return 0
        c = self.coef.numerator
        return (c > 0) - (c < 0)

    def signed_square(self) -> Fraction:
        """sign * square, a strictly increasing function of the value."""
        c, r = self.coef, self.radicand
        return r if c == 1 else -r if c == -1 else c * abs(c) * r

    def exact_rational(self) -> Fraction | None:
        """The value as a rational when the radicand is a perfect square."""
        root = sqrt_exact(self.radicand)
        return None if root is None else self.coef * root

    def __neg__(self) -> "ScaledRoot":
        return ScaledRoot(-self.coef, self.radicand)

    def __float__(self) -> float:
        c, r = self.coef, self.radicand
        return float(root_floats((c.numerator,), (c.denominator,),
                                 (r.numerator,), (r.denominator,))[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScaledRoot):
            return NotImplemented
        return ((self.coef == other.coef and self.radicand == other.radicand)
                or self.signed_square() == other.signed_square())

    def __hash__(self) -> int:
        return hash(self.signed_square())

    def __lt__(self, other: "ScaledRoot") -> bool:
        return self.signed_square() < other.signed_square()

    def __le__(self, other: "ScaledRoot") -> bool:
        return self.signed_square() <= other.signed_square()

    def __repr__(self) -> str:
        return f"{self.coef}*sqrt({self.radicand})"


def scaled_root_floats(roots: Sequence[ScaledRoot]) -> np.ndarray:
    """float(e) of each ScaledRoot e, in one call of `root_floats`."""
    coefs, rads = [e.coef for e in roots], [e.radicand for e in roots]
    return root_floats([c.numerator for c in coefs], [c.denominator for c in coefs],
                       [r.numerator for r in rads], [r.denominator for r in rads])
