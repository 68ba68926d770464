"""Kernel (Christoffel) and inverse (Geronimus) transforms for the
implemented families, plus exact verification that each doubling case's
transform parameter maps the family onto its hatted partner.

For a family y_n with recurrence data (A, C, Lam) and parameter nu, the
kernel partner and its inverse are

    P_n(x) = (y_{n+1}(x) - a_n y_n(x)) / (Lam(x) - Lam(nu)),
    y_n(x) = A(n) P_n(x) - b_n P_{n-1}(x),

with a_n = y_{n+1}(nu)/y_n(nu) and b_n tied to the recurrence through
b_n a_{n-1} = C(n) and A(n) a_n + b_n = A(n) + C(n) + Lam(nu).

P_n(x), the reconstruction and every residue of the checks below are one
Fraction per residue, from integer terms (`exact.sum_of_products`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, List

from .doubles import CoefficientSextet, DoubleCase, christoffel_nu, coefficients
from .exact import RationalLike, sum_of_products
from .families import FamilyParams, family_column, recurrence_data


class ZeroAtNu(ZeroDivisionError):
    """y_n vanishes at the transform parameter, so a_n is undefined."""


class SupportCollision(ZeroDivisionError):
    """Lam(x) equals Lam(nu); the kernel transform divides by zero there."""


@dataclass(frozen=True)
class ChristoffelData:
    """The kernel transform of one family at one nu.  a_n and b_n are
    memoised per n, gap(x) = Lam(x) - Lam(nu) per x and the kernel partner
    P_n(x) per (n, x), for the life of the object.  `christoffel_data`
    holds one per (family, nu) in a module-level cache, so every check and
    point function at that nu computes each of them once."""

    params: FamilyParams
    nu: Fraction
    gap: Callable[[RationalLike], Fraction]
    a_seq: Callable[[int], Fraction]
    b_seq: Callable[[int], Fraction]
    kernel: Callable[[int, RationalLike], Fraction]

    def reconstruct(self, n: int, x: RationalLike) -> Fraction:
        """A(n) P_n(x) - b_n P_{n-1}(x); equals y_n(x) exactly."""
        return sum_of_products(self._reconstruct_terms(n, x))

    def _reconstruct_terms(self, n: int, x: RationalLike) -> tuple:
        """The products A(n) P_n(x) and -b_n P_{n-1}(x) (the first alone at n = 0)."""
        rec = recurrence_data(self.params)
        if n == 0:
            return ((rec.A(0), self.kernel(0, x)),)
        return ((rec.A(n), self.kernel(n, x)), (-1, self.b_seq(n), self.kernel(n - 1, x)))


@lru_cache(maxsize=1024)
def christoffel_data(params: FamilyParams, nu: RationalLike) -> ChristoffelData:
    """The kernel transform of `params` at nu, one per (params, nu)."""
    nu = Fraction(nu)
    rec = recurrence_data(params)
    lam_nu = rec.Lam(nu)
    y = family_column(params, nu)
    gap = lru_cache(maxsize=None)(rec.gap(nu))

    @lru_cache(maxsize=None)
    def a_seq(n: int) -> Fraction:
        denom = y[n]
        if denom == 0:
            raise ZeroAtNu(f"y_{n}({nu}) = 0")
        return y[n + 1] / denom

    @lru_cache(maxsize=None)
    def b_seq(n: int) -> Fraction:
        if n == 0:
            return Fraction(0)
        A = rec.A(n)
        return sum_of_products(((A,), (rec.C(n),), (lam_nu,), (-1, A, a_seq(n))))

    @lru_cache(maxsize=None)
    def kernel(n: int, x: RationalLike) -> Fraction:
        """Kernel partner value P_n(x), exact."""
        denom = gap(x)
        if denom == 0:
            raise SupportCollision(f"Lam({x}) = Lam({nu})")
        yx = family_column(params, x)
        return sum_of_products(((yx[n + 1],), (-1, a_seq(n), yx[n])), over=denom)

    return ChristoffelData(params, nu, gap, a_seq, b_seq, kernel)


def christoffel_kernel(
    params: FamilyParams, nu: RationalLike, n: int, x: RationalLike
) -> Fraction:
    """Kernel partner value P_n(x), exact."""
    return christoffel_data(params, nu).kernel(n, x)


def geronimus_reconstruct(params: FamilyParams, nu: RationalLike, n: int,
                          x: RationalLike) -> Fraction:
    """A(n) P_n(x) - b_n P_{n-1}(x) with P the kernel partner at nu; equals
    y_n(x) exactly."""
    return christoffel_data(params, nu).reconstruct(n, x)


def verify_recurrence_link(params: FamilyParams, nu: RationalLike, n_max: int) -> List[Fraction]:
    """Residues of b_n a_{n-1} = C(n) for n = 1..n_max."""
    rec = recurrence_data(params)
    data = christoffel_data(params, nu)
    return [sum_of_products(((data.b_seq(n), data.a_seq(n - 1)), (-1, rec.C(n))))
            for n in range(1, n_max + 1)]


def verify_roundtrip(params: FamilyParams, nu: RationalLike, n_max: int, xs) -> List[Fraction]:
    """Residues of the Geronimus reconstruction against direct evaluation."""
    data = christoffel_data(params, nu)
    columns = [(x, family_column(params, x)) for x in xs if data.gap(x) != 0]
    out: List[Fraction] = []
    for n in range(n_max + 1):
        for x, y in columns:
            out.append(sum_of_products(data._reconstruct_terms(n, x) + ((-1, y[n]),)))
    return out


def verify_same_family(case: DoubleCase, params: FamilyParams) -> List[Fraction]:
    """Residues showing the kernel partner at the case's classified nu is a
    constant multiple of the hatted family.

    Checks, all exact: dhat(x) factors as c * (Lam(x) - Lam(nu)); the
    transform ratio a_n equals -a(n)/b(n); and P_n(x) equals
    (c / b(n)) * yhat_n(xhat) on the grid away from the collision point.
    """
    cs: CoefficientSextet = coefficients(case, params)
    nu = christoffel_nu(case, params)
    data = christoffel_data(cs.base, nu)
    grid = range(cs.base.N + 1)
    clear = [x for x in grid if data.gap(x) != 0]
    if not clear:
        raise SupportCollision("no grid point clear of nu")
    c = cs.d_hat(clear[0]) / data.gap(clear[0])
    res = [sum_of_products(((cs.d_hat(x),), (-1, c, data.gap(x)))) for x in grid]

    # a_n + a(n)/b(n) and P_n(x) - (c/b(n)) yhat_n(xhat), each over b(n)
    n_top = min(cs.base.N, cs.hatted.N + 1)
    for n in range(n_top):
        an, a, b = data.a_seq(n), cs.a(n), cs.b(n)
        res.append(sum_of_products(((an, b), (a,)), over=b))
    hatted = [(x, family_column(cs.hatted, x + cs.xshift)) for x in clear]
    for n in range(n_top):
        bn = cs.b(n)
        if bn == 0:
            continue
        for x, column in hatted:
            yh = column[n]
            res.append(sum_of_products(((data.kernel(n, x), bn), (-1, c, yh)), over=bn))
    return res
