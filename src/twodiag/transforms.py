"""Kernel (Christoffel) and inverse (Geronimus) transforms for the
implemented families, plus exact verification that each doubling case's
transform parameter maps the family onto its hatted partner.

For a family y_n with recurrence data (A, C, Lam) and parameter nu, the
kernel partner and its inverse are

    P_n(x) = (y_{n+1}(x) - a_n y_n(x)) / (Lam(x) - Lam(nu)),
    y_n(x) = A(n) P_n(x) - b_n P_{n-1}(x),

with a_n = y_{n+1}(nu)/y_n(nu) and b_n tied to the recurrence through
b_n a_{n-1} = C(n) and A(n) a_n + b_n = A(n) + C(n) + Lam(nu).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, List

from .doubles import CoefficientSextet, DoubleCase, christoffel_nu, coefficients
from .exact import RationalLike
from .families import FamilyParams, family_column, recurrence_data


class ZeroAtNu(ZeroDivisionError):
    """y_n vanishes at the transform parameter, so a_n is undefined."""


class SupportCollision(ZeroDivisionError):
    """Lam(x) equals Lam(nu); the kernel transform divides by zero there."""


@dataclass(frozen=True)
class ChristoffelData:
    """The kernel transform of one family at one nu.  a_n and b_n are
    memoised per n, gap(x) = Lam(x) - Lam(nu) per x and the kernel partner
    P_n(x) per (n, x), for the life of the object, so a check that builds
    one computes each of them once."""

    params: FamilyParams
    nu: Fraction
    gap: Callable[[RationalLike], Fraction]
    a_seq: Callable[[int], Fraction]
    b_seq: Callable[[int], Fraction]
    kernel: Callable[[int, RationalLike], Fraction]

    def reconstruct(self, n: int, x: RationalLike) -> Fraction:
        """A(n) P_n(x) - b_n P_{n-1}(x); equals y_n(x) exactly."""
        rec = recurrence_data(self.params)
        if n == 0:
            return rec.A(0) * self.kernel(0, x)
        return rec.A(n) * self.kernel(n, x) - self.b_seq(n) * self.kernel(n - 1, x)


def christoffel_data(params: FamilyParams, nu: RationalLike) -> ChristoffelData:
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
        return rec.A(n) + rec.C(n) + lam_nu - rec.A(n) * a_seq(n)

    @lru_cache(maxsize=None)
    def kernel(n: int, x: RationalLike) -> Fraction:
        """Kernel partner value P_n(x), exact."""
        denom = gap(x)
        if denom == 0:
            raise SupportCollision(f"Lam({x}) = Lam({nu})")
        yx = family_column(params, x)
        return (yx[n + 1] - a_seq(n) * yx[n]) / denom

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
    return [data.b_seq(n) * data.a_seq(n - 1) - rec.C(n) for n in range(1, n_max + 1)]


def verify_roundtrip(params: FamilyParams, nu: RationalLike, n_max: int, xs) -> List[Fraction]:
    """Residues of the Geronimus reconstruction against direct evaluation."""
    data = christoffel_data(params, nu)
    out: List[Fraction] = []
    for n in range(n_max + 1):
        for x in xs:
            if data.gap(x) == 0:
                continue
            out.append(data.reconstruct(n, x) - family_column(params, x)[n])
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
    c = cs.d_hat(Fraction(clear[0])) / data.gap(clear[0])
    res = [cs.d_hat(Fraction(x)) - c * data.gap(x) for x in grid]

    n_top = min(cs.base.N, cs.hatted.N + 1)
    res += [data.a_seq(n) + cs.a(n) / cs.b(n) for n in range(n_top)]
    for n in range(n_top):
        bn = cs.b(n)
        if bn == 0:
            continue
        for x in clear:
            rhs = (c / bn) * family_column(cs.hatted, Fraction(x) + cs.xshift)[n]
            res.append(data.kernel(n, x) - rhs)
    return res
