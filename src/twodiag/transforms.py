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
from typing import Callable, List

from .doubles import CoefficientSextet, DoubleCase, christoffel_nu, coefficients
from .exact import RationalLike
from .families import FamilyParams, family_eval, recurrence_data


class ZeroAtNu(ZeroDivisionError):
    """y_n vanishes at the transform parameter, so a_n is undefined."""


class SupportCollision(ZeroDivisionError):
    """Lam(x) equals Lam(nu); the kernel transform divides by zero there."""


@dataclass(frozen=True)
class ChristoffelData:
    nu: Fraction
    a_seq: Callable[[int], Fraction]
    b_seq: Callable[[int], Fraction]


def christoffel_data(params: FamilyParams, nu: RationalLike) -> ChristoffelData:
    nu = Fraction(nu)
    rec = recurrence_data(params)
    lam_nu = rec.Lam(nu)

    def a_seq(n: int) -> Fraction:
        denom = family_eval(params, n, nu)
        if denom == 0:
            raise ZeroAtNu(f"y_{n}({nu}) = 0")
        return family_eval(params, n + 1, nu) / denom

    def b_seq(n: int) -> Fraction:
        if n == 0:
            return Fraction(0)
        return rec.A(n) + rec.C(n) + lam_nu - rec.A(n) * a_seq(n)

    return ChristoffelData(nu, a_seq, b_seq)


def christoffel_kernel(
    params: FamilyParams, nu: RationalLike, n: int, x: RationalLike
) -> Fraction:
    """Kernel partner value P_n(x), exact."""
    nu = Fraction(nu)
    rec = recurrence_data(params)
    denom = rec.Lam(x) - rec.Lam(nu)
    if denom == 0:
        raise SupportCollision(f"Lam({x}) = Lam({nu})")
    a_n = christoffel_data(params, nu).a_seq(n)
    return (family_eval(params, n + 1, x) - a_n * family_eval(params, n, x)) / denom


def geronimus_reconstruct(params: FamilyParams, nu: RationalLike, n: int,
                          x: RationalLike) -> Fraction:
    """A(n) P_n(x) - b_n P_{n-1}(x) with P the kernel partner at nu; equals
    y_n(x) exactly."""
    rec = recurrence_data(params)
    if n == 0:
        return rec.A(0) * christoffel_kernel(params, nu, 0, x)
    return (rec.A(n) * christoffel_kernel(params, nu, n, x)
            - christoffel_data(params, nu).b_seq(n) * christoffel_kernel(params, nu, n - 1, x))


def verify_recurrence_link(params: FamilyParams, nu: RationalLike, n_max: int) -> List[Fraction]:
    """Residues of b_n a_{n-1} = C(n) for n = 1..n_max."""
    rec = recurrence_data(params)
    data = christoffel_data(params, nu)
    return [data.b_seq(n) * data.a_seq(n - 1) - rec.C(n) for n in range(1, n_max + 1)]


def verify_roundtrip(params: FamilyParams, nu: RationalLike, n_max: int, xs) -> List[Fraction]:
    """Residues of the Geronimus reconstruction against direct evaluation."""
    rec = recurrence_data(params)
    lam_nu = rec.Lam(Fraction(nu))
    out: List[Fraction] = []
    for n in range(n_max + 1):
        for x in xs:
            if rec.Lam(x) == lam_nu:
                continue
            out.append(geronimus_reconstruct(params, nu, n, x) - family_eval(params, n, x))
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
    rec = recurrence_data(cs.base)
    lam_nu = rec.Lam(nu)
    N = cs.base.N
    res: List[Fraction] = []

    # constant c from any grid point clear of the collision
    c = None
    for x0 in range(N + 1):
        denom = rec.Lam(x0) - lam_nu
        if denom != 0:
            c = cs.d_hat(Fraction(x0)) / denom
            break
    if c is None:
        raise SupportCollision("no grid point clear of nu")
    for x in range(N + 1):
        res.append(cs.d_hat(Fraction(x)) - c * (rec.Lam(x) - lam_nu))

    data = christoffel_data(cs.base, nu)
    n_top = min(N, cs.hatted.N + 1)
    for n in range(n_top):
        res.append(data.a_seq(n) + cs.a(n) / cs.b(n))

    for n in range(min(N, cs.hatted.N + 1)):
        bn = cs.b(n)
        if bn == 0:
            continue
        for x in range(N + 1):
            if rec.Lam(x) == lam_nu:
                continue
            lhs = christoffel_kernel(cs.base, nu, n, x)
            rhs = (c / bn) * family_eval(cs.hatted, n, Fraction(x) + cs.xshift)
            res.append(lhs - rhs)
    return res
