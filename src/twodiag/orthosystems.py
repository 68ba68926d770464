"""Doubled orthogonal polynomial systems: two same-family polynomial sets
with shifted parameters merged into one sequence P_0, P_1, ... carrying a
common discrete weight on a square-root support.

Three systems are written out in closed form (the first dual Hahn case and
the first two Hahn cases); for the rest only the matrix spectra exist in
closed form.  Even-index members are polynomials in q^2, odd-index members
are q times a polynomial in q^2; the support is the spectrum of the
case's matrix, built by the same `Spectrum.symmetric`, which
support_matches_spectrum certifies against the matrix of the gallery's
builder `double_matrix` (entries from `SymTridiag.from_squares`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property
from typing import List, Tuple

from .doubles import SYSTEM_CASES, CoefficientSextet, DoubleCase, case_record, coefficients
from .exact import ScaledRoot
from .families import FamilyParams, family_eval, family_norm, family_weight
from .matrices import (
    InadmissibleParams,
    Spectrum,
    UnsupportedCase,
    double_matrix,
    verify_spectrum_exact,
)


class UnsupportedPoint(ValueError):
    """The evaluation point is not in the system's support set."""


@dataclass(frozen=True)
class EvenOddValue:
    """Value even + odd_coefficient * q of a doubled polynomial at a support
    point q; exactly one part is nonzero, depending on the index parity."""

    even: ScaledRoot
    odd_coefficient: ScaledRoot


@dataclass(frozen=True)
class DoubledSystem:
    case: DoubleCase
    params: FamilyParams

    def __post_init__(self):
        if self.case not in SYSTEM_CASES:
            raise UnsupportedCase(
                f"{self.case.value}: no closed doubled system; use its matrix spectrum"
            )
        case_record(self.case, self.params)  # FamilyMismatch for foreign parameters
        # the two free parameters: gamma, delta (dual Hahn) or alpha, beta (Hahn)
        first, second = (f.name for f in fields(self.params)[:2])
        if not (getattr(self.params, first) > -1 and getattr(self.params, second) > -1):
            raise InadmissibleParams(f"need {first} > -1 and {second} > -1")

    @cached_property
    def _pair(self) -> CoefficientSextet:
        return coefficients(self.case, self.params)

    @property
    def dim(self) -> int:
        return self.case.record.dim(self.params.N)

    def point_square(self, k: int) -> Fraction:
        """q^2 of the k-th nonnegative support point."""
        return self.case.record.eig_square(self.params, k)

    def support(self) -> Tuple[ScaledRoot, ...]:
        """The support points in ascending order."""
        squares = self.case.record.eig_squares(self.params)
        return Spectrum.symmetric(squares, zeros=self.dim - 2 * len(squares)).entries

    def point_index(self, q: ScaledRoot) -> int:
        for k in range(self.params.N + 1):
            if self.point_square(k) == q.square:
                return k
        raise UnsupportedPoint(f"{q} is not in the support")

    def weight_at(self, k: int, q_is_zero: bool) -> Fraction:
        w = family_weight(self.params, k)
        return 2 * w if q_is_zero else w

    def norm(self, n: int) -> Fraction:
        return family_norm(self.params, n // 2)

    def even_core(self, n: int, k: int) -> Fraction:
        """Base-family polynomial value entering P_{2n} at support index k."""
        return family_eval(self.params, n, k)

    def odd_core(self, n: int, k: int) -> Fraction:
        """Hatted-family polynomial value entering P_{2n+1}, taken at the
        shifted grid point k + xshift."""
        pair = self._pair
        return family_eval(pair.hatted, n, k + pair.xshift)

    def odd_prefactor(self, n: int) -> ScaledRoot:
        """The constant multiplying q * (shifted polynomial) in P_{2n+1},
        including the overall 1/sqrt(2); its square is rational."""
        return self.case.record.odd_prefactor(self.params, n)


def doubled_system(case: DoubleCase, params: FamilyParams) -> DoubledSystem:
    return DoubledSystem(case, params)


def doubled_eval(system: DoubledSystem, n: int, q: ScaledRoot) -> EvenOddValue:
    """Exact even/odd decomposition of P_n(q) at a support point."""
    if not 0 <= n < system.dim:
        raise ValueError(f"index n={n} outside 0..{system.dim - 1}")
    k = system.point_index(q)
    sgn = Fraction((-1) ** (n // 2))
    if n % 2 == 0:
        core = system.even_core(n // 2, k)
        return EvenOddValue(ScaledRoot(sgn * core, Fraction(1, 2)), ScaledRoot.zero())
    pref = system.odd_prefactor(n // 2)
    core = system.odd_core(n // 2, k)
    return EvenOddValue(ScaledRoot.zero(), ScaledRoot(sgn * pref.coef * core, pref.radicand))


def verify_discrete_orthogonality(system: DoubledSystem) -> List[Fraction]:
    """Residues of sum_{q in S} w(q) P_n(q) P_m(q) = norm(n) delta_{nm},
    computed exactly through parity pairing.

    Mixed-parity sums vanish identically because the integrand is odd over
    the negation-closed support; they contribute exact zeros here.
    """
    N = system.params.N
    dim = system.dim
    even_top = dim - 1 - dim % 2  # largest even index
    res: List[Fraction] = []

    # grouping by k: the two points +-q_k each carry weight w(k), and the
    # lone q = 0 point carries the doubled weight 2 w(k); either way each k
    # contributes 2 w(k) times the (even in q) product value
    ks = range(N + 1)
    w = {k: system.weight_at(k, q_is_zero=False) for k in ks}
    q2 = {k: system.point_square(k) for k in ks}

    for n in range(dim):
        for m in range(n, dim):
            if (n - m) % 2 == 1:
                res.append(Fraction(0))
                continue
            expected = system.norm(n) if n == m else Fraction(0)
            i, j = n // 2, m // 2
            if n % 2 == 0:
                sgn = Fraction((-1) ** (i + j)) / 2
                total = sum(2 * w[k] * sgn * system.even_core(i, k) * system.even_core(j, k)
                            for k in ks)
                res.append(total - expected)
            else:
                pi, pj = system.odd_prefactor(i), system.odd_prefactor(j)
                sgn = Fraction((-1) ** (i + j)) * pi.coef * pj.coef
                core = sum(2 * w[k] * q2[k] * system.odd_core(i, k) * system.odd_core(j, k)
                           for k in ks)
                if n == m:
                    res.append(sgn * pi.radicand * core - expected)
                else:
                    # prefactor sqrt(r_i r_j) is a common nonzero factor;
                    # orthogonality is equivalent to the rational core sum
                    res.append(sgn * core)
    return res


def support_matches_spectrum(system: DoubledSystem) -> bool:
    """The support set is the spectrum of the case's matrix, certified
    exactly: the matrix's characteristic polynomial (built from the sextet)
    equals the product of (lambda - q) over the support points."""
    matrix = double_matrix(system.case, system.params).matrix
    return verify_spectrum_exact(matrix, Spectrum(system.support()))


def degree_check(system: DoubledSystem, n: int) -> bool:
    """P_n has exact degree n in q: the polynomial-in-q^2 factor must have
    exact degree floor(n/2), checked by rational divided differences."""
    half = n // 2
    core = system.even_core if n % 2 == 0 else system.odd_core
    # nodes in the rational variable t = q^2; index k may exceed the grid,
    # where the evaluation is formal but still exact
    nodes = [system.point_square(k) for k in range(half + 2)]
    vals = [core(half, k) for k in range(half + 2)]
    top = _divided_difference(nodes[: half + 1], vals[: half + 1])
    beyond = _divided_difference(nodes, vals)
    return top != 0 and beyond == 0


def _divided_difference(nodes: List[Fraction], vals: List[Fraction]) -> Fraction:
    table = list(vals)
    k = len(nodes)
    for order in range(1, k):
        for i in range(k - order):
            table[i] = (table[i + 1] - table[i]) / (nodes[i + order] - nodes[i])
    return table[0]
