"""Doubled orthogonal polynomial systems: two same-family polynomial sets
with shifted parameters merged into one sequence P_0, P_1, ... carrying a
common discrete weight on a square-root support.

Three systems are written out in closed form (the first dual Hahn case and
the first two Hahn cases); for the rest only the matrix spectra exist in
closed form.  `DoubledSystem.value` is the one definition of P_n: even
members are polynomials in q^2, odd members q times a polynomial in q^2,
and `doubled_eval` returns that value at a support point.  The support is
the spectrum of the case's matrix, built by the same `case_spectrum`,
which support_matches_spectrum certifies against the matrix of the
gallery's builder `double_matrix` (entries from `SymTridiag.from_squares`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import List, Tuple

from .doubles import (SYSTEM_CASES, CoefficientSextet, DoubleCase, case_record, coefficients,
                      eig_squares)
from .exact import ScaledRoot, over_lcm
from .families import FamilyParams, family_column, family_norm, family_weight
from .matrices import (
    InadmissibleParams,
    UnsupportedCase,
    case_spectrum,
    double_matrix,
    verify_spectrum_exact,
)

_HALF = Fraction(1, 2)


class UnsupportedPoint(ValueError):
    """The evaluation point is not in the system's support set."""


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
        """q^2 of the k-th nonnegative support point, the eigenvalue square
        at grid point x = k."""
        return eig_squares(self.case, self.params, [k])[0]

    def support(self) -> Tuple[ScaledRoot, ...]:
        """The support points in ascending order."""
        return case_spectrum(self.case, self.params).entries

    def point_index(self, q: ScaledRoot) -> int:
        for k in range(self.params.N + 1):
            if self.point_square(k) == q.square:
                return k
        raise UnsupportedPoint(f"{q} is not in the support")

    def norm(self, n: int) -> Fraction:
        return family_norm(self.params, n // 2)

    def value(self, n: int, k: int) -> ScaledRoot:
        """c with P_n = c * q^(n mod 2) at both support points +-q_k.

        P_n is (-1)^(n//2) times y_{n//2}(k) / sqrt(2) for even n, and times
        the case's prefactor, q and the hatted polynomial at k + xshift for
        odd n; the radicand (1/2, or the prefactor's) depends on n only.
        Index k may exceed the grid, where the value is formal but exact.
        """
        half, sign = n // 2, (-1) ** (n // 2)
        if n % 2 == 0:
            return ScaledRoot(sign * family_column(self.params, k)[half], _HALF)
        pair = self._pair
        pref = self.case.record.odd_prefactor(self.params, half)
        core = family_column(pair.hatted, k + pair.xshift)[half]
        return ScaledRoot(sign * pref.coef * core, pref.radicand)


def doubled_system(case: DoubleCase, params: FamilyParams) -> DoubledSystem:
    return DoubledSystem(case, params)


def doubled_eval(system: DoubledSystem, n: int, q: ScaledRoot) -> ScaledRoot:
    """The coefficient c of P_n(q) = c * q^(n mod 2) at a support point."""
    if not 0 <= n < system.dim:
        raise ValueError(f"index n={n} outside 0..{system.dim - 1}")
    return system.value(n, system.point_index(q))


def verify_discrete_orthogonality(system: DoubledSystem) -> List[Fraction]:
    """Residues of sum_{q in S} w(q) P_n(q) P_m(q) = norm(n) delta_{nm}
    for 0 <= n <= m < dim, computed exactly through parity pairing.

    Grouped by k, the two points +-q_k each carry weight w(k) and the lone
    q = 0 point the doubled weight 2 w(k); either way each k contributes
    2 w(k) [q_k^2 if n is odd] c_n(k) c_m(k) times the radicand of
    `value`, a common nonzero factor that only the diagonal needs.
    Each weight list and each row of coefficients is put over one common
    denominator, so every sum is an integer dot product and one `Fraction`.
    Mixed-parity sums vanish identically because the integrand is odd over
    the negation-closed support; they contribute exact zeros here.
    """
    ks = range(system.params.N + 1)
    weights = [2 * family_weight(system.params, k) for k in ks]
    odd_weights = [w * system.point_square(k) for k, w in zip(ks, weights)]
    weight_ints = [over_lcm(weights), over_lcm(odd_weights)]
    table = [[system.value(n, k) for k in ks] for n in range(system.dim)]
    rows = [over_lcm([c.coef for c in values]) for values in table]
    res: List[Fraction] = []
    for n, (row, row_den) in enumerate(rows):
        ws, w_den = weight_ints[n % 2]
        weighted = list(map(mul, ws, row))
        for m in range(n, system.dim):
            if (n - m) % 2:
                res.append(Fraction(0))
                continue
            other, other_den = rows[m]
            total = Fraction(sum(map(mul, weighted, other)), w_den * row_den * other_den)
            res.append(total * table[n][0].radicand - system.norm(n) if n == m else total)
    return res


def support_matches_spectrum(system: DoubledSystem) -> bool:
    """The support set is the spectrum of the case's matrix, certified
    exactly: the matrix's characteristic polynomial (built from the sextet)
    equals the product of (lambda - q) over the support points, read as the
    zero count and the squares of `case_spectrum`, which `support` lists and
    `double_matrix` carries."""
    m = double_matrix(system.case, system.params)
    return verify_spectrum_exact(m.matrix, m.spectrum)


def degree_check(system: DoubledSystem, n: int) -> bool:
    """P_n has exact degree n in q: the polynomial-in-q^2 factor must have
    exact degree floor(n/2), checked by rational divided differences."""
    half = n // 2
    # nodes in the rational variable t = q^2; index k may exceed the grid
    nodes = [system.point_square(k) for k in range(half + 2)]
    vals = [system.value(n, k).coef for k in range(half + 2)]
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
