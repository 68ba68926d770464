"""Deformed su(2)-type algebra realizations behind the dual Hahn matrices.

J_plus is twice the lower two-diagonal half of the case's matrix, J_minus
its transpose, J_0 an equidistant diagonal and P the alternating parity
diagonal.  Because J_plus J_minus and J_minus J_plus are diagonal with
rational entries 4 M_k^2, every commutator identity is verified over exact
rationals even though the matrix entries themselves contain square roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List

from .doubles import ALGEBRA_CASES, DoubleCase, matrix_squares
from .families import DualHahnParams
from .matrices import SymTridiag, UnsupportedCase


@dataclass(frozen=True)
class StructureConstants:
    nu: Fraction
    sigma: Fraction
    rho: Fraction


@dataclass(frozen=True)
class AlgebraRealization:
    """Generators of one dual Hahn case in matrix form.

    j_plus_halves[k] is the k-th subdiagonal entry of J_plus / 2 (that is,
    M_k); J_minus is the transpose of J_plus; j0 is the diagonal of J_0 and
    parity the diagonal of P.
    """

    case: DoubleCase
    params: DualHahnParams
    j_plus_halves: tuple
    j0: tuple
    parity: tuple

    @property
    def dim(self) -> int:
        return len(self.j0)

    def commutator_diagonal(self) -> List[Fraction]:
        """Diagonal of [J_plus, J_minus], exactly: 4 (M_{i-1}^2 - M_i^2)
        with vanishing boundary terms."""
        sq = [Fraction(0)] + [m.square for m in self.j_plus_halves] + [Fraction(0)]
        return [4 * (left - right) for left, right in zip(sq, sq[1:])]


def build_generators(case: DoubleCase, params: DualHahnParams) -> AlgebraRealization:
    if case not in ALGEBRA_CASES:
        raise UnsupportedCase(f"{case.value}: algebra realizations cover the dual Hahn cases")
    halves = SymTridiag.from_squares(matrix_squares(case, params)).offdiagonal
    dim = len(halves) + 1
    # equidistant about zero: k - N for dimension 2N+1, k - N - 1/2 for 2N+2
    j0 = tuple(Fraction(2 * k - dim + 1, 2) for k in range(dim))
    parity = tuple(Fraction((-1) ** k) for k in range(dim))
    return AlgebraRealization(case, params, halves, j0, parity)


def verify_algebra(case: DoubleCase, params: DualHahnParams) -> Dict[str, List[Fraction]]:
    """Exact residues of all defining relations; every list must be zero.

    Relations with square-root entries (the ladder relations) reduce to
    rational coefficient identities because each matrix slot carries a
    single radicand.
    """
    alg = build_generators(case, params)
    res: Dict[str, List[Fraction]] = {}
    res["parity_squares"] = [p * p - 1 for p in alg.parity]
    res["parity_j0"] = [alg.parity[i] * alg.j0[i] - alg.j0[i] * alg.parity[i]
                        for i in range(alg.dim)]
    # (P J+ + J+ P)_{i,i-1} = 2 M_{i-1} (p_i + p_{i-1})
    res["parity_ladder"] = [alg.parity[i] + alg.parity[i - 1] for i in range(1, alg.dim)]
    # [J0, J+]_{i,i-1} = 2 M_{i-1} (j0_i - j0_{i-1}); must equal (J+)_{i,i-1}
    res["j0_ladder"] = [alg.j0[i] - alg.j0[i - 1] - 1 for i in range(1, alg.dim)]
    comm = alg.commutator_diagonal()
    res["commutator"] = [comm[i] - case.record.commutator(params, alg.j0[i], alg.parity[i])
                         for i in range(alg.dim)]
    return res


def structure_constants(case: DoubleCase, params: DualHahnParams) -> StructureConstants:
    """(nu, sigma, rho) of the normal form, with the case's commutator_sign,
    read off the case's closed form: divided by the sign it is
    2 j0 + 2 nu j0 p + (sigma/2) p + rho/2, so its values at j0, p in
    {0, 1} determine the three constants."""
    if case not in ALGEBRA_CASES:
        raise UnsupportedCase(f"{case.value}: algebra realizations cover the dual Hahn cases")
    sgn = case.record.commutator_sign
    c = {(j0, p): sgn * case.record.commutator(params, Fraction(j0), Fraction(p))
         for j0 in (0, 1) for p in (0, 1)}
    return StructureConstants(nu=(c[1, 1] - c[1, 0] - c[0, 1] + c[0, 0]) / 2,
                              sigma=2 * (c[0, 1] - c[0, 0]), rho=2 * c[0, 0])


def verify_normal_form(case: DoubleCase, params: DualHahnParams) -> List[Fraction]:
    """Residues of [J+, J-] against sign * (2 J0 + 2 nu J0 P + sigma/2 P +
    rho/2 I) with the extracted structure constants; exact round trip."""
    alg = build_generators(case, params)
    sc = structure_constants(case, params)
    sgn = case.record.commutator_sign
    return [c - sgn * (2 * j0 + 2 * sc.nu * j0 * p + sc.sigma / 2 * p + sc.rho / 2)
            for c, j0, p in zip(alg.commutator_diagonal(), alg.j0, alg.parity)]
