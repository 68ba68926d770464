import random
from fractions import Fraction as F

import pytest

from twodiag.doubles import DoubleCase
from twodiag.families import DualHahnParams, HahnParams
from twodiag.matrices import InadmissibleParams, UnsupportedCase
from twodiag.oscillator import (
    ALGEBRA_CASES,
    build_generators,
    structure_constants,
    verify_algebra,
    verify_normal_form,
)
from twodiag.sampling import rand_dual_hahn


def test_generator_shapes():
    p = DualHahnParams(F(1, 2), F(1, 3), 3)
    a1 = build_generators(DoubleCase.DUAL_HAHN_I, p)
    assert a1.dim == 7
    assert a1.j0 == tuple(F(k) for k in range(-3, 4))
    assert a1.parity == tuple(F((-1) ** k) for k in range(7))
    a3 = build_generators(DoubleCase.DUAL_HAHN_III, p)
    assert a3.dim == 8
    assert a3.j0[0] == F(-7, 2) and a3.j0[-1] == F(7, 2)
    assert all(b - a == 1 for a, b in zip(a3.j0, a3.j0[1:]))


def test_commutator_is_diagonal_difference_structure():
    p = DualHahnParams(F(1, 2), F(1, 3), 4)
    alg = build_generators(DoubleCase.DUAL_HAHN_I, p)
    comm = alg.commutator_diagonal()
    sq = [m.square for m in alg.j_plus_halves]
    assert comm[0] == -4 * sq[0]
    assert comm[-1] == 4 * sq[-1]
    for i in range(1, alg.dim - 1):
        assert comm[i] == 4 * (sq[i - 1] - sq[i])


@pytest.mark.parametrize("case", ALGEBRA_CASES, ids=lambda c: c.value)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_all_relations_exact(case, seed):
    p = rand_dual_hahn(random.Random(seed), 10)
    res = verify_algebra(case, p)
    for name, values in res.items():
        assert all(v == 0 for v in values), (name, values)


@pytest.mark.parametrize("case", ALGEBRA_CASES, ids=lambda c: c.value)
def test_normal_form_roundtrip(case):
    p = rand_dual_hahn(random.Random(5), 8)
    assert all(r == 0 for r in verify_normal_form(case, p))


def test_su2_coincidence():
    p = DualHahnParams(F(-1, 2), F(-1, 2), 5)
    for case in (DoubleCase.DUAL_HAHN_I, DoubleCase.DUAL_HAHN_III):
        sc = structure_constants(case, p)
        assert (sc.nu, sc.sigma, sc.rho) == (0, 0, 0), case
    # and the commutator is then literally 2 J0
    alg = build_generators(DoubleCase.DUAL_HAHN_I, p)
    assert alg.commutator_diagonal() == [2 * j for j in alg.j0]


def test_structure_constants_closed_forms():
    g, d, N = F(2, 7), F(3, 5), 4
    p = DualHahnParams(g, d, N)
    sc = structure_constants(DoubleCase.DUAL_HAHN_I, p)
    assert sc.nu == g + d + 1
    assert sc.sigma == -2 * (2 * N + 1) * (g - d)
    assert sc.rho == 2 * (g - d)
    sc2 = structure_constants(DoubleCase.DUAL_HAHN_II, p)
    assert sc2.nu == -(g + d + 2 * N + 1)
    assert DoubleCase.DUAL_HAHN_II.record.commutator_sign == -1
    sc3 = structure_constants(DoubleCase.DUAL_HAHN_III, p)
    assert sc3.nu == g - d
    assert sc3.sigma == -2 * ((2 * N + 2) * (g + d + 1) + (2 * g + 1) * (2 * d + 1))


def test_one_parameter_line_drops_quadratic_term():
    g = F(-1, 4)
    p = DualHahnParams(g, -g - 1, 5)
    sc = structure_constants(DoubleCase.DUAL_HAHN_I, p)
    assert sc.nu == 0 and sc.sigma != 0
    assert all(r == 0 for r in verify_normal_form(DoubleCase.DUAL_HAHN_I, p))


def test_gamma_equals_delta_drops_parity_terms():
    p = DualHahnParams(F(7, 5), F(7, 5), 4)
    sc3 = structure_constants(DoubleCase.DUAL_HAHN_III, p)
    assert sc3.nu == 0 and sc3.rho == 0
    sc1 = structure_constants(DoubleCase.DUAL_HAHN_I, p)
    assert sc1.sigma == 0 and sc1.rho == 0


def test_errors():
    p = DualHahnParams(F(1, 2), F(1, 3), 4)
    with pytest.raises(UnsupportedCase):
        build_generators(DoubleCase.HAHN_I, p)
    with pytest.raises(Exception):
        build_generators(DoubleCase.DUAL_HAHN_I, HahnParams(F(1, 2), F(1, 3), 4))
    with pytest.raises(InadmissibleParams):
        build_generators(DoubleCase.DUAL_HAHN_I, DualHahnParams(F(1, 2), F(-5, 2), 4))
