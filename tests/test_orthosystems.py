import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from twodiag.doubles import CASE_TABLE, DoubleCase
from twodiag.exact import ScaledRoot
from twodiag.families import (DualHahnParams, HahnParams, RecurrenceData, dual_hahn_eval,
                              family_weight)
from twodiag.matrices import UnsupportedCase
from twodiag.orthosystems import (
    SYSTEM_CASES,
    DoubledSystem,
    UnsupportedPoint,
    degree_check,
    doubled_eval,
    doubled_system,
    support_matches_spectrum,
    verify_discrete_orthogonality,
)
from twodiag.sampling import rand_dual_hahn, rand_hahn, rand_noninteger


def make_system(case, seed=0, max_n=5):
    rng = random.Random(seed)
    if case is DoubleCase.DUAL_HAHN_I:
        return doubled_system(case, rand_dual_hahn(rng, max_n))
    return doubled_system(case, rand_hahn(rng, max_n))


def test_dimensions_and_support_shapes():
    s1 = doubled_system(DoubleCase.DUAL_HAHN_I, DualHahnParams(F(1, 2), F(1, 3), 4))
    assert s1.dim == 9 and len(s1.support()) == 9
    s2 = doubled_system(DoubleCase.HAHN_I, HahnParams(F(1, 2), F(1, 3), 4))
    assert s2.dim == 10 and len(s2.support()) == 10
    s3 = doubled_system(DoubleCase.HAHN_II, HahnParams(F(1, 2), F(1, 3), 4))
    assert s3.dim == 9


def test_hahn_ii_support_is_sqrt_integers():
    s = doubled_system(DoubleCase.HAHN_II, HahnParams(F(1, 2), F(1, 3), 4))
    assert [e.radicand for e in s.support()] == [4, 3, 2, 1, 0, 1, 2, 3, 4]


def test_support_symmetric_about_zero():
    for case in SYSTEM_CASES:
        s = make_system(case, 3)
        pts = s.support()
        assert sorted(-p for p in pts) == sorted(pts)


def test_p0_is_constant():
    s = make_system(DoubleCase.DUAL_HAHN_I, 1)
    for q in s.support():
        v = doubled_eval(s, 0, q)  # P_0 = v, with no factor q
        assert v.coef == 1 and v.radicand == F(1, 2)


def test_odd_members_vanish_at_zero():
    # P_n = c q for odd n: c is the same at +-q_k, so P_n is odd in q and
    # vanishes at q = 0, where c is still defined (support index 0)
    s = make_system(DoubleCase.DUAL_HAHN_I, 2)
    zero = ScaledRoot.zero()
    for n in range(1, s.dim, 2):
        assert doubled_eval(s, n, zero) == s.value(n, 0)
        for q in s.support():
            assert doubled_eval(s, n, q) == doubled_eval(s, n, -q)


def test_even_member_reduces_to_family_value():
    p = DualHahnParams(F(1, 2), F(1, 3), 4)
    s = doubled_system(DoubleCase.DUAL_HAHN_I, p)
    for k in range(5):
        q = ScaledRoot.sqrt(k * (k + p.gamma + p.delta + 1))
        v = doubled_eval(s, 4, q)  # P_{2n} with n = 2
        assert v.coef == dual_hahn_eval(2, k, p)


@pytest.mark.parametrize("case", SYSTEM_CASES, ids=lambda c: c.value)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_orthogonality_exact(case, seed):
    s = make_system(case, seed)
    assert all(r == 0 for r in verify_discrete_orthogonality(s))


@pytest.mark.parametrize("case", SYSTEM_CASES, ids=lambda c: c.value)
def test_doubled_prefactor_at_one_degree_is_caught(case, monkeypatch):
    rec = CASE_TABLE[case]

    def doubled_at_1(p, n):
        pref = rec.odd_prefactor(p, n)
        return ScaledRoot(2 * pref.coef, pref.radicand) if n == 1 else pref  # P_3

    monkeypatch.setitem(CASE_TABLE, case, replace(rec, odd_prefactor=doubled_at_1))
    assert any(r != 0 for r in verify_discrete_orthogonality(make_system(case, 4)))


@pytest.mark.parametrize("case", SYSTEM_CASES, ids=lambda c: c.value)
def test_hatted_polynomial_off_its_grid_is_caught(case, monkeypatch):
    # xshift + 1 reads the hatted polynomial at k where xshift = -1
    # (DualHahnI, HahnII); HahnI has xshift = 0, so it moves to k + 1
    rec = CASE_TABLE[case]
    moved = lambda p: {**rec.sextet(p), "xshift": rec.sextet(p)["xshift"] + 1}
    monkeypatch.setitem(CASE_TABLE, case, replace(rec, sextet=moved))
    assert any(r != 0 for r in verify_discrete_orthogonality(make_system(case, 4)))


@pytest.mark.parametrize("case", SYSTEM_CASES, ids=lambda c: c.value)
def test_support_equals_matrix_spectrum(case):
    assert support_matches_spectrum(make_system(case, 4))


@pytest.mark.parametrize("case", SYSTEM_CASES, ids=lambda c: c.value)
def test_moved_support_point_fails_the_certificate(case, monkeypatch):
    # the support and the closed-form spectrum both come from the gap
    # Lam(x) - Lam(nu); doubling it at x = 1 must still fail against the
    # sextet's matrix
    s = make_system(case, 4)
    square = s.point_square(1)
    real = RecurrenceData.gap
    monkeypatch.setattr(RecurrenceData, "gap",
                        lambda self, nu: lambda x, g=real(self, nu): g(x) * (1 + (x == 1)))
    s = make_system(case, 4)
    assert s.point_square(1) == 2 * square and ScaledRoot.sqrt(2 * square) in s.support()
    assert not support_matches_spectrum(s)


@pytest.mark.parametrize("case", SYSTEM_CASES, ids=lambda c: c.value)
def test_degrees_are_exact(case):
    s = make_system(case, 5)
    for n in range(s.dim):
        assert degree_check(s, n)


def test_unsupported_point_and_case():
    s = make_system(DoubleCase.DUAL_HAHN_I, 6)
    with pytest.raises(UnsupportedPoint):
        doubled_eval(s, 0, ScaledRoot.sqrt(F(1, 7)))
    with pytest.raises(UnsupportedCase):
        doubled_system(DoubleCase.DUAL_HAHN_II, DualHahnParams(F(1, 2), F(1, 3), 4))
    with pytest.raises(ValueError):
        doubled_eval(s, s.dim, ScaledRoot.zero())


def _orthogonality_reference(system):
    """The residues as sums of three `Fraction` products per summand, the
    form the common-denominator integer sums replaced."""
    ks = range(system.params.N + 1)
    weights = [2 * family_weight(system.params, k) for k in ks]
    odd_weights = [w * system.point_square(k) for k, w in zip(ks, weights)]
    table = [[system.value(n, k) for k in ks] for n in range(system.dim)]
    res = []
    for n, row in enumerate(table):
        ws = odd_weights if n % 2 else weights
        for m in range(n, system.dim):
            if (n - m) % 2:
                res.append(F(0))
                continue
            total = sum(w * c.coef * d.coef for w, c, d in zip(ws, row, table[m]))
            res.append(total * row[0].radicand - system.norm(n) if n == m else total)
    return res


@pytest.mark.parametrize("case", SYSTEM_CASES, ids=lambda c: c.value)
@pytest.mark.parametrize("N", range(1, 9))
def test_orthogonality_residues_equal_the_fraction_sums(case, N):
    rng = random.Random(N)
    family = DualHahnParams if case is DoubleCase.DUAL_HAHN_I else HahnParams
    params = family(rand_noninteger(rng, 3), rand_noninteger(rng, 5), N)
    s = doubled_system(case, params)
    residues = verify_discrete_orthogonality(s)
    assert len(residues) == s.dim * (s.dim + 1) // 2
    assert residues == _orthogonality_reference(s)
    assert all(type(r) is F for r in residues)


@pytest.mark.parametrize("case", SYSTEM_CASES, ids=lambda c: c.value)
def test_one_perturbed_value_is_seen_by_both_sums(case, monkeypatch):
    # c_n(k) scaled by 1 + 1/97 at n = 2, k = 1: the integer sums must read
    # the same nonzero residues as the Fraction sums
    s = make_system(case, 4)
    real = DoubledSystem.value

    def perturbed(self, n, k):
        v = real(self, n, k)
        return ScaledRoot(v.coef * F(98, 97), v.radicand) if (n, k) == (2, 1) else v

    monkeypatch.setattr(DoubledSystem, "value", perturbed)
    residues = verify_discrete_orthogonality(s)
    assert residues == _orthogonality_reference(s) and any(r != 0 for r in residues)
