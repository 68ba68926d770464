"""The case table of doubles.py checked against literal expectations and
against the constructions built from it."""

import random

import pytest

from twodiag.doubles import (
    CASE_TABLE,
    EIGVEC_CASES,
    MATRIX_CASES,
    DoubleCase,
    coefficients,
    eig_squares,
    even_row_params,
)
from twodiag.eigsolve import FAMILY_CHOICES
from twodiag.families import DualHahnParams, HahnParams, RacahParams
from twodiag.matrices import double_matrix, verify_squares_exact
from twodiag.sampling import rand_params_for_case

EVEN_DIM_CASES = [DoubleCase.DUAL_HAHN_III, DoubleCase.HAHN_I, DoubleCase.HAHN_III,
                  DoubleCase.RACAH_I]

# (even-row family, odd-row family) of each displayed eigenvector matrix U
U_ROW_FAMILIES = {
    DoubleCase.DUAL_HAHN_I: lambda p: (p, DualHahnParams(p.gamma + 1, p.delta + 1, p.N - 1)),
    DoubleCase.DUAL_HAHN_II: lambda p: (p, DualHahnParams(p.gamma, p.delta, p.N - 1)),
    DoubleCase.DUAL_HAHN_III: lambda p: (DualHahnParams(p.gamma, p.delta + 1, p.N),
                                         DualHahnParams(p.gamma + 1, p.delta, p.N)),
    DoubleCase.HAHN_I: lambda p: (p, HahnParams(p.alpha + 1, p.beta, p.N)),
    DoubleCase.HAHN_II: lambda p: (p, HahnParams(p.alpha + 1, p.beta, p.N - 1)),
    DoubleCase.RACAH_I: lambda p: (RacahParams(p.alpha, p.beta, p.gamma, p.delta + 1),
                                   RacahParams(p.alpha, p.beta + 1, p.gamma + 1, p.delta)),
    DoubleCase.RACAH_III: lambda p: (p, RacahParams(p.alpha + 1, p.beta, p.gamma + 1,
                                                    p.delta + 1)),
}


def test_table_covers_every_case():
    assert list(CASE_TABLE) == list(DoubleCase)
    assert set(EIGVEC_CASES) == set(U_ROW_FAMILIES)


@pytest.mark.parametrize("case", list(DoubleCase), ids=lambda c: c.value)
def test_dimension(case):
    rec = CASE_TABLE[case]
    assert rec.even_dim == (case in EVEN_DIM_CASES)
    assert rec.dim(5) == (12 if case in EVEN_DIM_CASES else 11)


@pytest.mark.parametrize("case", MATRIX_CASES, ids=lambda c: c.value)
@pytest.mark.parametrize("seed", [0, 1])
def test_eigenvalue_squares_certify_the_matrix(case, seed):
    rec = CASE_TABLE[case]
    p = rand_params_for_case(case, random.Random(seed), 7, 0)
    m = double_matrix(case, p)
    squares = eig_squares(case, p)
    assert m.matrix.dim == rec.dim(p.N)
    assert verify_squares_exact(m.matrix.products(), m.matrix.dim - 2 * len(squares), squares)
    # in odd dimension exactly the grid point x = nu has gap 0: the zero eigenvalue
    nu, grid = rec.nu(even_row_params(case, p)), range(p.N + 1)
    gaps = eig_squares(case, p, grid)
    assert [x for x in grid if gaps[x] == 0] == ([] if rec.even_dim else [nu])
    assert rec.even_dim or nu in (0, p.N)


@pytest.mark.parametrize("case", EIGVEC_CASES, ids=lambda c: c.value)
def test_eigenvector_row_families(case):
    p = rand_params_for_case(case, random.Random(2), 7, 0)
    even, odd = U_ROW_FAMILIES[case](p)
    shifted = even_row_params(case, p)
    assert shifted == even
    assert coefficients(case, shifted).hatted == odd


def test_gallery_selectors_follow_the_table():
    doubles = [s.split(":")[1] for s in FAMILY_CHOICES if s.startswith("double:")]
    assert doubles == [c.value for c in MATRIX_CASES]
    assert "double:RacahII" not in FAMILY_CHOICES and "double:RacahIV" not in FAMILY_CHOICES
    # the Racah matrices pin alpha to -N-1, so they take the other three
    taken = {DualHahnParams: {"gamma", "delta"}, HahnParams: {"alpha", "beta"},
             RacahParams: {"beta", "gamma", "delta"}}
    for case in MATRIX_CASES:
        assert set(CASE_TABLE[case].defaults) == taken[case.family]
