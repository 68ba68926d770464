import itertools
import random
from dataclasses import replace
from fractions import Fraction as F
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twodiag import matrices, verify
from twodiag.doubles import (CASE_TABLE, EIGVEC_CASES, MATRIX_CASES, DoubleCase, coefficients,
                             eig_squares, matrix_squares)
from twodiag.eigsolve import (FAMILY_CHOICES, _SELECTORS, _dim_to_n, build_gallery_matrix,
                               gallery_params)
from twodiag.exact import ScaledRoot
from twodiag.families import (
    DualHahnParams,
    HahnParams,
    KrawtchoukParams,
    RacahParams,
    family_eval,
    family_norm,
    family_weight,
    krawtchouk_eval,
)
from twodiag.matrices import (
    nonsymmetric_entries,
    InadmissibleParams,
    NegativeProduct,
    Spectrum,
    SymTridiag,
    TwoDiagonal,
    UnsupportedCase,
    case_spectrum,
    charpoly,
    double_matrix,
    eigen_residual,
    eigvec_matrix,
    extended_kac_even,
    extended_kac_odd,
    nonsymmetric_form,
    orthogonality_residual,
    similarity_scale_squares,
    sylvester_kac,
    symmetrize,
    verify_spectrum_exact,
    verify_squares_exact,
)
from twodiag.sampling import rand_dual_hahn, rand_params_for_case, rand_racah


def test_sylvester_kac_small():
    k2 = sylvester_kac(2)
    assert k2.matrix.sup == (1, 2) and k2.matrix.sub == (2, 1)
    assert [float(e) for e in k2.spectrum.entries] == [-2.0, 0.0, 2.0]
    k1 = sylvester_kac(1)
    assert [float(e) for e in k1.spectrum.entries] == [-1.0, 1.0]
    with pytest.raises(ValueError):
        sylvester_kac(0)


def test_charpoly_small_cases():
    assert charpoly(TwoDiagonal((F(5),), (F(1),))) == [F(-5), F(0), F(1)]  # l^2 - 5
    p, q = F(2, 3), F(7, 5)
    # l^3 - (p+q) l
    assert charpoly(TwoDiagonal((p, F(1)), (F(1), q))) == [F(0), -(p + q), F(0), F(1)]
    assert charpoly(sylvester_kac(3).matrix) == [F(9), F(0), F(-10), F(0), F(1)]
    # its integer kernel: D P(mu) = 15 mu - 31, D the lcm of the denominators
    assert matrices._minor_recurrence([p, q]) == ([-31, 15], 15)


def test_linear_factors_expansion():
    # (mu - 1)(mu - 9) = mu^2 - 10 mu + 9, and (2 mu - 1)(mu - 3), over
    # the squares' denominators
    assert matrices._linear_factors([F(1), F(9)]) == ([9, -10, 1], 1)
    assert matrices._linear_factors([F(1, 2), F(3)]) == ([3, -7, 2], 2)


def test_kac_certified_up_to_20():
    for n in range(1, 21):
        k = sylvester_kac(n)
        assert verify_spectrum_exact(k.matrix, k.spectrum)


def test_extended_kac_entry_patterns():
    g, d = F(1), F(0)
    mo = extended_kac_odd(2, g, d)
    assert list(mo.matrix.sup) == [2 * g + 2, 2, 2 * g + 4, 4]
    assert list(mo.matrix.sub) == [4, 2 * d + 4, 2, 2 * d + 2]
    me = extended_kac_even(2, g, d)
    assert list(me.matrix.sup) == [2 * g + 2, 2, 2 * g + 4]
    assert list(me.matrix.sub) == [2 * d + 4, 2, 2 * d + 2]


def test_extended_kac_odd_small_spectrum():
    # 3x3 charpoly l(l^2 - 4(gamma+delta+2)) by hand
    m = extended_kac_odd(1, 1, 0)
    assert [e.radicand for e in m.spectrum.entries] == [F(12), F(0), F(12)]
    assert verify_spectrum_exact(m.matrix, m.spectrum)
    assert charpoly(m.matrix) == [F(0), F(-12), F(0), F(1)]


def test_extended_kac_even_small_spectrum():
    m = extended_kac_even(2, 0, 1)
    assert sorted(e.radicand for e in m.spectrum.entries) == [F(8), F(8), F(24), F(24)]
    assert verify_spectrum_exact(m.matrix, m.spectrum)


@pytest.mark.parametrize("n", [1, 4, 7, 12])
def test_extended_kac_certified(n):
    rng = random.Random(n)
    g = F(rng.randint(-3, 12), rng.randint(1, 5))
    d = F(rng.randint(-3, 12), rng.randint(1, 5))
    mo = extended_kac_odd(n, g, d)
    assert verify_spectrum_exact(mo.matrix, mo.spectrum)
    if g > -1 and d > -1:
        me = extended_kac_even(n, g, d)
        assert verify_spectrum_exact(me.matrix, me.spectrum)


def test_extended_kac_reduces_to_classic():
    h = F(-1, 2)
    for n in (1, 3, 6):
        assert extended_kac_odd(n, h, h).matrix == sylvester_kac(2 * n).matrix
        assert extended_kac_even(n, h, h).matrix == sylvester_kac(2 * n - 1).matrix


def test_extended_kac_odd_integer_line():
    g = F(3, 4)
    m = extended_kac_odd(5, g, -g - 1)
    assert [float(e) for e in m.spectrum.entries] == [float(v) for v in range(-10, 11, 2)]
    assert verify_spectrum_exact(m.matrix, m.spectrum)


def _literal_kac(N, g, d, odd):
    """Entries and eigenvalue squares of the Kac extensions, written out
    from their closed forms."""
    sup, sub = [], []
    for j in range(N):
        sup.append(2 * g + 2 * j + 2)
        sub.append(2 * d + 2 * N - 2 * j if not odd else F(2 * N - 2 * j))
        if odd:
            sup.append(F(2 * j + 2))
            sub.append(2 * d + 2 * N - 2 * j)
        elif j < N - 1:
            sup.append(F(2 * j + 2))
            sub.append(F(2 * N - 2 * j - 2))
    squares = ([4 * k * (g + d + k + 1) for k in range(1, N + 1)] if odd
               else [4 * (g + k) * (d + k) for k in range(1, N + 1)])
    return sup, sub, squares


def test_extended_kac_match_literal_forms_and_raise_where_they_do():
    halves = [F(k, 2) for k in range(-9, 6)]
    for N in (1, 2, 3, 5):
        for g in halves:
            for d in halves:
                for build, odd in ((extended_kac_odd, True), (extended_kac_even, False)):
                    sup, sub, squares = _literal_kac(N, g, d, odd)
                    if min(squares) <= 0:
                        with pytest.raises(InadmissibleParams):
                            build(N, g, d)
                        continue
                    m = build(N, g, d)
                    assert (list(m.matrix.sup), list(m.matrix.sub)) == (sup, sub)
                    assert list(m.spectrum.squares) == sorted(squares)
                    assert m.spectrum.zeros == (1 if odd else 0)


def test_odd_dimension_omits_only_the_zero_gap_at_nu():
    # kac-odd's gaps are k(k + g + d + 1) = k(k - 1): zero at x = 0 = nu and
    # at x = 1; the first is the zero eigenvalue, the second refuses the matrix
    p = DualHahnParams(-1, -1, 3)
    assert eig_squares(DoubleCase.DUAL_HAHN_I, p, range(4)) == [0, 0, 2, 6]
    assert eig_squares(DoubleCase.DUAL_HAHN_I, p) == [0, 2, 6]
    with pytest.raises(InadmissibleParams, match="^eigenvalue square 0 is not positive$"):
        extended_kac_odd(3, -1, -1)
    # the spectra suite's fallback certifies such a matrix from its raw squares
    assert verify._kac_odd_certified(3, F(-1), F(-1))


def test_even_dimension_refuses_a_zero_gap():
    with pytest.raises(InadmissibleParams, match="^eigenvalue square 0 is not positive$"):
        double_matrix(DoubleCase.DUAL_HAHN_III, DualHahnParams(-1, F(1, 2), 3))


def test_even_kac_spectrum_halves_to_dual_hahn_iii():
    # eigenvalues of the even extension at size N+1 are exactly twice the
    # third dual Hahn case's eigenvalues at size N
    g, d, N = F(1, 2), F(1, 3), 4
    me = extended_kac_even(N + 1, g, d)
    md = double_matrix(DoubleCase.DUAL_HAHN_III, DualHahnParams(g, d, N))
    assert ([e.signed_square() for e in me.spectrum.entries]
            == [4 * e.signed_square() for e in md.spectrum.entries])


# draws whose eigenvalue squares fall as x rises
DESCENDING_DRAWS = [
    (DoubleCase.HAHN_IV, HahnParams(F(9, 7), F(28, 11), 6)),
    (DoubleCase.DUAL_HAHN_II, DualHahnParams(F(24, 7), 3, 6)),
    (DoubleCase.DUAL_HAHN_III, DualHahnParams(F(-38, 7), F(-29, 5), 3)),
]


def _default_draws():
    """(case, parameters) of every matrix case at its gallery defaults, at
    matrix dimensions 6/7 and 400/401."""
    for case in MATRIX_CASES:
        selector = f"double:{case.value}"
        for dim in (6, 7, 400, 401):
            try:
                n = _dim_to_n(selector, dim)
            except ValueError:
                continue  # the case takes the other parity
            yield case, _SELECTORS[selector].family_params(n, gallery_params(selector, n))


def _reference_spectrum(case, params, scale):
    """The spectrum entries as once built: each root and its negation in x
    order, sorted by signed_square."""
    squares = [scale * scale * s for s in eig_squares(case, params)]
    entries = [ScaledRoot.zero()] * (CASE_TABLE[case].dim(params.N) - 2 * len(squares))
    for s in squares:
        entries += (root := ScaledRoot.sqrt(s), -root)
    return sorted(entries, key=ScaledRoot.signed_square)


@pytest.mark.parametrize("scale", [1, 2])
def test_case_spectrum_arrives_sorted_as_the_signed_square_sort(scale, monkeypatch):
    # case_spectrum hands Spectrum its squares ascending, whichever way they
    # run in x, and the entries read back are the signed-square sort
    for case, params in DESCENDING_DRAWS:
        squares = eig_squares(case, params)
        assert squares == sorted(squares, reverse=True) and len(set(squares)) > 1, case
    given = []
    of_squares = Spectrum.of_squares
    monkeypatch.setattr(Spectrum, "of_squares",
                        lambda zeros, squares: given.append(squares) or of_squares(zeros, squares))
    for case, params in [*DESCENDING_DRAWS, *_default_draws()]:
        spectrum = case_spectrum(case, params, scale)
        squares = given.pop()
        assert squares == sorted(squares) and min(squares) > 0, (case, params)
        assert spectrum.squares == tuple(squares)
        reference = _reference_spectrum(case, params, scale)
        parts = [(e.coef, e.radicand) for e in spectrum.entries]
        assert parts == [(e.coef, e.radicand) for e in reference], (case, params)


def test_a_nonpositive_eigenvalue_square_is_named_in_x_order():
    # DualHahnI squares -13, -24, -33, -40; DualHahnIII 65/4, 33/4, 9/4,
    # -7/4, -15/4: the first in x order is named, not the smallest
    for case, params, first in [
            (DoubleCase.DUAL_HAHN_I, DualHahnParams(F(-15, 2), F(-15, 2), 4), -13),
            (DoubleCase.DUAL_HAHN_III, DualHahnParams(F(-15, 2), F(-7, 2), 4), F(-7, 4))]:
        squares = eig_squares(case, params)
        assert first == next(s for s in squares if s <= 0) and first != min(squares)
        for scale in (1, 2):
            named = f"^eigenvalue square {scale * scale * first} is not positive$"
            with pytest.raises(InadmissibleParams, match=named):
                case_spectrum(case, params, scale)


def test_a_negative_offdiagonal_square_is_named_with_its_index():
    for squares in ([1, 0, -2, -3], [F(1), F(0), F(-2), F(-3)]):
        with pytest.raises(NegativeProduct, match=r"^offdiagonal square M_2\^2 = -2 < 0$"):
            SymTridiag.from_squares(squares)
    # a float square is named as given
    with pytest.raises(NegativeProduct, match=r"^offdiagonal square M_1\^2 = -0.1 < 0$"):
        SymTridiag.from_squares([0.5, -0.1])
    with pytest.raises(NegativeProduct, match=r"^offdiagonal square M_0\^2 = -12 < 0$"):
        symmetrize(extended_kac_odd(2, F(-5, 2), 1).matrix)


@pytest.mark.parametrize("case", MATRIX_CASES, ids=lambda c: c.value)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_double_matrices_certified(case, seed):
    params = rand_params_for_case(case, random.Random(seed), 12, 0)
    m = double_matrix(case, params)
    assert verify_spectrum_exact(m.matrix, m.spectrum)


@pytest.mark.parametrize("case", MATRIX_CASES, ids=lambda c: c.value)
def test_double_matrices_at_n_zero(case):
    # dimension 1 or 2; an odd case's hatted family would have N = -1
    params = (RacahParams(-1, F(1, 2), F(1, 3), F(1, 5)) if case.family is RacahParams
              else case.family(F(1, 2), F(1, 3), 0))
    m = double_matrix(case, params)
    assert m.matrix.dim == CASE_TABLE[case].dim(0)
    assert verify_spectrum_exact(m.matrix, m.spectrum)


@pytest.mark.parametrize("case", [c for c in EIGVEC_CASES if not CASE_TABLE[c].even_dim],
                         ids=lambda c: c.value)
def test_eigvec_matrix_at_n_zero_is_one_by_one(case):
    # as double_matrix at N = 0: the 1x1 zero matrix, U = [1], eigenvalue 0
    params = (RacahParams(-1, F(1, 2), F(1, 3), F(1, 5)) if case.family is RacahParams
              else case.family(F(1, 2), F(1, 3), 0))
    u = eigvec_matrix(case, params)
    assert u.dim == 1 and u.entries == ((ScaledRoot.of(1),),)
    assert u.eigencolumn == (ScaledRoot.zero(),)
    assert orthogonality_residual(u) == 0
    assert eigen_residual(case, params) == 0


@pytest.mark.parametrize("case", [DoubleCase.DUAL_HAHN_I, DoubleCase.DUAL_HAHN_II,
                                  DoubleCase.DUAL_HAHN_III], ids=lambda c: c.value)
@pytest.mark.parametrize("seed", [3, 4])
def test_nonsym_forms_certified(case, seed):
    params = rand_dual_hahn(random.Random(seed), 12)
    m = nonsymmetric_form(case, params)
    assert verify_spectrum_exact(m.matrix, m.spectrum)


def test_nonsym_products_match_symmetric_squares():
    p = DualHahnParams(F(1, 2), F(1, 3), 5)
    sq1 = matrix_squares(DoubleCase.DUAL_HAHN_I, p)
    assert nonsymmetric_form(DoubleCase.DUAL_HAHN_I, p).matrix.products() == sq1
    sq2 = matrix_squares(DoubleCase.DUAL_HAHN_II, p)
    # the second case's printed form runs through the matrix backwards
    assert nonsymmetric_form(DoubleCase.DUAL_HAHN_II, p).matrix.products() == sq2[::-1]
    sq3 = matrix_squares(DoubleCase.DUAL_HAHN_III, p)
    assert nonsymmetric_form(DoubleCase.DUAL_HAHN_III, p).matrix.products() == sq3


def test_nonsym_integer_lines():
    # delta = gamma with integer gamma: all entries and eigenvalues integers
    m = nonsymmetric_form(DoubleCase.DUAL_HAHN_III, DualHahnParams(2, 2, 4))
    assert all(v.denominator == 1 for v in m.matrix.sup + m.matrix.sub)
    assert all(e.exact_rational() is not None for e in m.spectrum.entries)
    # delta = -gamma-1: integer spectrum 0, +-1, ..., +-N for the first case
    m1 = nonsymmetric_form(DoubleCase.DUAL_HAHN_I, DualHahnParams(1, -2, 3))
    assert sorted(float(e) for e in m1.spectrum.entries) == [-3, -2, -1, 0, 1, 2, 3]
    assert verify_spectrum_exact(m1.matrix, m1.spectrum)


def test_spectrum_certificate_is_sharp():
    k = sylvester_kac(4)
    bumped = TwoDiagonal(tuple(v + (1 if i == 0 else 0) for i, v in enumerate(k.matrix.sup)),
                         k.matrix.sub)
    assert not verify_spectrum_exact(bumped, k.spectrum)


def test_certificate_handles_negative_squares():
    # parameters with imaginary eigenvalues still certify through raw squares
    g, d, N = F(3, 4), F(-7, 4), 3
    m = nonsymmetric_entries(DoubleCase.DUAL_HAHN_III, DualHahnParams(g, d, N))
    # entries stay rational even though (k+g+1)(k+d+1) < 0 for small k
    squares = [(k + g + 1) * (k + d + 1) for k in range(N + 1)]
    assert any(s < 0 for s in squares)
    assert verify_squares_exact(m.products(), 0, squares)
    with pytest.raises(InadmissibleParams):
        nonsymmetric_form(DoubleCase.DUAL_HAHN_III, DualHahnParams(g, d, N))
    with pytest.raises(InadmissibleParams):
        double_matrix(DoubleCase.DUAL_HAHN_III, DualHahnParams(g, d, N))


def test_symmetrize_kac_pattern():
    n = 6
    sym = symmetrize(sylvester_kac(n).matrix)
    for k, off in enumerate(sym.offdiagonal):
        assert off.radicand == (k + 1) * (n - k)
    zero = TwoDiagonal((F(0),) * 3, (F(0),) * 3)
    assert all(o.sign == 0 for o in symmetrize(zero).offdiagonal)


@settings(max_examples=25)
@given(st.lists(st.tuples(st.fractions(min_value=0, max_value=9, max_denominator=4),
                          st.fractions(min_value=0, max_value=9, max_denominator=4)),
                min_size=1, max_size=9))
def test_symmetrize_preserves_charpoly(pairs):
    m = TwoDiagonal(tuple(b for b, _ in pairs), tuple(c for _, c in pairs))
    assert charpoly(m) == charpoly(symmetrize(m))


def test_symmetrize_rejects_negative_products():
    with pytest.raises(NegativeProduct):
        symmetrize(TwoDiagonal((F(1),), (F(-1),)))


def test_similarity_scales():
    m = sylvester_kac(3).matrix
    scales = similarity_scale_squares(m)
    assert scales[0] == 1
    for i, (b, c) in enumerate(zip(m.sup, m.sub)):
        assert scales[i + 1] == scales[i] * c / b


@pytest.fixture(scope="module")
def u_cases():
    pd = DualHahnParams(F(1, 2), F(1, 3), 6)
    ph = HahnParams(F(2, 3), F(1, 5), 6)
    pr = rand_racah(random.Random(1), 6, "alpha")
    return [
        (DoubleCase.DUAL_HAHN_I, pd), (DoubleCase.DUAL_HAHN_II, pd),
        (DoubleCase.DUAL_HAHN_III, pd), (DoubleCase.HAHN_I, ph),
        (DoubleCase.HAHN_II, ph), (DoubleCase.RACAH_I, pr), (DoubleCase.RACAH_III, pr),
    ]


def test_eigvec_matrices_orthogonal_and_diagonalizing(u_cases):
    for case, params in u_cases:
        u = eigvec_matrix(case, params)
        assert orthogonality_residual(u) <= 1e-12, case
        assert eigen_residual(case, params) <= 1e-12, case


def test_eigvec_rows_exact_norm():
    # each row's squared entries sum to 1 exactly (rational arithmetic)
    p = DualHahnParams(F(1, 2), F(1, 3), 4)
    u = eigvec_matrix(DoubleCase.DUAL_HAHN_I, p)
    for row in u.entries:
        assert sum(e.square for e in row) == 1


def test_eigvec_middle_column_convention():
    p = DualHahnParams(F(1, 2), F(1, 3), 4)
    u = eigvec_matrix(DoubleCase.DUAL_HAHN_I, p)
    n_mid = p.N
    for r in range(1, u.dim, 2):
        assert u.entries[r][n_mid].coef == 0
    assert u.eigencolumn[n_mid].sign == 0


def _exact_two_term_identity(a: ScaledRoot, b: ScaledRoot, c: ScaledRoot) -> bool:
    """Exact check of a + b = c for scaled roots, via squaring twice:
    a + b = c iff (c^2 - a^2 - b^2)^2 = 4 a^2 b^2 with matching signs."""
    diff = c.square - a.square - b.square
    if diff * diff != 4 * a.square * b.square:
        return False
    sign_ab = (1 if a.coef > 0 else -1 if a.coef < 0 else 0) * \
              (1 if b.coef > 0 else -1 if b.coef < 0 else 0)
    sign_diff = 1 if diff > 0 else -1 if diff < 0 else 0
    if sign_ab != sign_diff and not (a.square == 0 or b.square == 0):
        return False
    # degenerate cases reduce to |a| = |c| or |b| = |c| with aligned signs
    if a.square == 0:
        return b.square == c.square and (b.coef > 0) == (c.coef > 0)
    if b.square == 0:
        return a.square == c.square and (a.coef > 0) == (c.coef > 0)
    return True


def test_dual_hahn_iii_n1_eigen_identity_exact():
    # full 4x4: M U = U D verified exactly, entry by entry, by squaring the
    # two-term sums pairwise
    p = DualHahnParams(F(1, 2), F(1, 3), 1)
    u = eigvec_matrix(DoubleCase.DUAL_HAHN_III, p)
    m = double_matrix(DoubleCase.DUAL_HAHN_III, p)
    off = m.matrix.offdiagonal
    dim = u.dim
    for i in range(dim):
        for j in range(dim):
            terms = []
            if i > 0:
                e = u.entries[i - 1][j]
                terms.append(ScaledRoot(e.coef, e.radicand * off[i - 1].square))
            if i < dim - 1:
                e = u.entries[i + 1][j]
                terms.append(ScaledRoot(e.coef, e.radicand * off[i].square))
            d = u.eigencolumn[j]
            rhs = ScaledRoot(u.entries[i][j].coef * d.sign,
                             u.entries[i][j].radicand * d.radicand)
            if len(terms) == 1:
                a = terms[0]
                assert a.square == rhs.square
                assert (a.coef > 0) == (rhs.coef > 0) or a.square == 0
            else:
                assert _exact_two_term_identity(terms[0], terms[1], rhs), (i, j)


def test_unsupported_constructions():
    ph = HahnParams(F(2, 3), F(1, 5), 4)
    with pytest.raises(UnsupportedCase):
        eigvec_matrix(DoubleCase.HAHN_III, ph)
    with pytest.raises(UnsupportedCase):
        eigvec_matrix(DoubleCase.HAHN_IV, ph)
    pr = rand_racah(random.Random(0), 5, "alpha")
    with pytest.raises(UnsupportedCase):
        double_matrix(DoubleCase.RACAH_II, pr)
    with pytest.raises(UnsupportedCase):
        double_matrix(DoubleCase.RACAH_IV, pr)
    pg = rand_racah(random.Random(0), 5, "gamma")
    with pytest.raises(UnsupportedCase):
        double_matrix(DoubleCase.RACAH_I, pg)
    pd = DualHahnParams(F(1, 2), F(1, 3), 4)
    with pytest.raises(UnsupportedCase):
        nonsymmetric_form(DoubleCase.HAHN_I, pd)


def test_spectrum_properties():
    m = double_matrix(DoubleCase.HAHN_II, HahnParams(F(2, 3), F(1, 5), 5))
    s = m.spectrum
    assert s.zeros == 1 and s.squares == (1, 2, 3, 4, 5)
    assert s.dim == m.matrix.dim
    assert [e.radicand for e in s.entries if e.sign > 0] == [1, 2, 3, 4, 5]
    assert Spectrum(s.entries[::-1]) == s


@pytest.mark.parametrize("entries, closed", [
    ((-2, 0, 2), True), ((-2, -1, 1, 2), True), ((-1, -1, 1, 1), True), ((0, 0), True),
    ((-2, 1, 2), False), ((-2, -1, 2), False), ((-2, 0, 0, 2, 3), False), ((-1, 1, 1), False),
    ((2, -1, 0, 1, -2), True), ((1, 2, -2), False),
])
def test_negation_closed_pairs_each_entry_with_its_mirror(entries, closed):
    given = tuple(ScaledRoot.of(v) for v in entries)
    if not closed:
        with pytest.raises(ValueError, match="^spectrum entries are not closed under negation$"):
            Spectrum(given)
        return
    s = Spectrum(given)
    assert s.zeros == entries.count(0)
    assert s.squares == tuple(sorted(v * v for v in entries if v > 0))
    assert [(e.coef, e.radicand) for e in s.entries] == [
        (e.coef, e.radicand) for e in sorted(given, key=ScaledRoot.signed_square)]


def test_spectrum_pairs_entries_by_value_not_by_form():
    # 2 sqrt(3) and -sqrt(12) are mirrors; the entries read back are +-sqrt(12)
    s = Spectrum((ScaledRoot(F(2), F(3)), ScaledRoot(F(-1), F(12))))
    assert (s.zeros, s.squares) == (0, (12,))
    assert [(e.coef, e.radicand) for e in s.entries] == [(-1, 12), (1, 12)]
    with pytest.raises(ValueError):
        Spectrum((ScaledRoot(F(2), F(3)), ScaledRoot(F(-1), F(3))))


@pytest.mark.parametrize("selector", FAMILY_CHOICES)
def test_spectrum_entries_and_floats_match_the_signed_square_sort(selector):
    for n in (1, 2, 5, 30):
        s = build_gallery_matrix(selector, n).spectrum
        reference = [ScaledRoot.zero()] * s.zeros
        for q in s.squares:
            reference += (root := ScaledRoot.sqrt(q), -root)
        reference.sort(key=ScaledRoot.signed_square)
        assert ([(e.coef, e.radicand) for e in s.entries]
                == [(e.coef, e.radicand) for e in reference]), n
        assert [x.hex() for x in s.floats()] == [float(e).hex() for e in s.entries], n
        assert all(type(x) is float for x in s.floats())


def _series_u(case, params):
    """U entry by entry from the series values and the per-point closed-form
    weights and norms, in the layout `eigvec_matrix` documents."""
    rec = CASE_TABLE[case]
    even = replace(params, delta=params.delta + rec.u_delta_shift) if rec.u_delta_shift else params
    pair = coefficients(case, even)
    odd, xshift = pair.hatted, int(pair.xshift)
    N, dim = params.N, rec.dim(params.N)
    right = 1 if rec.even_dim else 0
    edge = not rec.even_dim and xshift == 0

    def entry(fam, n, x, sign, halved):
        w, h = family_weight(fam, x), family_norm(fam, n)
        if w <= 0 or h <= 0:
            raise InadmissibleParams(f"weight/norm not positive at x={x}, n={n}")
        return sign * family_eval(fam, n, x), w / ((2 if halved else 1) * h)

    rows = [[ScaledRoot.zero()] * dim for _ in range(dim)]
    for n in range(N + 1):
        sign = 1 if edge else (-1) ** n
        for k in range(N + 1):
            x = N - k if edge else k
            neg, pos = N - k, N + k + right
            v, r = entry(even, n, x, sign, neg != pos)
            rows[2 * n][neg] = rows[2 * n][pos] = ScaledRoot(v, r)
            if neg != pos and n <= odd.N:
                v, r = entry(odd, n, x + xshift, sign, True)
                rows[2 * n + 1][neg] = ScaledRoot(-v, r)
                rows[2 * n + 1][pos] = ScaledRoot(v, r)
    return _parts(rows)


def _parts(rows):
    """(coef, radicand) of every entry: ScaledRoot equality goes by value,
    and the table build must give the very same Fractions."""
    return tuple(tuple((e.coef, e.radicand) for e in row) for row in rows)


@pytest.mark.parametrize("case", EIGVEC_CASES, ids=lambda c: c.value)
def test_eigvec_matrix_equals_series_reference(case):
    rng = random.Random(case.value)
    for max_n in (2, 3, 4, 6):
        p = rand_params_for_case(case, rng, max_n)
        assert _parts(eigvec_matrix(case, p).entries) == _series_u(case, p), p


# a parameter set per case whose U has an exact zero entry (y_n(x) = 0)
_ZERO_ENTRY_PARAMS = {
    DoubleCase.DUAL_HAHN_I: DualHahnParams(0, 0, 2),
    DoubleCase.DUAL_HAHN_II: DualHahnParams(0, 0, 2),
    DoubleCase.DUAL_HAHN_III: DualHahnParams(0, 1, 2),
    DoubleCase.HAHN_I: HahnParams(0, 0, 2),
    DoubleCase.HAHN_II: HahnParams(0, 0, 2),
    DoubleCase.RACAH_I: RacahParams(-3, 3, F(-1, 2), 0),
    DoubleCase.RACAH_III: RacahParams(-3, -3, 1, F(-1, 2)),
}


def _small_params(case, N):
    if case.family is RacahParams:
        return RacahParams(-N - 1, N + F(3, 2), F(1, 3), F(1, 5))
    return case.family(F(1, 2), F(1, 3), N)


@pytest.mark.parametrize("case", EIGVEC_CASES, ids=lambda c: c.value)
def test_eigvec_floats_are_the_entries_converted(case):
    # the float U is filled while the entries are built; it must be bit for
    # bit the entries converted one by one, signed zeros included
    zero = _ZERO_ENTRY_PARAMS[case]
    assert any(e.coef == 0 for row in eigvec_matrix(case, zero).entries for e in row)
    rng = random.Random(case.value)
    for p in (_small_params(case, 0), _small_params(case, 1),
              rand_params_for_case(case, rng, 12), zero):
        u = eigvec_matrix(case, p)
        converted = np.array([[float(e) for e in row] for row in u.entries])
        assert u.to_float().shape == converted.shape == (u.dim, u.dim)
        assert u.to_float().tobytes() == converted.tobytes(), p
        assert not u.to_float().flags.writeable
    # a copy with other entries converts its own
    rows = [list(r) for r in u.entries]
    rows[0][0] = -rows[0][0]
    flipped = replace(u, entries=tuple(tuple(r) for r in rows))
    assert flipped.to_float()[0, 0] == -u.to_float()[0, 0] != 0


@pytest.mark.parametrize("case", EIGVEC_CASES, ids=lambda c: c.value)
def test_eigvec_matrix_builds_no_entry_until_entries_is_read(case, monkeypatch):
    # the float U comes straight from the integer tables; the eigencolumn's
    # dim roots are the only ScaledRoots made until `entries` is read
    made = []
    check = ScaledRoot.__post_init__
    monkeypatch.setattr(ScaledRoot, "__post_init__", lambda self: (made.append(self), check(self)))
    p = _small_params(case, 12)
    eigvec_matrix.cache_clear()
    u = eigvec_matrix(case, p)
    # C order, like an array built row by row: BLAS products of U (the
    # residuals) may round differently in another layout
    assert u.to_float().flags.c_contiguous
    assert len(made) == u.dim and u.tables is not None
    assert "entries" not in vars(u)
    entries = u.entries
    read = len(made)
    assert read > u.dim and u.entries is entries and len(made) == read
    eigvec_matrix.cache_clear()
    assert _parts(entries) == _series_u(case, p)


def _real_eigenvalues(case, p):
    try:
        return all(s >= 0 for s in eig_squares(case, p, range(p.N + 1)))
    except ZeroDivisionError:
        return False


def _outcome(build, case, p):
    try:
        return build(case, p)
    except (ZeroDivisionError, ValueError):
        return "raises"


@pytest.mark.parametrize("case", EIGVEC_CASES, ids=lambda c: c.value)
def test_eigvec_matrix_raises_where_series_reference_raises(case):
    # integer and half-integer parameters hit every pole and vanishing
    # weight or norm; the table build must raise exactly where the series
    # build does and agree everywhere else
    # (the eigencolumn, built the same way by both, is kept real)
    values = [F(v, 2) for v in range(-6, 3)]
    if case.family is RacahParams:
        betas = [F(v, 2) for v in range(-6, 11)]
        grid = [RacahParams(-3, b, g, d) for b, g, d in itertools.product(betas, values, values)]
    else:
        grid = [case.family(a, b, 2) for a, b in itertools.product(values, repeat=2)]
    grid = [p for p in grid if _real_eigenvalues(case, p)]
    built = 0
    for p in grid:
        expected = _outcome(_series_u, case, p)
        got = _outcome(lambda c, q: _parts(eigvec_matrix(c, q).entries), case, p)
        assert got == expected, p
        built += expected != "raises"
    assert 0 < built < len(grid)


@pytest.mark.parametrize("case, params", [
    (DoubleCase.HAHN_II, HahnParams(-2, F(1, 3), 4)),                    # alpha+1 = -1
    (DoubleCase.DUAL_HAHN_I, DualHahnParams(-2, F(1, 3), 4)),            # gamma+1 = -1
    (DoubleCase.RACAH_III, RacahParams(-5, F(1, 2), -2, F(1, 3))),       # gamma+1 = -1
])
def test_eigvec_matrix_at_a_pole_raises(case, params):
    with pytest.raises((ZeroDivisionError, InadmissibleParams)):
        eigvec_matrix(case, params)


def test_eigen_residual_reuses_the_built_u(u_cases):
    case, params = u_cases[0]
    eigvec_matrix.cache_clear()
    u = eigvec_matrix(case, params)
    eigen_residual(case, params)
    assert eigvec_matrix.cache_info().hits == 1
    assert eigvec_matrix(case, params) is u


def _lambda_charpoly(products):
    """det(lambda I - A) by the principal-minor recurrence in lambda itself."""
    prev, cur = [F(1)], [F(0), F(1)]
    for q in products:
        nxt = [F(0)] + cur
        for i, c in enumerate(prev):
            nxt[i] -= q * c
        prev, cur = cur, nxt
    return cur


def _lambda_spectrum_poly(zeros, squares):
    poly = [F(0)] * zeros + [F(1)]
    for s in squares:
        out = [F(0)] * (len(poly) + 2)
        for i, c in enumerate(poly):
            out[i + 2] += c
            out[i] -= s * c
        poly = out
    return poly


def _matches_lambda(kernel, oracle, low):
    """Whether an integer kernel's (D P(mu), D) is D times the lambda
    oracle's coefficients of lambda^low, lambda^(low + 2), ..., D is the
    leading coefficient, and the oracle's other coefficients vanish."""
    coeffs, lead = kernel
    return (coeffs[-1] == lead and [lead * c for c in oracle[low::2]] == coeffs
            and not any(oracle[:low]) and not any(oracle[low + 1::2]))


@pytest.mark.parametrize("selector", FAMILY_CHOICES)
def test_charpoly_in_lambda_squared_equals_lambda_recurrence(selector):
    for n in (1, 2, 5, 8):
        m = build_gallery_matrix(selector, n)
        assert charpoly(m.matrix) == _lambda_charpoly(m.matrix.products()), n
        s = m.spectrum
        assert _matches_lambda(matrices._linear_factors(s.squares),
                               _lambda_spectrum_poly(s.zeros, s.squares), s.zeros), n


# rationals for the certificate properties: zero, small, integer and
# multi-hundred-bit entries of either sign
RATIONALS = st.one_of(
    st.just(F(0)),
    st.integers(-6, 6),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
    st.builds(F, st.integers(-2 ** 400, 2 ** 400), st.integers(1, 2 ** 300)),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(RATIONALS, max_size=24))
def test_minor_recurrence_equals_lambda_oracle(products):
    assert _matches_lambda(matrices._minor_recurrence(products), _lambda_charpoly(products),
                           (len(products) + 1) % 2)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 6), st.lists(RATIONALS, max_size=9))
def test_linear_factors_equal_lambda_oracle(zeros, squares):
    assert _matches_lambda(matrices._linear_factors(squares),
                           _lambda_spectrum_poly(zeros, squares), zeros)


def _block_diagonal(blocks):
    """Products of a zero-diagonal tridiagonal that zero products split into
    blocks: a 1x1 zero block for each None, a 2x2 block with product s for
    each s.  Returns (products, zero count, squares) of its spectrum."""
    products, zeros, squares = [], 0, []
    for i, s in enumerate(blocks):
        if i:
            products.append(F(0))
        if s is None:
            zeros += 1
        else:
            products.append(s)
            squares.append(s)
    return products, zeros, squares


@settings(max_examples=80, deadline=None)
@given(st.lists(st.one_of(st.none(), RATIONALS), min_size=1, max_size=10),
       st.integers(-1, 2), RATIONALS)
def test_verify_squares_exact_agrees_with_oracle(blocks, dz, bump):
    products, zeros, squares = _block_diagonal(blocks)
    assert verify_squares_exact(products, zeros, squares)
    claims = [(zeros + dz, squares), (zeros, squares[::-1])]
    if squares:
        claims.append((zeros, squares[:-1] + [squares[-1] + bump]))
    for z, sq in claims:
        if z >= 0:
            assert (verify_squares_exact(products, z, sq)
                    == (_lambda_charpoly(products) == _lambda_spectrum_poly(z, sq)))


@pytest.mark.parametrize("selector", FAMILY_CHOICES)
def test_certificate_mutations_fail_at_dimension_200(selector):
    m = build_gallery_matrix(selector, 200 if selector == "kac" else 100)
    assert m.matrix.dim >= 200
    products = m.matrix.products()
    zeros, squares = m.spectrum.zeros, list(m.spectrum.squares)
    assert verify_spectrum_exact(m.matrix, m.spectrum)
    assert verify_squares_exact(products, zeros, squares)
    for i in (0, len(products) // 2, len(products) - 1):
        bumped = list(products)
        bumped[i] += F(1, 10 ** 9)
        assert not verify_squares_exact(bumped, zeros, squares), i
    # a dropped zero eigenvalue; even dimensions have none, so one is added
    assert not verify_squares_exact(products, zeros - 1 if zeros else 1, squares)
    for i in (0, len(squares) // 2, len(squares) - 2):
        assert squares[i] != squares[i + 1]
        moved = squares[:i] + [squares[i + 1]] + squares[i + 1:]
        assert not verify_squares_exact(products, zeros, moved), i


# rationals over a few shared and coprime denominators
MIXED = st.builds(F, st.integers(-60, 60), st.sampled_from([1, 2, 3, 4, 6, 7, 9, 10, 35]))


def _fraction_comparison(products, zeros, squares):
    return _lambda_charpoly(products) == _lambda_spectrum_poly(zeros, squares)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 3), st.lists(st.one_of(MIXED, RATIONALS), max_size=6), st.data())
def test_integer_certificate_agrees_with_the_fraction_comparison(zeros, squares, data):
    # a block diagonal of `zeros` 1x1 zeros and a 2x2 block per square, in a
    # drawn order; zero, negative and mixed-denominator squares included
    blocks = data.draw(st.permutations([None] * zeros + squares))
    products = _block_diagonal(blocks)[0]
    claims = [(zeros, squares)]
    if squares:
        bumped = squares[:-1] + [squares[-1] + data.draw(MIXED)]
        claims += [(zeros, bumped), (zeros + 2, squares[1:]),
                   (zeros, [squares[0]] * len(squares))]
    if zeros >= 2:
        claims.append((zeros - 2, squares + [data.draw(MIXED)]))
    for z, sq in claims:
        assert verify_squares_exact(products, z, sq) is _fraction_comparison(products, z, sq)
    if blocks:
        assert verify_squares_exact(products, zeros, squares)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([DoubleCase.DUAL_HAHN_I, DoubleCase.DUAL_HAHN_III]), MIXED, MIXED,
       st.integers(1, 6), MIXED)
def test_integer_certificate_agrees_on_dual_hahn_forms(case, g, d, n, bump):
    # the integer-friendly forms at any gamma and delta: the squares may be
    # negative, and products and squares have unrelated denominators
    p = DualHahnParams(g, d, n)
    products = nonsymmetric_entries(case, p).products()
    squares = eig_squares(case, p)
    zeros = len(products) + 1 - 2 * len(squares)
    assert zeros == (1 if case is DoubleCase.DUAL_HAHN_I else 0)
    assert verify_squares_exact(products, zeros, squares)
    for sq in (squares[:-1] + [squares[-1] + bump], [squares[0]] * len(squares)):
        assert verify_squares_exact(products, zeros, sq) is _fraction_comparison(
            products, zeros, sq)


def test_integer_certificate_at_dimension_1():
    assert verify_squares_exact([], 1, [])
    assert verify_squares_exact([], 1, []) is _fraction_comparison([], 1, [])
    assert not verify_squares_exact([], 0, []) and not verify_squares_exact([], 1, [F(1)])
    assert not verify_squares_exact([], 3, [])
    assert verify_spectrum_exact(TwoDiagonal((), ()), Spectrum([ScaledRoot.zero()]))


# gallery matrices whose products and squares both carry denominators
_FRACTIONAL = [("kac-odd", 6, {"gamma": F(1, 3), "delta": F(2, 5)}),
               ("kac-even", 6, {"gamma": F(1, 3), "delta": F(2, 7)}),
               ("double:HahnI", 6, {"alpha": F(1, 3), "beta": F(2, 5)}),
               ("nonsym:DualHahnII", 6, {"gamma": F(3, 7), "delta": F(1, 2)})]


@pytest.mark.parametrize("selector, n, params", _FRACTIONAL, ids=[s for s, *_ in _FRACTIONAL])
def test_certificate_mutants_fail(selector, n, params, monkeypatch):
    m = build_gallery_matrix(selector, n, params)
    s, products = m.spectrum, m.matrix.products()
    assert verify_spectrum_exact(m.matrix, s)
    # one square +1e-6 together with its mirror
    entries = list(s.entries)
    entries[-1] = replace(entries[-1], radicand=entries[-1].radicand + F(1, 10 ** 6))
    entries[0] = replace(entries[0], radicand=entries[-1].radicand)
    assert not verify_spectrum_exact(m.matrix, Spectrum(entries))
    # one square replaced by another's value
    for i in range(len(s.squares)):
        for j in (0, len(s.squares) - 1):
            if s.squares[i] != s.squares[j]:
                moved = sorted(s.squares[:i] + (s.squares[j],) + s.squares[i + 1:])
                assert not verify_spectrum_exact(m.matrix, Spectrum.of_squares(s.zeros, moved))
    # two more zeros with one square dropped, the dimension kept
    for i in range(len(s.squares)):
        dropped = Spectrum.of_squares(s.zeros + 2, s.squares[:i] + s.squares[i + 1:])
        assert dropped.dim == m.matrix.dim and not verify_spectrum_exact(m.matrix, dropped), i
    # one product's denominator dropped
    for i, q in enumerate(products):
        if q.denominator != 1:
            cut = products[:i] + [F(q.numerator)] + products[i + 1:]
            assert not verify_squares_exact(cut, s.zeros, s.squares), i
    # one side's leading coefficient dropped from the cross-multiplication
    assert matrices._minor_recurrence(products)[1] != 1
    assert matrices._linear_factors(s.squares)[1] != 1
    for name in ("_minor_recurrence", "_linear_factors"):
        kernel = getattr(matrices, name)
        with monkeypatch.context() as patch:
            patch.setattr(matrices, name, lambda values, kernel=kernel: (kernel(values)[0], 1))
            assert not verify_spectrum_exact(m.matrix, s), name


def _zero_diagonal_times(sup, sub, v):
    """A v for the tridiagonal A with zero diagonal, superdiagonal sup and
    subdiagonal sub."""
    n = len(v) - 1
    return [(sub[x - 1] * v[x - 1] if x else 0) + (sup[x] * v[x + 1] if x < n else 0)
            for x in range(n + 1)]


@pytest.mark.parametrize("N", range(1, 13))
def test_kac_eigenvectors_are_scaled_krawtchouk_values(N):
    # Column n of the Kac matrix's eigenvectors, eigenvalue N - 2n, is
    # K_n(x; 1/2, N) times d_x^2 = binomial(N, x) of the diagonal similarity;
    # K_n(x; 1/2, N) alone is the left eigenvector (self-duality of the
    # Krawtchouk recurrence).
    kac = sylvester_kac(N)
    m = kac.matrix
    scales = similarity_scale_squares(m)
    assert scales == [comb(N, x) for x in range(N + 1)]
    p = KrawtchoukParams(F(1, 2), N)
    for n in range(N + 1):
        lam = N - 2 * n
        assert kac.spectrum.entries[N - n].exact_rational() == lam
        k = [krawtchouk_eval(n, x, p) for x in range(N + 1)]
        v = [d * y for d, y in zip(scales, k)]
        assert _zero_diagonal_times(m.sup, m.sub, v) == [lam * c for c in v], n
        assert _zero_diagonal_times(m.sub, m.sup, k) == [lam * c for c in k], n
