"""The suites of `twodiag.verify` report FAIL, under their label, when the
fact they check is broken."""

import itertools
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from twodiag import doubles, families, matrices, orthosystems, transforms, verify
from twodiag.doubles import CASE_TABLE, DoubleCase
from twodiag.exact import ScaledRoot
from twodiag.families import FamilyColumn, HahnParams, family_norm
from twodiag.sampling import rand_params_for_case


def _failed(outcomes):
    return [o.label for o in outcomes if not o.ok]


def test_orthogonality_sums_fail_on_a_wrong_norm(monkeypatch):
    assert not _failed(verify.suite_orthogonality(random.Random(0), 3, 2))
    wrong = lambda params, n: family_norm(params, n) + isinstance(params, HahnParams)
    monkeypatch.setattr(verify, "family_norm", wrong)
    failed = _failed(verify.suite_orthogonality(random.Random(0), 3, 2))
    assert len(failed) == 2 and all(f.startswith("orthogonality hahn [") for f in failed)


def test_kac_odd_spectra_fail_on_a_wrong_eigenvalue_square(monkeypatch):
    labels = [o.label for o in verify.suite_spectra(random.Random(0), 3, 1) if o.ok]
    assert any(label.startswith("spectra kac-odd N<=3 ") for label in labels)
    # the gap Lam(x) - Lam(nu) is the one source of every eigenvalue square;
    # for kac-odd (nu = 0) x = 2 is the second square
    real = families.RecurrenceData.gap
    monkeypatch.setattr(families.RecurrenceData, "gap",
                        lambda self, nu: lambda x, g=real(self, nu): g(x) + (x == 2))
    outcomes = verify.suite_spectra(random.Random(0), 3, 1)
    assert any(o.label.startswith("spectra kac-odd N=2 ") for o in outcomes if not o.ok)
    assert not any(o.label.startswith("spectra kac-odd N<=") for o in outcomes)


def test_a_moved_nu_fails_the_spectra_and_the_christoffel_suites(monkeypatch):
    for case, rec in list(CASE_TABLE.items()):
        monkeypatch.setitem(CASE_TABLE, case, replace(rec, nu=lambda p, nu=rec.nu: nu(p) + 1))
    # some gap Lam(x) - Lam(nu + 1) turns negative, so a builder refuses
    # some of the spectra suite's admissible draws; each refused check is a
    # FAIL under its own label, and the checks before it keep theirs
    spectra = verify.run_suites(["spectra"], 4, 0, 2)
    assert len(spectra) == 31 and not any(o.ok for o in spectra[1:])
    assert (spectra[0].label, spectra[0].ok) == ("spectra kac N=1..20", True)
    refused = [o.label for o in spectra if o.detail.startswith("refused: eigenvalue square ")]
    assert refused[0] == "spectra kac-even N<=4 g=4 d=-2/3"
    assert "spectra double:HahnII [a=5/3,b=21/5,N=4]" in refused
    christoffel = verify.run_suites(["christoffel"], 4, 0, 2)
    assert len(christoffel) == 2 * len(DoubleCase) and not any(o.ok for o in christoffel)


def test_eigenvalue_squares_from_the_hatted_lattice_fail_the_spectra_suite(monkeypatch):
    def hatted_lattice(case, params, xs=None):
        # the rule with Lam read at the hatted family instead of the base one
        rec, fam = CASE_TABLE[case], doubles.even_row_params(case, params)
        nu = rec.nu(fam)
        gap = families.recurrence_data(doubles.coefficients(case, fam).hatted).gap(nu)
        if xs is None:
            xs = [x for x in range(params.N + 1) if rec.even_dim or x != nu]
        return [rec.squares_sign * gap(x) for x in xs]

    # the hatted lattice is another one only where the parameter map moves
    # gamma + delta: Hahn Lam(x) = -x takes no parameter, and the other
    # dual Hahn and Racah maps keep gamma + delta
    moved = {DoubleCase.DUAL_HAHN_I, DoubleCase.RACAH_III}
    for case in doubles.MATRIX_CASES:
        p = rand_params_for_case(case, random.Random(3), 6)
        assert (hatted_lattice(case, p) != doubles.eig_squares(case, p)) == (case in moved)
    assert not _failed(verify.suite_spectra(random.Random(0), 4, 2))
    for module in (matrices, verify):
        monkeypatch.setattr(module, "eig_squares", hatted_lattice)
    failed = _failed(verify.suite_spectra(random.Random(0), 4, 2))
    doubled = {label.split()[1] for label in failed if label.startswith("spectra double:")}
    assert doubled == {f"double:{c.value}" for c in moved}
    # kac-odd is twice nonsym:DualHahnI, so both move with DualHahnI
    assert any(label.startswith("spectra kac-odd N=") for label in failed)
    assert any(label.startswith("spectra nonsym:DualHahnI ") for label in failed)


def test_a_wrong_column_entry_fails_every_check_that_reads_columns(monkeypatch):
    case = DoubleCase.HAHN_I
    params = rand_params_for_case(case, random.Random(4), 4)

    def checks():
        cs = doubles.coefficients(case, params)
        system = orthosystems.doubled_system(case, params)
        return (doubles.pair_grid_max_residue(cs),
                max(abs(r) for r in transforms.verify_same_family(case, params)),
                max(abs(r) for r in orthosystems.verify_discrete_orthogonality(system)))

    assert checks() == (0, 0, 0)
    nu = doubles.christoffel_nu(case, params)
    kernel = transforms.christoffel_kernel(params, nu, 0, 1)
    real = families.family_column

    def perturbed(p, x):
        col = real(p, x)
        if x != 1:
            return col
        return FamilyColumn(col.params, col.x, (col.table[0], col.table[1] + 1) + col.table[2:])

    for module in (families, doubles, orthosystems, transforms, verify):
        monkeypatch.setattr(module, "family_column", perturbed)
    # the unpatched checks() cached the transform at nu, with its kernel
    # values; drop it, so the checks read the perturbed columns, and drop
    # the perturbed one again at the end
    transforms.christoffel_data.cache_clear()
    try:
        assert all(worst != 0 for worst in checks())
        assert transforms.christoffel_kernel(params, nu, 0, 1) != kernel
        assert any(transforms.verify_roundtrip(params, nu, params.N - 1, range(params.N + 1)))
        failed = [o for o in verify.suite_orthogonality(random.Random(0), 3, 1) if not o.ok]
        assert [o.label.split()[1] for o in failed] == ["hahn", "dual-hahn", "racah"] + ["doubled"] * 3
        assert all(o.detail.startswith("table value y_1(1) = ") for o in failed[:3])
    finally:
        transforms.christoffel_data.cache_clear()


def test_doubled_values_moved_past_the_grid_fail_the_degree_check(monkeypatch):
    # the orthogonality sums and the support certificate read P_n at the
    # grid points k <= N only, so a change at k > N passes both; the
    # doubled line must still fail, through the degree check
    real = orthosystems.DoubledSystem.value

    def moved(self, n, k):
        v = real(self, n, k)
        return ScaledRoot(v.coef + 1, v.radicand) if k > self.params.N else v

    monkeypatch.setattr(orthosystems.DoubledSystem, "value", moved)
    for case in orthosystems.SYSTEM_CASES:
        system = orthosystems.doubled_system(
            case, rand_params_for_case(case, random.Random(1), 3))
        assert all(r == 0 for r in orthosystems.verify_discrete_orthogonality(system))
        assert orthosystems.support_matches_spectrum(system)
    failed = _failed(verify.suite_orthogonality(random.Random(0), 3, 1))
    assert [label.split()[2] for label in failed] == ["DualHahnI", "HahnI", "HahnII"]
    assert all(label.startswith("orthogonality doubled ") for label in failed)


@pytest.mark.parametrize("case", [DoubleCase.DUAL_HAHN_I, DoubleCase.HAHN_II, DoubleCase.RACAH_III],
                         ids=lambda c: c.value)
def test_a_pole_on_the_grid_fails_the_grid_suites_under_their_labels(case, monkeypatch):
    # d_hat's factor x moved into its denominator: a pole at x = 0, where
    # the grid walk starts; the check of that case FAILs and names it
    def mutated(case_, params):
        if case_ is not case:
            return real(case_, params)
        calls, q = itertools.count(), doubles.Q

        def altered(num, den=(), const=1):
            if next(calls) == 5:  # d_hat, the last of the six coefficients
                assert num[0] == (1, 0)
                num, den = num[1:], list(den) + [num[0]]
            return q(num, den, const)

        with monkeypatch.context() as m:
            m.setattr(doubles, "Q", altered)
            return real(case_, params)

    real = doubles.coefficients
    monkeypatch.setattr(verify, "coefficients", mutated)
    for suite, word, where in ((verify.suite_pairs, "pairs", "relation 1"),
                               (verify.suite_requirements, "requirements", "requirement system")):
        outcomes = suite(random.Random(0), 4, 2)
        assert len(outcomes) == 2 * len(DoubleCase)
        failed = [o for o in outcomes if not o.ok]
        assert [o.label.split()[:2] for o in failed] == [[word, case.value]] * 2
        assert all(o.detail == f"{where} at n=0, x=0: a coefficient has a pole" for o in failed)


# the exact check of U: U U^T = I and M U = U D from U's integer tables

_U_CASE, _U_PARAMS = DoubleCase.DUAL_HAHN_I, families.DualHahnParams(F(1, 2), F(1, 3), 6)


@pytest.fixture
def fresh_u():
    """A U built under a test's monkeypatches leaves the builder's cache."""
    matrices.eigvec_matrix.cache_clear()
    yield
    matrices.eigvec_matrix.cache_clear()


def _u_checks(case=_U_CASE, params=_U_PARAMS):
    """(the 1e-12 float residuals pass, where the exact check fails) for U
    as the builder makes it now."""
    matrices.eigvec_matrix.cache_clear()
    u = matrices.eigvec_matrix(case, params)
    residual = max(matrices.orthogonality_residual(u), matrices.eigen_residual(case, params))
    return residual <= 1e-12, verify._u_exact_failure(u, doubles.matrix_squares(case, params))


@pytest.mark.parametrize("case", doubles.EIGVEC_CASES, ids=lambda c: c.value)
def test_the_exact_u_check_passes_every_eigvec_case(case, fresh_u):
    rng = random.Random(case.value)
    for max_n in (0, 1, 2, 5, 12):
        params = rand_params_for_case(case, rng, max_n)
        assert _u_checks(case, params) == (True, None), params


def _mutate_norms(monkeypatch, change):
    """The even-row family's norm table with h_1 replaced by change(h)."""
    even = doubles.even_row_params(_U_CASE, _U_PARAMS)
    real = matrices.family_norms
    monkeypatch.setattr(matrices, "family_norms", lambda fam: (
        real(fam)[:1] + (change(real(fam)),) + real(fam)[2:] if fam == even else real(fam)))


def test_a_row_scale_from_the_next_norm_fails_the_exact_u_check(monkeypatch, fresh_u):
    _mutate_norms(monkeypatch, lambda h: h[2])
    assert _u_checks() == (False, "U U^T != I at rows (2, 2)")


def test_a_flipped_column_parity_fails_the_exact_u_check(monkeypatch, fresh_u):
    real = matrices.EigvecTables

    def flipped(q, p, rho, kappa, grid, parity):
        return real(q, p, rho, kappa, grid, (parity[0], -parity[1]) + parity[2:])

    monkeypatch.setattr(matrices, "EigvecTables", flipped)
    assert _u_checks() == (False, "U U^T != I at rows (0, 1)")


def test_the_hatted_table_read_at_x_fails_the_exact_u_check(monkeypatch, fresh_u):
    pair = doubles.coefficients(_U_CASE, doubles.even_row_params(_U_CASE, _U_PARAMS))
    assert pair.xshift != 0
    real = matrices.family_table
    monkeypatch.setattr(matrices, "family_table", lambda fam, xs: real(
        fam, [x - pair.xshift for x in xs] if fam == pair.hatted else xs))
    assert _u_checks() == (False, "U U^T != I at rows (1, 3)")


def test_a_row_scale_off_below_rounding_fails_only_the_exact_u_check(monkeypatch, fresh_u):
    _mutate_norms(monkeypatch, lambda h: h[1] * (1 + F(1, 10**20)))
    assert _u_checks() == (True, "U U^T != I at rows (2, 2)")


# a factor that is no rational square leaves the terms of M U = U D in two
# root classes; a square one keeps one class, and the sum is what fails
@pytest.mark.parametrize("factor", [1 + F(1, 10**20), (1 + F(1, 10**20)) ** 2])
def test_an_eigenvalue_off_below_rounding_fails_only_the_exact_u_check(factor, monkeypatch,
                                                                         fresh_u):
    real = matrices.eig_squares

    def moved(case, params, xs=None):
        squares = real(case, params, xs)
        return [squares[0] * factor] + squares[1:]

    monkeypatch.setattr(matrices, "eig_squares", moved)
    assert _u_checks() == (True, "M U != U D at (0, 5)")


def test_the_orthogonality_suite_reports_where_the_exact_u_check_fails(monkeypatch, fresh_u):
    before = [o for o in verify.suite_orthogonality(random.Random(0), 6, 1)
              if o.label.startswith("orthogonality U ")]
    assert all(o.ok and "exact" not in o.detail for o in before)
    _mutate_norms(monkeypatch, lambda h: h[2])
    monkeypatch.setattr(verify, "rand_params_for_case", lambda case, rng, max_n, i=0: (
        _U_PARAMS if case is _U_CASE else rand_params_for_case(case, rng, max_n, i)))
    after = {o.label: o for o in verify.suite_orthogonality(random.Random(0), 6, 1)}
    failed = [o for o in after.values() if not o.ok]
    assert [o.label for o in failed] == ["orthogonality U DualHahnI [g=1/2,d=1/3,N=6]"]
    assert failed[0].detail.endswith("; exact: U U^T != I at rows (2, 2)")
