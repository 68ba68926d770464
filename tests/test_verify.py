"""The suites of `twodiag.verify` report FAIL, under their label, when the
fact they check is broken."""

import random
from dataclasses import replace

from twodiag import doubles, families, orthosystems, transforms, verify
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
    rec = CASE_TABLE[DoubleCase.DUAL_HAHN_I]
    moved = lambda p, k: rec.eig_square(p, k) + (k == 2)
    monkeypatch.setitem(CASE_TABLE, DoubleCase.DUAL_HAHN_I, replace(rec, eig_square=moved))
    outcomes = verify.suite_spectra(random.Random(0), 3, 1)
    assert any(o.label.startswith("spectra kac-odd N=2 ") for o in outcomes if not o.ok)
    assert not any(o.label.startswith("spectra kac-odd N<=") for o in outcomes)


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
    real = families.family_column

    def perturbed(p, x):
        col = real(p, x)
        if x != 1:
            return col
        return FamilyColumn(col.params, col.x, (col.table[0], col.table[1] + 1) + col.table[2:])

    for module in (families, doubles, transforms, verify):
        monkeypatch.setattr(module, "family_column", perturbed)
    assert all(worst != 0 for worst in checks())
    failed = [o for o in verify.suite_orthogonality(random.Random(0), 3, 1) if not o.ok]
    assert [o.label.split()[1] for o in failed] == ["hahn", "dual-hahn", "racah"] + ["doubled"] * 3
    assert all(o.detail.startswith("table value y_1(1) = ") for o in failed[:3])


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
