"""The suites of `twodiag.verify` report FAIL, under their label, when the
fact they check is broken."""

import random
from dataclasses import replace

from twodiag import verify
from twodiag.doubles import CASE_TABLE, DoubleCase
from twodiag.families import HahnParams, family_norm


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
