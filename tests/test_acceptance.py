"""Acceptance gate: every criterion in one module, each printing its own
pass/fail line (run with `pytest tests/test_acceptance.py -v -s`).

Criteria 1-7 run the exact suites of `twodiag.verify`, the checks behind
`twodiag verify`, with the gate's own seeds, sizes and draw counts; the
checks themselves are written only there.  A failing criterion prints the
label and detail of every failing check, and the labels carry the
parameters that reproduce it.  Criterion 4 adds float checks of the
eigenvector matrices at N=40; criteria 8 (solver against closed forms) and
9 (sign-flip mutations) are written here.  Every draw is seeded, so the
whole gate is reproducible.
"""

import random
import time
from fractions import Fraction as F

import pytest

from twodiag.doubles import (
    EIGVEC_CASES,
    MATRIX_CASES,
    NONSYM_CASES,
    SYSTEM_CASES,
    DoubleCase,
    coefficients,
    pair_grid_max_residue,
    requirements_grid_max_residue,
)
from twodiag.eigsolve import benchmark, to_float_tridiag
from twodiag.families import DualHahnParams, HahnParams, RacahParams
from twodiag.matrices import eigen_residual, eigvec_matrix, orthogonality_residual
from twodiag.sampling import rand_params_for_case
from twodiag.verify import run_suites

DRAWS_PER_CASE = 20
MAX_N = 8


def report(num, name, ok, detail="", failed=()):
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} [{tag}] {name}" + (f" -- {detail}" if detail else ""))
    for o in failed:
        print(f"  FAIL {o.label}" + (f" ({o.detail})" if o.detail else ""))
    assert ok, f"criterion {num}: {name}"


def report_outcomes(num, name, outcomes, min_checks, ok=True, detail=""):
    """Pass when at least `min_checks` suite outcomes ran and all hold."""
    failed = [o for o in outcomes if not o.ok]
    report(num, name, ok and len(outcomes) >= min_checks and not failed,
           f"{len(outcomes) - len(failed)}/{len(outcomes)} checks"
           + (f", {detail}" if detail else ""), failed)


def test_criterion_1_pair_relation_exactness():
    t0 = time.time()
    outcomes = run_suites(["pairs"], MAX_N, 1, DRAWS_PER_CASE)
    elapsed = time.time() - t0
    report_outcomes(1, "pair relations exactly zero", outcomes, 11 * DRAWS_PER_CASE,
                    elapsed < 60.0,
                    f"11 cases x {DRAWS_PER_CASE} draws, N <= {MAX_N}, {elapsed:.1f}s")


def test_criterion_2_requirement_system_exactness():
    outcomes = run_suites(["requirements"], MAX_N, 2, DRAWS_PER_CASE)
    report_outcomes(2, "requirement system exactly zero", outcomes, 11 * DRAWS_PER_CASE,
                    detail=f"11 cases x {DRAWS_PER_CASE} draws, N <= {MAX_N}")


def test_criterion_3_spectrum_certification():
    draws = 12
    outcomes = run_suites(["spectra"], 12, 3, draws)
    # Kac, one kac-odd line per draw, reduction and integer lines, gallery cases
    floor = 1 + draws + 2 + draws * (len(MATRIX_CASES) + len(NONSYM_CASES))
    report_outcomes(3, "charpoly factorization certifies every closed-form spectrum",
                    outcomes, floor, detail="N <= 12 incl. reduction and integer-spectrum lines")


@pytest.fixture(scope="module")
def orthogonality():
    """One run of the orthogonality suite, shared by criteria 4 and 5."""
    return run_suites(["orthogonality"], 12, 4, 3)


def test_criterion_4_orthogonality_exact_and_float(orthogonality):
    sums_and_u = [o for o in orthogonality if not o.label.startswith("orthogonality doubled")]
    pd40 = DualHahnParams(F(1, 2), F(1, 3), 40)
    ph40 = HahnParams(F(2, 3), F(1, 5), 40)
    pr40 = RacahParams(F(-41), 40 + F(1, 3) + 1 + F(5, 7), F(1, 3), F(1, 5), "alpha")
    at_40 = {DoubleCase.HAHN_I: ph40, DoubleCase.HAHN_II: ph40,
             DoubleCase.RACAH_I: pr40, DoubleCase.RACAH_III: pr40}
    worst_u = worst_mu = 0.0
    for case in EIGVEC_CASES:
        params = at_40.get(case, pd40)
        worst_u = max(worst_u, orthogonality_residual(eigvec_matrix(case, params)))
        worst_mu = max(worst_mu, eigen_residual(case, params))
    report_outcomes(4, "exact orthogonality sums + float U checks", sums_and_u,
                    3 * 3 + len(EIGVEC_CASES), worst_u <= 1e-12 and worst_mu <= 1e-12,
                    f"U at N=40: UtU-I {worst_u:.2e}, MU-UD {worst_mu:.2e} (tol 1e-12)")


def test_criterion_5_doubled_systems(orthogonality):
    doubled = [o for o in orthogonality if o.label.startswith("orthogonality doubled")]
    report_outcomes(5, "doubled-system orthogonality exact; support == spectrum", doubled,
                    3 * len(SYSTEM_CASES), detail=f"{len(SYSTEM_CASES)} systems x 3 draws")


def test_criterion_6_christoffel_geronimus():
    outcomes = run_suites(["christoffel"], MAX_N, 6, 3)
    report_outcomes(6, "kernel-partner, recurrence-link and round-trip identities exact",
                    outcomes, 11 * 3, detail="11 cases x 3 draws")


def test_criterion_7_algebra():
    outcomes = run_suites(["algebra"], 10, 7, 5)
    report_outcomes(7, "algebra relations exact at N<=10; su(2) coincidence", outcomes,
                    3 * 5 + 1, detail="su(2) at gamma=delta=-1/2 for DualHahnI and DualHahnIII")


def test_criterion_8_eigensolver_benchmark():
    t0 = time.time()
    jobs = [
        ("kac", [101, 501, 1001], None),
        ("kac-odd", [1001], None),
        ("kac-even", [1000], None),
        ("double:DualHahnI", [1001], None),
        ("double:DualHahnII", [401], None),
        ("double:DualHahnIII", [1002], {"gamma": F(2), "delta": F(2)}),
        ("double:HahnI", [402], None),
        ("double:HahnII", [401], None),
        ("double:HahnIII", [402], None),
        ("double:HahnIV", [401], None),
        ("double:RacahI", [402], None),
        ("double:RacahIII", [401], None),
        ("nonsym:DualHahnI", [1001], None),
        ("nonsym:DualHahnII", [401], None),
        ("nonsym:DualHahnIII", [1002], None),
    ]
    ok = True
    worst_rel = 0.0
    for family, dims, params in jobs:
        for rep in benchmark(family, dims, params=params):
            # scale = largest offdiagonal entry of the solved matrix
            scale = max(abs(v) for v in _solved_offdiag(family, rep.dim, params))
            rel = rep.max_abs_eig_error / (1e-10 * scale)
            worst_rel = max(worst_rel, rel)
            ok &= rep.max_abs_eig_error <= 1e-10 * scale
    elapsed = time.time() - t0
    ok &= elapsed < 30.0
    report(8, "solver matches closed forms to 1e-10 * max|entry| up to dim 1001",
           ok, f"worst error at {worst_rel:.2e} of budget, total {elapsed:.1f}s")


def _solved_offdiag(family, dim, params):
    from twodiag.eigsolve import _dim_to_n, build_gallery_matrix

    bundle = build_gallery_matrix(family, _dim_to_n(family, dim), params)
    return to_float_tridiag(bundle).offdiagonal


def test_criterion_9_mutation_sensitivity():
    rng = random.Random("acceptance-9")
    ok = True
    flips = 0
    for case in DoubleCase:
        params = rand_params_for_case(case, rng, 5, 0)
        cs = coefficients(case, params)
        for which in ("a", "b", "a_hat", "b_hat", "d", "d_hat"):
            bad = cs.flipped(which)
            caught = (pair_grid_max_residue(bad) != 0
                      or requirements_grid_max_residue(bad) != 0)
            ok &= caught
            flips += 1
    report(9, "every single coefficient sign flip is caught", ok,
           f"{flips} mutations (11 cases x 6 coefficients)")
