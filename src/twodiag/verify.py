"""Deterministic verification suites over randomized rational parameters.

Each suite returns a list of check outcomes; a seed fixes every draw, so a
run is bit-reproducible.  `twodiag verify` runs them, and so does the
acceptance gate (tests/test_acceptance.py) with its own seeds and sizes;
the exact checks are written only here.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Callable, Dict, List

from . import orthosystems, oscillator, transforms
from .doubles import (
    EIGVEC_CASES,
    MATRIX_CASES,
    NONSYM_CASES,
    DoubleCase,
    GridPole,
    christoffel_nu,
    coefficients,
    eig_squares,
    locate_failure,
    matrix_squares,
    pair_grid_max_residue,
    requirements_grid_max_residue,
)
from .exact import over_lcm, sqrt_exact
from .families import (
    RACAH_SELECTORS,
    DualHahnParams,
    family_column,
    family_eval,
    family_norm,
    family_weight,
)
from .matrices import (
    EigvecMatrix,
    EigvecTables,
    InadmissibleParams,
    double_matrix,
    eigen_residual,
    eigvec_matrix,
    extended_kac_even,
    extended_kac_odd,
    nonsymmetric_entries,
    nonsymmetric_form,
    orthogonality_residual,
    sylvester_kac,
    verify_spectrum_exact,
    verify_squares_exact,
)
from .sampling import rand_dual_hahn, rand_hahn, rand_params_for_case, rand_racah


@dataclass
class CheckOutcome:
    label: str
    ok: bool
    detail: str = ""


@contextmanager
def _check(out: List[CheckOutcome], label: str):
    """Yield an outcome `label`, FAIL until the block fills it in, then append
    it to out; a builder refusing the draw leaves it FAIL with the refusal,
    a coefficient's pole on the residue grid with the pole's position."""
    outcome = CheckOutcome(label, False)
    try:
        yield outcome
    except InadmissibleParams as exc:
        outcome.ok, outcome.detail = False, f"refused: {exc}"
    except GridPole as exc:
        outcome.ok, outcome.detail = False, str(exc)
    out.append(outcome)


_ABBREVIATIONS = {"alpha": "a", "beta": "b", "gamma": "g", "delta": "d", "minus_n": "cap"}


def _params_label(params) -> str:
    return ",".join(f"{_ABBREVIATIONS.get(f.name, f.name)}={getattr(params, f.name)}"
                    for f in fields(params))


def _grid_suite(word: str, grid_max_residue) -> Callable[[random.Random, int, int], List[CheckOutcome]]:
    """The pairs or requirements suite: every case's residue grid, per draw."""
    def suite(rng: random.Random, max_n: int, draws: int) -> List[CheckOutcome]:
        out = []
        for case in DoubleCase:
            for i in range(draws):
                params = rand_params_for_case(case, rng, max_n, i)
                cs = coefficients(case, params)
                with _check(out, f"{word} {case.value} [{_params_label(params)}]") as outcome:
                    worst = grid_max_residue(cs)
                    outcome.ok = worst == 0
                    outcome.detail = f"max residue {worst}" if worst == 0 else locate_failure(cs)
        return out
    return suite


suite_pairs = _grid_suite("pairs", pair_grid_max_residue)
suite_requirements = _grid_suite("requirements", requirements_grid_max_residue)


def suite_christoffel(rng: random.Random, max_n: int, draws: int) -> List[CheckOutcome]:
    out = []
    for case in DoubleCase:
        for i in range(draws):
            params = rand_params_for_case(case, rng, max_n, i)
            nu = christoffel_nu(case, params)
            res = transforms.verify_same_family(case, params)
            res += transforms.verify_recurrence_link(params, nu, params.N - 1)
            res += transforms.verify_roundtrip(params, nu, params.N - 1, range(params.N + 1))
            worst = max((abs(r) for r in res), default=Fraction(0))
            out.append(CheckOutcome(
                f"christoffel {case.value} nu={nu} [{_params_label(params)}]",
                worst == 0, f"{len(res)} residues, max {worst}"))
    return out


def _orthogonality_sum_check(params) -> tuple[bool, str]:
    """(ok, detail): every column value y_n(x) on the grid equals the
    series, and sum_x w(x) y_n(x) y_m(x) == delta_nm h_n for
    0 <= n <= m <= N with the values read from the columns."""
    N = params.N
    grid = range(N + 1)
    columns = [family_column(params, x) for x in grid]
    for x, y in zip(grid, columns):
        for n in grid:
            if y[n] != family_eval(params, n, x):
                return False, (f"table value y_{n}({x}) = {y[n]}, "
                               f"the series gives {family_eval(params, n, x)}")
    weights = [family_weight(params, x) for x in grid]
    for n in grid:
        for m in range(n, N + 1):
            s = sum(w * y[n] * y[m] for w, y in zip(weights, columns))
            if s != (family_norm(params, n) if n == m else 0):
                return False, f"sum at n={n}, m={m} is {s}"
    return True, f"{(N + 1) ** 2} table values match the series"


def _u_exact_failure(u: EigvecMatrix, squares: List[Fraction]) -> str | None:
    """Where U U^T = I or M U = U D fails exactly, read from U's integer
    tables and root scales (`matrices.EigvecTables`) and from the matrix
    squares M_i^2; None when both hold.

    Entry (r, c) of U is A_rc/Q_r sqrt(rho_r kappa_r(k)) at grid point
    k = grid[c], with A_rc the table value P_r(k) times the column's parity
    sign on odd rows.  Two rows of one parity share kappa, so their inner
    product is the kappa-weighted integer dot product sum_c A_rc A_sc t(k),
    kappa = t/K over one denominator, which must be [r = s] K Q_r^2 / rho_r.
    An even and an odd row meet two columns at each grid point whose parity
    signs are opposite, so their products must cancel point by point.  M U
    = U D at entry (i, c) is M_{i-1} U_{i-1,c} + M_i U_{i+1,c} - d_c U_ic = 0,
    three terms a sqrt(R) with rational a and R: it holds iff the R of the
    nonzero terms are rational squares times the first one's and the a,
    times those roots, sum to zero.  Only those sums depend on the column's
    signs, so the roots are found once per row, grid point and d_c^2.
    """
    t, dim = u.tables, u.dim
    signed = [[(e if r % 2 else 1) * ps[k] for e, k in zip(t.parity, t.grid)]
              for r, ps in enumerate(t.p)]
    weights = [over_lcm([kappa[k] for k in t.grid]) for kappa in t.kappa]
    points = len(t.kappa[0])
    for r in range(dim):
        ints, den = weights[r % 2]
        weighted = [a * w for a, w in zip(signed[r], ints)]
        rho = t.rho[r]
        for s in range(r, dim):
            if (s - r) % 2:
                per_point = [0] * points
                for c, k in enumerate(t.grid):
                    per_point[k] += signed[r][c] * signed[s][c]
                ok = not any(per_point)
            else:
                dot = sum(a * b for a, b in zip(weighted, signed[s]))
                ok = (dot * rho.numerator == den * t.q[r] ** 2 * rho.denominator if r == s
                      else dot == 0)
            if not ok:
                return f"U U^T != I at rows ({r}, {s})"

    for i in range(dim):
        near = [(j, squares[min(i, j)] * t.rho[j]) for j in (i - 1, i + 1) if 0 <= j < dim]
        roots = {}
        for c, (k, d) in enumerate(zip(t.grid, u.eigencolumn)):
            key = (k, d.square)
            if key not in roots:
                roots[key] = _rational_terms(t, k, near + [(i, d.square * t.rho[i])])
            sign = {j: t.parity[c] if j % 2 else 1 for j in (i - 1, i, i + 1)}
            sign[i] *= -d.sign
            if roots[key] is None or sum(sign[j] * x for j, x in roots[key]):
                return f"M U != U D at ({i}, {c})"
    return None


def _rational_terms(t: EigvecTables, k: int, rows) -> list | None:
    """The nonzero terms a sqrt(R) of the rows j, with a = P_j(k)/Q_j and
    R = m rho_j kappa_j(k) for the m rho_j given with j, as pairs
    (j, a sqrt(R/R_0)) over the first one's R_0; None when some R/R_0 is
    not a rational square."""
    out, first = [], None
    for j, m_rho in rows:
        a, rad = Fraction(t.p[j][k], t.q[j]), m_rho * t.kappa[j % 2][k]
        if a and rad:
            first = first or rad
            root = sqrt_exact(rad / first)
            if root is None:
                return None
            out.append((j, a * root))
    return out


def suite_orthogonality(rng: random.Random, max_n: int, draws: int) -> List[CheckOutcome]:
    out = []
    for i in range(draws):
        selector = RACAH_SELECTORS[i % len(RACAH_SELECTORS)]
        for word, params in (("hahn", rand_hahn(rng, max_n)),
                             ("dual-hahn", rand_dual_hahn(rng, max_n)),
                             ("racah", rand_racah(rng, max_n, selector))):
            out.append(CheckOutcome(f"orthogonality {word} [{_params_label(params)}]",
                                    *_orthogonality_sum_check(params)))

    for i in range(draws):
        for case in orthosystems.SYSTEM_CASES:
            params = rand_params_for_case(case, rng, max_n)
            with _check(out, f"orthogonality doubled {case.value} [{_params_label(params)}]") as c:
                system = orthosystems.doubled_system(case, params)
                res = orthosystems.verify_discrete_orthogonality(system)
                c.ok = (all(r == 0 for r in res) and orthosystems.support_matches_spectrum(system)
                        and all(orthosystems.degree_check(system, n) for n in range(system.dim)))
                c.detail = f"{len(res)} residues"

    for case in EIGVEC_CASES:
        params = rand_params_for_case(case, rng, max_n, 0)
        with _check(out, f"orthogonality U {case.value} [{_params_label(params)}]") as c:
            u = eigvec_matrix(case, params)
            r1 = orthogonality_residual(u)
            r2 = eigen_residual(case, params)
            c.ok, c.detail = r1 <= 1e-12 and r2 <= 1e-12, f"UtU-I {r1:.2e}, MU-UD {r2:.2e}"
            failure = _u_exact_failure(u, matrix_squares(case, params)) if params.N <= 12 else None
            if failure:
                c.ok, c.detail = False, f"{c.detail}; exact: {failure}"
    return out


def _certified(m) -> bool:
    return verify_spectrum_exact(m.matrix, m.spectrum)


def _kac_odd_certified(n: int, g: Fraction, d: Fraction) -> bool:
    """kac-odd at (n, g, d) certified; where an eigenvalue square is <= 0 and
    no real spectrum exists, from a quarter of its offdiagonal products and
    of its raw squares (those of nonsym:DualHahnI and `eig_squares`)."""
    try:
        return _certified(extended_kac_odd(n, g, d))
    except InadmissibleParams:
        p = DualHahnParams(g, d, n)
        products = nonsymmetric_entries(DoubleCase.DUAL_HAHN_I, p).products()
        return verify_squares_exact(products, 1, eig_squares(DoubleCase.DUAL_HAHN_I, p))


def suite_spectra(rng: random.Random, max_n: int, draws: int) -> List[CheckOutcome]:
    out = []
    kac_ok = all(_certified(sylvester_kac(n)) for n in range(1, 21))
    out.append(CheckOutcome("spectra kac N=1..20", kac_ok))

    ext_n = min(max_n, 12)
    for i in range(draws):
        g = Fraction(rng.randint(-3, 20), rng.randint(1, 6))
        d = Fraction(rng.randint(-3, 20), rng.randint(1, 6))
        for n in range(1, ext_n + 1):
            if not _kac_odd_certified(n, g, d):
                out.append(CheckOutcome(f"spectra kac-odd N={n} g={g} d={d}", False))
                break
        else:
            out.append(CheckOutcome(f"spectra kac-odd N<={ext_n} g={g} d={d}", True))
        if g > -1 and d > -1:
            with _check(out, f"spectra kac-even N<={ext_n} g={g} d={d}") as c:
                c.ok = all(_certified(extended_kac_even(n, g, d)) for n in range(1, ext_n + 1))

    half = Fraction(-1, 2)
    with _check(out, "spectra reduction at gamma=delta=-1/2") as c:
        c.ok = all(extended_kac_odd(n, half, half).matrix == sylvester_kac(2 * n).matrix
                   and extended_kac_even(n, half, half).matrix == sylvester_kac(2 * n - 1).matrix
                   for n in range(1, ext_n + 1))
    with _check(out, "spectra integer line delta=-gamma-1") as c:
        c.ok = True
        for g in (Fraction(-1, 4), Fraction(1, 4), Fraction(5, 4), Fraction(9, 4)):
            for n in range(1, ext_n + 1):
                mo = extended_kac_odd(n, g, -g - 1)
                c.ok &= _certified(mo)
                c.ok &= mo.spectrum.floats() == [float(v) for v in range(-2 * n, 2 * n + 1, 2)]

    for word, build, cases in (("double", double_matrix, MATRIX_CASES),
                               ("nonsym", nonsymmetric_form, NONSYM_CASES)):
        for case in cases:
            for i in range(draws):
                params = rand_params_for_case(case, rng, min(max_n, 12))
                with _check(out, f"spectra {word}:{case.value} [{_params_label(params)}]") as c:
                    c.ok = _certified(build(case, params))
    return out


def suite_algebra(rng: random.Random, max_n: int, draws: int) -> List[CheckOutcome]:
    out = []
    for case in oscillator.ALGEBRA_CASES:
        for i in range(draws):
            params = rand_dual_hahn(rng, min(max_n, 10))
            with _check(out, f"algebra {case.value} [{_params_label(params)}]") as c:
                res = oscillator.verify_algebra(case, params)
                flat = [r for v in res.values() for r in v]
                flat += oscillator.verify_normal_form(case, params)
                c.ok, c.detail = all(r == 0 for r in flat), f"{len(flat)} residues"
    half = Fraction(-1, 2)
    p = DualHahnParams(half, half, 4)
    ok = True
    for case in (DoubleCase.DUAL_HAHN_I, DoubleCase.DUAL_HAHN_III):
        sc = oscillator.structure_constants(case, p)
        ok &= (sc.nu, sc.sigma, sc.rho) == (0, 0, 0)
    out.append(CheckOutcome("algebra su(2) coincidence at gamma=delta=-1/2", ok))
    return out


SUITE_RUNNERS: Dict[str, Callable[[random.Random, int, int], List[CheckOutcome]]] = {
    "pairs": suite_pairs,
    "requirements": suite_requirements,
    "christoffel": suite_christoffel,
    "orthogonality": suite_orthogonality,
    "spectra": suite_spectra,
    "algebra": suite_algebra,
}
SUITES = tuple(SUITE_RUNNERS)


def run_suites(names, max_n: int, seed: int, draws: int) -> List[CheckOutcome]:
    """Run the named suites with a fresh seeded RNG per suite, so each
    suite's draws are independent of the others' order."""
    out: List[CheckOutcome] = []
    for name in names:
        if name not in SUITE_RUNNERS:
            raise ValueError(f"unknown suite {name!r}; choose from {SUITES} or 'all'")
        out.extend(SUITE_RUNNERS[name](random.Random(f"{seed}:{name}"), max_n, draws))
    return out
