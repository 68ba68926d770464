"""The three workloads: their operations, inputs and checks.

A run is a closed loop over rounds.  A round is a fixed list of operations
(the same kinds, cases, selectors and sizes every round); only the rational
parameters change, drawn fresh for every operation from the run's seed.
Each operation calls the public functions of the layers the way
`twodiag verify --suite all`, `twodiag gen` and `twodiag bench` call them.
`run_op` is the timed part; `check_op` runs afterwards, untimed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Dict, List

import numpy as np

from twodiag import doubles, eigsolve, families, matio, matrices, orthosystems, oscillator, transforms
from twodiag.doubles import DoubleCase
from twodiag.families import DualHahnParams, HahnParams, RacahParams

from . import checks

CASES = [c.value for c in DoubleCase]
DUAL_HAHN = ("DualHahnI", "DualHahnII", "DualHahnIII")
EIGVEC_CASES = ("DualHahnI", "DualHahnII", "DualHahnIII", "HahnI", "HahnII", "RacahI", "RacahIII")
MATRIX_CASES = tuple(c for c in CASES if c not in ("RacahII", "RacahIV"))
SYSTEM_CASES = ("DualHahnI", "HahnI", "HahnII")
SELECTORS = ("alpha", "beta_delta", "gamma")
# The gallery selectors that have a matrix.  double:RacahII and
# double:RacahIV are offered by the command line but have no matrix.
GALLERY = (["kac", "kac-odd", "kac-even"] + [f"double:{c}" for c in MATRIX_CASES]
           + [f"nonsym:{c}" for c in DUAL_HAHN])

# Sizes.  verify cycles N through VERIFY_NS over the operations of one kind;
# closed-forms builds U at EIGVEC_N and gallery matrices near GALLERY_DIM;
# solve spreads the gallery over SOLVE_DIMS and adds eigenvector solves.
VERIFY_NS = (12, 8, 4, 11, 7, 5, 10, 6, 9)
EIGVEC_N = 40
GALLERY_DIM = 200
SOLVE_DIMS = (400, 700, 1000)
SOLVE_VECTORS = (("kac", 400), ("double:RacahI", 400))


# ---------------------------------------------------------------------------
# parameter draws

def noninteger(rng: random.Random, den: int, lo: int = -1, hi: int = 5) -> Fraction:
    """A non-integer rational in (lo, hi) with the given denominator."""
    while True:
        num = rng.randrange(lo * den + 1, hi * den)
        if num % den:
            return Fraction(num, den)


def family_of(case: str) -> str:
    if case.startswith("DualHahn"):
        return "dual_hahn"
    return "hahn" if case.startswith("Hahn") else "racah"


def draw_family(rng: random.Random, family: str, N: int, selector: str = "alpha"):
    """Distinct prime denominators keep every degenerate combination of the
    parameters (all of which need some signed sum to be an integer) away."""
    if family == "dual_hahn":
        return DualHahnParams(noninteger(rng, 3), noninteger(rng, 5), N)
    if family == "hahn":
        return HahnParams(noninteger(rng, 3), noninteger(rng, 5), N)
    if selector == "alpha":
        g, d = noninteger(rng, 3), noninteger(rng, 5, lo=0)
        beta = N + g + 1 + noninteger(rng, 7, lo=0, hi=3)
        return RacahParams(Fraction(-N - 1), beta, g, d, "alpha")
    if selector == "beta_delta":
        a, g, b = noninteger(rng, 3), noninteger(rng, 5), noninteger(rng, 7)
        return RacahParams(a, b, g, Fraction(-N - 1) - b, "beta_delta")
    a, b, d = noninteger(rng, 3), noninteger(rng, 5), noninteger(rng, 7, lo=0)
    return RacahParams(a, b, Fraction(-N - 1), d, "gamma")


def gallery_n(selector: str, dim: int) -> int:
    """Size parameter N giving a matrix of dimension `dim` (rounded up to
    the selector's parity)."""
    if selector == "kac":
        return dim - 1
    if selector == "kac-even":
        return (dim + 1) // 2
    case = selector.split(":", 1)[-1]
    if selector == "kac-odd" or checks.doubled_dim(case, 1) == 3:
        return dim // 2
    return (dim - 1) // 2


def gallery_dim(selector: str, N: int) -> int:
    if selector == "kac":
        return N + 1
    if selector == "kac-even":
        return 2 * N
    if selector == "kac-odd":
        return 2 * N + 1
    return checks.doubled_dim(selector.split(":", 1)[1], N)


def draw_gallery(rng: random.Random, selector: str, N: int) -> Dict[str, Fraction]:
    """Explicit parameters for build_gallery_matrix (alpha of the Racah
    matrices is pinned to -N-1 by the builder)."""
    if selector == "kac":
        return {}
    case = selector.split(":", 1)[-1]
    if selector.startswith("kac") or family_of(case) == "dual_hahn":
        return {"gamma": noninteger(rng, 3), "delta": noninteger(rng, 5)}
    if family_of(case) == "hahn":
        return {"alpha": noninteger(rng, 3), "beta": noninteger(rng, 5)}
    p = draw_family(rng, "racah", N, "alpha")
    return {"beta": p.beta, "gamma": p.gamma, "delta": p.delta}


# ---------------------------------------------------------------------------
# operations

@dataclass
class Op:
    kind: str
    case: str                 # doubling case or gallery selector
    N: int
    params: object            # family parameters, or a dict for the gallery
    selector: str = "alpha"   # Racah degree cap
    vectors: bool = False
    flip: str = ""            # coefficient flipped in the mutant check

    def describe(self) -> dict:
        if isinstance(self.params, dict):
            shown = {k: str(v) for k, v in self.params.items()}
        else:
            shown = {f.name: str(getattr(self.params, f.name)) for f in fields(self.params)}
        info = {"kind": self.kind, "case": self.case, "N": self.N, "params": shown}
        if self.vectors:
            info["vectors"] = True
        return info


def plan_round(workload: str, rng: random.Random, round_index: int) -> List[Op]:
    return {"verify": _plan_verify, "closed-forms": _plan_closed_forms,
            "solve": _plan_solve}[workload](rng, round_index)


def _plan_verify(rng: random.Random, r: int) -> List[Op]:
    ops: List[Op] = []

    def add(kind, case, family, j, selector="alpha"):
        N = VERIFY_NS[j % len(VERIFY_NS)]
        ops.append(Op(kind, case, N, draw_family(rng, family, N, selector), selector))

    for kind in ("pairs", "requirements", "christoffel"):
        for j, case in enumerate(CASES):
            sel = SELECTORS[(j + r) % 3] if family_of(case) == "racah" else "alpha"
            add(kind, case, family_of(case), j, sel)
    for j, (family, sel) in enumerate([("hahn", "alpha"), ("dual_hahn", "alpha")]
                                      + [("racah", s) for s in SELECTORS]):
        add("family-sums", family, family, j, sel)
    for j, case in enumerate(SYSTEM_CASES):
        add("doubled", case, family_of(case), j)
    for j, case in enumerate(DUAL_HAHN):
        add("algebra", case, "dual_hahn", j)
    for j, case in enumerate(MATRIX_CASES):
        add("spectrum", case, family_of(case), j)
    for j, case in enumerate(DUAL_HAHN):
        add("nonsym-spectrum", case, "dual_hahn", j)
    for j, case in enumerate(EIGVEC_CASES):
        add("eigvec", case, family_of(case), j)
    for op in ops:
        if op.kind == "pairs":
            op.flip = rng.choice(("a", "b", "a_hat", "b_hat", "d", "d_hat"))
    return ops


def _plan_closed_forms(rng: random.Random, r: int) -> List[Op]:
    ops = [Op("eigvec", case, EIGVEC_N, draw_family(rng, family_of(case), EIGVEC_N))
           for case in EIGVEC_CASES]
    for sel in GALLERY:
        N = gallery_n(sel, GALLERY_DIM)
        ops.append(Op("gallery", sel, N, draw_gallery(rng, sel, N)))
    return ops


def _plan_solve(rng: random.Random, r: int) -> List[Op]:
    ops = []
    for i, sel in enumerate(GALLERY):
        N = gallery_n(sel, SOLVE_DIMS[i % len(SOLVE_DIMS)])
        ops.append(Op("solve", sel, N, draw_gallery(rng, sel, N)))
    for sel, dim in SOLVE_VECTORS:
        N = gallery_n(sel, dim)
        ops.append(Op("solve", sel, N, draw_gallery(rng, sel, N), vectors=True))
    return ops


# ---------------------------------------------------------------------------
# the timed part

def run_op(op: Op, tr) -> dict:
    """Run one operation through the program; returns its outputs."""
    kind = op.kind
    case = DoubleCase(op.case) if op.case in CASES else None
    if kind == "pairs":
        cs = doubles.coefficients(case, op.params)
        with tr.span("doubles.pair_grid"):
            return {"worst": doubles.pair_grid_max_residue(cs)}
    if kind == "requirements":
        cs = doubles.coefficients(case, op.params)
        with tr.span("doubles.requirements_grid"):
            return {"worst": doubles.requirements_grid_max_residue(cs)}
    if kind == "christoffel":
        with tr.span("transforms"):
            nu = doubles.christoffel_nu(case, op.params)
            res = transforms.verify_same_family(case, op.params)
            res += transforms.verify_recurrence_link(op.params, nu, op.N - 1)
            res += transforms.verify_roundtrip(op.params, nu, op.N - 1, range(op.N + 1))
        tr.count("transforms.residues", len(res))
        return {"nu": nu, "residues": res}
    if kind == "family-sums":
        with tr.span("families.orthogonality_sums"):
            return {"residues": _orthogonality_sums(op.case, op.params)}
    if kind == "doubled":
        with tr.span("orthosystems"):
            system = orthosystems.doubled_system(case, op.params)
            res = orthosystems.verify_discrete_orthogonality(system)
            support = orthosystems.support_matches_spectrum(system)
        return {"residues": res, "support": support}
    if kind == "algebra":
        with tr.span("oscillator"):
            res = [r for v in oscillator.verify_algebra(case, op.params).values() for r in v]
            res += oscillator.verify_normal_form(case, op.params)
        return {"residues": res}
    if kind in ("spectrum", "nonsym-spectrum"):
        with tr.span("matrices.build"):
            build = matrices.double_matrix if kind == "spectrum" else matrices.nonsymmetric_form
            m = build(case, op.params)
        with tr.span("matrices.charpoly"):
            ok = matrices.verify_spectrum_exact(m.matrix, m.spectrum)
        return {"bundle": m, "certified": ok}
    if kind == "eigvec":
        with tr.span("matrices.eigvec"):
            u = matrices.eigvec_matrix(case, op.params)
        with tr.span("matrices.u_residual"):
            orth = matrices.orthogonality_residual(u)
            resid = matrices.eigen_residual(case, op.params)
        return {"u": u, "orth": orth, "resid": resid}
    if kind == "gallery":
        with tr.span("matrices.build"):
            m = eigsolve.build_gallery_matrix(op.case, op.N, op.params)
        with tr.span("matrices.charpoly"):
            ok = matrices.verify_spectrum_exact(m.matrix, m.spectrum)
        with tr.span("matio.export"):
            mm = matio.matrix_market_text(m.matrix)
            if isinstance(m.matrix, matrices.TwoDiagonal):
                exact, doc = matio.exact_text(m.matrix), None
            else:
                shown = {k: str(v) for k, v in op.params.items()}
                exact, doc = None, matio.json_text(m.label, shown, m.matrix)
        tr.count("matio.bytes", len(mm) + len(exact or doc))
        return {"bundle": m, "certified": ok, "mm": mm, "exact": exact, "json": doc}
    if kind == "solve":
        with tr.span("matrices.build"):
            m = eigsolve.build_gallery_matrix(op.case, op.N, op.params)
        with tr.span("eigsolve.convert"):
            tri = eigsolve.to_float_tridiag(m)
        with tr.span("eigsolve.vectors" if op.vectors else "eigsolve.values"):
            result = eigsolve.sym_tridiag_eigen(tri, want_vectors=op.vectors)
        tr.count("eigsolve.sweeps", result.sweeps)
        tr.count("eigsolve.eigenvalues", tri.dim)
        return {"bundle": m, "tri": tri, "result": result}
    raise ValueError(f"unknown operation kind {kind!r}")


def _orthogonality_sums(family: str, p) -> List[Fraction]:
    """sum_x w(x) y_n(x) y_m(x) - delta_nm h_n for 0 <= n <= m <= N, through
    the public weight, value and norm functions of `families`."""
    weight = getattr(families, f"{family}_weight")
    value = getattr(families, f"{family}_eval")
    norm = getattr(families, f"{family}_norm")
    N = p.N
    out = []
    for n in range(N + 1):
        for m in range(n, N + 1):
            s = sum(weight(x, p) * value(n, x, p) * value(m, x, p) for x in range(N + 1))
            out.append(s - (norm(n, p) if n == m else 0))
    return out


# ---------------------------------------------------------------------------
# the untimed check

def check_op(op: Op, out: dict) -> tuple:
    """(problems, float errors in eps units) for one operation's outputs."""
    what = f"{op.kind} {op.case} N={op.N}"
    kind = op.kind
    if kind in ("pairs", "requirements"):
        res = out["tapped"]
        expected = (checks.pair_count(op.case, op.N, op.selector) if kind == "pairs"
                    else checks.requirement_count(op.N))
        problems = checks.check_residues(res, expected, what)
        if out["worst"] != max((abs(r) for r in res), default=0):
            problems.append(f"{what}: reported max residue {out['worst']} disagrees")
        if kind == "pairs":
            problems += _check_mutant(op, what)
            problems += checks.check_values(_value_samples(op), what)
        return problems, {}
    if kind == "christoffel":
        expected = checks.christoffel_count(op.case, op.N, op.selector, family_of(op.case),
                                            op.params, out["nu"])
        return checks.check_residues(out["residues"], expected, what), {}
    if kind == "family-sums":
        N = op.N
        problems = checks.check_residues(out["residues"], (N + 1) * (N + 2) // 2, what)
        return problems + checks.check_values(_value_samples(op), what), {}
    if kind == "doubled":
        problems = checks.check_residues(out["residues"], checks.doubled_count(op.case, op.N), what)
        if not out["support"]:
            problems.append(f"{what}: support differs from the matrix spectrum")
        return problems, {}
    if kind == "algebra":
        return checks.check_residues(out["residues"], checks.algebra_count(op.case, op.N), what), {}
    if kind in ("spectrum", "nonsym-spectrum", "gallery"):
        return _check_spectrum(op, out, what), {}
    if kind == "eigvec":
        return _check_eigvec(op, out, what)
    return _check_solve(op, out, what)


def _value_samples(op: Op) -> list:
    """Three (n, x) points of the operation's base family, program values."""
    family = op.case if op.kind == "family-sums" else family_of(op.case)
    p, N = op.params, op.N
    points = [(N, 0), (N // 2, N - 1), (1, N)]
    return [(family, p, n, x, families.family_eval(p, n, x)) for n, x in points]


def _check_mutant(op: Op, what: str) -> List[str]:
    mutant = doubles.coefficients(DoubleCase(op.case), op.params).flipped(op.flip)
    if doubles.locate_failure(mutant) is None:
        return [f"{what}: sextet with {op.flip} sign-flipped passes the residue checks"]
    return []


def _spectrum_squares(spectrum) -> List[Fraction]:
    return [e.radicand for e in spectrum.entries]


def _check_spectrum(op: Op, out: dict, what: str) -> List[str]:
    m = out["bundle"]
    problems = [] if out["certified"] else [f"{what}: charpoly certificate failed"]
    dim = (gallery_dim(op.case, op.N) if op.kind == "gallery"
           else checks.doubled_dim(op.case, op.N))
    if m.matrix.dim != dim or m.spectrum.dim != dim:
        problems.append(f"{what}: dimension {m.matrix.dim}, expected {dim}")
    problems += checks.check_power_sums(m.matrix.products(), _spectrum_squares(m.spectrum), what)
    if op.case == "kac":
        problems += _check_kac(m.spectrum, op.N, what)
    if op.kind == "gallery":
        problems += checks.check_roundtrips(m.matrix, out["mm"], out["exact"], out["json"], what)
    return problems


def _check_kac(spectrum, N: int, what: str) -> List[str]:
    got = [e.exact_rational() for e in spectrum.entries]
    if got != checks.kac_spectrum(N):
        return [f"{what}: spectrum is not -N, -N+2, ..., N"]
    return []


def _check_eigvec(op: Op, out: dict, what: str) -> tuple:
    u = out["u"]
    m = matrices.double_matrix(DoubleCase(op.case), op.params)
    problems = checks.check_power_sums(m.matrix.products(),
                                       [e.radicand for e in u.eigencolumn], what)
    errs = checks.eigenpair_errors([0.0] * m.matrix.dim, m.matrix.offdiag_floats(),
                                   u.to_float(), u.d_floats())
    problems += checks.check_eigenpairs(errs, what)
    for name, value in (("orthogonality_residual", out["orth"]), ("eigen_residual", out["resid"])):
        if not value <= checks.U_TOL:
            problems.append(f"{what}: program reports {name} {value:.3g}")
    return problems, {"eig": errs["eig"], "vec": errs["vec"]}


def _check_solve(op: Op, out: dict, what: str) -> tuple:
    m, tri, result = out["bundle"], out["tri"], out["result"]
    closed = np.sort(np.array(m.spectrum.floats()))
    problems = checks.check_eigenvalues(result.values, closed, tri.offdiagonal, what)
    if op.case == "kac":
        problems += _check_kac(m.spectrum, op.N, what)
    amax = max(float(np.max(np.abs(tri.offdiagonal))), 1.0)
    errs = {}
    if len(result.values) == len(closed):
        errs["eig"] = checks.rms(result.values - closed) / (checks.EPS * amax)
    if op.vectors:
        pair = checks.eigenpair_errors(tri.diagonal, tri.offdiagonal, result.vectors,
                                       result.values)
        problems += checks.check_eigenpairs(pair, what)
        errs["vec"] = pair["vec"]
    return problems, errs
