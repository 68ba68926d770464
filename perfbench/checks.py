"""Correctness checks the benchmark makes apart from the program's own.

Each check returns a list of problems; an empty list means the output is
correct.  The reference values come from code written here: an explicit
hypergeometric sum, residue counts derived from N, power sums of the
spectrum against traces of the matrix, LAPACK eigenvalues, the integer
Sylvester-Kac spectrum and round trips through the `matio` parsers.
None of them runs inside a timed span.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Sequence

import numpy as np

EPS = float(np.finfo(float).eps)

# Float tolerances.  The U matrices are checked to the 1e-12 the package
# documents; solver eigenvalues may differ from LAPACK's by a few
# dim * eps * max|a_ij|, and the tolerance leaves room for four times that.
U_TOL = 1e-12
EIG_TOL_PER_DIM = 4.0

# Degree cap N-hat of the hatted family, as the shift of N per case.  For
# Racah cases the shift depends on which denominator parameter carries the
# cap; the entries are the shifts of (alpha, beta, gamma, delta).
HAT_SHIFT = {
    "DualHahnI": 1, "DualHahnII": 1, "DualHahnIII": 0,
    "HahnI": 0, "HahnII": 1, "HahnIII": 0, "HahnIV": 1,
}
RACAH_HAT = {
    "RacahI": (0, 1, 1, -1), "RacahII": (0, 1, 0, 0),
    "RacahIII": (1, 0, 1, 1), "RacahIV": (1, 0, 0, 0),
}


def hatted_n(case: str, N: int, selector: str = "alpha") -> int:
    if case in HAT_SHIFT:
        return N - HAT_SHIFT[case]
    da, db, dg, dd = RACAH_HAT[case]
    return N - {"alpha": da, "beta_delta": db + dd, "gamma": dg}[selector]


# ---------------------------------------------------------------------------
# residue counts

def pair_count(case: str, N: int, selector: str = "alpha") -> int:
    """Relation 1 at n = 0..N-1 and relation 2 at n < min(N, N-hat), at
    every x = 0..N."""
    return (N + 1) * (N + min(N, hatted_n(case, N, selector)))


def requirement_count(N: int) -> int:
    """Seven requirement residues at every n = 0..N-1, x = 0..N."""
    return 7 * N * (N + 1)


def lam(family: str, params, x) -> Fraction:
    """The recurrence eigenvalue Lam(x) of the family, written out here."""
    x = Fraction(x)
    if family == "hahn":
        return -x
    return x * (x + params.gamma + params.delta + 1)


def christoffel_count(case: str, N: int, selector: str, family: str, params, nu) -> int:
    """Residues of verify_same_family, verify_recurrence_link and
    verify_roundtrip as the verify suite calls them: grid points where
    Lam(x) = Lam(nu) are skipped by the kernel and round-trip checks."""
    clear = sum(1 for x in range(N + 1) if lam(family, params, x) != lam(family, params, nu))
    n_top = min(N, hatted_n(case, N, selector) + 1)
    return (N + 1) + n_top * (1 + clear) + (N - 1) + N * clear


def doubled_dim(case: str, N: int) -> int:
    return 2 * N + 2 if case in ("HahnI", "DualHahnIII", "RacahI", "HahnIII") else 2 * N + 1


def doubled_count(case: str, N: int) -> int:
    d = doubled_dim(case, N)
    return d * (d + 1) // 2


def algebra_count(case: str, N: int) -> int:
    """verify_algebra lists (dim, dim, dim-1, dim-1, dim) plus verify_normal_form (dim)."""
    d = doubled_dim(case, N)
    return 4 * d + 2 * (d - 1)


def check_residues(residues: Sequence[Fraction], expected: int, what: str) -> List[str]:
    problems = []
    if len(residues) != expected:
        problems.append(f"{what}: {len(residues)} residues, grid needs {expected}")
    bad = sum(1 for r in residues if r != 0)
    if bad:
        problems.append(f"{what}: {bad} nonzero residues")
    return problems


# ---------------------------------------------------------------------------
# polynomial values by an explicit sum

def _rising(a: Fraction, k: int) -> Fraction:
    out = Fraction(1)
    for j in range(k):
        out *= a + j
    return out


def explicit_value(family: str, params, n: int, x: int) -> Fraction:
    """y_n(x) as sum_k prod(top)_k / prod(bottom)_k / k!, summed to k = n."""
    x = Fraction(x)
    if family == "hahn":
        a, b, N = params.alpha, params.beta, params.N
        top, bottom = (-n, n + a + b + 1, -x), (a + 1, Fraction(-N))
    elif family == "dual_hahn":
        g, d, N = params.gamma, params.delta, params.N
        top, bottom = (-x, x + g + d + 1, -n), (g + 1, Fraction(-N))
    else:
        a, b, g, d = params.alpha, params.beta, params.gamma, params.delta
        top, bottom = (-n, n + a + b + 1, -x, x + g + d + 1), (a + 1, b + d + 1, g + 1)
    total = Fraction(0)
    for k in range(n + 1):
        num = math.prod((_rising(Fraction(t), k) for t in top), start=Fraction(1))
        den = math.prod((_rising(Fraction(t), k) for t in bottom), start=Fraction(1))
        total += num / den / math.factorial(k)
    return total


def check_values(samples: Sequence[tuple], what: str) -> List[str]:
    """samples: (family, params, n, x, program value)."""
    return [f"{what}: y_{n}({x}) = {got}, explicit sum gives {explicit_value(fam, p, n, x)}"
            for fam, p, n, x, got in samples if got != explicit_value(fam, p, n, x)]


# ---------------------------------------------------------------------------
# spectra

def power_sums(products: Sequence[Fraction]) -> tuple:
    """trace(A^2) and trace(A^4) of a zero-diagonal tridiagonal matrix from
    its offdiagonal products q_i: 2 sum q_i and 2 sum q_i^2 + 4 sum q_i q_{i+1}."""
    q = [Fraction(v) for v in products]
    t2 = 2 * sum(q, Fraction(0))
    t4 = 2 * sum((v * v for v in q), Fraction(0)) + 4 * sum(
        (a * b for a, b in zip(q, q[1:])), Fraction(0))
    return t2, t4


def check_power_sums(products: Sequence[Fraction], eig_squares: Sequence[Fraction],
                     what: str) -> List[str]:
    """eig_squares lists lambda^2 for every eigenvalue, zeros included."""
    t2, t4 = power_sums(products)
    s2 = sum(eig_squares, Fraction(0))
    s4 = sum((s * s for s in eig_squares), Fraction(0))
    problems = []
    if s2 != t2:
        problems.append(f"{what}: sum lambda^2 = {float(s2)!r}, trace(A^2) = {float(t2)!r}")
    if s4 != t4:
        problems.append(f"{what}: sum lambda^4 = {float(s4)!r}, trace(A^4) = {float(t4)!r}")
    return problems


def kac_spectrum(N: int) -> List[int]:
    return list(range(-N, N + 1, 2))


def load_references(dim: int = 402) -> None:
    """Import LAPACK and call it and BLAS once, at the dimension of the
    largest eigenvector check, so that the memory the float checks map is
    in place before the measured phase of every workload alike."""
    off = np.ones(dim - 1)
    lapack_eigenvalues(off)
    eigenpair_errors(np.zeros(dim), off, np.eye(dim), np.zeros(dim))


def lapack_eigenvalues(offdiagonal: Sequence[float]) -> np.ndarray:
    """Eigenvalues of the zero-diagonal symmetric tridiagonal matrix."""
    off = np.asarray(offdiagonal, dtype=float)
    try:
        from scipy.linalg import eigh_tridiagonal
    except ImportError:
        dense = np.diag(off, 1) + np.diag(off, -1)
        return np.linalg.eigvalsh(dense)
    return eigh_tridiagonal(np.zeros(len(off) + 1), off, eigvals_only=True)


def check_eigenvalues(values: np.ndarray, closed: np.ndarray, offdiagonal: Sequence[float],
                      what: str) -> List[str]:
    """Solver and closed form must each agree with LAPACK."""
    ref = lapack_eigenvalues(offdiagonal)
    scale = EPS * max(float(np.max(np.abs(offdiagonal))), 1.0)
    tol = EIG_TOL_PER_DIM * len(ref)
    problems = []
    for name, vals in (("solver", values), ("closed form", closed)):
        if len(vals) != len(ref):
            problems.append(f"{what}: {name} gives {len(vals)} eigenvalues, dimension {len(ref)}")
            continue
        err = float(np.max(np.abs(np.sort(vals) - ref))) / scale
        if not err <= tol:
            problems.append(f"{what}: {name} differs from LAPACK by {err:.3g} eps*max|a|"
                            f" (tolerance {tol:g})")
    return problems


# ---------------------------------------------------------------------------
# float eigenpairs

def rms(values: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(values))))


def eigenpair_errors(diagonal: Sequence[float], offdiagonal: Sequence[float], v: np.ndarray,
                     lam_: np.ndarray, block: int = 32) -> Dict[str, float]:
    """Errors of float eigenpairs (columns of v, values lam_) of the
    symmetric tridiagonal matrix a with the given diagonal and offdiagonal.

    "eig": root mean square over j of |v_j^T a v_j - lam_j|, in units of
    eps * max|a_ij|; "vec": the larger of the root mean squares of the
    entries of (a v - v diag(lam_)) / |a|_2 and of v^T v - I, in units of
    eps; "resid" and "orth": the largest entries of those two matrices.
    Columns go `block` at a time and a is never formed, so that the
    check's temporaries stay small beside the program's own memory, which
    the benchmark reports.
    """
    d = np.asarray(diagonal, dtype=float)[:, None]
    off = np.asarray(offdiagonal, dtype=float)[:, None]
    amax = max(float(np.max(np.abs(d))), float(np.max(np.abs(off), initial=0.0)), 1.0)
    norm2 = max(float(np.max(np.abs(lam_))), 1.0)
    n = v.shape[1]
    squares = {"eig": 0.0, "resid": 0.0, "orth": 0.0}
    largest = {"resid": 0.0, "orth": 0.0}
    for j0 in range(0, n, block):
        vb, lb = v[:, j0:j0 + block], lam_[j0:j0 + block]
        avb = d * vb
        avb[:-1] += off * vb[1:]
        avb[1:] += off * vb[:-1]
        parts = {"eig": np.einsum("ij,ij->j", vb, avb) - lb,
                 "resid": (avb - vb * lb[None, :]) / norm2,
                 "orth": v.T @ vb}
        parts["orth"][np.arange(j0, j0 + len(lb)), np.arange(len(lb))] -= 1.0
        for key, part in parts.items():
            squares[key] += float(np.sum(np.square(part)))
            if key in largest:
                largest[key] = max(largest[key], float(np.max(np.abs(part))))
    rms_of = lambda key, count: math.sqrt(squares[key] / count)
    return {
        "eig": rms_of("eig", n) / (EPS * amax),
        "vec": max(rms_of("resid", v.shape[0] * n), rms_of("orth", n * n)) / EPS,
        "resid": largest["resid"],
        "orth": largest["orth"],
    }


def check_eigenpairs(errors: Dict[str, float], what: str) -> List[str]:
    problems = []
    if not errors["resid"] <= U_TOL:
        problems.append(f"{what}: |AV - V Lambda| / |A| = {errors['resid']:.3g} > {U_TOL:g}")
    if not errors["orth"] <= U_TOL:
        problems.append(f"{what}: |V^T V - I| = {errors['orth']:.3g} > {U_TOL:g}")
    return problems


# ---------------------------------------------------------------------------
# interchange round trips

def check_roundtrips(matrix, mm_text: str, exact: str | None, json_doc: str | None,
                     what: str) -> List[str]:
    import json

    from twodiag import matio

    problems = []
    dim, entries = matio.parse_matrix_market(mm_text)
    if hasattr(matrix, "sup"):
        want = [(i, i + 1, float(b)) for i, b in enumerate(matrix.sup, start=1) if b != 0]
        want += [(i + 1, i, float(c)) for i, c in enumerate(matrix.sub, start=1) if c != 0]
    else:
        want = [(i, i + 1, float(m)) for i, m in enumerate(matrix.offdiagonal, start=1)]
        want += [(i + 1, i, float(m)) for i, m in enumerate(matrix.offdiagonal, start=1)]
    want = [e for e in want if e[2] != 0.0]
    if dim != matrix.dim or sorted(entries) != sorted(want):
        problems.append(f"{what}: Matrix Market text does not round-trip")
    if exact is not None and matio.parse_exact_text(exact) != matrix:
        problems.append(f"{what}: exact text does not round-trip")
    if json_doc is not None:
        squares = [Fraction(s) for s in json.loads(json_doc)["offdiagonal_squares"]]
        if squares != list(matrix.products()):
            problems.append(f"{what}: JSON offdiagonal squares do not round-trip")
    return problems
