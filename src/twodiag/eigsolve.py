"""Floating-point symmetric tridiagonal eigensolver and the benchmark
harness that pits it against the closed-form spectra of the test-matrix
gallery.

The solver is the classic implicit QL iteration with Wilkinson shifts and
deflation; eigenvalue-only runs cost O(dim^2), accumulating eigenvectors
raises that to O(dim^3) with the rotation applied across numpy columns.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .doubles import MATRIX_CASES, NONSYM_CASES, DoubleCase
from .families import RacahParams
from .matrices import (
    InadmissibleParams,
    MatrixWithSpectrum,
    double_matrix,
    integer_form,
    sylvester_kac,
    symmetrize,
)


class NoConvergence(RuntimeError):
    """An eigenvalue failed to deflate within the sweep budget."""

    def __init__(self, index: int, matrix: "FloatTridiag"):
        super().__init__(f"eigenvalue {index} did not converge")
        self.index = index
        self.matrix = matrix

    def matrix_json(self) -> str:
        """The offending matrix, serialized for reproduction."""
        return json.dumps({"diagonal": list(self.matrix.diagonal),
                           "offdiagonal": list(self.matrix.offdiagonal)})


@dataclass(frozen=True)
class FloatTridiag:
    diagonal: Tuple[float, ...]
    offdiagonal: Tuple[float, ...]

    def __post_init__(self):
        if len(self.offdiagonal) != len(self.diagonal) - 1:
            raise ValueError("offdiagonal must be one shorter than diagonal")
        vals = list(self.diagonal) + list(self.offdiagonal)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("entries must be finite")

    @property
    def dim(self) -> int:
        return len(self.diagonal)

    def to_dense(self) -> np.ndarray:
        out = np.diag(np.asarray(self.diagonal, dtype=float))
        off = np.asarray(self.offdiagonal, dtype=float)
        out += np.diag(off, 1) + np.diag(off, -1)
        return out


@dataclass
class EigenResult:
    values: np.ndarray
    vectors: Optional[np.ndarray]
    sweeps: int


def sym_tridiag_eigen(
    m: FloatTridiag, want_vectors: bool = False, max_sweeps: int = 30
) -> EigenResult:
    """Eigenvalues (sorted ascending) and optionally the orthogonal
    eigenvector matrix of a symmetric tridiagonal matrix.

    Implicitly shifted QL with Wilkinson shifts; raises NoConvergence if an
    eigenvalue needs more than max_sweeps sweeps.
    """
    n = m.dim
    d = [float(v) for v in m.diagonal]
    e = [float(v) for v in m.offdiagonal] + [0.0]
    z = np.eye(n) if want_vectors else None
    eps = np.finfo(float).eps
    sweeps = 0

    for l in range(n):
        iterations = 0
        while True:
            mm = l
            while mm < n - 1:
                dd = abs(d[mm]) + abs(d[mm + 1])
                if abs(e[mm]) <= eps * dd:
                    break
                mm += 1
            if mm == l:
                break
            iterations += 1
            if iterations > max_sweeps:
                raise NoConvergence(l, m)
            sweeps += 1
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[mm] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            underflow = False
            for i in range(mm - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[mm] = 0.0
                    underflow = True
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                if z is not None:
                    col = z[:, i + 1].copy()
                    z[:, i + 1] = s * z[:, i] + c * col
                    z[:, i] = c * z[:, i] - s * col
            if not underflow:
                d[l] -= p
                e[l] = g
                e[mm] = 0.0

    values = np.array(d)
    order = np.argsort(values, kind="stable")
    values = values[order]
    if z is not None:
        z = z[:, order]
    return EigenResult(values, z, sweeps)


# ---------------------------------------------------------------------------
# benchmark harness

@dataclass
class BenchReport:
    family: str
    params: Dict[str, str]
    dim: int
    max_abs_eig_error: float
    residual_norm: Optional[float]
    wall_ns: int
    sweeps: int

    def to_json_line(self) -> str:
        return json.dumps(
            {
                "family": self.family,
                "params": self.params,
                "dim": self.dim,
                "maxAbsEigError": self.max_abs_eig_error,
                "residualNorm": self.residual_norm,
                "nanoseconds": self.wall_ns,
                "sweeps": self.sweeps,
            }
        )


class _Selector(NamedTuple):
    """How a gallery selector is built: its doubling case at N - n_shift, as
    the symmetric matrix or as the integer-friendly form times `scale`.  The
    literal Sylvester-Kac matrix alone has no case."""

    case: Optional[DoubleCase]
    integer: bool = True
    n_shift: int = 0
    scale: int = 1


# kac-odd at N is twice nonsym:DualHahnI at N, kac-even twice
# nonsym:DualHahnIII at N-1
_SELECTORS: Dict[str, _Selector] = {
    "kac": _Selector(None),
    "kac-odd": _Selector(DoubleCase.DUAL_HAHN_I, scale=2),
    "kac-even": _Selector(DoubleCase.DUAL_HAHN_III, n_shift=1, scale=2),
    **{f"double:{c.value}": _Selector(c, integer=False) for c in MATRIX_CASES},
    **{f"nonsym:{c.value}": _Selector(c) for c in NONSYM_CASES},
}

FAMILY_CHOICES = list(_SELECTORS)


def _dim_to_n(selector: str, dim: int) -> int:
    """Map a requested matrix dimension to the family's size parameter."""
    if dim < 2:
        raise ValueError("dimension must be >= 2")
    sel = _SELECTORS[selector]
    if sel.case is None:
        return dim - 1
    even = sel.case.record.even_dim
    if dim % 2 != (0 if even else 1):
        raise ValueError(f"{selector} needs an {'even' if even else 'odd'} dimension, got {dim}")
    # the even doubling cases have dimension 2N+2
    return dim // 2 - (1 if even else 0) + sel.n_shift


def gallery_params(selector: str, n: int,
                   params: Optional[Dict[str, Fraction]] = None) -> Dict[str, Fraction]:
    """The parameters a selector's matrix at size parameter n is built with:
    its defaults, overridden by the given ones, and the Racah beta filled in
    from n when not given.  A parameter the selector does not take is an
    error."""
    if selector not in _SELECTORS:
        raise ValueError(f"unknown family {selector!r}; choose from {', '.join(FAMILY_CHOICES)}")
    case = _SELECTORS[selector].case
    merged = dict(case.record.defaults) if case else {}
    for name, value in (params or {}).items():
        if name not in merged:
            raise ValueError(f"{selector} takes no --{name} "
                             f"(it takes: {', '.join(merged) or 'none'})")
        merged[name] = value
    if "beta" in merged and merged["beta"] is None:
        merged["beta"] = n + merged["gamma"] + 2
    return merged


def build_gallery_matrix(selector: str, n: int,
                         params: Optional[Dict[str, Fraction]] = None) -> MatrixWithSpectrum:
    """Construct the (matrix, spectrum) bundle for a family selector at size
    parameter n with the parameters `gallery_params` settles on.  A
    vanishing denominator or an inadmissible parameter is reported with the
    selector, n and every parameter in use."""
    merged = gallery_params(selector, n, params)
    case, integer, n_shift, scale = _SELECTORS[selector]
    if case is None:
        return sylvester_kac(n)
    if scale != 1 and n < 1:  # the Kac extensions start at N = 1
        raise ValueError("N must be >= 1")
    N = n - n_shift
    if case.family is RacahParams:
        fam = RacahParams(Fraction(-N - 1), minus_n="alpha", **merged)
    else:
        fam = case.family(N=N, **merged)
    try:
        if not integer:
            return double_matrix(case, fam)
        # the doubled forms are the Kac extensions, labelled with their N
        return integer_form(case, fam, selector if scale == 1 else f"{selector}(N={n})", scale)
    except (ZeroDivisionError, InadmissibleParams) as exc:
        used = ", ".join(f"{f.name}={getattr(fam, f.name)}" for f in fields(fam)
                         if f.name not in ("N", "minus_n"))
        what = str(exc) if isinstance(exc, InadmissibleParams) else "a denominator vanishes"
        raise type(exc)(f"{selector} -N {n} with {used}: {what}") from exc


def to_float_tridiag(m: MatrixWithSpectrum) -> FloatTridiag:
    sym = m.matrix if hasattr(m.matrix, "offdiagonal") else symmetrize(m.matrix)
    off = tuple(float(v) for v in sym.offdiagonal)
    return FloatTridiag((0.0,) * sym.dim, off)


def _match_error(computed: np.ndarray, closed: np.ndarray) -> float:
    """Max |computed - closed| between the two sorted spectra.  Pairing in
    sorted order minimizes the largest error over all matchings of two
    real spectra, clustered or not."""
    return float(np.max(np.abs(computed - closed)))


def benchmark(
    selector: str,
    dims: Sequence[int],
    repetitions: int = 1,
    params: Optional[Dict[str, Fraction]] = None,
    want_vectors: bool = False,
) -> List[BenchReport]:
    """Solve each family instance and report errors against the closed-form
    spectrum.  One report per (dimension, repetition)."""
    reports: List[BenchReport] = []
    if repetitions <= 0:
        return reports
    for dim in dims:
        n = _dim_to_n(selector, dim)
        bundle = build_gallery_matrix(selector, n, params)
        tri = to_float_tridiag(bundle)
        closed = np.sort(np.array(bundle.spectrum.floats()))
        shown_params = {k: str(v) for k, v in gallery_params(selector, n, params).items()}
        for _ in range(repetitions):
            t0 = time.perf_counter_ns()
            result = sym_tridiag_eigen(tri, want_vectors=want_vectors)
            wall = time.perf_counter_ns() - t0
            err = _match_error(result.values, closed)
            residual = None
            if want_vectors:
                a = tri.to_dense()
                residual = float(np.abs(a @ result.vectors
                                        - result.vectors * result.values[None, :]).max())
            reports.append(BenchReport(selector, shown_params, tri.dim, err,
                                       residual, wall, result.sweeps))
    return reports
