"""Floating-point symmetric tridiagonal eigensolver and the benchmark
harness that pits it against the closed-form spectra of the test-matrix
gallery.

The solver takes one of two paths, by the kind of input:

- Eigenvalues of a zero-diagonal matrix (every gallery matrix) are the
  +-singular values of a lower bidiagonal B of half the order (Golub &
  Kahan 1965).  They are found by bisection on the squares of B's entries,
  counting the negative pivots of B B^T - tau I through the differential
  stationary qd recurrence (dstqds), which keeps high relative accuracy
  (Demmel & Kahan 1990).  All values are bracketed together, vectorised
  over numpy arrays, and each pass splits every interval in four (two
  bisection steps): O(dim^2) work and O(dim) memory.
- Eigenvectors, and any matrix with a nonzero diagonal, go through the
  implicit QL iteration with Wilkinson shifts and deflation: O(dim^2) for
  values, O(dim^3) with vectors, each rotation one 2x2 block product on a
  contiguous row pair of the transposed eigenvector matrix.
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
    """`sweeps` counts the work of the path taken: QL sweeps summed over the
    eigenvalues, or bisection passes, each of which narrows every value's
    interval to a quarter of its floats."""

    values: np.ndarray
    vectors: Optional[np.ndarray]
    sweeps: int


# Each pass splits every interval at three points into quarters that hold
# equally many floats; the floats in [0, 1] number fewer than 2**62, so 31
# passes suffice and the cap only guards the loop.  Three shifts per pass
# take fewer numpy calls per bit than one: the count is call-bound.
_MAX_PASSES = 32
_QUARTERS = np.arange(1, 4, dtype=np.uint64)[:, None]
# QL sweeps allowed per eigenvalue; Wilkinson shifts need about two
_MAX_SWEEPS = 30
# |pivot| floor of a rerun count, for entries scaled below 1/2
_PIVMIN = float(np.finfo(float).eps) ** 2


def _count_below(q: np.ndarray, e: np.ndarray, tau: np.ndarray,
                 pivmin: Optional[float] = None) -> np.ndarray:
    """For each shift tau, the number of eigenvalues of B B^T = L D L^T
    below tau, where L D L^T has pivots q and l_i^2 d_i = e_i: the number
    of negative pivots of L D L^T - tau I, from the dstqds recurrence
    D_i = q_i + s_i, s_{i+1} = e_i s_i / D_i - tau, s_0 = -tau.

    Shifts whose s stops being finite (a pivot vanished) are counted again
    with every |D_i| < pivmin taken as -pivmin, as LAPACK does.  Memory is
    a few rows the length of tau."""
    s = -tau
    d = np.empty_like(tau)
    below = np.empty(tau.shape, dtype=bool)
    count = np.zeros(tau.shape, dtype=np.intp)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for qi, ei in zip(q.tolist(), e.tolist()):
            np.add(s, qi, out=d)
            if pivmin is not None:
                np.copyto(d, -pivmin, where=np.abs(d) < pivmin)
            np.less(d, 0.0, out=below)
            count += below
            np.divide(s, d, out=s)
            np.multiply(s, ei, out=s)
            np.subtract(s, tau, out=s)
    if pivmin is None:
        vanished = ~np.isfinite(s)
        if vanished.any():
            count[vanished] = _count_below(q, e, tau[vanished], _PIVMIN)
    return count


def _zero_diagonal_values(m: FloatTridiag) -> EigenResult:
    """Eigenvalues of a zero-diagonal m, which is a permuted Golub-Kahan
    form [[0, B], [B^T, 0]] with B lower bidiagonal, B[(k+1)//2, k//2] =
    off[k]: the values are +-sigma(B), and an exact 0 when the dimension
    is odd, where B is padded with one zero entry.  The squares sigma^2 are
    bracketed all at once, splitting the intervals on the bit patterns of
    the floats, until no float lies strictly inside any interval."""
    n = m.dim
    half = n // 2
    off = np.abs(np.asarray(m.offdiagonal, dtype=float))
    top = float(off.max(initial=0.0))
    if top == 0.0:
        return EigenResult(np.zeros(n), None, 0)
    # a power-of-two scale puts every entry below 1/2, so the squares cannot
    # overflow and the scaling is undone exactly
    exp = math.frexp(top)[1] + 1
    off = np.ldexp(np.append(off, [0.0] * (n % 2)), -exp)
    q = off[0::2] ** 2
    e = np.append(off[1::2] ** 2, 0.0)
    # the intervals, as bit patterns of their float ends: [0, 1) holds every
    # value, since ||B||^2 <= (max|diagonal| + max|subdiagonal|)^2 < 1
    lo = np.zeros(half, dtype=np.uint64)
    hi = np.full(half, np.float64(1.0).view(np.uint64))
    # the index of each value among the eigenvalues of B B^T; for odd n the
    # smallest, the padding's exact zero, is not bisected
    target = np.arange(n % 2, n % 2 + half)
    columns = np.arange(half)
    passes = 0
    while True:
        gap = hi - lo
        open_ = gap > 1
        if not open_.any():
            break
        if passes == _MAX_PASSES:
            raise NoConvergence(n - half + int(np.argmax(open_)), m)
        passes += 1
        ends = np.vstack((lo, lo + gap * _QUARTERS // np.uint64(4), hi))
        count = _count_below(q, e, ends[1:4].view(float).ravel()).reshape(3, half)
        # the quarter whose ends' counts bracket the target
        quarter = (count <= target).sum(axis=0)
        lo, hi = ends[quarter, columns], ends[quarter + 1, columns]
    sigma = np.ldexp(np.sqrt(np.sort(lo.view(float))), exp)
    return EigenResult(np.concatenate((-sigma[::-1], np.zeros(n % 2), sigma)), None, passes)


def sym_tridiag_eigen(m: FloatTridiag, want_vectors: bool = False) -> EigenResult:
    """Eigenvalues (sorted ascending) and optionally the orthogonal
    eigenvector matrix of a symmetric tridiagonal matrix.

    Values of a zero-diagonal matrix come from bisection on the half-size
    bidiagonal (`_zero_diagonal_values`); everything else from implicitly
    shifted QL with Wilkinson shifts.  Raises NoConvergence if a QL
    eigenvalue needs more than `_MAX_SWEEPS` sweeps, or bisection more
    than `_MAX_PASSES` passes.
    """
    if not want_vectors and not any(m.diagonal):
        return _zero_diagonal_values(m)
    n = m.dim
    d = [float(v) for v in m.diagonal]
    e = [float(v) for v in m.offdiagonal] + [0.0]
    # rotations act on row pairs of z^T, which are contiguous
    zt = np.eye(n) if want_vectors else None
    rot = np.empty((2, 2))
    buf = np.empty((2, n))
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
            if iterations > _MAX_SWEEPS:
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
                if zt is not None:
                    rot[0, 0] = rot[1, 1] = c
                    rot[0, 1] = -s
                    rot[1, 0] = s
                    np.dot(rot, zt[i:i + 2], out=buf)
                    zt[i:i + 2] = buf
            if not underflow:
                d[l] -= p
                e[l] = g
                e[mm] = 0.0

    values = np.array(d)
    order = np.argsort(values, kind="stable")
    values = values[order]
    return EigenResult(values, None if zt is None else zt[order].T, sweeps)


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


def _residual(tri: FloatTridiag, result: EigenResult) -> float:
    """max |T v - lambda v| over the eigenpairs, with T v formed from the
    bands as e[i-1] v[i-1] + d[i] v[i] + e[i] v[i+1]."""
    v = result.vectors
    e = np.asarray(tri.offdiagonal, dtype=float)[:, None]
    av = np.asarray(tri.diagonal, dtype=float)[:, None] * v
    av[:-1] += e * v[1:]
    av[1:] += e * v[:-1]
    av -= v * result.values
    return float(np.abs(av).max())


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
            residual = None if result.vectors is None else _residual(tri, result)
            reports.append(BenchReport(selector, shown_params, tri.dim, err,
                                       residual, wall, result.sweeps))
    return reports
