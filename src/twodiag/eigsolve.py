"""Floating-point eigensolver for zero-diagonal symmetric tridiagonal
matrices and the benchmark harness that pits it against the closed-form
spectra of the test-matrix gallery.

Every gallery matrix is zero-diagonal, and so a permuted Golub-Kahan form:
its eigenvalues are the +-singular values of a lower bidiagonal B of half
the order (Golub & Kahan 1965).  They are found by bisection on the squares
of B's entries, counting the negative pivots of B B^T - tau I through the
differential stationary qd recurrence (dstqds), which keeps high relative
accuracy (Demmel & Kahan 1990).  All values are bracketed together,
vectorised over numpy arrays, and each pass splits every interval in four
(two bisection steps): O(dim^2) work and O(dim) memory.

Eigenvectors come from one twisted factorisation of T - lambda I per value
lambda >= 0 (Dhillon & Parlett 2004), vectorised over the values, those of
-lambda by the sign pattern (-1)^i, and one or two Newton-Schulz steps make
them orthonormal: O(dim^2) work and O(dim^3) BLAS flops.  Guards on the
loss of orthogonality and the residual refuse the twisted vectors of
repeated or barely split values; the vectors of such a matrix come from
LAPACK (`numpy.linalg.eigh`), its values still from bisection.

A nonzero diagonal is refused.
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
    """Bisection failed to isolate an eigenvalue within `_MAX_PASSES`
    passes."""

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
    """`sweeps` counts bisection passes, each of which narrows every
    value's interval to a quarter of its floats; it and `values` do not
    depend on whether vectors were asked for."""

    values: np.ndarray
    vectors: Optional[np.ndarray]
    sweeps: int


# Each pass splits every interval at three points into quarters that hold
# equally many floats; the floats in [0, 1] number fewer than 2**62, so 31
# passes suffice and the cap only guards the loop.  Three shifts per pass
# take fewer numpy calls per bit than one: the count is call-bound.
_MAX_PASSES = 32
_QUARTERS = np.arange(1, 4, dtype=np.uint64)[:, None]
_EPS = float(np.finfo(float).eps)
# |pivot| floor of a rerun count and of the twisted factorisations, for
# entries scaled below 1/2
_PIVMIN = _EPS ** 2


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
    exp = _unit_exponent(top)
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


# The twisted path's guards: n max|Z^T Z - I|, which bounds ||Z^T Z - I||_2,
# before orthogonalising (two Newton-Schulz steps take 1e-4 to rounding),
# and the band residual after, in units of n eps max|a|
_MAX_ORTH_LOSS = 1e-4
_RESID_PER_DIM = 4.0
# rows of Z per BLAS product, and columns per band-residual block, so that
# no temporary approaches the size of Z
_BLOCK = 64


def _unit_exponent(top: float) -> int:
    """The power of two that scales entries of size at most top below 1/2,
    so that their squares cannot overflow and the scaling is undone
    exactly."""
    return math.frexp(top)[1] + 1


def _stationary_pivots(d: np.ndarray, e2: np.ndarray, lam: np.ndarray) -> None:
    """Into the rows of d, for each shift lam, the pivots D_0 = -lam,
    D_i = -lam - e2_{i-1} / D_{i-1} of T - lam I = L D L^T, T zero-diagonal
    with offdiagonal squares e2; a pivot below `_PIVMIN` in size is taken
    as -_PIVMIN, as in `_count_below`."""
    size = np.empty(len(lam))
    small = np.empty(len(lam), dtype=bool)
    np.negative(lam, out=d[0])
    for i in range(len(d)):
        if i:
            np.divide(-e2[i - 1], d[i - 1], out=d[i])
            d[i] -= lam
        np.less(np.abs(d[i], out=size), _PIVMIN, out=small)
        np.copyto(d[i], -_PIVMIN, where=small)


def _twisted_vectors(e: np.ndarray, lam: np.ndarray, z: np.ndarray) -> None:
    """Into the zeroed n x len(lam) array z, for each shift lam, the
    solution of (T - lam I) z = gamma_r e_r with z_r = 1, for T
    zero-diagonal with offdiagonal e (|e| < 1/2).

    T - lam I = L D+ L^T = U D- U^T are its stationary factorisations from
    the top and from the bottom (`_stationary_pivots`).  The twist r
    minimises |gamma_r| = |D+_r + D-_r + lam| (Dhillon & Parlett 2004),
    and from z_r = 1 the solves run z_i = -e_i z_{i+1} / D+_i upwards and
    z_i = -e_{i-1} z_{i-1} / D-_i downwards.  Rows are indices and
    columns shifts, so every step is one numpy call over all shifts."""
    n, k = z.shape
    e2 = e * e
    plus = np.empty((n, k))
    minus = np.empty((n, k))
    _stationary_pivots(plus, e2, lam)
    _stationary_pivots(minus[::-1], e2[::-1], lam)
    np.add(plus, minus, out=z)
    z += lam
    np.abs(z, out=z)
    # the first least |gamma| of each column; argmin would copy all of z
    twist = np.argmax(z == z.min(axis=0), axis=0)
    z.fill(0.0)
    z[twist, np.arange(k)] = 1.0
    # the multipliers, zero outside each column's side of its twist
    index = np.arange(n)[:, None]
    np.divide(-e[:, None], plus[:-1], out=plus[:-1])
    np.copyto(plus, 0.0, where=index >= twist)
    np.divide(-e[:, None], minus[1:], out=minus[1:])
    np.copyto(minus, 0.0, where=index <= twist)
    # a multiplier near 1/_PIVMIN can overflow z; the guards then refuse it
    step = np.empty(k)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n - 2, -1, -1):
            np.multiply(plus[i], z[i + 1], out=step)
            z[i] += step
        for i in range(1, n):
            np.multiply(minus[i], z[i - 1], out=step)
            z[i] += step


def _newton_schulz(z: np.ndarray, gram: np.ndarray) -> None:
    """One step Z <- Z (3I - Z^T Z) / 2 = Z (I - G / 2) in place, given
    G = Z^T Z - I (overwritten), a block of rows of Z per product."""
    gram *= -0.5
    gram.flat[::len(gram) + 1] += 1.0
    for s in range(0, len(z), _BLOCK):
        z[s:s + _BLOCK] = z[s:s + _BLOCK] @ gram


def _gram_loss(z: np.ndarray) -> Tuple[np.ndarray, float]:
    """G = Z^T Z - I and n max|G|, which bounds ||G||_2 (nan if Z is not
    finite)."""
    gram = z.T @ z
    gram.flat[::len(gram) + 1] -= 1.0
    return gram, len(gram) * max(gram.max(), -gram.min())


def _zero_diagonal_vectors(m: FloatTridiag, values: np.ndarray) -> Optional[np.ndarray]:
    """Orthonormal eigenvectors of a zero-diagonal m for its ascending
    `values` from `_zero_diagonal_values`, or None when a guard fails.

    Since S T S = -T for S = diag((-1)^i), the vector of -lam is S times
    that of lam, so twisted factorisations (`_twisted_vectors`) run only
    at the values >= 0.  The columns are normalised and made orthonormal
    to rounding by one or two Newton-Schulz steps, one when the first
    leaves a loss below eps.  The guards: before the steps the Gram loss
    is at most `_MAX_ORTH_LOSS` (the twisted vectors of a repeated or
    barely split value coincide), and after them the band residual is at
    most `_RESID_PER_DIM` n eps max|a|.  Z and one n x n array (the pivots
    of half the columns, then the Gram matrix) are alive at a time."""
    n, half = m.dim, m.dim // 2
    off = np.asarray(m.offdiagonal, dtype=float)
    top = float(np.abs(off).max(initial=0.0))
    if top == 0.0:
        return None
    exp = _unit_exponent(top)
    z = np.zeros((n, n))
    pos = z[:, half:]
    _twisted_vectors(np.ldexp(off, -exp), np.ldexp(values[half:], -exp), pos)
    with np.errstate(over="ignore", invalid="ignore"):
        pos /= np.sqrt(np.einsum("ij,ij->j", pos, pos))
    signs = np.where(np.arange(n) % 2, -1.0, 1.0)[:, None]
    np.multiply(z[:, n - 1:n - 1 - half:-1], signs, out=z[:, :half])
    gram, loss = _gram_loss(z)
    if not loss <= _MAX_ORTH_LOSS:
        return None
    _newton_schulz(z, gram)
    del gram
    if not 1.5 * loss * loss <= _EPS:
        _newton_schulz(z, _gram_loss(z)[0])
    if not _residual(m, values, z) <= _RESID_PER_DIM * n * _EPS * top:
        return None
    return z


def sym_tridiag_eigen(m: FloatTridiag, want_vectors: bool = False) -> EigenResult:
    """Eigenvalues (sorted ascending) and optionally the orthonormal
    eigenvector matrix of a zero-diagonal symmetric tridiagonal matrix.

    The values come from bisection on the half-size bidiagonal
    (`_zero_diagonal_values`), the vectors from twisted factorisations at
    those values (`_zero_diagonal_vectors`), or from LAPACK where these
    fail their guards.  Raises ValueError for a nonzero diagonal and
    NoConvergence if bisection needs more than `_MAX_PASSES` passes.
    """
    if any(m.diagonal):
        i = next(i for i, v in enumerate(m.diagonal) if v)
        raise ValueError(f"diagonal[{i}] = {m.diagonal[i]!r}: only zero-diagonal "
                         "matrices are solved")
    result = _zero_diagonal_values(m)
    if want_vectors:
        result.vectors = _zero_diagonal_vectors(m, result.values)
        if result.vectors is None:
            result.vectors = np.linalg.eigh(m.to_dense())[1]
    return result


# ---------------------------------------------------------------------------
# benchmark harness

@dataclass
class BenchReport:
    family: str
    params: Dict[str, str]
    dim: int
    max_abs_eig_error: float
    max_rel_eig_error: float
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
                "maxRelEigError": self.max_rel_eig_error,
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


def _match_rel_error(computed: np.ndarray, closed: np.ndarray) -> float:
    """Max |computed - closed| / |closed| in the sorted pairing of
    `_match_error`, taken in absolute terms where closed is an exact
    zero."""
    return float(np.max(np.abs(computed - closed) / np.where(closed == 0.0, 1.0, np.abs(closed))))


def _residual(tri: FloatTridiag, values: np.ndarray, vectors: np.ndarray) -> float:
    """max |T v - lambda v| over the eigenpairs, with T v formed from the
    bands as e[i-1] v[i-1] + d[i] v[i] + e[i] v[i+1], a block of columns
    at a time; nan if any entry is."""
    d = np.asarray(tri.diagonal, dtype=float)[:, None]
    e = np.asarray(tri.offdiagonal, dtype=float)[:, None]
    worst = []
    for j in range(0, tri.dim, _BLOCK):
        v = vectors[:, j:j + _BLOCK]
        av = d * v
        av[:-1] += e * v[1:]
        av[1:] += e * v[:-1]
        av -= v * values[j:j + _BLOCK]
        worst.append(np.abs(av).max())
    return float(np.max(worst))


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
            rel = _match_rel_error(result.values, closed)
            residual = (None if result.vectors is None
                        else _residual(tri, result.values, result.vectors))
            reports.append(BenchReport(selector, shown_params, tri.dim, err, rel,
                                       residual, wall, result.sweeps))
    return reports
