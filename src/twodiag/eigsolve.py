"""Floating-point eigensolver for zero-diagonal symmetric tridiagonal
matrices and the benchmark harness that pits it against the closed-form
spectra of the test-matrix gallery.

Every gallery matrix is zero-diagonal, and so a permuted Golub-Kahan form:
its eigenvalues are the +-singular values of a lower bidiagonal B of half
the order (Golub & Kahan 1965).  They are found by bisection on the squares
of B's entries, counting the negative pivots of B B^T - tau I through the
differential stationary qd recurrence (dstqds), which keeps high relative
accuracy (Demmel & Kahan 1990); the product of those pivots is
det(B B^T - tau I), which the count returns as well.  All values are
bracketed together, vectorised over numpy arrays, and each pass cuts each
distinct open interval into 2^b parts, b >= 2 as large as 3 dim/2 shifts
allow.  An interval that holds one value, whose secant root on the
determinant the divided differences of three cuts predict well, gets that
root's ladder of cuts (a bracketed secant, as in Brent 1973); every other
interval is split on the bit patterns of its floats.  Counts alone choose
the brackets, and every pass cuts each interval at its pattern midpoint,
so a pass at least halves every open interval's count of floats; once
apart, a value gains about twice its bits a pass, and the gallery takes
11-12 passes at dimension 1000 where uniform splitting took 25-26.
O(dim^2) work and O(dim) memory.

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
from contextlib import contextmanager
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .doubles import MATRIX_CASES, NONSYM_CASES, DoubleCase
from .families import RacahParams
from .matrices import (
    InadmissibleParams,
    MatrixWithSpectrum,
    TwoDiagonal,
    double_matrix,
    extended_kac_even,
    extended_kac_odd,
    nonnegative_squares,
    nonsymmetric_form,
    sqrt_floats,
    sylvester_kac,
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
    """`sweeps` counts bisection passes, each of which cuts each distinct
    open interval into 2^b parts, b >= 2: around a predicted secant root
    where the interval holds one value, else on the bit patterns of its
    floats, and always at its pattern midpoint, so that every open
    interval at least halves; it and `values` do not depend on whether
    vectors were asked for."""

    values: np.ndarray
    vectors: Optional[np.ndarray]
    sweeps: int


# The bit pattern of 1.0, the upper end of every value's first interval.
# Every pass at least halves every open interval's count of floats, of
# which [0, 1) holds fewer than 2**62, so 62 passes close every interval
# and the cap only guards the loop.
_ONE = np.float64(1.0).view(np.uint64)
_MAX_PASSES = int(_ONE - 1).bit_length()
_EPS = float(np.finfo(float).eps)
# the binary exponent frexp gives the smallest normal float
_FREXP_MIN = np.frexp(np.finfo(float).tiny)[1]
# |pivot| floor of a rerun count and of the twisted factorisations, for
# entries scaled below 1/2
_PIVMIN = _EPS ** 2


def _count_below(q: np.ndarray, e: np.ndarray, tau: np.ndarray, pivmin: Optional[float] = None
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each shift tau, the number of eigenvalues of B B^T = L D L^T
    below tau, where L D L^T has pivots q and l_i^2 d_i = e_i: the number
    of negative pivots of L D L^T - tau I, from the dstqds recurrence
    D_i = q_i + s_i, s_{i+1} = e_i s_i / D_i - tau, s_0 = -tau.

    Shifts whose s stops being finite (a pivot vanished) are counted again
    with every |D_i| < pivmin taken as -pivmin, as LAPACK does.  The pivots
    go into the rows of a block, whose negatives are counted once it is
    full: four numpy calls per row.  Memory is the block and a few rows the
    length of tau.

    With the counts come the products of the pivots, det(L D L^T - tau I),
    as a float mantissa and an intc binary exponent: one product over each
    block's rows and one frexp.  The mantissa is nan where a running
    product fell below the normal floats or to zero, and so lost digits,
    and inf where it overflowed."""
    s = -tau
    block = np.empty((min(_COUNT_ROWS, len(q)), len(tau)))
    # the signs of the block's pivots, and a last row for their sum
    negative = np.empty((len(block) + 1, len(tau)), dtype=bool)
    tally = negative[-1].view(np.uint8)
    count = np.zeros(tau.shape, dtype=np.intp)
    mantissa, exponent = np.ones(len(tau)), np.zeros(len(tau), dtype=np.intc)
    product, scale = np.empty(len(tau)), np.empty(len(tau), dtype=np.intc)
    # the ufuncs bound locally and `out` passed positionally: the row loop
    # is call overhead
    add, divide, multiply, subtract = np.add, np.divide, np.multiply, np.subtract
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        for start in range(0, len(q), _COUNT_ROWS):
            d = block[:len(q) - start]
            for di, qi, ei in zip(d, q[start:start + _COUNT_ROWS].tolist(),
                                  e[start:start + _COUNT_ROWS].tolist()):
                add(s, qi, di)
                if pivmin is not None:
                    np.copyto(di, -pivmin, where=np.abs(di) < pivmin)
                divide(s, di, s)
                multiply(s, ei, s)
                subtract(s, tau, s)
            # a bytewise sum, exact below 256 rows, is the fast reduction
            signs = np.less(d, 0, out=negative[:len(d)])
            count += signs.view(np.uint8).sum(axis=0, dtype=np.uint8, out=tally)
            multiply(mantissa, multiply.reduce(d, axis=0, out=product), mantissa)
            np.frexp(mantissa, mantissa, scale)
            exponent += scale
            # a product below the normal floats has lost digits; nan then
            # stays
            if scale.min() < _FREXP_MIN:
                mantissa[scale < _FREXP_MIN] = np.nan
    # so has a product that fell to zero (a zero pivot sends its shift to
    # the rerun); the masks are made only where a minimum, a test for zeros
    # or a sum (inf or nan once one term is) says so
    if not mantissa.all():
        mantissa[mantissa == 0.0] = np.nan
    if pivmin is None and not math.isfinite(s.sum()):
        vanished = ~np.isfinite(s)
        if vanished.any():
            count[vanished], mantissa[vanished], exponent[vanished] = _count_below(
                q, e, tau[vanished], _PIVMIN)
    return count, mantissa, exponent


def _secant(points: np.ndarray, dets: np.ndarray, scales: np.ndarray,
            alone: np.ndarray) -> np.ndarray:
    """For each value, the secant root xhat of f(x) = det(B B^T - x I) on
    its interval [x0, x1] and what `_ladder` places around it: the rows
    xhat, eps, (xhat - x0) / eps and (x1 - xhat) / eps.  eps, the
    distance within which xhat predicts the root, is nan where it
    predicts nothing.

    The columns of points hold each value's interval ends x0, x1 and a
    third cut x2 beside them (bit patterns), f at each being
    dets * 2^scales.  The secant root misses by about
    eps = C (xhat - x0)(x1 - xhat), and at least by an ulp, where
    C = |f[x0, x1, x2] / f[x0, x1]| estimates |f''/2f'|.  The prediction
    stands for a value alone in its interval where f changes sign across
    it, eps < w/8, w the interval's width, and C w < 1/4, so that it
    would stand wherever xhat fell: near the root rounding leaves f
    flat, the divided differences say so, and the interval is split on
    its floats again."""
    x = points.view(float)
    with np.errstate(all="ignore"):
        f = np.ldexp(dets, scales - scales[0])
        width = x[1] - x[0]
        slope = (f[1] - f[0]) / width
        curvature = np.abs(((f[2] - f[1]) / (x[2] - x[1]) - slope) / (x[2] - x[0]) / slope)
        xhat = x[0] - f[0] / slope
        eps = np.maximum(curvature * (xhat - x[0]) * (x[1] - xhat), np.spacing(xhat))
        good = alone & (f[0] * f[1] < 0) & (eps < width / 8) & (curvature * width < 0.25)
        eps[~good] = np.nan
        return np.stack((xhat, eps, (xhat - x[0]) / eps, (x[1] - xhat) / eps))


def _ladder(cuts: np.ndarray, secant: np.ndarray) -> np.ndarray:
    """The inner cuts of each row of cuts (bit patterns, 2^b + 1 a row,
    ends included) around the secant root of its column of secant, rows
    as `_secant` makes them: a geometric ladder xhat +- eps r^j,
    j < 2^(b-1) - 1, out to the row's ends, and the row's middle cut, the
    pattern midpoint, which keeps every part within one half of the
    row's floats; sorted."""
    xl, xh = cuts[:, :1].view(float), cuts[:, -1:].view(float)
    xhat, eps, below, above = secant[:, :, None]
    rungs = cuts.shape[1] // 2 - 1
    powers = np.arange(rungs) / rungs
    ladder = np.empty((len(cuts), 2 * rungs + 1))
    lower, upper = ladder[:, :rungs], ladder[:, rungs + 1:]
    with np.errstate(all="ignore"):
        np.power(below, powers[::-1], out=lower)
        lower *= eps
        np.subtract(xhat, lower, out=lower)
        np.power(above, powers, out=upper)
        upper *= eps
        upper += xhat
    # into the row, a nan rung onto its upper end
    np.fmax(np.fmin(ladder, xh, out=ladder), xl, out=ladder)
    ladder[:, rungs] = cuts[:, rungs + 1].view(float)
    ladder = ladder.view(np.uint64)
    ladder.sort(axis=1)
    return ladder


def _cuts(points: np.ndarray, dets: np.ndarray, scales: np.ndarray,
          first: np.ndarray, last: np.ndarray, b: int) -> np.ndarray:
    """The 2^b + 1 cuts, ends included, of each open interval (bit
    patterns, a row each), whose first and last values are marked: by
    `_ladder` where it holds one value whose root `_secant` predicts, else
    lo + floor(gap k / 2^b), computed without overflow from one gather of
    three per-value rows at the first values."""
    lo, hi = points[0], points[1]
    gap = hi - lo
    one = np.flatnonzero(first)
    low, step, rest = np.stack((lo, gap >> b, gap & ((1 << b) - 1)))[:, one, None]
    k = np.arange((1 << b) + 1, dtype=np.uint64)
    cuts = low + step * k + (rest * k >> b)
    secant = _secant(points, dets, scales, first & last)[:, one]
    # a mask the length of the values, the intervals' in front: masks sized
    # by the intervals would each leave numpy a cached buffer of their size
    predicted = np.greater(secant[1], 0, out=np.empty(len(lo), dtype=bool)[:len(one)])
    if predicted.any():
        np.copyto(cuts[:, 1:-1], _ladder(cuts, secant), where=predicted[:, None])
    return cuts


def _split(q: np.ndarray, e: np.ndarray, open_: np.ndarray, target: np.ndarray,
           points: np.ndarray, dets: np.ndarray, scales: np.ndarray) -> None:
    """One pass of `_zero_diagonal_values`, which updates the columns of
    points, dets and scales of the open values (a mask) in place.

    The intervals ascend with the values, and values in the same interval
    share its ends, so each interval's values are a run.  Each distinct
    open interval is cut into 2^b parts (`_cuts`), b as large as 3 half
    shifts allow, so b >= 2 with at most half intervals.  Counts choose
    each value's part, whose ends and a cut beside them are the value's
    new points.  Every per-value array spans all the values, the closed
    ones too, whose columns are kept."""
    lo = points[0]
    # the first and the last value of each open interval
    differ = lo[1:] != lo[:-1]
    first, last = open_.copy(), open_.copy()
    first[1:] &= differ
    last[:-1] &= differ
    # each value's interval, by the first values up to it
    row = np.cumsum(first)
    row -= 1
    intervals = int(row[-1]) + 1
    b = (3 * len(lo) // intervals + 1).bit_length() - 1
    shifts = (1 << b) - 1
    cuts = _cuts(points, dets, scales, first, last, b)
    count, cut_dets, cut_scales = _count_below(q, e, cuts[:, 1:-1].view(float).ravel())
    # the part whose ends' counts bracket the target, by one search: an
    # offset of len(q) + 1 per interval keeps each one's counts apart; a
    # closed value's part, which is not used, is clipped into its row
    offset = np.arange(0, len(lo) * (len(q) + 1), len(q) + 1)
    count = count.reshape(intervals, shifts)
    count += offset[:intervals, None]
    part = np.searchsorted(count.ravel(), offset[row] + target, side="right")
    part -= row * shifts
    np.clip(part, 0, shifts, out=part)
    # the part's ends, and the cut left of it, or right of it in part 0;
    # their dets from the count, or at the interval's ends the value's own
    column = part + np.array([[0], [1], [-1]])
    column[2, part == 0] = 2
    at = row * shifts + column - 1
    np.clip(at, 0, len(cut_dets) - 1, out=at)
    mantissa, exponent = cut_dets[at], cut_scales[at]
    for end, cut in ((0, 0), (1, shifts + 1)):
        np.copyto(mantissa, dets[end], where=column == cut)
        np.copyto(exponent, scales[end], where=column == cut)
    column += row * (shifts + 2)
    np.copyto(points, cuts.ravel()[column], where=open_)
    np.copyto(dets, mantissa, where=open_)
    np.copyto(scales, exponent, where=open_)


def _zero_diagonal_values(m: FloatTridiag) -> EigenResult:
    """Eigenvalues of a zero-diagonal m, which is a permuted Golub-Kahan
    form [[0, B], [B^T, 0]] with B lower bidiagonal, B[(k+1)//2, k//2] =
    off[k]: the values are +-sigma(B), and an exact 0 when the dimension
    is odd, where B is padded with one zero entry.  The squares sigma^2 are
    bracketed all at once, by counts alone, until no float lies strictly
    inside any interval (`_split`, once a pass).  Rounded counts are not
    monotone within a few ulps of a value (3, 3, 3, 4, 3, 4, 4 at
    consecutive floats), so there the cut points decide which float is
    returned, and other cuts may move such a value by an ulp."""
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
    # each value's interval ends and a third cut beside them, as bit
    # patterns of floats: [0, 1) holds every value, since ||B||^2 <=
    # (max|diagonal| + max|subdiagonal|)^2 < 1; and det(B B^T - x I) at the
    # three, as mantissa (nan: not known) and binary exponent
    points = np.zeros((3, half), dtype=np.uint64)
    points[1] = _ONE
    lo, hi = points[0], points[1]
    dets = np.full((3, half), np.nan)
    scales = np.zeros((3, half), dtype=np.intc)
    # the index of each value among the eigenvalues of B B^T; for odd n the
    # smallest, the padding's exact zero, is not bisected
    target = np.arange(n % 2, n % 2 + half)
    passes = 0
    while True:
        open_ = hi - lo > 1
        if not open_.any():
            break
        if passes == _MAX_PASSES:
            raise NoConvergence(n - half + int(np.argmax(open_)), m)
        passes += 1
        _split(q, e, open_, target, points, dets, scales)
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
# rows of the count's pivot block: 0.32 MiB at 3 * 500 shifts, 0.04 MiB
# more for its signs
_COUNT_ROWS = 28


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
    # the exact build and the float conversion, timed once per dimension
    build_ns: int
    convert_ns: int

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
                "buildNanoseconds": self.build_ns,
                "convertNanoseconds": self.convert_ns,
                "sweeps": self.sweeps,
            }
        )


class _Selector(NamedTuple):
    """A gallery selector: the `matrices` builder it calls, and the
    doubling case whose parameters it takes, at N - n_shift (none for kac)."""

    build: Callable[..., MatrixWithSpectrum]
    case: Optional[DoubleCase] = None
    n_shift: int = 0

    def family_params(self, n: int, merged: Dict[str, Fraction]):
        """The family parameters of the selector's doubling case at n."""
        N = n - self.n_shift
        if self.case.family is RacahParams:
            return RacahParams(Fraction(-N - 1), minus_n="alpha", **merged)
        return self.case.family(N=N, **merged)


# kac-odd at N is twice nonsym:DualHahnI at N, kac-even twice
# nonsym:DualHahnIII at N-1
_SELECTORS: Dict[str, _Selector] = {
    "kac": _Selector(sylvester_kac),
    "kac-odd": _Selector(extended_kac_odd, DoubleCase.DUAL_HAHN_I),
    "kac-even": _Selector(extended_kac_even, DoubleCase.DUAL_HAHN_III, n_shift=1),
    **{f"double:{c.value}": _Selector(double_matrix, c) for c in MATRIX_CASES},
    **{f"nonsym:{c.value}": _Selector(nonsymmetric_form, c) for c in NONSYM_CASES},
}

FAMILY_CHOICES = list(_SELECTORS)


def _selector(name: str) -> _Selector:
    if name not in _SELECTORS:
        raise ValueError(f"unknown family {name!r}; choose from {', '.join(FAMILY_CHOICES)}")
    return _SELECTORS[name]


def _dim_to_n(selector: str, dim: int) -> int:
    """Map a requested matrix dimension to the family's size parameter."""
    if dim < 2:
        raise ValueError("dimension must be >= 2")
    sel = _selector(selector)
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
    case = _selector(selector).case
    merged = dict(case.record.defaults) if case else {}
    for name, value in (params or {}).items():
        if name not in merged:
            raise ValueError(f"{selector} takes no --{name} "
                             f"(it takes: {', '.join(merged) or 'none'})")
        merged[name] = value
    if "beta" in merged and merged["beta"] is None:
        merged["beta"] = n + merged["gamma"] + 2
    return merged


@contextmanager
def _reported(selector: str, n: int, merged: Dict[str, Fraction]):
    """Report a vanishing denominator or an inadmissible parameter with the
    selector, n and every parameter in use, the Racah alpha too."""
    try:
        yield
    except (ZeroDivisionError, InadmissibleParams) as exc:
        fam = _SELECTORS[selector].family_params(n, merged)
        used = ", ".join(f"{f.name}={getattr(fam, f.name)}" for f in fields(fam)
                         if f.name not in ("N", "minus_n"))
        what = str(exc) if isinstance(exc, InadmissibleParams) else "a denominator vanishes"
        raise type(exc)(f"{selector} -N {n} with {used}: {what}") from exc


def build_gallery_matrix(selector: str, n: int,
                         params: Optional[Dict[str, Fraction]] = None) -> MatrixWithSpectrum:
    """Construct the (matrix, spectrum) bundle for a family selector at size
    parameter n with the parameters `gallery_params` settles on, through
    its builder: the case builders take the case and its family parameters,
    the Kac matrices N and their parameters.  Errors are `_reported`."""
    merged = gallery_params(selector, n, params)
    sel = _SELECTORS[selector]
    with _reported(selector, n, merged):
        if sel.build in (double_matrix, nonsymmetric_form):
            return sel.build(sel.case, sel.family_params(n, merged))
        return sel.build(n, **merged)


def to_float_tridiag(m: MatrixWithSpectrum) -> FloatTridiag:
    """The real symmetric twin: offdiagonal sqrt(q_i) by `sqrt_floats`,
    straight from the squares q_i, which are the products b_i c_i of an
    integer form.  Raises NegativeProduct when some b_i c_i < 0."""
    squares = m.matrix.products()
    if isinstance(m.matrix, TwoDiagonal):
        nonnegative_squares(squares)
    return FloatTridiag((0.0,) * m.matrix.dim, tuple(sqrt_floats(squares)))


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
    spectrum.  One report per (dimension, repetition), with the build and
    conversion timed once per dimension."""
    reports: List[BenchReport] = []
    if repetitions <= 0:
        return reports
    for dim in dims:
        n = _dim_to_n(selector, dim)
        merged = gallery_params(selector, n, params)
        t0 = time.perf_counter_ns()
        bundle = build_gallery_matrix(selector, n, params)
        t1 = time.perf_counter_ns()
        # an integer form may have a real spectrum but no real symmetric twin
        with _reported(selector, n, merged):
            tri = to_float_tridiag(bundle)
        build_ns, convert_ns = t1 - t0, time.perf_counter_ns() - t1
        closed = np.sort(np.array(bundle.spectrum.floats()))
        shown_params = {k: str(v) for k, v in merged.items()}
        for _ in range(repetitions):
            t0 = time.perf_counter_ns()
            result = sym_tridiag_eigen(tri, want_vectors=want_vectors)
            wall = time.perf_counter_ns() - t0
            err = _match_error(result.values, closed)
            rel = _match_rel_error(result.values, closed)
            residual = (None if result.vectors is None
                        else _residual(tri, result.values, result.vectors))
            reports.append(BenchReport(selector, shown_params, tri.dim, err, rel,
                                       residual, wall, result.sweeps, build_ns, convert_ns))
    return reports
