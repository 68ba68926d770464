"""Two-diagonal test matrices with closed-form spectra.

Covers the classic Sylvester-Kac (Clement) matrix, the symmetric
tridiagonal matrix of every implemented doubling case together with its
orthogonal eigenvector matrix, and the integer-friendly non-symmetric forms
of the dual Hahn cases; the odd and even two-parameter Kac extensions are
two of those forms doubled.  A doubling case's matrix takes its squares
from the coefficient products of the case's verified sextet
(`doubles.matrix_squares`), its spectrum from the closed-form eigenvalue
squares.  Spectra are certified exactly: the
characteristic polynomial of a zero-diagonal tridiagonal matrix depends only
on its superdiagonal-subdiagonal products, a fraction-free integer minor
recurrence expands it, and it must equal lambda^z prod(lambda^2 - eps_k^2)
coefficient by coefficient.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .doubles import DoubleCase, case_record, coefficients, even_row_params, matrix_squares
from .exact import RationalLike, ScaledRoot
from .families import (
    DualHahnParams,
    FamilyParams,
    family_norms,
    family_table,
    family_weights,
)


class NegativeProduct(ValueError):
    """A superdiagonal-subdiagonal product is negative; the symmetrized
    matrix would need imaginary entries."""


class InadmissibleParams(ValueError):
    """Parameters put a weight, norm or matrix radicand outside the range
    where real square roots exist."""


class UnsupportedCase(ValueError):
    """No closed matrix construction is implemented for this case."""


# ---------------------------------------------------------------------------
# matrix containers

@dataclass(frozen=True)
class TwoDiagonal:
    """Tridiagonal matrix with zero diagonal, stored by its superdiagonal
    and subdiagonal."""

    sup: Tuple[Fraction, ...]
    sub: Tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.sup) != len(self.sub):
            raise ValueError("superdiagonal and subdiagonal lengths differ")
        object.__setattr__(self, "sup", tuple(Fraction(v) for v in self.sup))
        object.__setattr__(self, "sub", tuple(Fraction(v) for v in self.sub))

    @property
    def dim(self) -> int:
        return len(self.sup) + 1

    def products(self) -> List[Fraction]:
        return [b * c for b, c in zip(self.sup, self.sub)]

    def to_dense(self) -> np.ndarray:
        d = self.dim
        out = np.zeros((d, d))
        for i, (b, c) in enumerate(zip(self.sup, self.sub)):
            out[i, i + 1] = float(b)
            out[i + 1, i] = float(c)
        return out


@dataclass(frozen=True)
class SymTridiag:
    """Symmetric zero-diagonal tridiagonal matrix with offdiagonal entries
    sqrt(square_i) >= 0."""

    offdiagonal: Tuple[ScaledRoot, ...]

    @property
    def dim(self) -> int:
        return len(self.offdiagonal) + 1

    def products(self) -> List[Fraction]:
        return [m.square for m in self.offdiagonal]

    def offdiag_floats(self) -> List[float]:
        return [float(m) for m in self.offdiagonal]

    def to_dense(self) -> np.ndarray:
        d = self.dim
        out = np.zeros((d, d))
        for i, m in enumerate(self.offdiagonal):
            out[i, i + 1] = out[i + 1, i] = float(m)
        return out


@dataclass(frozen=True)
class Spectrum:
    """Closed-form eigenvalue list, sorted ascending, closed under negation."""

    entries: Tuple[ScaledRoot, ...]

    def __post_init__(self):
        ordered = tuple(sorted(self.entries, key=ScaledRoot.signed_square))
        object.__setattr__(self, "entries", ordered)

    @classmethod
    def symmetric(cls, positive_squares: Iterable[RationalLike], zeros: int = 0) -> "Spectrum":
        """Spectrum {+-sqrt(s)} for each listed square plus a number of zeros."""
        entries: List[ScaledRoot] = [ScaledRoot.zero()] * zeros
        for s in positive_squares:
            s = Fraction(s)
            if s <= 0:
                raise InadmissibleParams(f"eigenvalue square {s} is not positive")
            root = ScaledRoot.sqrt(s)
            entries.append(root)
            entries.append(-root)
        return cls(tuple(entries))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def zero_count(self) -> int:
        return sum(1 for e in self.entries if e.sign == 0)

    def positive_squares(self) -> List[Fraction]:
        return [e.radicand for e in self.entries if e.sign > 0]

    def scaled(self, factor: RationalLike) -> "Spectrum":
        f = Fraction(factor)
        if f <= 0:
            raise ValueError("scale factor must be positive")
        return Spectrum(tuple(replace(e, radicand=e.radicand * f * f) for e in self.entries))

    def floats(self) -> List[float]:
        return [float(e) for e in self.entries]

    def is_negation_closed(self) -> bool:
        pos = sorted(self.positive_squares())
        neg = sorted(e.radicand for e in self.entries if e.sign < 0)
        return pos == neg


@dataclass(frozen=True)
class MatrixWithSpectrum:
    label: str
    matrix: TwoDiagonal | SymTridiag
    spectrum: Spectrum


# ---------------------------------------------------------------------------
# characteristic polynomial machinery

def charpoly_from_products(products: Sequence[RationalLike]) -> List[Fraction]:
    """Ascending coefficients of det(lambda I - A) for a zero-diagonal
    tridiagonal A with offdiagonal products q_0, q_1, ...

    The principal minors are p_k = lambda^(k mod 2) P_k(lambda^2), so the
    minor recurrence p_k = lambda p_{k-1} - q_{k-2} p_{k-2} becomes
    P_k = mu^[k even] P_{k-1} - q_{k-2} P_{k-2} on half the coefficients.
    It runs fraction-free (after Bareiss): with q_i = a_i/b_i in lowest
    terms the integer polynomials Q_k = (prod_{i<k-1} b_i) P_k obey
    Q_k = b_{k-2} mu^[k even] Q_{k-1} - a_{k-2} b_{k-3} Q_{k-2}, so no gcd
    is taken in the loop; P is monic, so one division by the leading
    coefficient of the last Q recovers it exactly."""
    prev, cur, b_back = [1], [1], 1  # Q_0, Q_1 and b_{k-3}
    for k, q in enumerate(map(Fraction, products), start=2):
        a, b = q.numerator, q.denominator
        nxt = [0] * (1 - k % 2) + [b * c for c in cur]
        ab = a * b_back
        for i, c in enumerate(prev if a else ()):
            nxt[i] -= ab * c
        prev, cur, b_back = cur, nxt, b
    out = [Fraction(0)] * (len(products) + 2)
    out[(len(products) + 1) % 2::2] = [Fraction(c, cur[-1]) for c in cur]
    return out


def charpoly(m: TwoDiagonal | SymTridiag) -> List[Fraction]:
    return charpoly_from_products(m.products())


def spectrum_poly(zeros: int, squares: Sequence[RationalLike]) -> List[Fraction]:
    """Ascending coefficients of lambda^zeros prod(lambda^2 - s).  The
    products 0, s_0, 0, s_1, ... make a block diagonal of a 1x1 zero and
    2x2 blocks with charpoly lambda^2 - s_k, so the charpoly kernel forms
    the product times lambda."""
    gapped = [x for s in squares for x in (0, s)]
    return [Fraction(0)] * zeros + charpoly_from_products(gapped)[1:]


def verify_spectrum_exact(m: TwoDiagonal | SymTridiag, s: Spectrum) -> bool:
    """True iff charpoly(m) equals lambda^z prod(lambda^2 - eps_k^2) exactly."""
    if m.dim != s.dim or not s.is_negation_closed():
        return False
    return charpoly(m) == spectrum_poly(s.zero_count(), s.positive_squares())


def verify_squares_exact(products: Sequence[RationalLike], zeros: int,
                         squares: Sequence[RationalLike]) -> bool:
    """Charpoly certificate from raw data; works even when squares are
    negative rationals (imaginary-eigenvalue parameter ranges)."""
    return charpoly_from_products(products) == spectrum_poly(zeros, squares)


def symmetrize(m: TwoDiagonal) -> SymTridiag:
    """Offdiagonal sqrt(b_i c_i); the spectrum is unchanged.  Raises
    NegativeProduct when some b_i c_i < 0."""
    off = []
    for i, q in enumerate(m.products()):
        if q < 0:
            raise NegativeProduct(f"product b_{i} c_{i} = {q} < 0")
        off.append(ScaledRoot.sqrt(q))
    return SymTridiag(tuple(off))


def similarity_scale_squares(m: TwoDiagonal) -> List[Fraction]:
    """Squares d_i^2 of the diagonal similarity D with D^-1 A D symmetric:
    d_0 = 1, d_{i+1}/d_i = sqrt(c_i/b_i)."""
    out = [Fraction(1)]
    for b, c in zip(m.sup, m.sub):
        if b == 0:
            raise ZeroDivisionError("superdiagonal entry is zero; no diagonal similarity")
        out.append(out[-1] * c / b)
    return out


# ---------------------------------------------------------------------------
# the classic gallery

def sylvester_kac(N: int) -> MatrixWithSpectrum:
    """Superdiagonal 1..N, subdiagonal N..1, eigenvalues -N, -N+2, ..., N."""
    if N < 1:
        raise ValueError("N must be >= 1")
    mat = TwoDiagonal(tuple(Fraction(k) for k in range(1, N + 1)),
                      tuple(Fraction(k) for k in range(N, 0, -1)))
    entries = tuple(ScaledRoot.of(-N + 2 * k) for k in range(N + 1))
    return MatrixWithSpectrum(f"kac(N={N})", mat, Spectrum(entries))


def extended_kac_odd(N: int, gamma: RationalLike, delta: RationalLike) -> MatrixWithSpectrum:
    """(2N+1)-dimensional two-parameter extension, twice the integer-friendly
    form of the first dual Hahn case at N; eigenvalues
    0, +-2 sqrt(k(gamma+delta+k+1)), k = 1..N."""
    if N < 1:
        raise ValueError("N must be >= 1")
    return integer_form(DoubleCase.DUAL_HAHN_I, DualHahnParams(gamma, delta, N),
                        f"kac-odd(N={N})", 2)


def extended_kac_even(N: int, gamma: RationalLike, delta: RationalLike) -> MatrixWithSpectrum:
    """(2N)-dimensional extension, twice the integer-friendly form of the
    third dual Hahn case at N-1; eigenvalues +-2 sqrt((gamma+k)(delta+k)),
    k = 1..N."""
    if N < 1:
        raise ValueError("N must be >= 1")
    return integer_form(DoubleCase.DUAL_HAHN_III, DualHahnParams(gamma, delta, N - 1),
                        f"kac-even(N={N})", 2)


# ---------------------------------------------------------------------------
# doubling-case matrices

def _require_alpha_cap(case: DoubleCase, params: FamilyParams) -> None:
    """The Racah constructions are written for the alpha degree cap."""
    if getattr(params, "minus_n", "alpha") != "alpha":
        raise UnsupportedCase(
            f"{case.value}: closed matrix form implemented for the alpha degree cap only"
        )


def double_matrix_squares(case: DoubleCase, params: FamilyParams) -> Tuple[int, List[Fraction], List[Fraction]]:
    """(dimension, offdiagonal squares M_k^2 from the sextet, closed-form
    eigenvalue squares with zeros omitted) for a doubling case; purely
    rational, no realness requirement."""
    rec = case_record(case, params)
    if rec.eig_square is None:
        raise UnsupportedCase(f"{case.value}: no closed matrix form in the classification")
    _require_alpha_cap(case, params)
    return rec.dim(params.N), matrix_squares(case, params), rec.eig_squares(params)


def double_matrix(case: DoubleCase, params: FamilyParams) -> MatrixWithSpectrum:
    """The symmetric two-diagonal matrix of a doubling case with its
    closed-form spectrum.  Raises InadmissibleParams when a radicand is
    negative (real entries impossible)."""
    dim, squares, eig_squares = double_matrix_squares(case, params)
    off = []
    for i, q in enumerate(squares):
        if q < 0:
            raise InadmissibleParams(f"offdiagonal square M_{i}^2 = {q} < 0")
        off.append(ScaledRoot.sqrt(q))
    zeros = dim - 2 * len(eig_squares)
    spec = Spectrum.symmetric(eig_squares, zeros=zeros)
    return MatrixWithSpectrum(f"double:{case.value}", SymTridiag(tuple(off)), spec)


def nonsymmetric_entries(case: DoubleCase, params: DualHahnParams) -> TwoDiagonal:
    """The integer-friendly two-diagonal form alone, with no realness
    requirement on the spectrum (entries are always rational)."""
    if case.record.nonsym is None:
        raise UnsupportedCase(f"{case.value}: non-symmetric form given for dual Hahn cases only")
    sup, sub = case_record(case, params).nonsym(params)
    return TwoDiagonal(tuple(sup), tuple(sub))


def integer_form(case: DoubleCase, params: DualHahnParams, label: str,
                 scale: int = 1) -> MatrixWithSpectrum:
    """`scale` times the integer-friendly form of a dual Hahn case, with its
    closed-form spectrum (the case's eigenvalue squares times scale^2)."""
    mat = nonsymmetric_entries(case, params)
    if scale != 1:
        mat = TwoDiagonal(tuple(scale * v for v in mat.sup), tuple(scale * v for v in mat.sub))
    eig_squares = [scale * scale * s for s in case.record.eig_squares(params)]
    spec = Spectrum.symmetric(eig_squares, zeros=mat.dim - 2 * len(eig_squares))
    return MatrixWithSpectrum(label, mat, spec)


def nonsymmetric_form(case: DoubleCase, params: DualHahnParams) -> MatrixWithSpectrum:
    """Integer-friendly two-diagonal forms for the dual Hahn cases; the
    offdiagonal products reproduce the symmetric matrix's squares (for the
    second case after reversal) and hence the same spectrum."""
    return integer_form(case, params, f"nonsym:{case.value}")


# ---------------------------------------------------------------------------
# eigenvector matrices

@dataclass(frozen=True)
class EigvecMatrix:
    """Dense orthogonal eigenvector matrix of a doubling case, exact entries.

    Entries are coef * sqrt(radicand); rows are orthonormal and columns are
    eigenvectors of the case's matrix: M U = U D with D = diag(eigencolumn).
    `floats` is U in floating point, bit for bit the entries converted one
    by one (float(ScaledRoot)); code that fills it alongside the entries
    passes it in, and without it (as after dataclasses.replace) the
    entries are converted here, so the two never disagree.
    """

    case: DoubleCase
    dim: int
    entries: Tuple[Tuple[ScaledRoot, ...], ...]
    eigencolumn: Tuple[ScaledRoot, ...]
    floats: InitVar[np.ndarray | None] = None

    def __post_init__(self, floats: np.ndarray | None):
        if floats is None:
            floats = np.array([[float(e) for e in row] for row in self.entries])
        floats.flags.writeable = False
        object.__setattr__(self, "_floats", floats)

    def to_float(self) -> np.ndarray:
        """U in floating point; read-only."""
        return self._floats

    def d_floats(self) -> np.ndarray:
        return np.array([float(e) for e in self.eigencolumn])


def _positive_tables(fam: FamilyParams) -> Tuple[Tuple[Fraction, ...], Tuple[Fraction, ...]]:
    """The weight and norm tables of a family; raises InadmissibleParams
    unless every entry is positive (real square roots need it)."""
    w, h = family_weights(fam), family_norms(fam)
    if min(w) <= 0 or min(h) <= 0:
        raise InadmissibleParams(f"weight/norm not positive for {fam}")
    return w, h


def _fill_rows(rows: List[list], floats: List[List[float]], first: int,
               table: Iterable[Tuple[int, List[int]]], norms: Sequence[Fraction],
               weights: Sequence[Fraction], cols: Sequence[Tuple[int, int]],
               alternate: bool, negate: bool) -> None:
    """Rows first, first + 2, ... of U from a family's integer value table
    (`families.family_table`): entry (-1)^n y_n(x) sqrt(w(x)/h_n) in both
    columns of x, the (-1)^n only when `alternate`, the negative column
    negated when `negate`.

    The sign goes into Q_n, so each value costs one Fraction(P, Q_n).  The
    radicands w(x)/h_n run down the columns as w(x)/h_{n-1} times the small
    ratio h_{n-1}/h_n, cheaper than dividing the large w(x) and h_n afresh.
    A float entry is (P/Q_n) sqrt(float(r)), which is what float(ScaledRoot)
    computes: the correctly rounded quotient is the same for P/Q_n as for
    the reduced fraction, and an exact zero stays +0.0."""
    rads = [w / norms[0] for w in weights]
    for n, (q, ps) in enumerate(table):
        if n:
            ratio = norms[n - 1] / norms[n]
            rads = [r * ratio for r in rads]
        if alternate and n % 2:
            q = -q
        row, frow = rows[first + 2 * n], floats[first + 2 * n]
        for p, r, (neg, pos) in zip(ps, rads, cols):
            coef = Fraction(p, q)
            f = p / q * math.sqrt(float(r)) if p else 0.0
            row[pos] = e = ScaledRoot(coef, r)
            frow[pos] = f
            if negate:
                row[neg] = ScaledRoot(-coef, r)
                frow[neg] = -f if p else 0.0
            else:
                row[neg], frow[neg] = e, f


@lru_cache(maxsize=4)
def eigvec_matrix(case: DoubleCase, params: FamilyParams) -> EigvecMatrix:
    """The orthogonal eigenvector matrix U of a doubling case, as displayed
    in the corresponding matrix construction.

    Eigenvalue k owns columns N-k (negative root) and N+k (positive root,
    one further right in even dimension); in odd dimension the single
    column N holds the zero eigenvalue k = 0.  Row 2n holds (-1)^n y_n of
    the even-row family at x = k, row 2n+1 its hatted partner at x + xshift
    with opposite signs, scaled by sqrt(w(x) / 2h_n) (w(x) / h_n in the
    single column).  Odd dimension with xshift 0 (second dual Hahn case)
    runs the grid backwards, x = N - k, without the (-1)^n.

    Values come from the fraction-free integer tables of the three-term
    recurrence over the whole grid, weights and norms from their ratio
    recurrences (`families.family_table`, `family_weights`,
    `family_norms`); the float copy of U is filled alongside.  The result
    is immutable and cached, so a caller that rebuilds U for the same case
    and parameters gets the same object back.
    """
    rec = case_record(case, params)
    if rec.u_delta_shift is None:
        raise UnsupportedCase(f"{case.value}: no displayed eigenvector matrix")
    _require_alpha_cap(case, params)
    if rec.dim(params.N) == 1:  # N = 0 of an odd case: no hatted family
        return EigvecMatrix(case, 1, ((ScaledRoot.of(1),),), (ScaledRoot.zero(),), np.ones((1, 1)))
    fam_even = even_row_params(case, params)
    pair = coefficients(case, fam_even)
    fam_odd, xshift = pair.hatted, int(pair.xshift)
    N, dim = params.N, rec.dim(params.N)
    right = 1 if rec.even_dim else 0
    edge = not rec.even_dim and xshift == 0
    w_even, h_even = _positive_tables(fam_even)
    w_odd, h_odd = _positive_tables(fam_odd)
    rows = [[ScaledRoot.zero()] * dim for _ in range(dim)]
    floats = [[0.0] * dim for _ in range(dim)]
    xs = [N - k if edge else k for k in range(N + 1)]
    cols = [(N - k, N + k + right) for k in range(N + 1)]
    lone = 1 - right  # odd dimension: column N (k = 0) has no partner
    ws = [w_even[x] if k < lone else w_even[x] / 2 for k, x in enumerate(xs)]
    _fill_rows(rows, floats, 0, family_table(fam_even, xs), h_even, ws, cols,
               alternate=not edge, negate=False)
    xs = [x + xshift for x in xs[lone:]]
    _fill_rows(rows, floats, 1, family_table(fam_odd, xs), h_odd,
               [w_odd[x] / 2 for x in xs], cols[lone:], alternate=not edge, negate=True)
    dcol = [ScaledRoot.zero()] * dim
    for k in range(lone, N + 1):
        root = ScaledRoot.sqrt(rec.eig_square(params, k))
        dcol[N - k] = -root
        dcol[N + k + right] = root
    return EigvecMatrix(case, dim, tuple(tuple(r) for r in rows), tuple(dcol), np.array(floats))


def orthogonality_residual(u: EigvecMatrix) -> float:
    """max |U^T U - I| in floating point (rows and columns both orthonormal)."""
    m = u.to_float()
    eye = np.eye(u.dim)
    return float(max(np.abs(m.T @ m - eye).max(), np.abs(m @ m.T - eye).max()))


def eigen_residual(case: DoubleCase, params: FamilyParams) -> float:
    """max |M U - U D| in floating point, scaled by max |M| entry.  U comes
    from the cache of `eigvec_matrix` when the caller has just built it, and
    M from the case's squares, entries as in `double_matrix`."""
    u = eigvec_matrix(case, params)
    uf = u.to_float()
    off = np.array([math.sqrt(float(q)) for q in matrix_squares(case, params)], dtype=float)
    m = np.diag(off, 1) + np.diag(off, -1)
    res = np.abs(m @ uf - uf * u.d_floats()[None, :]).max()
    scale = max(np.abs(m).max(), 1.0)
    return float(res / scale)
