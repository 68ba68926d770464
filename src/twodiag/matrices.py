"""Two-diagonal test matrices with closed-form spectra.

One builder per gallery matrix, each called by a gallery selector of
`eigsolve`: `sylvester_kac` (the Sylvester-Kac or Clement matrix),
`extended_kac_odd` and `extended_kac_even` (the two-parameter extensions,
twice the integer forms of the first and third dual Hahn cases),
`double_matrix` (a doubling case's symmetric matrix, its squares from the
case's verified sextet, `doubles.matrix_squares`) and `nonsymmetric_form`
(a dual Hahn case's integer-friendly form).  Each carries its closed-form
spectrum from `case_spectrum`, its squares the gaps Lam(x) - Lam(nu) of
the case's kernel transform (`doubles.eig_squares`), and
`SymTridiag.from_squares` is the one place exact squares become real
symmetric entries.  A `Spectrum` is held as its zero count and its
ascending positive squares s, the eigenvalues +-sqrt(s); the builders hand
those over directly, and the `ScaledRoot` entries are made only when read.
Spectra are certified exactly and in integers: the characteristic
polynomial of a zero-diagonal tridiagonal matrix depends only on its
superdiagonal-subdiagonal products, a fraction-free minor recurrence
expands it as D P(mu) in mu = lambda^2, the squares a_k/b_k expand as
prod(b_k mu - a_k), and the two integer polynomials must agree once each
is multiplied by the other's leading coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .doubles import (DoubleCase, case_record, coefficients, eig_squares, even_row_params,
                      matrix_squares)
from .exact import RationalLike, ScaledRoot, root_floats, scaled_root_floats
from .families import (
    DualHahnParams,
    FamilyParams,
    family_norms,
    family_table,
    family_weights,
)


class InadmissibleParams(ValueError):
    """Parameters put a weight, norm or matrix radicand outside the range
    where real square roots exist."""


class NegativeProduct(InadmissibleParams):
    """An offdiagonal square (a superdiagonal-subdiagonal product) is
    negative; the symmetric matrix would need imaginary entries."""


class UnsupportedCase(ValueError):
    """No closed matrix construction is implemented for this case."""


# ---------------------------------------------------------------------------
# matrix containers

def _fractions(values: Iterable[RationalLike]) -> Tuple[Fraction, ...]:
    return tuple(v if type(v) is Fraction else Fraction(v) for v in values)


@dataclass(frozen=True)
class TwoDiagonal:
    """Tridiagonal matrix with zero diagonal, stored by its superdiagonal
    and subdiagonal."""

    sup: Tuple[Fraction, ...]
    sub: Tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.sup) != len(self.sub):
            raise ValueError("superdiagonal and subdiagonal lengths differ")
        object.__setattr__(self, "sup", _fractions(self.sup))
        object.__setattr__(self, "sub", _fractions(self.sub))

    @property
    def dim(self) -> int:
        return len(self.sup) + 1

    def products(self) -> List[Fraction]:
        return [b * c for b, c in zip(self.sup, self.sub)]


def nonnegative_squares(squares: Iterable[RationalLike]) -> List[RationalLike]:
    """The offdiagonal squares q_i as a list.  Raises NegativeProduct,
    naming the first q_i < 0, since its entry sqrt(q_i) would not be real."""
    out = list(squares)
    for i, q in enumerate(out):
        if q < 0:
            raise NegativeProduct(f"offdiagonal square M_{i}^2 = {q} < 0")
    return out


def sqrt_floats(squares: Sequence[RationalLike]) -> List[float]:
    """The floats of sqrt(q) for the squares q >= 0, by `root_floats`."""
    ones = [1] * len(squares)
    return root_floats(ones, ones, [q.numerator for q in squares],
                       [q.denominator for q in squares]).tolist()


@dataclass(frozen=True)
class SymTridiag:
    """Symmetric zero-diagonal tridiagonal matrix with offdiagonal entries
    sqrt(square_i) >= 0."""

    offdiagonal: Tuple[ScaledRoot, ...]

    @classmethod
    def from_squares(cls, squares: Iterable[RationalLike]) -> "SymTridiag":
        """Offdiagonal sqrt(q_i) from exact squares q_i, the one place a
        gallery matrix's squares become real entries.  Raises
        NegativeProduct when some q_i < 0."""
        return cls(tuple(ScaledRoot.sqrt(q) for q in nonnegative_squares(squares)))

    @property
    def dim(self) -> int:
        return len(self.offdiagonal) + 1

    def products(self) -> List[Fraction]:
        return [m.square for m in self.offdiagonal]

    def offdiag_floats(self) -> List[float]:
        return scaled_root_floats(self.offdiagonal).tolist()


@dataclass(frozen=True, init=False)
class Spectrum:
    """Closed-form eigenvalue list closed under negation: `zeros` zero
    eigenvalues and +-sqrt(s) for each of the ascending positive `squares`.

    `Spectrum(entries)` takes ScaledRoots in any order, reads the zero count
    and the squares off them once and raises ValueError unless the negative
    entries mirror the positive ones.  The builders hand the count and the
    squares over directly (`of_squares`).  `entries`, the ScaledRoots in
    ascending order, is built on first read.
    """

    zeros: int
    squares: Tuple[Fraction, ...]

    def __init__(self, entries: Iterable[ScaledRoot]):
        zeros, plus, minus = 0, [], []
        for e in entries:
            sign = e.sign
            if sign:
                (plus if sign > 0 else minus).append(e.square)
            else:
                zeros += 1
        plus.sort()
        if plus != sorted(minus):
            raise ValueError("spectrum entries are not closed under negation")
        object.__setattr__(self, "zeros", zeros)
        object.__setattr__(self, "squares", tuple(plus))

    @classmethod
    def of_squares(cls, zeros: int, squares: Iterable[Fraction]) -> "Spectrum":
        """`zeros` zeros and +-sqrt(s) for s in `squares`, which the caller
        gives positive and ascending."""
        spectrum = cls.__new__(cls)
        object.__setattr__(spectrum, "zeros", zeros)
        object.__setattr__(spectrum, "squares", tuple(squares))
        return spectrum

    @property
    def dim(self) -> int:
        return self.zeros + 2 * len(self.squares)

    @cached_property
    def entries(self) -> Tuple[ScaledRoot, ...]:
        roots = [ScaledRoot.sqrt(s) for s in self.squares]
        return (*(-r for r in reversed(roots)), *[ScaledRoot.zero()] * self.zeros, *roots)

    def floats(self) -> List[float]:
        """The entries' floats, ascending: -+sqrt(s) by `sqrt_floats`, +0.0 for a zero."""
        roots = sqrt_floats(self.squares)
        return [-r for r in reversed(roots)] + [0.0] * self.zeros + roots


@dataclass(frozen=True)
class MatrixWithSpectrum:
    label: str
    matrix: TwoDiagonal | SymTridiag
    spectrum: Spectrum


# ---------------------------------------------------------------------------
# characteristic polynomial machinery

def _minor_recurrence(products: Sequence[RationalLike]) -> Tuple[List[int], int]:
    """Integer coefficients, ascending in mu = lambda^2, of D P(mu) and the
    leading one D, where det(lambda I - A) = lambda^(dim mod 2) P(lambda^2)
    for a zero-diagonal tridiagonal A with offdiagonal products q_0, q_1, ...

    The principal minors are p_k = lambda^(k mod 2) P_k(lambda^2), so the
    minor recurrence p_k = lambda p_{k-1} - q_{k-2} p_{k-2} becomes
    P_k = mu^[k even] P_{k-1} - q_{k-2} P_{k-2} on half the coefficients.
    It runs fraction-free (after Bareiss): with q_i = a_i/b_i in lowest
    terms, D_0 = D_1 = 1 and D_k = lcm(D_{k-1}, b_{k-2} D_{k-2}), the
    integer polynomials Q_k = D_k P_k obey
    Q_k = (D_k/D_{k-1}) mu^[k even] Q_{k-1} - a_{k-2} (D_k/(b_{k-2} D_{k-2})) Q_{k-2},
    so only the denominators meet a gcd in the loop; P is monic, so D is
    the last Q's leading coefficient."""
    prev, cur = [1], [1]  # Q_{k-2}, Q_{k-1}
    d_prev = d_cur = 1  # D_{k-2}, D_{k-1}
    for k, q in enumerate(products, start=2):
        a, b = q.numerator, q.denominator
        d_back = b * d_prev
        d_next = math.lcm(d_cur, d_back)
        up = d_next // d_cur
        ab = a * (d_next // d_back)
        # Q_{k-2} is one shorter than mu^[k even] Q_{k-1}, whose top term
        # stands alone
        high = [0, *cur] if k % 2 == 0 else cur
        nxt = [up * h - ab * low for h, low in zip(high, prev)]
        nxt.append(up * cur[-1])
        prev, cur, d_prev, d_cur = cur, nxt, d_cur, d_next
    return cur, d_cur


def _linear_factors(squares: Sequence[RationalLike]) -> Tuple[List[int], int]:
    """Integer coefficients, ascending in mu, of prod(b_k mu - a_k) over the
    squares a_k/b_k in lowest terms, and the leading one prod b_k."""
    poly, lead = [1], 1
    for s in squares:
        a, b = s.numerator, s.denominator
        poly = [b * high - a * low for low, high in zip([*poly, 0], [0, *poly])]
        lead *= b
    return poly, lead


def charpoly(m: TwoDiagonal | SymTridiag) -> List[Fraction]:
    """Ascending coefficients of det(lambda I - m): those of
    `_minor_recurrence` of m's products, each divided by the leading one."""
    products = m.products()
    coeffs, lead = _minor_recurrence(products)
    out = [Fraction(0)] * (len(products) + 2)
    out[(len(products) + 1) % 2::2] = [Fraction(c, lead) for c in coeffs]
    return out


def verify_spectrum_exact(m: TwoDiagonal | SymTridiag, s: Spectrum) -> bool:
    """True iff charpoly(m) equals lambda^z prod(lambda^2 - s_k) exactly,
    for the zero count z and the squares s_k of the spectrum."""
    return verify_squares_exact(m.products(), s.zeros, s.squares)


def verify_squares_exact(products: Sequence[RationalLike], zeros: int,
                         squares: Sequence[RationalLike]) -> bool:
    """Charpoly certificate from raw data, in integers; works even when
    squares are negative rationals (imaginary-eigenvalue parameter ranges).

    The dimensions must agree, len(products) + 1 = zeros + 2 len(squares),
    which fixes the parity of the zero count; the zero left over by an odd
    count is the factor lambda^(dim mod 2) of both sides, and each further
    pair a factor mu = lambda^2, a shift of the coefficients in mu.  Then
    D P(mu) from `_minor_recurrence` and mu^(zeros // 2) prod(b_k mu - a_k)
    from `_linear_factors`, each times the other's leading coefficient,
    must agree coefficient by coefficient."""
    if zeros < 0 or len(products) + 1 != zeros + 2 * len(squares):
        return False
    q, d = _minor_recurrence(products)
    r, b = _linear_factors(squares)
    shift = zeros // 2
    return not any(q[:shift]) and all(x * b == y * d for x, y in zip(q[shift:], r))


def symmetrize(m: TwoDiagonal) -> SymTridiag:
    """Offdiagonal sqrt(b_i c_i); the spectrum is unchanged.  Raises
    NegativeProduct when some b_i c_i < 0."""
    return SymTridiag.from_squares(m.products())


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
    squares = (Fraction(v * v) for v in range(2 - N % 2, N + 1, 2))
    return MatrixWithSpectrum(f"kac(N={N})", mat, Spectrum.of_squares(1 - N % 2, squares))


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


def case_spectrum(case: DoubleCase, params: FamilyParams, scale: int = 1) -> Spectrum:
    """The case's closed-form spectrum times `scale`: +-scale sqrt(s) for each
    s in `doubles.eig_squares` and the zero of odd dimension; the first s <= 0
    in x order raises.  The squares run up or down in x and are sorted
    once."""
    squares = eig_squares(case, params)
    if scale != 1:
        squares = [scale * scale * s for s in squares]
    for s in squares:
        if s.numerator <= 0:  # the sign of an int or Fraction
            raise InadmissibleParams(f"eigenvalue square {s} is not positive")
    zeros = case_record(case, params).dim(params.N) - 2 * len(squares)
    return Spectrum.of_squares(zeros, sorted(squares))


def double_matrix(case: DoubleCase, params: FamilyParams) -> MatrixWithSpectrum:
    """The symmetric two-diagonal matrix of a doubling case, its squares
    from the sextet (`doubles.matrix_squares`), with its closed-form
    spectrum.  Raises InadmissibleParams when a square or an eigenvalue
    square is negative (real entries impossible)."""
    if case_record(case, params).defaults is None:  # the cases with a matrix have defaults
        raise UnsupportedCase(f"{case.value}: no closed matrix form in the classification")
    _require_alpha_cap(case, params)
    mat = SymTridiag.from_squares(matrix_squares(case, params))
    return MatrixWithSpectrum(f"double:{case.value}", mat, case_spectrum(case, params))


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
    closed-form spectrum scaled alike."""
    mat = nonsymmetric_entries(case, params)
    if scale != 1:
        mat = TwoDiagonal(tuple(scale * v for v in mat.sup), tuple(scale * v for v in mat.sub))
    return MatrixWithSpectrum(label, mat, case_spectrum(case, params, scale))


def nonsymmetric_form(case: DoubleCase, params: DualHahnParams) -> MatrixWithSpectrum:
    """Integer-friendly two-diagonal forms for the dual Hahn cases; the
    offdiagonal products reproduce the symmetric matrix's squares (for the
    second case after reversal) and hence the same spectrum."""
    return integer_form(case, params, f"nonsym:{case.value}")


# ---------------------------------------------------------------------------
# eigenvector matrices

@dataclass(frozen=True)
class EigvecTables:
    """A doubling case's eigenvector matrix U as integers and two root scales.

    Entry (r, c) is sign * P/Q * sqrt(rho * kappa) (Golub & Welsch, Math.
    Comp. 23 (1969): orthonormal polynomial values times the roots of the
    weights).  Row r holds one integer row (Q, P at the grid points k = 0..N)
    of `families.family_table`, the even-row family's row n at r = 2n and
    the hatted family's at r = 2n + 1, with Q carrying the row's sign;
    rho = 1/h_n is its row scale.  Column c reads grid point `grid[c]` and
    the column scale kappa = w(x)/2 there (w(x) in the lone column of odd
    dimension), of the even-row family on even rows and of the hatted
    family on odd rows; the hatted rows hold P = 0 and kappa = 0 at the
    lone grid point, where U is zero.  The two columns of a grid point
    differ only in `parity`, the sign of their odd rows.
    """

    q: Tuple[int, ...]
    p: Tuple[Tuple[int, ...], ...]
    rho: Tuple[Fraction, ...]
    kappa: Tuple[Tuple[Fraction, ...], Tuple[Fraction, ...]]
    grid: Tuple[int, ...]
    parity: Tuple[int, ...]

    def to_float(self) -> np.ndarray:
        """U in floating point: `root_floats` of P/Q and rho * kappa per row
        and grid point, from their integers, with no Fraction per entry; then
        the column map and the parity signs, after which a zero is +0.0."""
        top = [p for ps in self.p for p in ps]
        bottom = [q for q, ps in zip(self.q, self.p) for _ in ps]
        # the radicands' large integers are made one at a time, as read
        kappa = [[(k.numerator, k.denominator) for k in ks] for ks in self.kappa]
        rads = [(rho.numerator, rho.denominator, kappa[r % 2]) for r, rho in enumerate(self.rho)]
        u = root_floats(top, bottom, (kn * a for a, _, ks in rads for kn, _ in ks),
                        (kd * b for _, b, ks in rads for _, kd in ks))
        u = np.take(u.reshape(len(self.q), -1), self.grid, axis=1)
        u[1::2] *= self.parity
        return u + 0.0

    def entries(self) -> Tuple[Tuple[ScaledRoot, ...], ...]:
        """The exact entries, one ScaledRoot each."""
        rows = []
        for r, (q, ps, rho) in enumerate(zip(self.q, self.p, self.rho)):
            vals = [ScaledRoot(Fraction(p, q), k * rho) for p, k in zip(ps, self.kappa[r % 2])]
            row = [vals[k] for k in self.grid]
            if r % 2:
                row = [e if s > 0 else -e for e, s in zip(row, self.parity)]
            rows.append(tuple(row))
        return tuple(rows)


@dataclass(frozen=True, init=False)
class EigvecMatrix:
    """Orthogonal eigenvector matrix of a doubling case: rows orthonormal,
    columns eigenvectors of the case's matrix, M U = U D with
    D = diag(eigencolumn).

    U is held as `tables` (EigvecTables), and `to_float` is built from them
    straight away.  `entries`, the exact entries coef * sqrt(radicand), is
    built from the tables on first read.  Entries passed in (as by
    dataclasses.replace(u, entries=rows)) take the place of the tables: the
    copy has none, and its float U is those entries converted by
    `scaled_root_floats`.
    """

    case: DoubleCase
    dim: int
    eigencolumn: Tuple[ScaledRoot, ...]
    tables: EigvecTables | None

    def __init__(self, case: DoubleCase, dim: int, eigencolumn: Tuple[ScaledRoot, ...],
                 tables: EigvecTables | None,
                 entries: Tuple[Tuple[ScaledRoot, ...], ...] | None = None):
        if entries is None:
            floats = tables.to_float()
        else:
            tables = None
            self.__dict__["entries"] = entries
            floats = scaled_root_floats([e for row in entries for e in row]).reshape(dim, dim)
        floats.flags.writeable = False
        for name, value in (("case", case), ("dim", dim), ("eigencolumn", eigencolumn),
                            ("tables", tables), ("_floats", floats)):
            object.__setattr__(self, name, value)

    @cached_property
    def entries(self) -> Tuple[Tuple[ScaledRoot, ...], ...]:
        return self.tables.entries()

    def to_float(self) -> np.ndarray:
        """U in floating point; read-only."""
        return self._floats

    def d_floats(self) -> np.ndarray:
        return scaled_root_floats(self.eigencolumn)


def _positive_tables(fam: FamilyParams) -> Tuple[Tuple[Fraction, ...], Tuple[Fraction, ...]]:
    """The weight and norm tables of a family; raises InadmissibleParams
    unless every entry is positive (real square roots need it)."""
    w, h = family_weights(fam), family_norms(fam)
    if min(w) <= 0 or min(h) <= 0:
        raise InadmissibleParams(f"weight/norm not positive for {fam}")
    return w, h


@lru_cache(maxsize=4)
def eigvec_matrix(case: DoubleCase, params: FamilyParams) -> EigvecMatrix:
    """The orthogonal eigenvector matrix U of a doubling case, as displayed
    in the corresponding matrix construction.

    Grid point k owns columns N-k (negative root) and N+k (positive root,
    one further right in even dimension); in odd dimension the single
    column N holds the zero eigenvalue k = 0.  Row 2n holds (-1)^n y_n of
    the even-row family at x = k, row 2n+1 its hatted partner at x + xshift
    with opposite signs, scaled by sqrt(w(x) / 2h_n) (w(x) / h_n in the
    single column), for the eigenvalues +-sqrt(`doubles.eig_squares` at x).
    Odd dimension with xshift 0 (second dual Hahn case) runs the grid
    backwards, x = N - k, without the (-1)^n.

    U is kept as `EigvecTables`: the fraction-free integer rows of the
    three-term recurrence over the whole grid (`families.family_table`),
    the row scales 1/h_n and the column scales w(x)/2 from the norm and
    weight tables (`family_norms`, `family_weights`), the column map and
    the parity signs.  The float U is built from them, with no Fraction or
    ScaledRoot per entry; only the eigencolumn is made of ScaledRoots until
    `entries` is read.  The result is immutable and cached, so a caller
    that rebuilds U for the same case and parameters gets the same object
    back.
    """
    rec = case_record(case, params)
    if rec.u_delta_shift is None:
        raise UnsupportedCase(f"{case.value}: no displayed eigenvector matrix")
    _require_alpha_cap(case, params)
    if rec.dim(params.N) == 1:  # N = 0 of an odd case: no hatted family
        one = EigvecTables((1,), ((1,),), (Fraction(1),), ((Fraction(1),), ()), (0,), (1,))
        return EigvecMatrix(case, 1, (ScaledRoot.zero(),), one)
    fam_even = even_row_params(case, params)
    pair = coefficients(case, fam_even)
    fam_odd, xshift = pair.hatted, pair.xshift
    N, dim = params.N, rec.dim(params.N)
    right = 1 if rec.even_dim else 0
    edge = not rec.even_dim and xshift == 0
    lone = 1 - right  # odd dimension: grid point 0 owns the single column N
    w_even, h_even = _positive_tables(fam_even)
    w_odd, h_odd = _positive_tables(fam_odd)
    xs = [N - k if edge else k for k in range(N + 1)]
    hxs = [x + xshift for x in xs[lone:]]
    kappa = (tuple(w_even[x] if k < lone else w_even[x] / 2 for k, x in enumerate(xs)),
             (Fraction(0),) * lone + tuple(w_odd[x] / 2 for x in hxs))
    q, p, rho = [0] * dim, [()] * dim, [Fraction(0)] * dim
    for first, fam, points, norms in ((0, fam_even, xs, h_even), (1, fam_odd, hxs, h_odd)):
        pad = (0,) * (lone * first)
        for n, (qn, ps) in enumerate(family_table(fam, points)):
            r = first + 2 * n
            q[r] = -qn if n % 2 and not edge else qn
            p[r], rho[r] = pad + tuple(ps), 1 / norms[n]
    grid = tuple(range(N, -1, -1)) + tuple(range(lone, N + 1))
    parity = (-1,) * (N + right) + (1,) * (N + 1)
    roots = [ScaledRoot.sqrt(s) for s in eig_squares(case, params, xs[lone:])]
    dcol = (*(-r for r in reversed(roots)), *([ScaledRoot.zero()] if lone else []), *roots)
    tables = EigvecTables(tuple(q), tuple(p), tuple(rho), kappa, grid, parity)
    return EigvecMatrix(case, dim, dcol, tables)


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
    off = np.array(sqrt_floats(nonnegative_squares(matrix_squares(case, params))))
    m = np.diag(off, 1) + np.diag(off, -1)
    res = np.abs(m @ uf - uf * u.d_floats()[None, :]).max()
    scale = max(np.abs(m).max(), 1.0)
    return float(res / scale)
