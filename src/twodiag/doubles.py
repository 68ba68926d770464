"""The eleven ways a Hahn, dual Hahn or Racah family pairs with a
parameter-shifted copy of itself through a two-term relation couple

    a(n) y_n(x)     + b(n) y_{n+1}(x)     = dhat(x) yhat_n(xhat),
    ahat(n) yhat_n(xhat) + bhat(n) yhat_{n+1}(xhat) = d(x) y_{n+1}(x),

with xhat = x + xshift.  Each case fixes the six coefficient functions, the
hatted parameter map and the shift; all identities verify to exact rational
zero on the full (n, x) grid.  Each coefficient is linear-factor data read
by `families.linear_quotient`, like the recurrence data A(n), C(n).

Eliminating yhat reproduces the base family's three-term recurrence, which
pins the coefficient products to the recurrence data (the requirement
system checked by verify_requirements).  Each of its seven rows is an
n-part combined with an x-part (rows 0-3 have none); each sextet memoises
the n-parts per n and the x-parts per x, and the pair relations' columns
and -d, -dhat per x, so a grid walk evaluates them once per row and column
of the grid, not once per point.  Every residue is one Fraction, from
integer terms: `exact.sum_of_products` combines the numerators and
denominators of its products and reduces once.  The same products, times
one sign per case, are the offdiagonal squares of the case's symmetric
matrix (matrix_squares), so the matrix is built from the verified sextet.
Its eigenvalue squares are the same sign times the gaps Lam(x) - Lam(nu)
of the kernel transform onto the hatted family (eig_squares).

Every per-case fact (sextet, Christoffel parameter, matrix, eigenvector
layout, doubled system, algebra, gallery defaults) is written once, in
the CaseRecord of CASE_TABLE; the other modules look facts up there.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .exact import RationalLike, ScaledRoot, sum_of_products
from .families import (
    DualHahnParams,
    FamilyParams,
    HahnParams,
    RacahParams,
    family_column,
    linear_quotient as Q,
    recurrence_data,
)

F = Fraction


class FamilyMismatch(TypeError):
    """Parameters do not belong to the case's polynomial family."""


class GridPole(ZeroDivisionError):
    """A coefficient has a pole at a point of the verification grid, so the
    residue there has no value.  `position` is its (kind, index, n, x), with
    index None for the requirement system, whose residues come together."""

    def __init__(self, position: tuple):
        kind, index, n, x = position
        what = f"{kind} system" if index is None else f"{kind} {index}"
        super().__init__(f"{what} at n={n}, x={x}: a coefficient has a pole")
        self.position = position


class DoubleCase(Enum):
    DUAL_HAHN_I = "DualHahnI"
    DUAL_HAHN_II = "DualHahnII"
    DUAL_HAHN_III = "DualHahnIII"
    HAHN_I = "HahnI"
    HAHN_II = "HahnII"
    HAHN_III = "HahnIII"
    HAHN_IV = "HahnIV"
    RACAH_I = "RacahI"
    RACAH_II = "RacahII"
    RACAH_III = "RacahIII"
    RACAH_IV = "RacahIV"

    @property
    def record(self) -> "CaseRecord":
        return CASE_TABLE[self]

    @property
    def family(self) -> type:
        return CASE_TABLE[self].family


_COEFFICIENTS = ("a", "b", "a_hat", "b_hat", "d", "d_hat")


@dataclass(frozen=True)
class CoefficientSextet:
    """Coefficient data of one doubling case at fixed parameters.

    The six functions are linear-factor quotients with memos of their own.
    The overall gauge is fixed so that the requirement system holds with
    unit proportionality (a*ahat shifted = C-hat, b*bhat = A-hat, ...);
    rescaling relation 1 or relation 2 by a constant is the only freedom.

    Each sextet also memoises what the grid walks read at one n or one x:
    the requirement system's n-parts per n and x-parts per x, and the pair
    relations' columns and -d, -dhat per x (the last two lazily: a pole
    stores nothing).  `__post_init__` makes the memos and they are
    no fields, so `flipped` and `dataclasses.replace` start every copy with
    empty ones.
    """

    case: DoubleCase
    base: FamilyParams
    hatted: FamilyParams
    xshift: int
    a: Callable[[int], Fraction]
    b: Callable[[int], Fraction]
    a_hat: Callable[[int], Fraction]
    b_hat: Callable[[int], Fraction]
    d: Callable[[Fraction], Fraction]
    d_hat: Callable[[Fraction], Fraction]

    def __post_init__(self):
        for memo in ("_n_rows", "_x_rows", "_columns", "_minus_d", "_minus_d_hat"):
            object.__setattr__(self, memo, {})

    def flipped(self, which: str) -> "CoefficientSextet":
        """Copy with one coefficient function sign-flipped (for mutation
        sensitivity checks)."""
        if which not in _COEFFICIENTS:
            raise ValueError(f"unknown coefficient {which!r}")
        old = getattr(self, which)
        return replace(self, **{which: lambda t, old=old: -old(t)})


@dataclass(frozen=True)
class CaseRecord:
    """Every per-case fact of one doubling case.  Callables take the case's
    family parameters p; an entry left None means the case has no closed
    form of that construction."""

    family: type
    # hatted parameters, xshift and the six coefficients as linear-factor quotients
    sextet: Callable[[FamilyParams], dict]
    # kernel-transform parameter mapping the family onto its hatted partner
    nu: Callable[[FamilyParams], Fraction]
    # matrix dimension 2N+2 when True, else 2N+1 (one zero eigenvalue, x = nu)
    even_dim: bool
    # sign turning coefficient products into matrix squares, gaps into eigenvalue squares
    squares_sign: int = 1
    # gallery parameters and their defaults (None: filled in from N); None: no matrix
    defaults: Optional[Dict[str, Optional[Fraction]]] = None
    # U's even rows, and the sextet of the matrix squares, use the family
    # with delta shifted by this much; its hatted partner gives U's odd
    # rows.  None: no displayed U, and the squares use the family unshifted
    u_delta_shift: Optional[int] = None
    # (superdiagonal, subdiagonal) of the integer-friendly form
    nonsym: Optional[Callable[[FamilyParams], Tuple[list, list]]] = None
    # constant multiplying q * (hatted polynomial) in P_{2n+1}
    odd_prefactor: Optional[Callable[[FamilyParams, int], ScaledRoot]] = None
    # [J_plus, J_minus] diagonal at J_0 entry j0 and parity entry, and the
    # sign relating it to the normal form 2 J_0 + 2 nu J_0 P + (sigma/2) P
    # + (rho/2) I of the generator algebra: -1 for DualHahnII, whose ladder
    # operators match after the rescaling J_pm -> i J_pm, which flips the
    # commutator
    commutator: Optional[Callable[[FamilyParams, Fraction, Fraction], Fraction]] = None
    commutator_sign: int = 1

    def dim(self, N: int) -> int:
        return 2 * N + 2 if self.even_dim else 2 * N + 1


def case_record(case: DoubleCase, params: FamilyParams) -> CaseRecord:
    """The case's record, once params are known to belong to its family."""
    rec = CASE_TABLE[case]
    if not isinstance(params, rec.family):
        raise FamilyMismatch(
            f"{case.value} needs {rec.family.__name__}, got {type(params).__name__}")
    return rec


def coefficients(case: DoubleCase, params: FamilyParams) -> CoefficientSextet:
    """The exact coefficient sextet of a doubling case.  Its quotients are
    built per call, so only it and its flipped copies read their memos."""
    return CoefficientSextet(case, params, **case_record(case, params).sextet(params))


def even_row_params(case: DoubleCase, params: FamilyParams) -> FamilyParams:
    """The parameters with delta shifted by the case's u_delta_shift (no
    shift where it is None): the family of U's even rows, whose sextet
    gives the matrix squares."""
    shift = case_record(case, params).u_delta_shift
    return replace(params, delta=params.delta + shift) if shift else params


def matrix_squares(case: DoubleCase, params: FamilyParams) -> List[Fraction]:
    """Offdiagonal squares M_i^2 of the case's symmetric matrix, read off
    the sextet at `even_row_params`: sign * a(k) * bhat(k-1) at i = 2k and
    sign * b(k) * ahat(k) at i = 2k+1, for i < dim - 1.  The matrix is the
    Jacobi matrix of the paired system, so its squares are these products,
    each formed as one Fraction of the two quotients' integer terms."""
    rec = case_record(case, params)
    dim = rec.dim(params.N)
    if dim == 1:  # N = 0 of an odd case: no square, and no hatted family at N - 1
        return []
    cs = coefficients(case, even_row_params(case, params))
    a, b, a_hat, b_hat = cs.a.terms, cs.b.terms, cs.a_hat.terms, cs.b_hat.terms
    sign, out = rec.squares_sign, []
    for i in range(dim - 1):
        k = i // 2
        (t1, b1), (t2, b2) = (b(k), a_hat(k)) if i % 2 else (a(k), b_hat(k - 1))
        out.append(Fraction(sign * t1 * t2, b1 * b2))
    return out


def eig_squares(case: DoubleCase, params: FamilyParams,
                xs: Optional[Iterable[RationalLike]] = None) -> List[Fraction]:
    """The eigenvalue squares squares_sign * (Lam(x) - Lam(nu)) at the grid
    points xs, Lam and nu read at `even_row_params` like the matrix squares;
    by default x = 0..N but for the zero eigenvalue x = nu of odd dimension."""
    rec, fam = case_record(case, params), even_row_params(case, params)
    nu = rec.nu(fam)
    gap = recurrence_data(fam).gap(nu)
    if xs is None:
        xs = [x for x in range(params.N + 1) if rec.even_dim or x != nu]
    return [gap(x) for x in xs] if rec.squares_sign > 0 else [-gap(x) for x in xs]


def christoffel_nu(case: DoubleCase, params: FamilyParams) -> Fraction:
    """The kernel-transform parameter at which the case's base family maps
    onto its hatted partner."""
    return case_record(case, params).nu(params)


def _columns(cs: CoefficientSextet, x: RationalLike) -> tuple:
    """(base column at x, hatted column at x + xshift), memoised per x on
    the sextet, so a grid point hashes its Fraction x once."""
    point = cs._columns.get(x)
    if point is None:
        xf = Fraction(x)
        point = cs._columns[x] = (
            family_column(cs.base, xf), family_column(cs.hatted, xf + cs.xshift))
    return point


def _minus(memo: dict, f: Callable[[Fraction], Fraction], x: RationalLike) -> Fraction:
    """-f(x), memoised per grid point x in `memo`, one of the sextet's; a
    pole raises and stores nothing, so it is met again where it is next read."""
    value = memo.get(x)
    if value is None:
        value = memo[x] = -f(Fraction(x))
    return value


def _read_nonzero(terms) -> Fraction:
    """The sum of c * column[k] over the (c, column, k) of `terms`, as one
    Fraction; column[k] is read, in order, only where c is nonzero."""
    return sum_of_products((c, column[k]) for c, column, k in terms if c)


def pair_residue_forward(cs: CoefficientSextet, n: int, x: RationalLike) -> Fraction:
    """Residue of relation 1; defined for n <= N-1 (and n <= Nhat).  A pole
    of a coefficient raises before any value is read, and a column entry is
    read only where its coefficient is nonzero."""
    y, yh = _columns(cs, x)
    a, b, minus_d_hat = cs.a(n), cs.b(n), _minus(cs._minus_d_hat, cs.d_hat, x)
    return _read_nonzero(((a, y, n), (b, y, n + 1), (minus_d_hat, yh, n)))


def pair_residue_backward(cs: CoefficientSextet, n: int, x: RationalLike) -> Fraction:
    """Residue of relation 2; defined for n+1 <= Nhat (and n+1 <= N), read
    like relation 1."""
    y, yh = _columns(cs, x)
    a_hat, b_hat, minus_d = cs.a_hat(n), cs.b_hat(n), _minus(cs._minus_d, cs.d, x)
    return _read_nonzero(((a_hat, yh, n), (b_hat, yh, n + 1), (minus_d, y, n + 1)))


def verify_pair(
    case: DoubleCase | CoefficientSextet,
    params: FamilyParams | None = None,
    n: int = 0,
    x: RationalLike = 0,
) -> tuple[Fraction, Fraction]:
    """Residues of the two coupling relations at one (n, x); both are zero
    exactly when the sextet is correct.

    Requires n+1 within both degree ranges.  Cases whose hatted family has
    Nhat = N-1 therefore stop at n = N-2 here; relation 1 alone extends to
    n = N-1 (see pair_residue_forward).
    """
    cs = case if isinstance(case, CoefficientSextet) else coefficients(case, params)
    if n + 1 > cs.hatted.N or n + 1 > cs.base.N:
        raise ValueError(f"n={n}: n+1 exceeds a degree range (N={cs.base.N}, Nhat={cs.hatted.N})")
    return pair_residue_forward(cs, n, x), pair_residue_backward(cs, n, x)


def _requirement_n_part(cs: CoefficientSextet, n: int) -> tuple:
    """(rows 0-3, K4, K5, K6) of the requirement system at n, memoised per
    n on the sextet: rows 4-6 are K4 - (dd - Lamhat), K5 - (dd - Lam) and
    (Lam - Lamhat) - K6 with dd = d*dhat, so their n-parts are the K's.
    Each entry is one Fraction of its products' integer terms."""
    part = cs._n_rows.get(n)
    if part is None:
        rec, rech = recurrence_data(cs.base), recurrence_data(cs.hatted)
        a, b, ah, bh = cs.a(n), cs.b(n), cs.a_hat(n), cs.b_hat(n)
        a1, b1, ah1, bh1 = cs.a(n - 1), cs.b(n - 1), cs.a_hat(n - 1), cs.b_hat(n - 1)
        A, C, Ah, Ch = rec.A(n), rec.C(n), rech.A(n), rech.C(n)
        part = cs._n_rows[n] = (
            [sum_of_products(((a, ah1), (-1, Ch))),
             sum_of_products(((a1, ah1), (-1, C))),
             sum_of_products(((b, bh), (-1, Ah))),
             sum_of_products(((b, bh1), (-1, A)))],
            sum_of_products(((a, bh1), (ah, b), (Ah,), (Ch,))),
            sum_of_products(((a, bh1), (ah1, b1), (A,), (C,))),
            # ah1 (a - a1 - b1) + b (ah + bh - bh1)
            sum_of_products(((ah1, a), (-1, ah1, a1), (-1, ah1, b1),
                             (b, ah), (b, bh), (-1, b, bh1))),
        )
    return part


def _requirement_x_part(cs: CoefficientSextet, x: RationalLike) -> tuple:
    """(dd - Lamhat(xhat), dd - Lam(x), Lam(x) - Lamhat(xhat)) of rows 4-6,
    memoised per x on the sextet, with dd = (-d)(-dhat) read through the
    pair relations' memos."""
    part = cs._x_rows.get(x)
    if part is None:
        minus_d, minus_d_hat = _minus(cs._minus_d, cs.d, x), _minus(cs._minus_d_hat, cs.d_hat, x)
        xf = Fraction(x)
        lam = recurrence_data(cs.base).Lam(xf)
        lam_h = recurrence_data(cs.hatted).Lam(xf + cs.xshift)
        part = cs._x_rows[x] = (sum_of_products(((minus_d, minus_d_hat), (-1, lam_h))),
                                sum_of_products(((minus_d, minus_d_hat), (-1, lam))),
                                sum_of_products(((lam,), (-1, lam_h))))
    return part


def verify_requirements(
    case: DoubleCase | CoefficientSextet,
    params: FamilyParams | None = None,
    n: int = 0,
    x: RationalLike = 0,
) -> list[Fraction]:
    """Residues of the requirement system that forces the pair relations to
    be compatible with both three-term recurrences.

    Order: [a*ahat - Chat, a*ahat(shift) - C, b*bhat - Ahat, b*bhat(shift) - A,
    both rearranged mixed conditions, and the Lam difference identity].
    Rows 0-3 depend on n alone and rows 4-6 split into an n-part and an
    x-part; the sextet memoises the n-parts per n and the x-parts per x, so
    a grid point past the first row and column costs three sums of two
    terms.  Every residue is one Fraction, from integer terms.
    """
    cs = case if isinstance(case, CoefficientSextet) else coefficients(case, params)
    rows, k4, k5, k6 = _requirement_n_part(cs, n)
    x4, x5, x6 = _requirement_x_part(cs, x)
    return rows + [sum_of_products(((k4,), (-1, x4))), sum_of_products(((k5,), (-1, x5))),
                   sum_of_products(((x6,), (-1, k6)))]


def _grid_residues(cs: CoefficientSextet, *kinds: str):
    """Lazily, (position, residue) over the verification grid x = 0..N,
    x outermost, of the kinds asked for: "relation" 1 for n = 0..N-1 and 2
    for n+1 up to the hatted degree cap, then the "requirement" system for
    n = 0..N-1.  A position is (kind, index, n, x); a coefficient's pole at
    one raises GridPole there, with index None for the requirement system."""
    N, position = cs.base.N, None
    try:
        for x in range(N + 1):
            if "relation" in kinds:
                for n in range(N):
                    position = ("relation", 1, n, x)
                    yield position, pair_residue_forward(cs, n, x)
                for n in range(min(N, cs.hatted.N)):
                    position = ("relation", 2, n, x)
                    yield position, pair_residue_backward(cs, n, x)
            if "requirement" in kinds:
                for n in range(N):
                    position = ("requirement", None, n, x)
                    for i, r in enumerate(verify_requirements(cs, n=n, x=x)):
                        yield ("requirement", i, n, x), r
    except ZeroDivisionError as exc:
        raise GridPole(position) from exc


def pair_grid_max_residue(cs: CoefficientSextet) -> Fraction:
    """Largest |residue| of both relations over the full verification grid;
    GridPole where a coefficient has a pole on it."""
    return max((abs(r) for _, r in _grid_residues(cs, "relation") if r), default=Fraction(0))


def requirements_grid_max_residue(cs: CoefficientSextet) -> Fraction:
    """Largest |residue| of the requirement system over the full grid;
    GridPole where a coefficient has a pole on it."""
    return max((abs(r) for _, r in _grid_residues(cs, "requirement") if r), default=Fraction(0))


def locate_failure(cs: CoefficientSextet) -> str | None:
    """Human-readable location of the first nonzero pair or requirement
    residue, or of the first pole of a coefficient, on the verification
    grid; None when every residue is zero."""
    try:
        for (kind, index, n, x), r in _grid_residues(cs, "relation", "requirement"):
            if r != 0:
                return f"{kind} {index} at n={n}, x={x}: residue {r}"
    except GridPole as pole:
        return str(pole)
    return None


# ---------------------------------------------------------------------------
# per-case formulas, paired with their cases in CASE_TABLE below; Q(num, den,
# const) is const * prod(k t + s) / prod(k' t + s') over its factors (k, s)

_DUAL_HAHN_DEFAULTS = {"gamma": F(1, 2), "delta": F(1, 3)}
_HAHN_DEFAULTS = {"alpha": F(1, 2), "beta": F(1, 3)}
# beta None: the gallery builder fills in N + gamma + 2
_RACAH_DEFAULTS = {"beta": None, "gamma": F(1, 3), "delta": F(1, 5)}


def _dual_hahn_i(p: DualHahnParams) -> dict:
    g, d_, N = p.gamma, p.delta, p.N
    return dict(
        hatted=DualHahnParams(g + 1, d_ + 1, N - 1), xshift=-1,
        a=Q([]),
        b=Q([], const=-1),
        a_hat=Q([(1, 1), (-1, N + d_)], const=-1),
        b_hat=Q([(-1, N - 1), (1, g + 2)]),
        d=Q([], const=N * (g + 1)),
        d_hat=Q([(1, 0), (1, g + d_ + 1)], [(0, N * (g + 1))]),
    )


def _plus(c: Fraction, m: int) -> Fraction:
    """c + m formed as one Fraction over c's denominator (the entries of the
    integer-friendly forms are gamma or delta plus an integer linear in k)."""
    return F(c.numerator + m * c.denominator, c.denominator)


def _dual_hahn_i_nonsym(p: DualHahnParams) -> Tuple[list, list]:
    g, d, N = p.gamma, p.delta, p.N
    sup, sub = [], []
    for k in range(N):
        sup.extend([_plus(g, k + 1), F(k + 1)])
        sub.extend([F(N - k), _plus(d, N - k)])
    return sup, sub


def _dual_hahn_i_prefactor(p: DualHahnParams, n: int) -> ScaledRoot:
    g, N = p.gamma, p.N
    return ScaledRoot(F(-1, 1) / ((g + 1) * N), (n + g + 1) * (N - n) / 2)


def _dual_hahn_i_commutator(p: DualHahnParams, j0: Fraction, par: Fraction) -> Fraction:
    g, d, N = p.gamma, p.delta, p.N
    return 2 * j0 + 2 * (g + d + 1) * j0 * par - (2 * N + 1) * (g - d) * par + (g - d)


def _dual_hahn_ii(p: DualHahnParams) -> dict:
    g, d_, N = p.gamma, p.delta, p.N
    return dict(
        hatted=DualHahnParams(g, d_, N - 1), xshift=0,
        a=Q([(1, -d_ - N)]),
        b=Q([(1, g + 1)], const=-1),
        a_hat=Q([(1, 1)]),
        b_hat=Q([(-1, N - 1)]),
        d=Q([], const=N),
        d_hat=Q([(-1, N), (1, g + d_ + N + 1)], [(0, N)], const=-1),
    )


def _dual_hahn_ii_nonsym(p: DualHahnParams) -> Tuple[list, list]:
    g, d, N = p.gamma, p.delta, p.N
    sup, sub = [], []
    for k in range(N):
        sup.extend([_plus(g, N - k), F(k + 1)])
        sub.extend([F(N - k), _plus(d, k + 1)])
    return sup, sub


def _dual_hahn_ii_commutator(p: DualHahnParams, j0: Fraction, par: Fraction) -> Fraction:
    g, d, N = p.gamma, p.delta, p.N
    return -2 * j0 + 2 * (g + d + 2 * N + 1) * j0 * par + (2 * N + 1) * (g - d) * par - (g - d)


def _dual_hahn_iii(p: DualHahnParams) -> dict:
    g, d_, N = p.gamma, p.delta, p.N
    return dict(
        hatted=DualHahnParams(g + 1, d_ - 1, N), xshift=0,
        a=Q([(-1, d_ + N)]),
        b=Q([(1, -N)]),
        a_hat=Q([(1, 1)], const=-1),
        b_hat=Q([(1, g + 2)]),
        d=Q([], const=g + 1),
        d_hat=Q([(1, g + 1), (1, d_)], [(0, g + 1)]),
    )


def _dual_hahn_iii_nonsym(p: DualHahnParams) -> Tuple[list, list]:
    g, d, N = p.gamma, p.delta, p.N
    sup, sub = [], []
    for k in range(N + 1):
        sup.append(_plus(g, k + 1))
        sub.append(_plus(d, N + 1 - k))
        if k < N:
            sup.append(F(k + 1))
            sub.append(F(N - k))
    return sup, sub


def _dual_hahn_iii_commutator(p: DualHahnParams, j0: Fraction, par: Fraction) -> Fraction:
    g, d, N = p.gamma, p.delta, p.N
    return (2 * j0 + 2 * (g - d) * j0 * par
            - ((2 * N + 2) * (g + d + 1) + (2 * g + 1) * (2 * d + 1)) * par + (g - d))


def _hahn_i(p: HahnParams) -> dict:
    al, be, N = p.alpha, p.beta, p.N
    s = al + be
    # relation 2 carries the opposite overall sign from relation 1's
    # natural gauge; d absorbs it so the requirement system closes.
    return dict(
        hatted=HahnParams(al + 1, be, N), xshift=0,
        a=Q([(1, s + N + 2)], [(2, s + 2)]),
        b=Q([(-1, N)], [(2, s + 2)], const=-1),
        a_hat=Q([(1, 1), (1, be + 1)], [(2, s + 3)]),
        b_hat=Q([(1, s + 2), (1, al + 2)], [(2, s + 3)], const=-1),
        d=Q([], const=-(al + 1)),
        d_hat=Q([(1, al + 1)], [(0, al + 1)]),
    )


def _hahn_i_prefactor(p: HahnParams, n: int) -> ScaledRoot:
    a, b, N = p.alpha, p.beta, p.N
    s = a + b
    rad = ((n + a + 1) * (n + s + 1) * (2 * n + 2 + s)
           / (2 * (n + N + s + 2) * (2 * n + s + 1)))
    return ScaledRoot(F(-1, 1) / (a + 1), rad)


def _hahn_ii(p: HahnParams) -> dict:
    al, be, N = p.alpha, p.beta, p.N
    s = al + be
    return dict(
        hatted=HahnParams(al + 1, be, N - 1), xshift=-1,
        a=Q([], [(2, s + 2)]),
        b=Q([], [(2, s + 2)], const=-1),
        a_hat=Q([(1, 1), (1, be + 1), (1, s + N + 2)], [(2, s + 3)]),
        b_hat=Q([(1, s + 2), (-1, N - 1), (1, al + 2)], [(2, s + 3)], const=-1),
        d=Q([], const=-N * (al + 1)),
        d_hat=Q([(1, 0)], [(0, N * (al + 1))]),
    )


def _hahn_ii_prefactor(p: HahnParams, n: int) -> ScaledRoot:
    a, b, N = p.alpha, p.beta, p.N
    s = a + b
    rad = ((N - n) * (n + a + 1) * (n + s + 1) * (2 * n + s + 2)
           / (2 * (2 * n + s + 1)))
    return ScaledRoot(F(-1, 1) / ((a + 1) * N), rad)


def _hahn_iii(p: HahnParams) -> dict:
    al, be, N = p.alpha, p.beta, p.N
    s = al + be
    return dict(
        hatted=HahnParams(al, be + 1, N), xshift=0,
        a=Q([(1, be + 1), (1, s + N + 2)], [(2, s + 2)]),
        b=Q([(-1, N), (1, al + 1)], [(2, s + 2)]),
        a_hat=Q([(1, 1)], [(2, s + 3)]),
        b_hat=Q([(1, s + 2)], [(2, s + 3)]),
        d=Q([]),
        d_hat=Q([(-1, be + N + 1)]),
    )


def _hahn_iv(p: HahnParams) -> dict:
    al, be, N = p.alpha, p.beta, p.N
    s = al + be
    return dict(
        hatted=HahnParams(al, be + 1, N - 1), xshift=0,
        a=Q([(1, be + 1)], [(2, s + 2)]),
        b=Q([(1, al + 1)], [(2, s + 2)]),
        a_hat=Q([(1, 1), (1, s + N + 2)], [(2, s + 3)]),
        b_hat=Q([(-1, N - 1), (1, s + 2)], [(2, s + 3)]),
        d=Q([], const=N),
        d_hat=Q([(-1, N)], [(0, N)]),
    )


def _racah_i(p: RacahParams) -> dict:
    al, be, ga, de = p.alpha, p.beta, p.gamma, p.delta
    s = al + be
    return dict(
        hatted=RacahParams(al, be + 1, ga + 1, de - 1, p.minus_n), xshift=0,
        a=Q([(1, al - de + 1), (1, be + 1)], [(2, s + 2)], const=-1),
        b=Q([(1, be + de + 1), (1, al + 1)], [(2, s + 2)]),
        a_hat=Q([(1, 1), (1, s - ga + 1)], [(2, s + 3)], const=-1),
        b_hat=Q([(1, s + 2), (1, ga + 2)], [(2, s + 3)]),
        d=Q([], const=ga + 1),
        d_hat=Q([(1, de), (1, ga + 1)], [(0, ga + 1)]),
    )


def _racah_ii(p: RacahParams) -> dict:
    al, be, ga, de = p.alpha, p.beta, p.gamma, p.delta
    s = al + be
    return dict(
        hatted=RacahParams(al, be + 1, ga, de, p.minus_n), xshift=0,
        a=Q([(1, s - ga + 1), (1, be + 1)], [(2, s + 2)], const=-1),
        b=Q([(1, ga + 1), (1, al + 1)], [(2, s + 2)]),
        a_hat=Q([(1, 1), (1, al - de + 1)], [(2, s + 3)], const=-1),
        b_hat=Q([(1, be + de + 2), (1, s + 2)], [(2, s + 3)]),
        d=Q([], const=be + de + 1),
        d_hat=Q([(1, be + de + 1), (1, ga - be)], [(0, be + de + 1)]),
    )


def _racah_iii(p: RacahParams) -> dict:
    al, be, ga, de = p.alpha, p.beta, p.gamma, p.delta
    s = al + be
    return dict(
        hatted=RacahParams(al + 1, be, ga + 1, de + 1, p.minus_n), xshift=-1,
        a=Q([], [(2, s + 2)], const=-1),
        b=Q([], [(2, s + 2)]),
        a_hat=Q([(1, 1), (1, s - ga + 1), (1, al - de + 1), (1, be + 1)], [(2, s + 3)], const=-1),
        b_hat=Q([(1, ga + 2), (1, be + de + 2), (1, al + 2), (1, s + 2)], [(2, s + 3)]),
        d=Q([], const=(ga + 1) * (be + de + 1) * (al + 1)),
        d_hat=Q([(1, 0), (1, ga + de + 1)], [(0, ga + 1), (0, be + de + 1), (0, al + 1)]),
    )


def _racah_iv(p: RacahParams) -> dict:
    al, be, ga, de = p.alpha, p.beta, p.gamma, p.delta
    s = al + be
    return dict(
        hatted=RacahParams(al + 1, be, ga, de, p.minus_n), xshift=0,
        a=Q([(1, s - ga + 1), (1, al - de + 1)], [(2, s + 2)], const=-1),
        b=Q([(1, ga + 1), (1, be + de + 1)], [(2, s + 2)]),
        a_hat=Q([(1, 1), (1, be + 1)], [(2, s + 3)], const=-1),
        b_hat=Q([(1, al + 2), (1, s + 2)], [(2, s + 3)]),
        d=Q([], const=al + 1),
        d_hat=Q([(1, ga + de - al), (1, al + 1)], [(0, al + 1)]),
    )


# ---------------------------------------------------------------------------
# the case table

CASE_TABLE: Dict[DoubleCase, CaseRecord] = {
    DoubleCase.DUAL_HAHN_I: CaseRecord(
        DualHahnParams, _dual_hahn_i, nu=lambda p: F(0), even_dim=False,
        defaults=_DUAL_HAHN_DEFAULTS, u_delta_shift=0, nonsym=_dual_hahn_i_nonsym,
        odd_prefactor=_dual_hahn_i_prefactor,
        commutator=_dual_hahn_i_commutator),
    DoubleCase.DUAL_HAHN_II: CaseRecord(
        DualHahnParams, _dual_hahn_ii, nu=lambda p: F(p.N), even_dim=False, squares_sign=-1,
        defaults=_DUAL_HAHN_DEFAULTS, u_delta_shift=0, nonsym=_dual_hahn_ii_nonsym,
        commutator=_dual_hahn_ii_commutator, commutator_sign=-1),
    DoubleCase.DUAL_HAHN_III: CaseRecord(
        DualHahnParams, _dual_hahn_iii, nu=lambda p: -p.delta, even_dim=True,
        defaults=_DUAL_HAHN_DEFAULTS, u_delta_shift=1, nonsym=_dual_hahn_iii_nonsym,
        commutator=_dual_hahn_iii_commutator),
    DoubleCase.HAHN_I: CaseRecord(
        HahnParams, _hahn_i, nu=lambda p: -p.alpha - 1, even_dim=True, squares_sign=-1,
        defaults=_HAHN_DEFAULTS, u_delta_shift=0, odd_prefactor=_hahn_i_prefactor),
    DoubleCase.HAHN_II: CaseRecord(
        HahnParams, _hahn_ii, nu=lambda p: F(0), even_dim=False, squares_sign=-1,
        defaults=_HAHN_DEFAULTS, u_delta_shift=0, odd_prefactor=_hahn_ii_prefactor),
    DoubleCase.HAHN_III: CaseRecord(
        HahnParams, _hahn_iii, nu=lambda p: p.N + p.beta + 1, even_dim=True, defaults=_HAHN_DEFAULTS),
    DoubleCase.HAHN_IV: CaseRecord(
        HahnParams, _hahn_iv, nu=lambda p: F(p.N), even_dim=False, defaults=_HAHN_DEFAULTS),
    DoubleCase.RACAH_I: CaseRecord(
        RacahParams, _racah_i, nu=lambda p: -p.delta, even_dim=True,
        defaults=_RACAH_DEFAULTS, u_delta_shift=1),
    DoubleCase.RACAH_II: CaseRecord(
        RacahParams, _racah_ii, nu=lambda p: p.beta - p.gamma, even_dim=False),
    DoubleCase.RACAH_III: CaseRecord(
        RacahParams, _racah_iii, nu=lambda p: F(0), even_dim=False,
        defaults=_RACAH_DEFAULTS, u_delta_shift=0),
    DoubleCase.RACAH_IV: CaseRecord(
        RacahParams, _racah_iv, nu=lambda p: -p.alpha - 1, even_dim=False),
}

MATRIX_CASES = tuple(c for c in DoubleCase if c.record.defaults is not None)
EIGVEC_CASES = tuple(c for c in DoubleCase if c.record.u_delta_shift is not None)
NONSYM_CASES = tuple(c for c in DoubleCase if c.record.nonsym is not None)
SYSTEM_CASES = tuple(c for c in DoubleCase if c.record.odd_prefactor is not None)
ALGEBRA_CASES = tuple(c for c in DoubleCase if c.record.commutator is not None)
