"""Exact evaluation of Hahn, dual Hahn, Racah and Krawtchouk polynomials,
their discrete weights, norms and three-term recurrence data.

Hahn and dual Hahn are terminating 3F2's at unit argument, Racah a
terminating 4F3, Krawtchouk a terminating 2F1 at 1/p; all values are
exact rationals for rational parameters.  The recurrence used throughout is

    Lam(x) y_n(x) = A(n) y_{n+1}(x) - (A(n)+C(n)) y_n(x) + C(n) y_{n-1}(x).

Two ways to the same numbers live here.  The per-point evaluators
(`*_eval` and `family_eval` by the series, `*_weight`/`*_norm` by their
closed forms) are the definition and the independent oracle.  The
whole-table functions run the recurrence above in n, and the ratio
recurrences of weight and norm, in O(N) steps: `family_table` gives
y_0..y_N on a whole grid as integer numerators over one integer
denominator per degree (fraction-free, each row divided by its content),
and `family_weights` and `family_norms` give the weight and norm tables;
the eigenvector matrices are built from them.  The pair, transform and
orthogonality checks read every value as `family_column(params, x)[n]`,
the recurrence values at one point cached per (parameters, x);
`verify` cross-checks those columns against the series.  `linear_quotient`
is the one evaluator of A(n), C(n) and the coefficients of the `doubles`
sextets and of Lam(x), all products of linear factors, at integer or
rational arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator, Sequence

from .exact import (
    RationalLike,
    hyper_terminating,
    is_nonpositive_int,
    over_lcm,
    pochhammer,
    rbinom,
)


class FamilyParams:
    """Base of the parameter classes, each a frozen dataclass.  Construction
    (also through `dataclasses.replace`) coerces the fields declared
    `Fraction`, runs the class's `_check` and hashes the field values once:
    the parameters key every `lru_cache` here, and re-hashing their
    `Fraction`s on each lookup would cost more than the lookup.  Equality
    is the dataclass one (same class, equal fields); the cached hash is no
    field, and every subclass gets this `__hash__` in its own namespace, so
    `@dataclass(frozen=True)` keeps it instead of generating one."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.__hash__ = FamilyParams.__hash__

    def __post_init__(self):
        values = []
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type in (Fraction, "Fraction"):
                value = Fraction(value)
                object.__setattr__(self, f.name, value)
            values.append(value)
        self._check()
        object.__setattr__(self, "_hash", hash(tuple(values)))

    def __hash__(self) -> int:
        return self._hash

    def _check(self) -> None:
        if self.N < 0:
            raise ValueError("N must be a nonnegative integer")


@dataclass(frozen=True)
class HahnParams(FamilyParams):
    alpha: Fraction
    beta: Fraction
    N: int


@dataclass(frozen=True)
class DualHahnParams(FamilyParams):
    gamma: Fraction
    delta: Fraction
    N: int


# The Racah degree caps, in the order the verify draws rotate through them:
# selector -> (the parameters p with sum(p) + 1 = -N, the dual's selector)
RACAH_CAPS = {"alpha": (("alpha",), "gamma"), "beta_delta": (("beta", "delta"), "beta_delta"),
              "gamma": (("gamma",), "alpha")}
RACAH_SELECTORS = tuple(RACAH_CAPS)


@dataclass(frozen=True)
class RacahParams(FamilyParams):
    """Racah parameters with an explicit choice of which denominator
    parameter carries the degree cap: one of alpha+1, beta+delta+1, gamma+1
    (`RACAH_CAPS`) must equal -N for a nonnegative integer N (degree-0
    families are the N = 0 edge produced by hatted parameter maps)."""

    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    delta: Fraction
    minus_n: str = "alpha"  # a key of RACAH_CAPS

    def _check(self) -> None:
        if self.minus_n not in RACAH_CAPS:
            raise ValueError(f"unknown minus_n selector {self.minus_n!r}")
        cap = sum(getattr(self, name) for name in RACAH_CAPS[self.minus_n][0]) + 1
        if not is_nonpositive_int(cap):
            raise ValueError(f"{self.minus_n} selector requires {cap} to be -N, N >= 0")
        object.__setattr__(self, "_N", -int(cap))

    @property
    def N(self) -> int:
        return self._N


@dataclass(frozen=True)
class KrawtchoukParams(FamilyParams):
    p: Fraction
    N: int

    def _check(self) -> None:
        if self.N < 1:
            raise ValueError("N must be a positive integer")
        if self.p == 0:
            raise ValueError("p must be nonzero")


# ---------------------------------------------------------------------------
# evaluation

def _check_index(name: str, i: int, N: int) -> None:
    if not 0 <= i <= N:
        raise ValueError(f"{name}={i} outside 0..{N}")


@lru_cache(maxsize=1 << 18)
def hahn_eval(n: int, x: RationalLike, params: HahnParams) -> Fraction:
    """Q_n(x; alpha, beta, N) as a terminating 3F2 at 1."""
    a, b, N = params.alpha, params.beta, params.N
    _check_index("degree n", n, N)
    return hyper_terminating([-n, n + a + b + 1, -Fraction(x)], [a + 1, -N], 1)


@lru_cache(maxsize=1 << 18)
def dual_hahn_eval(n: int, x: RationalLike, params: DualHahnParams) -> Fraction:
    """R_n(lambda(x); gamma, delta, N), indexed by the grid variable x.

    Rational x is allowed: -x is then a formal numerator parameter and the
    series terminates on -n.
    """
    g, d, N = params.gamma, params.delta, params.N
    _check_index("degree n", n, N)
    return hyper_terminating([-Fraction(x), Fraction(x) + g + d + 1, -n], [g + 1, -N], 1)


@lru_cache(maxsize=1 << 18)
def racah_eval(n: int, x: RationalLike, params: RacahParams) -> Fraction:
    """R_n(lambda(x); alpha, beta, gamma, delta) as a terminating 4F3 at 1."""
    a, b, g, d = params.alpha, params.beta, params.gamma, params.delta
    _check_index("degree n", n, params.N)
    x = Fraction(x)
    return hyper_terminating(
        [-n, n + a + b + 1, -x, x + g + d + 1], [a + 1, b + d + 1, g + 1], 1
    )


@lru_cache(maxsize=1 << 18)
def krawtchouk_eval(n: int, x: RationalLike, params: KrawtchoukParams) -> Fraction:
    """K_n(x; p, N) as a terminating 2F1(-n, -x; -N; 1/p)."""
    p, N = params.p, params.N
    _check_index("degree n", n, N)
    return hyper_terminating([-n, -Fraction(x)], [-N], 1 / p)


def family_eval(params: FamilyParams, n: int, x: RationalLike) -> Fraction:
    if isinstance(params, HahnParams):
        return hahn_eval(n, x, params)
    if isinstance(params, DualHahnParams):
        return dual_hahn_eval(n, x, params)
    if isinstance(params, RacahParams):
        return racah_eval(n, x, params)
    return krawtchouk_eval(n, x, params)


@dataclass(frozen=True, eq=False, slots=True)
class FamilyColumn:
    """y_0(x), ..., y_N(x) of one family at one point x.  `table` holds the
    recurrence values up to the first degree the recurrence cannot reach
    (a vanishing A(n), which is a pole of the series, or a pole of A or C);
    a higher degree is evaluated by the series when it is asked for, so
    column[n] equals family_eval(params, n, x) or raises what it raises,
    the ValueError for n outside 0..N included."""

    params: FamilyParams
    x: Fraction
    table: tuple[Fraction, ...]

    def __getitem__(self, n: int) -> Fraction:
        if 0 <= n < len(self.table):
            return self.table[n]
        return family_eval(self.params, n, self.x)


@lru_cache(maxsize=1 << 14)
def family_column(params: FamilyParams, x: RationalLike) -> FamilyColumn:
    """The column of values at x, from `family_table(params, [x])`."""
    values = []
    try:
        for q, (p,) in family_table(params, [x]):
            values.append(Fraction(p, q))
    except ZeroDivisionError:
        pass  # the degrees from here on are left to the series
    return FamilyColumn(params, Fraction(x), tuple(values))


# ---------------------------------------------------------------------------
# recurrence data

@dataclass(frozen=True)
class RecurrenceData:
    A: Callable[[int], Fraction]
    C: Callable[[int], Fraction]
    Lam: Callable[[RationalLike], Fraction]

    def gap(self, nu: RationalLike) -> Callable[[RationalLike], Fraction]:
        """x -> Lam(x) - Lam(nu), the kernel transform's denominator at nu,
        one Fraction of Lam's terms over the common denominator."""
        ln, ld = self.Lam(nu).as_integer_ratio()
        terms = self.Lam.terms

        def gap(x: RationalLike) -> Fraction:
            top, bottom = terms(x)
            return Fraction(top * ld - ln * bottom, bottom * ld)
        return gap


def linear_quotient(num, den=(), const: RationalLike = 1) -> Callable[[RationalLike], Fraction]:
    """t -> const * prod(k t + s) / prod(k' t + s') over the (slope, offset)
    pairs of `num` and `den`, slopes integer, offsets rational, memoised per
    t.  Its `terms(t)` is the unreduced (top, bottom), integers at an integer
    t, from which a caller combining quotients forms one Fraction.  A
    vanishing denominator raises ZeroDivisionError at the call; a constant
    that can vanish goes into `den` as (0, c), not `const`."""
    def scaled(factors):
        ints, scale = [], 1
        for k, s in factors:
            s = Fraction(s)
            ints.append((k * s.denominator, s.numerator))
            scale *= s.denominator
        return ints, scale

    nums, num_scale = scaled(num)
    dens, den_scale = scaled(den)
    c = Fraction(const) * den_scale / num_scale
    c_num, c_den = c.numerator, c.denominator

    def terms(t: RationalLike) -> tuple:
        top, bottom = c_num, c_den
        for k, s in nums:
            top *= k * t + s
        for k, s in dens:
            bottom *= k * t + s
        return top, bottom

    @lru_cache(maxsize=None)
    def f(t: RationalLike) -> Fraction:
        return Fraction(*terms(t))
    f.terms = terms
    return f


def _zero_at_0(f: Callable[[int], Fraction]) -> Callable[[int], Fraction]:
    """C(n) with C(0) = 0 even where the formula's denominator vanishes at 0."""
    return lambda n: Fraction(0) if n == 0 else f(n)


@lru_cache(maxsize=1024)
def recurrence_data(params: FamilyParams) -> RecurrenceData:
    """Exact A(n), C(n) and Lam(x) closures for the family, built once per
    parameter set, with A and C memoised per n (the kernel and requirement
    checks ask for them per point)."""
    if isinstance(params, HahnParams):
        a, b, N = params.alpha, params.beta, params.N
        return RecurrenceData(
            linear_quotient([(1, a + 1), (1, a + b + 1), (-1, N)],
                            [(2, a + b + 1), (2, a + b + 2)]),
            _zero_at_0(linear_quotient([(1, 0), (1, a + b + N + 1), (1, b)],
                                       [(2, a + b), (2, a + b + 1)])),
            linear_quotient([(1, 0)], const=-1),
        )

    if isinstance(params, DualHahnParams):
        g, d, N = params.gamma, params.delta, params.N
        return RecurrenceData(
            linear_quotient([(1, g + 1), (1, -N)]),
            linear_quotient([(1, 0), (1, -d - N - 1)]),
            linear_quotient([(1, 0), (1, g + d + 1)]),
        )

    if isinstance(params, RacahParams):
        a, b, g, d = params.alpha, params.beta, params.gamma, params.delta
        return RecurrenceData(
            linear_quotient([(1, a + 1), (1, a + b + 1), (1, g + 1), (1, b + d + 1)],
                            [(2, a + b + 1), (2, a + b + 2)]),
            _zero_at_0(linear_quotient([(1, 0), (1, a + b - g), (1, a - d), (1, b)],
                                       [(2, a + b), (2, a + b + 1)])),
            linear_quotient([(1, 0), (1, g + d + 1)]),
        )

    p, N = params.p, params.N
    return RecurrenceData(
        linear_quotient([(-1, N)], const=p),
        linear_quotient([(1, 0)], const=1 - p),
        linear_quotient([(1, 0)], const=-1),
    )


# ---------------------------------------------------------------------------
# weights and norms

@lru_cache(maxsize=1 << 16)
def hahn_weight(x: int, params: HahnParams) -> Fraction:
    a, b, N = params.alpha, params.beta, params.N
    _check_index("x", x, N)
    return rbinom(a + x, x) * rbinom(N + b - x, N - x)


@lru_cache(maxsize=1 << 16)
def hahn_norm(n: int, params: HahnParams) -> Fraction:
    a, b, N = params.alpha, params.beta, params.N
    _check_index("n", n, N)
    num = (-1) ** n * pochhammer(n + a + b + 1, N + 1) * pochhammer(b + 1, n) * pochhammer(1, n)
    den = (2 * n + a + b + 1) * pochhammer(a + 1, n) * pochhammer(-N, n) * pochhammer(1, N)
    return num / den


@lru_cache(maxsize=1 << 16)
def dual_hahn_weight(x: int, params: DualHahnParams) -> Fraction:
    g, d, N = params.gamma, params.delta, params.N
    _check_index("x", x, N)
    num = (2 * x + g + d + 1) * pochhammer(g + 1, x) * pochhammer(-N, x) * pochhammer(1, N)
    den = (-1) ** x * pochhammer(x + g + d + 1, N + 1) * pochhammer(d + 1, x) * pochhammer(1, x)
    return num / den


@lru_cache(maxsize=1 << 16)
def dual_hahn_norm(n: int, params: DualHahnParams) -> Fraction:
    g, d, N = params.gamma, params.delta, params.N
    _check_index("n", n, N)
    return 1 / (rbinom(g + n, n) * rbinom(N + d - n, N - n))


def racah_weight(x: int, params: RacahParams) -> Fraction:
    _check_index("x", x, params.N)
    return family_weights(params)[x]


def racah_norm(n: int, params: RacahParams) -> Fraction:
    _check_index("n", n, params.N)
    return family_norms(params)[n]


def family_weight(params: FamilyParams, x: int) -> Fraction:
    if isinstance(params, HahnParams):
        return hahn_weight(x, params)
    if isinstance(params, DualHahnParams):
        return dual_hahn_weight(x, params)
    if isinstance(params, RacahParams):
        return racah_weight(x, params)
    raise TypeError(f"no weight for {type(params).__name__}")


def family_norm(params: FamilyParams, n: int) -> Fraction:
    if isinstance(params, HahnParams):
        return hahn_norm(n, params)
    if isinstance(params, DualHahnParams):
        return dual_hahn_norm(n, params)
    if isinstance(params, RacahParams):
        return racah_norm(n, params)
    raise TypeError(f"no norm for {type(params).__name__}")


def _dual_family(params: FamilyParams) -> FamilyParams:
    """The family whose degree is the grid variable x of `params`: Hahn and
    dual Hahn swap into each other, Racah into itself with alpha<->gamma and
    beta<->delta (the self-duality of the defining 4F3: R_n(lambda(x)) for
    one set equals R_x(lambda(n)) for the swapped set)."""
    if isinstance(params, HahnParams):
        return DualHahnParams(params.alpha, params.beta, params.N)
    if isinstance(params, DualHahnParams):
        return HahnParams(params.gamma, params.delta, params.N)
    return RacahParams(params.gamma, params.delta, params.alpha, params.beta,
                       RACAH_CAPS[params.minus_n][1])


@lru_cache(maxsize=4096)
def family_weights(params: FamilyParams) -> tuple[Fraction, ...]:
    """The weight table w(0..N): w(0) in closed form (Racah is normalized to
    w(0) = 1), then w(x)/w(x-1) = A(x-1)/C(x) with A and C the recurrence
    data of the dual family, which governs the x-direction three-term
    relation of the polynomial values."""
    w = [Fraction(1) if isinstance(params, RacahParams) else family_weight(params, 0)]
    rec = recurrence_data(_dual_family(params))
    for x in range(1, params.N + 1):
        w.append(w[-1] * rec.A(x - 1) / rec.C(x))
    return tuple(w)


@lru_cache(maxsize=4096)
def family_norms(params: FamilyParams) -> tuple[Fraction, ...]:
    """The norm table h_0..h_N: h_0 in closed form (the total weight for
    Racah), then h_n/h_{n-1} = C(n)/A(n-1), which follows from pairing the
    recurrence against the orthogonality sum."""
    if isinstance(params, RacahParams):
        h = [Fraction(sum(family_weights(params)))]
    else:
        h = [family_norm(params, 0)]
    rec = recurrence_data(params)
    for n in range(1, params.N + 1):
        h.append(h[-1] * rec.C(n) / rec.A(n - 1))
    return tuple(h)


# ---------------------------------------------------------------------------
# value tables by the three-term recurrence

def family_table(params: FamilyParams, xs: Sequence[RationalLike]) -> Iterator[tuple[int, list[int]]]:
    """The values y_0(x), ..., y_N(x) on a grid xs as integers, one degree
    at a time: row n is (Q_n, [P_n(x) for x in xs]) with y_n(x) = P_n(x)/Q_n.

    The three-term recurrence y_{n+1} = ((Lam(x) + A(n) + C(n)) y_n -
    C(n) y_{n-1}) / A(n) runs fraction-free on the whole grid (after
    Bareiss).  With A(n) = a/a' and C(n) = c/c' in lowest terms, m their
    denominators' lcm, Lam(x) = l(x)/L over one common denominator L and
    Q_n = G alpha, Q_{n-1} = G beta for G = gcd(Q_n, Q_{n-1}), clearing
    denominators gives

        Q_{n+1} = L a (m/a') beta Q_n,
        P_{n+1}(x) = beta (m l(x) + L (a m/a' + c m/c')) P_n(x) - alpha L c (m/c') P_{n-1}(x),

    from P_0 = Q_0 = 1.  Each new row is divided by its content, the gcd of
    Q_{n+1} and all its P_{n+1}(x), which keeps the integers near the size
    of the reduced values (a Racah row at N = 200 ends near 2100 bits
    instead of 9900).  No gcd is taken per value, so a row is not reduced
    value by value and a caller forms Fraction(P, Q) once per value it keeps.
    Rows are produced lazily, so two of them are alive at a time.  Equal to
    family_eval(params, n, x) for every n; a vanishing A(n) with n < N (a
    pole of the series) raises ZeroDivisionError.
    """
    rec = recurrence_data(params)
    ls, L = over_lcm([rec.Lam(x) for x in xs])
    q_prev, q = 1, 1
    prev, cur = [0] * len(ls), [1] * len(ls)
    yield q, cur
    for n in range(params.N):
        A, C = rec.A(n), rec.C(n)
        a, ad, c, cd = A.numerator, A.denominator, C.numerator, C.denominator
        if not a:
            raise ZeroDivisionError(f"A({n}) = 0 below the degree cap {params.N}")
        m = math.lcm(ad, cd)
        g = math.gcd(q, q_prev)
        alpha, beta = q // g, q_prev // g
        scale, base = m * beta, L * (a * (m // ad) + c * (m // cd)) * beta
        back = alpha * L * c * (m // cd)
        nxt = [(scale * lx + base) * p - back * b for lx, p, b in zip(ls, cur, prev)]
        q_next = L * a * (m // ad) * beta * q
        content = math.gcd(q_next, *nxt)
        if content != 1:
            nxt = [v // content for v in nxt]
            q_next //= content
        prev, cur, q_prev, q = cur, nxt, q, q_next
        yield q, cur
