"""Exact evaluation of Hahn, dual Hahn, Racah and Krawtchouk polynomials,
their discrete weights, norms and three-term recurrence data.

Hahn and dual Hahn are terminating 3F2's at unit argument, Racah a
terminating 4F3; all values are exact rationals for rational parameters.
The recurrence used throughout is

    Lam(x) y_n(x) = A(n) y_{n+1}(x) - (A(n)+C(n)) y_n(x) + C(n) y_{n-1}(x).

Two ways to the same numbers live here.  The per-point evaluators
(`*_eval` by the series, `*_weight`/`*_norm` by their closed forms) are
the independent oracle that the pair, requirement and orthogonality checks
use.  The whole-table functions run the recurrence above in n, and the
ratio recurrences of weight and norm, in O(N) steps: `family_table` gives
y_0..y_N on a whole grid as integer numerators over one integer
denominator per degree (fraction-free, each row divided by its content),
and `family_weights` and `family_norms` give the weight and norm tables;
the eigenvector matrices are built from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator, Sequence, Union

from .exact import (
    Rational,
    RationalLike,
    hyper_terminating,
    is_nonpositive_int,
    pochhammer,
    rbinom,
)


@dataclass(frozen=True)
class HahnParams:
    alpha: Fraction
    beta: Fraction
    N: int

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "beta", Fraction(self.beta))
        if self.N < 0:
            raise ValueError("N must be a nonnegative integer")

    @property
    def is_admissible(self) -> bool:
        a, b, N = self.alpha, self.beta, self.N
        return (a > -1 and b > -1) or (a < -N and b < -N)


@dataclass(frozen=True)
class DualHahnParams:
    gamma: Fraction
    delta: Fraction
    N: int

    def __post_init__(self):
        object.__setattr__(self, "gamma", Fraction(self.gamma))
        object.__setattr__(self, "delta", Fraction(self.delta))
        if self.N < 0:
            raise ValueError("N must be a nonnegative integer")

    @property
    def is_admissible(self) -> bool:
        g, d, N = self.gamma, self.delta, self.N
        return (g > -1 and d > -1) or (g < -N and d < -N)


@dataclass(frozen=True)
class RacahParams:
    """Racah parameters with an explicit choice of which denominator
    parameter carries the degree cap: one of alpha+1, beta+delta+1, gamma+1
    must equal -N for a nonnegative integer N (degree-0 families are the
    N = 0 edge produced by hatted parameter maps)."""

    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    delta: Fraction
    minus_n: str = "alpha"  # "alpha" | "beta_delta" | "gamma"

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "delta"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.minus_n not in ("alpha", "beta_delta", "gamma"):
            raise ValueError(f"unknown minus_n selector {self.minus_n!r}")
        cap = self._cap_value()
        if not is_nonpositive_int(cap):
            raise ValueError(f"{self.minus_n} selector requires {cap} to be -N, N >= 0")

    def _cap_value(self) -> Fraction:
        if self.minus_n == "alpha":
            return self.alpha + 1
        if self.minus_n == "beta_delta":
            return self.beta + self.delta + 1
        return self.gamma + 1

    @property
    def N(self) -> int:
        return -int(self._cap_value())

    @property
    def is_admissible(self) -> bool:
        """True when all derived weights and norms are positive, which is
        what real square roots in the normalized polynomials require."""
        try:
            ws = family_weights(self)
            hs = family_norms(self)
        except ZeroDivisionError:
            return False
        return all(w > 0 for w in ws) and all(h > 0 for h in hs)


@dataclass(frozen=True)
class KrawtchoukParams:
    p: Fraction
    N: int

    def __post_init__(self):
        object.__setattr__(self, "p", Fraction(self.p))
        if self.N < 1:
            raise ValueError("N must be a positive integer")
        if self.p == 0:
            raise ValueError("p must be nonzero")

    @property
    def is_admissible(self) -> bool:
        return 0 < self.p < 1


FamilyParams = Union[HahnParams, DualHahnParams, RacahParams, KrawtchoukParams]


# ---------------------------------------------------------------------------
# evaluation

@lru_cache(maxsize=1 << 18)
def hahn_eval(n: int, x: RationalLike, params: HahnParams) -> Fraction:
    """Q_n(x; alpha, beta, N) as a terminating 3F2 at 1."""
    a, b, N = params.alpha, params.beta, params.N
    if not 0 <= n <= N:
        raise ValueError(f"degree n={n} outside 0..{N}")
    return hyper_terminating([-n, n + a + b + 1, -Fraction(x)], [a + 1, -N], 1)


@lru_cache(maxsize=1 << 18)
def dual_hahn_eval(n: int, x: RationalLike, params: DualHahnParams) -> Fraction:
    """R_n(lambda(x); gamma, delta, N), indexed by the grid variable x.

    Rational x is allowed: -x is then a formal numerator parameter and the
    series terminates on -n.
    """
    g, d, N = params.gamma, params.delta, params.N
    if not 0 <= n <= N:
        raise ValueError(f"degree n={n} outside 0..{N}")
    return hyper_terminating([-Fraction(x), Fraction(x) + g + d + 1, -n], [g + 1, -N], 1)


@lru_cache(maxsize=1 << 18)
def racah_eval(n: int, x: RationalLike, params: RacahParams) -> Fraction:
    """R_n(lambda(x); alpha, beta, gamma, delta) as a terminating 4F3 at 1."""
    a, b, g, d = params.alpha, params.beta, params.gamma, params.delta
    if not 0 <= n <= params.N:
        raise ValueError(f"degree n={n} outside 0..{params.N}")
    x = Fraction(x)
    return hyper_terminating(
        [-n, n + a + b + 1, -x, x + g + d + 1], [a + 1, b + d + 1, g + 1], 1
    )


@lru_cache(maxsize=1 << 18)
def krawtchouk_eval(n: int, x: RationalLike, params: KrawtchoukParams) -> Fraction:
    """K_n(x; p, N) by upward recurrence from K_0 = 1 and K_1 = 1 - x/(Np)."""
    p, N = params.p, params.N
    if not 0 <= n <= N:
        raise ValueError(f"degree n={n} outside 0..{N}")
    x = Fraction(x)
    prev = Fraction(1)
    if n == 0:
        return prev
    cur = 1 - x / (N * p)
    for m in range(1, n):
        A = p * (N - m)
        C = m * (1 - p)
        nxt = ((A + C - x) * cur - C * prev) / A
        prev, cur = cur, nxt
    return cur


def family_eval(params: FamilyParams, n: int, x: RationalLike) -> Fraction:
    if isinstance(params, HahnParams):
        return hahn_eval(n, x, params)
    if isinstance(params, DualHahnParams):
        return dual_hahn_eval(n, x, params)
    if isinstance(params, RacahParams):
        return racah_eval(n, x, params)
    return krawtchouk_eval(n, x, params)


# ---------------------------------------------------------------------------
# recurrence data

@dataclass(frozen=True)
class RecurrenceData:
    A: Callable[[int], Fraction]
    C: Callable[[int], Fraction]
    Lam: Callable[[RationalLike], Fraction]


def _quotient_in_n(num, den=(), const: RationalLike = 1) -> Callable[[int], Fraction]:
    """n -> const * prod(k n + s) / prod(k' n + s'), the products over the
    (slope, offset) pairs of `num` and `den`, slopes integer and offsets
    rational.  Each factor is scaled to integers once, so a call costs
    integer products and one normalisation; a vanishing denominator raises
    ZeroDivisionError."""
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

    def f(n: int) -> Fraction:
        top, bottom = c_num, c_den
        for k, s in nums:
            top *= k * n + s
        for k, s in dens:
            bottom *= k * n + s
        return Fraction(top, bottom)
    return f


def _zero_at_0(f: Callable[[int], Fraction]) -> Callable[[int], Fraction]:
    """C(n) with C(0) = 0 even where the formula's denominator vanishes at 0."""
    return lambda n: Fraction(0) if n == 0 else f(n)


@lru_cache(maxsize=1024)
def recurrence_data(params: FamilyParams) -> RecurrenceData:
    """Exact A(n), C(n) and Lam(x) closures for the family, built once per
    parameter set (the kernel and requirement checks ask for them per point)."""
    if isinstance(params, HahnParams):
        a, b, N = params.alpha, params.beta, params.N
        return RecurrenceData(
            _quotient_in_n([(1, a + 1), (1, a + b + 1), (-1, N)],
                           [(2, a + b + 1), (2, a + b + 2)]),
            _zero_at_0(_quotient_in_n([(1, 0), (1, a + b + N + 1), (1, b)],
                                      [(2, a + b), (2, a + b + 1)])),
            lambda x: -Fraction(x),
        )

    if isinstance(params, DualHahnParams):
        g, d, N = params.gamma, params.delta, params.N
        return RecurrenceData(
            _quotient_in_n([(1, g + 1), (1, -N)]),
            _quotient_in_n([(1, 0), (1, -d - N - 1)]),
            lambda x: Fraction(x) * (Fraction(x) + g + d + 1),
        )

    if isinstance(params, RacahParams):
        a, b, g, d = params.alpha, params.beta, params.gamma, params.delta
        return RecurrenceData(
            _quotient_in_n([(1, a + 1), (1, a + b + 1), (1, g + 1), (1, b + d + 1)],
                           [(2, a + b + 1), (2, a + b + 2)]),
            _zero_at_0(_quotient_in_n([(1, 0), (1, a + b - g), (1, a - d), (1, b)],
                                      [(2, a + b), (2, a + b + 1)])),
            lambda x: Fraction(x) * (Fraction(x) + g + d + 1),
        )

    p, N = params.p, params.N
    return RecurrenceData(
        _quotient_in_n([(-1, N)], const=p),
        _quotient_in_n([(1, 0)], const=1 - p),
        lambda x: -Fraction(x),
    )


# ---------------------------------------------------------------------------
# weights and norms

@lru_cache(maxsize=1 << 16)
def hahn_weight(x: int, params: HahnParams) -> Fraction:
    a, b, N = params.alpha, params.beta, params.N
    if not 0 <= x <= N:
        raise ValueError(f"x={x} outside 0..{N}")
    return rbinom(a + x, x) * rbinom(N + b - x, N - x)


@lru_cache(maxsize=1 << 16)
def hahn_norm(n: int, params: HahnParams) -> Fraction:
    a, b, N = params.alpha, params.beta, params.N
    if not 0 <= n <= N:
        raise ValueError(f"n={n} outside 0..{N}")
    num = (-1) ** n * pochhammer(n + a + b + 1, N + 1) * pochhammer(b + 1, n) * pochhammer(1, n)
    den = (2 * n + a + b + 1) * pochhammer(a + 1, n) * pochhammer(-N, n) * pochhammer(1, N)
    return num / den


@lru_cache(maxsize=1 << 16)
def dual_hahn_weight(x: int, params: DualHahnParams) -> Fraction:
    g, d, N = params.gamma, params.delta, params.N
    if not 0 <= x <= N:
        raise ValueError(f"x={x} outside 0..{N}")
    num = (2 * x + g + d + 1) * pochhammer(g + 1, x) * pochhammer(-N, x) * pochhammer(1, N)
    den = (-1) ** x * pochhammer(x + g + d + 1, N + 1) * pochhammer(d + 1, x) * pochhammer(1, x)
    return num / den


@lru_cache(maxsize=1 << 16)
def dual_hahn_norm(n: int, params: DualHahnParams) -> Fraction:
    g, d, N = params.gamma, params.delta, params.N
    if not 0 <= n <= N:
        raise ValueError(f"n={n} outside 0..{N}")
    return 1 / (rbinom(g + n, n) * rbinom(N + d - n, N - n))


def racah_weight(x: int, params: RacahParams) -> Fraction:
    if not 0 <= x <= params.N:
        raise ValueError(f"x={x} outside 0..{params.N}")
    return family_weights(params)[x]


def racah_norm(n: int, params: RacahParams) -> Fraction:
    if not 0 <= n <= params.N:
        raise ValueError(f"n={n} outside 0..{params.N}")
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
    sel = {"alpha": "gamma", "gamma": "alpha", "beta_delta": "beta_delta"}[params.minus_n]
    return RacahParams(params.gamma, params.delta, params.alpha, params.beta, sel)


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
    lams = [rec.Lam(x) for x in xs]
    L = math.lcm(*(lam.denominator for lam in lams))
    ls = [lam.numerator * (L // lam.denominator) for lam in lams]
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
