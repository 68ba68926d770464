"""Exact evaluation of Hahn, dual Hahn, Racah and Krawtchouk polynomials,
their discrete weights, norms and three-term recurrence data.

Hahn and dual Hahn are terminating 3F2's at unit argument, Racah a
terminating 4F3; all values are exact rationals for rational parameters.
The recurrence used throughout is

    Lam(x) y_n(x) = A(n) y_{n+1}(x) - (A(n)+C(n)) y_n(x) + C(n) y_{n-1}(x).

Two ways to the same numbers live here.  The per-point evaluators
(`*_eval` by the series, `*_weight`/`*_norm` by their closed forms) are
the independent oracle that the pair, requirement and orthogonality checks
use.  The whole-table builders (`family_column`, `family_weights`,
`family_norms`) run the recurrence above in n, and the ratio recurrences of
weight and norm, to fill a whole column or table in O(N) steps; the
eigenvector matrices are built from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Union

from .exact import (
    Rational,
    RationalLike,
    hyper_terminating,
    is_nonpositive_int,
    pochhammer,
    rbinom,
)


def _frac(x: RationalLike) -> Fraction:
    return Fraction(x)


@dataclass(frozen=True)
class HahnParams:
    alpha: Fraction
    beta: Fraction
    N: int

    def __post_init__(self):
        object.__setattr__(self, "alpha", _frac(self.alpha))
        object.__setattr__(self, "beta", _frac(self.beta))
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
        object.__setattr__(self, "gamma", _frac(self.gamma))
        object.__setattr__(self, "delta", _frac(self.delta))
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
            object.__setattr__(self, name, _frac(getattr(self, name)))
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
        object.__setattr__(self, "p", _frac(self.p))
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
    return hyper_terminating([-n, n + a + b + 1, -_frac(x)], [a + 1, -N], 1)


@lru_cache(maxsize=1 << 18)
def dual_hahn_eval(n: int, x: RationalLike, params: DualHahnParams) -> Fraction:
    """R_n(lambda(x); gamma, delta, N), indexed by the grid variable x.

    Rational x is allowed: -x is then a formal numerator parameter and the
    series terminates on -n.
    """
    g, d, N = params.gamma, params.delta, params.N
    if not 0 <= n <= N:
        raise ValueError(f"degree n={n} outside 0..{N}")
    return hyper_terminating([-_frac(x), _frac(x) + g + d + 1, -n], [g + 1, -N], 1)


@lru_cache(maxsize=1 << 18)
def racah_eval(n: int, x: RationalLike, params: RacahParams) -> Fraction:
    """R_n(lambda(x); alpha, beta, gamma, delta) as a terminating 4F3 at 1."""
    a, b, g, d = params.alpha, params.beta, params.gamma, params.delta
    if not 0 <= n <= params.N:
        raise ValueError(f"degree n={n} outside 0..{params.N}")
    x = _frac(x)
    return hyper_terminating(
        [-n, n + a + b + 1, -x, x + g + d + 1], [a + 1, b + d + 1, g + 1], 1
    )


@lru_cache(maxsize=1 << 18)
def krawtchouk_eval(n: int, x: RationalLike, params: KrawtchoukParams) -> Fraction:
    """K_n(x; p, N) by upward recurrence from K_0 = 1 and K_1 = 1 - x/(Np)."""
    p, N = params.p, params.N
    if not 0 <= n <= N:
        raise ValueError(f"degree n={n} outside 0..{N}")
    x = _frac(x)
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


def recurrence_data(params: FamilyParams) -> RecurrenceData:
    """Exact A(n), C(n) and Lam(x) closures for the family."""
    if isinstance(params, HahnParams):
        a, b, N = params.alpha, params.beta, params.N

        def A(n, a=a, b=b, N=N):
            return (n + a + 1) * (n + a + b + 1) * (N - n) / ((2 * n + a + b + 1) * (2 * n + a + b + 2))

        def C(n, a=a, b=b, N=N):
            if n == 0:
                return Fraction(0)
            return n * (n + a + b + N + 1) * (n + b) / ((2 * n + a + b) * (2 * n + a + b + 1))

        return RecurrenceData(A, C, lambda x: -_frac(x))

    if isinstance(params, DualHahnParams):
        g, d, N = params.gamma, params.delta, params.N
        return RecurrenceData(
            lambda n: (n + g + 1) * Fraction(n - N),
            lambda n: n * (n - d - N - 1),
            lambda x: _frac(x) * (_frac(x) + g + d + 1),
        )

    if isinstance(params, RacahParams):
        a, b, g, d = params.alpha, params.beta, params.gamma, params.delta

        def A(n, a=a, b=b, g=g, d=d):
            return ((n + a + 1) * (n + a + b + 1) * (n + g + 1) * (n + b + d + 1)
                    / ((2 * n + a + b + 1) * (2 * n + a + b + 2)))

        def C(n, a=a, b=b, g=g, d=d):
            if n == 0:
                return Fraction(0)
            return (n * (n + a + b - g) * (n + a - d) * (n + b)
                    / ((2 * n + a + b) * (2 * n + a + b + 1)))

        return RecurrenceData(A, C, lambda x: _frac(x) * (_frac(x) + g + d + 1))

    p, N = params.p, params.N
    return RecurrenceData(
        lambda n: p * (N - n),
        lambda n: n * (1 - p),
        lambda x: -_frac(x),
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
# value columns by the three-term recurrence

@lru_cache(maxsize=4096)
def _recurrence_rows(params: FamilyParams) -> tuple[tuple[Fraction, Fraction, Fraction], ...]:
    """(A(n), A(n)+C(n), C(n)) for n = 0..N-1: the x-independent part of
    every value column, computed once per parameter set."""
    rec = recurrence_data(params)
    rows = []
    for n in range(params.N):
        a, c = rec.A(n), rec.C(n)
        rows.append((a, a + c, c))
    return tuple(rows)


@lru_cache(maxsize=1024)
def family_column(params: FamilyParams, x: RationalLike) -> tuple[Fraction, ...]:
    """y_0(x), ..., y_N(x) by the three-term recurrence, upward from
    y_0 = 1:  y_{n+1} = ((Lam(x) + A(n) + C(n)) y_n - C(n) y_{n-1}) / A(n).

    Equal to family_eval(params, n, x) for every n; a vanishing A(n) with
    n < N (a pole of the series) raises ZeroDivisionError.
    """
    lam = recurrence_data(params).Lam(x)
    prev, cur = Fraction(0), Fraction(1)
    out = [cur]
    for a, ac, c in _recurrence_rows(params):
        prev, cur = cur, ((lam + ac) * cur - c * prev) / a
        out.append(cur)
    return tuple(out)
