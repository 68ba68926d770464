import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twodiag.exact import (
    DenominatorPole,
    NonTerminatingSeries,
    ScaledRoot,
    hyper_terminating,
    is_nonpositive_int,
    over_lcm,
    pochhammer,
    rbinom,
    root_floats,
    scaled_root_floats,
    sum_of_products,
)

fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)
small_ints = st.integers(min_value=0, max_value=8)


def test_pochhammer_base_cases():
    assert pochhammer(F(7, 3), 0) == 1
    assert pochhammer(3, 2) == 12
    assert pochhammer(-2, 3) == 0  # factor (-2+2)
    assert pochhammer(F(1, 2), 3) == F(1, 2) * F(3, 2) * F(5, 2)


@given(fractions, small_ints, small_ints)
def test_pochhammer_splits_multiplicatively(a, j, k):
    assert pochhammer(a, j + k) == pochhammer(a, j) * pochhammer(a + j, k)


def test_rbinom_matches_integer_binomials():
    import math

    for a in range(8):
        for k in range(a + 1):
            assert rbinom(a, k) == math.comb(a, k)
    # rational upper argument through the Pochhammer form
    assert rbinom(F(1, 2), 2) == F(1, 2) * F(-1, 2) / 2


def test_is_nonpositive_int():
    assert is_nonpositive_int(0)
    assert is_nonpositive_int(-3)
    assert not is_nonpositive_int(2)
    assert not is_nonpositive_int(F(-1, 2))


def test_hyper_zero_numerator_gives_one():
    assert hyper_terminating([0, F(5, 2), -7], [F(1, 3), -9], 1) == 1
    # an upper parameter 0 kills every k >= 1 term even when -n is deeper
    assert hyper_terminating([-1, 1, 0], [1, -5], 1) == 1


def test_hyper_one_term_expansion():
    # 3F2(-1, b, c; d, e; 1) = 1 - b c / (d e), expanded by hand
    b, c, d, e = F(2, 3), F(5, 7), F(3, 2), F(-9, 4)
    assert hyper_terminating([-1, b, c], [d, e], 1) == 1 - b * c / (d * e)


def test_hyper_two_term_expansion():
    # 2F1(-2, b; d; z) = 1 - 2bz/d + b(b+1)z^2/(d(d+1)), by hand
    b, d, z = F(1, 3), F(5, 4), F(2, 5)
    expected = 1 - 2 * b / d * z + (b * (b + 1)) / (d * (d + 1)) * z * z
    assert hyper_terminating([-2, b], [d], z) == expected


@given(st.permutations([F(-2), F(1, 2), F(3)]), st.permutations([F(5, 3), F(-7, 2)]))
def test_hyper_parameter_permutation_symmetry(nums, dens):
    base = hyper_terminating([F(-2), F(1, 2), F(3)], [F(5, 3), F(-7, 2)], F(1))
    assert hyper_terminating(list(nums), list(dens), F(1)) == base


def test_hyper_common_denominator_rescaling_is_bit_identical():
    nums = [F(-3), F(5, 6), F(-7, 4)]
    dens = [F(11, 12), F(-9, 2)]
    base = hyper_terminating(nums, dens, F(2, 3))
    scaled = hyper_terminating(
        [F(n.numerator * (12 // n.denominator), 12) for n in nums],
        [F(d.numerator * (12 // d.denominator), 12) for d in dens],
        F(2, 3),
    )
    assert base == scaled
    assert (base.numerator, base.denominator) == (scaled.numerator, scaled.denominator)


def test_hyper_nonterminating_is_rejected():
    with pytest.raises(NonTerminatingSeries):
        hyper_terminating([F(1, 2), 3], [F(5, 2)], 1)


def test_hyper_denominator_pole_detection():
    # termination at n=3 but denominator -2 vanishes at k=3 <= n
    with pytest.raises(DenominatorPole):
        hyper_terminating([-3, F(1, 2)], [-2], 1)
    # pole beyond the termination index is harmless
    assert hyper_terminating([-2, F(1, 2)], [-2], 1) is not None


def test_scaled_root_constructors():
    assert ScaledRoot.sqrt(0) == ScaledRoot.zero() and ScaledRoot.sqrt(0).sign == 0
    assert ScaledRoot.of(-3) == ScaledRoot(F(-1), F(9))
    assert ScaledRoot.of(-3).coef == -1 and ScaledRoot.of(-3).radicand == 9
    assert float(ScaledRoot.of(-3)) == -3.0
    assert -ScaledRoot.sqrt(2) == ScaledRoot(F(-1), F(2))
    assert [ScaledRoot.of(v).sign for v in (-2, 0, 5)] == [-1, 0, 1]
    assert ScaledRoot(F(3), F(0)).sign == 0


def test_sign_reads_the_numerators_as_the_fraction_comparisons_did():
    def old_sign(e):
        if not e.radicand:
            return 0
        return (e.coef > 0) - (e.coef < 0)

    coefs = [0, 3, -3, F(0), F(2, 5), F(-2, 5), F(7), F(-7)]
    radicands = [0, F(0), 5, F(9, 4)]
    for coef, radicand in itertools.product(coefs, radicands):
        e = ScaledRoot(coef, radicand)
        assert e.sign == old_sign(e) and type(e.sign) is int, (coef, radicand)
    assert sorted({ScaledRoot(c, 1).sign for c in coefs}) == [-1, 0, 1]


def test_scaled_root_equality_by_value():
    assert ScaledRoot(F(2), F(1)) == ScaledRoot.of(2)
    assert hash(ScaledRoot(F(2), F(1))) == hash(ScaledRoot.of(2))
    assert ScaledRoot(F(1, 2), F(8)) == ScaledRoot.sqrt(2)
    assert ScaledRoot(F(0), F(5)) == ScaledRoot.zero()
    assert ScaledRoot.of(2) != ScaledRoot.of(-2)


def test_scaled_root_ordering_matches_values():
    vals = [ScaledRoot.of(v) for v in (-4, 3, 0, -1, 2)]
    assert [float(e) for e in sorted(vals)] == [-4.0, -1.0, 0.0, 2.0, 3.0]
    assert ScaledRoot.sqrt(2) < ScaledRoot.sqrt(3)
    assert -ScaledRoot.sqrt(3) < -ScaledRoot.sqrt(2)
    assert ScaledRoot(F(-1, 2), F(12)) < ScaledRoot.of(-1) <= ScaledRoot(F(-2), F(1, 4))


def test_scaled_root_exact_root():
    assert ScaledRoot.sqrt(F(9, 4)).exact_rational() == F(3, 2)
    assert (-ScaledRoot.sqrt(F(9, 4))).exact_rational() == F(-3, 2)
    assert ScaledRoot(F(2, 3), F(9)).exact_rational() == 2
    assert ScaledRoot.sqrt(2).exact_rational() is None


def test_scaled_root():
    r = ScaledRoot(F(-3, 2), F(2))
    assert r.square == F(9, 2)
    assert abs(float(r) + 1.5 * 2 ** 0.5) < 1e-15
    with pytest.raises(ValueError):
        ScaledRoot(F(1), F(-1))


# ---------------------------------------------------------------------------
# the integer kernels against the term-by-term Fraction loops they replaced


def _series_reference(numerators, denominators, z):
    """The term-by-term `Fraction` sum, with the same two refusals."""
    nums = [F(a) for a in numerators]
    dens = [F(d) for d in denominators]
    z = F(z)
    stops = [-a.numerator for a in nums if is_nonpositive_int(a)]
    if not stops:
        raise NonTerminatingSeries(nums)
    n = min(stops)
    for d in dens:
        if is_nonpositive_int(d) and -d.numerator < n:
            raise DenominatorPole(d)
    total = term = F(1)
    for k in range(n):
        for a in nums:
            term *= a + k
        for d in dens:
            term /= d + k
        term *= z
        term /= k + 1
        total += term
    return total


def _pochhammer_reference(a, k):
    out = F(1)
    for j in range(k):
        out *= F(a) + j
    return out


def _outcome(fn, *args):
    try:
        value = fn(*args)
    except (NonTerminatingSeries, DenominatorPole) as exc:
        return type(exc)
    return type(value), value


parameters = st.one_of(fractions, st.integers(min_value=-8, max_value=3))


@given(st.lists(parameters, max_size=3), st.one_of(st.none(), st.integers(-7, 0)),
       st.integers(min_value=0, max_value=3), st.lists(parameters, max_size=3),
       st.one_of(fractions, fractions.filter(bool).map(lambda p: 1 / p)))
def test_hyper_equals_the_term_by_term_sum(nums, stop, at, dens, z):
    # stop None leaves terminating to the draws (NonTerminatingSeries
    # where none is a nonpositive integer); dens at -8..0 raise poles;
    # z = 1/p is the Krawtchouk argument, and stop 0 gives n = 0
    if stop is not None:
        nums.insert(min(at, len(nums)), stop)
    assert _outcome(hyper_terminating, nums, dens, z) == _outcome(_series_reference, nums, dens, z)


@pytest.mark.parametrize("nums, dens, z, raised", [
    ([F(1, 2), 3], [F(5, 2)], 1, NonTerminatingSeries),
    ([-3, F(1, 2)], [-2], 1, DenominatorPole),
    ([-3, F(-7, 3)], [F(1, 2), 0], F(-5, 2), DenominatorPole),
])
def test_hyper_refuses_where_the_term_by_term_sum_refuses(nums, dens, z, raised):
    assert _outcome(hyper_terminating, nums, dens, z) is raised
    assert _outcome(_series_reference, nums, dens, z) is raised


@given(st.one_of(fractions, st.integers(-8, 8)), st.integers(min_value=0, max_value=12))
def test_pochhammer_equals_the_product_loop(a, k):
    value = pochhammer(a, k)
    assert type(value) is F and value == _pochhammer_reference(a, k)
    assert rbinom(a, k) == _pochhammer_reference(F(a) - k + 1, k) / _pochhammer_reference(1, k)


def test_every_family_series_equals_the_term_by_term_sum(monkeypatch):
    import random

    from twodiag import families
    from twodiag.families import RACAH_SELECTORS
    from twodiag.sampling import rand_dual_hahn, rand_hahn, rand_racah

    calls = []

    def checked(nums, dens, z):
        value = hyper_terminating(nums, dens, z)
        calls.append(value == _series_reference(nums, dens, z))
        return value

    monkeypatch.setattr(families, "hyper_terminating", checked)
    rng = random.Random(20)
    draws = [(families.hahn_eval, rand_hahn(rng, 7)),
             (families.dual_hahn_eval, rand_dual_hahn(rng, 7)),
             (families.krawtchouk_eval, families.KrawtchoukParams(F(3, 7), 6))]
    draws += [(families.racah_eval, rand_racah(rng, 7, s)) for s in RACAH_SELECTORS]
    for evaluate, params in draws:
        for n in range(params.N + 1):
            for x in (*range(params.N + 1), F(-5, 3)):
                evaluate.__wrapped__(n, x, params)  # past the cache, to the series
    assert len(calls) > 200 and all(calls)


@given(st.lists(fractions, max_size=8))
def test_over_lcm_puts_the_values_over_their_least_common_denominator(values):
    ints, den = over_lcm(values)
    assert [F(t, den) for t in ints] == values
    assert all(den % v.denominator == 0 for v in values)
    # no smaller denominator holds every value: the t_i share no factor with D
    assert math.gcd(den, *ints) == 1


def test_over_lcm_of_no_values():
    assert over_lcm([]) == ([], 1)


def _sum_of_products_reference(terms, over):
    return sum((math.prod(factors, start=F(1)) for factors in terms), F(0)) / over


@given(st.lists(st.lists(parameters, max_size=4), max_size=5),
       st.one_of(fractions, st.integers(min_value=-8, max_value=8)).filter(bool))
def test_sum_of_products_is_the_sum_of_the_fraction_products(terms, over):
    value = sum_of_products(terms, over)
    assert type(value) is F and value == _sum_of_products_reference(terms, over)
    assert value == sum_of_products(terms) / over


def test_sum_of_products_keeps_every_denominator():
    # one term's denominator equal to the running one, the next one not
    terms = [(F(1, 6),), (F(5, 6),), (F(2, 3), F(3, 5)), (-1, F(7, 10))]
    assert sum_of_products(terms) == F(1, 6) + F(5, 6) + F(2, 5) - F(7, 10) == F(7, 10)
    assert sum_of_products(terms, over=F(-7, 3)) == F(-3, 10)
    assert sum_of_products([]) == 0 and type(sum_of_products([])) is F
    with pytest.raises(ZeroDivisionError):
        sum_of_products(terms, over=F(0))


def _scalar_rule(c, r):
    """c * sqrt(r) as the scalar conversion rounds it, +0.0 for a zero."""
    v = float(c) * math.sqrt(float(r))
    return v if v else 0.0


# 70-bit integers with every bit drawn: a single `st.integers` draw of
# this size comes with its low bits zero, exact in a float
_BITS70 = st.builds(lambda high, low: high << 35 | low,
                    st.integers(2 ** 34, 2 ** 35 - 1), st.integers(0, 2 ** 35 - 1))

# rationals as (numerator, denominator): small ones; 70-bit ones, which
# int true division rounds once and float(n) / float(d) twice, scaled by
# 2^-1090..2^950, beyond the subnormals down to near the largest float;
# and zeros
_RATIONALS = st.one_of(
    st.tuples(st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6)),
    st.builds(lambda n, sign, d, k: (sign * n << k, d) if k >= 0 else (sign * n, d << -k),
              _BITS70, st.sampled_from((1, -1)), _BITS70, st.integers(-1090, 950)),
    st.tuples(st.just(0), st.integers(1, 10 ** 6)),
)


def _over_either_sign(rationals):
    """The pairs, each also as (-n, -d), the same rational over a negative
    denominator."""
    return st.builds(lambda pair, flip: (-pair[0], -pair[1]) if flip else pair,
                     rationals, st.booleans())


_COEFS = _over_either_sign(_RATIONALS)
_RADICANDS = _over_either_sign(_RATIONALS.map(lambda pair: (abs(pair[0]), pair[1])))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_COEFS, _RADICANDS), max_size=8))
@example([((0, -3), (5, 1)), ((-1, 1), (0, 7)), ((3, 1), (0, -2)), ((0, -1), (0, -1))])
@example([(((2 ** 53 - 1) << 971, 1), (1, 1)), ((-1, 2 ** 1074), (4, 1)),
          ((1, 2 ** 1075), (1, 1)), ((1 << 1000, 1), ((1 << 1020) + 1, 3)),
          ((-(2 ** 600), 3), (1, 2 ** 1070))])
def test_root_floats_is_the_scalar_rule(pairs):
    # signed and zero coefficients, zero radicands, zeros over negative
    # denominators, and values near both ends of the float range, where a
    # product may overflow to inf
    got = root_floats([c[0] for c, _ in pairs], [c[1] for c, _ in pairs],
                      [r[0] for _, r in pairs], [r[1] for _, r in pairs])
    want = [_scalar_rule(F(*c), F(*r)) for c, r in pairs]
    assert got.dtype == float and got.shape == (len(pairs),)
    assert [x.hex() for x in got.tolist()] == [x.hex() for x in want]
    roots = [ScaledRoot(F(*c), F(*r)) for c, r in pairs]
    assert [float(e).hex() for e in roots] == [x.hex() for x in want]
    assert [x.hex() for x in scaled_root_floats(roots).tolist()] == [x.hex() for x in want]


def test_root_floats_refuses_a_rational_past_the_float_range():
    with pytest.raises(OverflowError):
        root_floats([1 << 1024], [1], [1], [1])
