import random
import re
import zlib
from dataclasses import FrozenInstanceError, dataclass, fields, replace
from fractions import Fraction as F

import pytest

from twodiag import doubles, families, transforms, verify
from twodiag.doubles import DoubleCase, christoffel_nu, coefficients
from twodiag.exact import DenominatorPole, pochhammer
from twodiag.families import (
    RACAH_CAPS,
    RACAH_SELECTORS,
    DualHahnParams,
    FamilyParams,
    HahnParams,
    KrawtchoukParams,
    RacahParams,
    dual_hahn_eval,
    dual_hahn_norm,
    dual_hahn_weight,
    family_column,
    family_eval,
    family_norm,
    family_norms,
    family_table,
    family_weight,
    family_weights,
    hahn_eval,
    hahn_norm,
    hahn_weight,
    krawtchouk_eval,
    racah_eval,
    racah_norm,
    racah_weight,
    recurrence_data,
)
from twodiag.sampling import rand_dual_hahn, rand_hahn, rand_params_for_case, rand_racah


def hyp3f2_bruteforce(a1, a2, a3, b1, b2, terms):
    """Independent series oracle: explicit term-by-term Pochhammer sums."""
    total = F(0)
    for k in range(terms + 1):
        total += (pochhammer(a1, k) * pochhammer(a2, k) * pochhammer(a3, k)
                  / (pochhammer(b1, k) * pochhammer(b2, k) * pochhammer(1, k)))
    return total


def test_hahn_trivial_values():
    p = HahnParams(F(1, 3), F(2, 5), 4)
    for x in range(5):
        assert hahn_eval(0, x, p) == 1
    for n in range(5):
        assert hahn_eval(n, 0, p) == 1


def test_hahn_degree_one_value():
    # n=1, x=1, alpha=beta=0, N=2: 1 - 2*1/(1*2) = 0
    assert hahn_eval(1, 1, HahnParams(0, 0, 2)) == 0


def test_hahn_matches_series_oracle():
    p = HahnParams(F(1, 2), F(-1, 3), 5)
    for n in range(6):
        for x in range(6):
            expected = hyp3f2_bruteforce(-n, n + p.alpha + p.beta + 1, -x,
                                         p.alpha + 1, -p.N, min(n, x))
            assert hahn_eval(n, x, p) == expected


def test_dual_hahn_degree_one_formula():
    g, d, N = F(1, 2), F(1, 3), 5
    p = DualHahnParams(g, d, N)
    for x in range(N + 1):
        assert dual_hahn_eval(1, x, p) == 1 - x * (x + g + d + 1) / ((g + 1) * N)


def test_duality_hahn_dual_hahn():
    ph = HahnParams(F(1, 2), F(1, 3), 5)
    pd = DualHahnParams(F(1, 2), F(1, 3), 5)
    for n in range(6):
        for x in range(6):
            assert hahn_eval(n, x, ph) == dual_hahn_eval(x, n, pd)


def test_racah_degree_one_hand_expansion():
    # alpha=-3 fixes N=2; two-term expansion of the defining series at n=x=1
    a, b, g, d = F(-3), F(1, 2), F(1, 2), F(1, 2)
    p = RacahParams(a, b, g, d, "alpha")
    assert p.N == 2
    expected = 1 + ((-1) * (1 + a + b + 1) * (-1) * (1 + g + d + 1)
                    / ((a + 1) * (b + d + 1) * (g + 1)))
    assert expected == F(5, 4)
    assert racah_eval(1, 1, p) == expected
    assert racah_eval(0, 1, p) == 1
    assert racah_eval(1, 0, p) == 1


def test_racah_requires_degree_cap():
    with pytest.raises(ValueError, match=r"^alpha selector requires 3/2 to be -N, N >= 0$"):
        RacahParams(F(1, 2), F(1, 3), F(1, 5), F(1, 7), "alpha")
    with pytest.raises(ValueError, match=r"^unknown minus_n selector 'unknown'$"):
        RacahParams(-3, F(1, 2), F(1, 2), F(1, 2), "unknown")
    with pytest.raises(ValueError, match=r"^unknown minus_n selector 'beta'$"):
        RacahParams(-3, F(1, 2), F(1, 2), F(1, 2), "beta")


@pytest.mark.parametrize("selector", RACAH_SELECTORS)
def test_the_dual_of_the_dual_is_the_original(selector):
    assert RACAH_SELECTORS == tuple(RACAH_CAPS) == ("alpha", "beta_delta", "gamma")
    p = rand_racah(random.Random(selector), 6, selector)
    dual = families._dual_family(p)
    assert dual.minus_n == RACAH_CAPS[selector][1] and dual.N == p.N
    assert families._dual_family(dual) == p


# the exact messages of the ten per-point functions at N = 4
INDEX_MESSAGES = {"eval": "degree n={} outside 0..4", "weight": "x={} outside 0..4",
                  "norm": "n={} outside 0..4"}
INDEX_PARAMS = {"hahn": HahnParams(F(1, 2), F(1, 3), 4),
                "dual_hahn": DualHahnParams(F(1, 2), F(1, 3), 4),
                "racah": RacahParams(F(-5), F(9, 2), F(1, 3), F(1, 5)),
                "krawtchouk": KrawtchoukParams(F(1, 3), 4)}
PER_POINT = [f"{family}_{kind}" for family in INDEX_PARAMS for kind in INDEX_MESSAGES
             if family != "krawtchouk" or kind == "eval"]


@pytest.mark.parametrize("name", PER_POINT)
@pytest.mark.parametrize("index", [-1, 5])
def test_per_point_functions_refuse_an_index_outside_0_to_N(name, index):
    assert len(PER_POINT) == 10
    family, kind = name.rsplit("_", 1)
    fn, params = getattr(families, name), INDEX_PARAMS[family]
    with pytest.raises(ValueError) as err:
        fn(index, 1, params) if kind == "eval" else fn(index, params)
    assert str(err.value) == INDEX_MESSAGES[kind].format(index)


# (class, arguments with int spellings, the same with Fraction spellings,
# field names, replacements that fail the class's check with their messages);
# Hahn and dual Hahn take the same numbers, so they must differ by class only
PARAM_CLASSES = [
    (HahnParams, (1, -2, 3), (F(1), F(-2), 3), ("alpha", "beta", "N"),
     [({"N": -1}, "N must be a nonnegative integer")]),
    (DualHahnParams, (1, -2, 3), (F(1), F(-2), 3), ("gamma", "delta", "N"),
     [({"N": -1}, "N must be a nonnegative integer")]),
    (RacahParams, (-4, 1, 2, 3, "alpha"), (F(-4), F(1), F(2), F(3), "alpha"),
     ("alpha", "beta", "gamma", "delta", "minus_n"),
     [({"minus_n": "gamma"}, "gamma selector requires 3 to be -N, N >= 0")]),
    (KrawtchoukParams, (2, 5), (F(2), 5), ("p", "N"),
     [({"p": 0}, "p must be nonzero"), ({"N": 0}, "N must be a positive integer")]),
]
param_classes = pytest.mark.parametrize(
    "cls, ints, fracs, names, bad", PARAM_CLASSES,
    ids=[row[0].__name__ for row in PARAM_CLASSES])


@param_classes
def test_parameters_keep_their_fields_and_stay_frozen(cls, ints, fracs, names, bad):
    p = cls(*ints)
    assert [f.name for f in fields(p)] == list(names)
    assert repr(p).startswith(f"{cls.__name__}({names[0]}=Fraction(")
    for name in (names[0], "_hash"):
        with pytest.raises(FrozenInstanceError):
            setattr(p, name, 1)


@param_classes
def test_parameters_compare_by_class_and_value(cls, ints, fracs, names, bad):
    p, q = cls(*ints), cls(*fracs)
    assert p == q and hash(p) == hash(q)
    assert all(type(getattr(p, name)) is F for name in names if name not in ("N", "minus_n"))
    assert all(p != other(*o_ints) for other, o_ints, *_ in PARAM_CLASSES if other is not cls)
    moved, fresh = replace(p, **{names[1]: 7}), cls(*ints[:1], 7, *ints[2:])
    assert moved != p and moved == fresh and hash(moved) == hash(fresh)
    for change, message in bad:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            replace(p, **change)


def _count_fraction_hashes(monkeypatch):
    calls = []
    real = F.__hash__

    def counted(self):
        calls.append(self)
        return real(self)
    monkeypatch.setattr(F, "__hash__", counted)
    return calls


@param_classes
def test_parameters_are_hashed_once_at_construction(cls, ints, fracs, names, bad,
                                                     monkeypatch):
    p = cls(*ints)
    recurrence_data(p)
    calls = _count_fraction_hashes(monkeypatch)
    hash(p)
    recurrence_data(p)  # a cache hit hashes the key
    assert calls == []


def test_a_dataclass_subclass_keeps_the_cached_hash(monkeypatch):
    @dataclass(frozen=True)  # eq=True would generate a field hash
    class Shifted(FamilyParams):
        alpha: F
        N: int

    p, q = Shifted(F(1, 2), 3), Shifted(F(1, 2), 3)
    assert Shifted.__hash__ is FamilyParams.__hash__ and type(Shifted(1, 3).alpha) is F
    calls = _count_fraction_hashes(monkeypatch)
    assert hash(p) == hash(q) and calls == []


def test_krawtchouk_values_and_symmetric_recurrence():
    p = KrawtchoukParams(F(1, 2), 2)
    for x in range(3):
        assert krawtchouk_eval(0, x, p) == 1
        assert krawtchouk_eval(1, x, p) == 1 - x
    p7 = KrawtchoukParams(F(1, 2), 7)
    for n in range(1, 7):
        for x in range(8):
            K = lambda m: krawtchouk_eval(m, x, p7)
            assert n * K(n - 1) + (7 - n) * K(n + 1) == (7 - 2 * x) * K(n)


def test_krawtchouk_matches_hypergeometric_kernel():
    # the 2F1 evaluator against the fraction-free recurrence table, also
    # off the grid and at p outside (0, 1)
    xs = [F(-2), F(0), F(1, 2), F(3), F(7)]
    for p in (KrawtchoukParams(F(1, 3), 5), KrawtchoukParams(F(-1, 2), 4)):
        for n, (q, row) in enumerate(family_table(p, xs)):
            assert [krawtchouk_eval(n, x, p) for x in xs] == [F(v, q) for v in row]


def test_hahn_weight_values():
    N = 5
    flat = HahnParams(0, 0, N)
    assert all(hahn_weight(x, flat) == 1 for x in range(N + 1))
    p = HahnParams(F(1, 2), F(2, 3), N)
    assert hahn_weight(0, p) == pochhammer(p.beta + 1, N) / pochhammer(1, N)


def test_dual_hahn_weight_and_norm_values():
    g, d, N = F(1, 2), F(1, 3), 5
    p = DualHahnParams(g, d, N)
    # x = 0 in the displayed weight collapses to N!/(gamma+delta+2)_N
    assert dual_hahn_weight(0, p) == pochhammer(1, N) / pochhammer(g + d + 2, N)
    assert dual_hahn_norm(0, p) == pochhammer(1, N) / pochhammer(d + 1, N)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_hahn_orthogonality_exact(seed):
    rng = random.Random(seed)
    p = rand_hahn(rng, 8)
    for n in range(p.N + 1):
        for m in range(n, p.N + 1):
            s = sum(hahn_weight(x, p) * hahn_eval(n, x, p) * hahn_eval(m, x, p)
                    for x in range(p.N + 1))
            assert s == (hahn_norm(n, p) if n == m else 0)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_dual_hahn_orthogonality_exact(seed):
    rng = random.Random(seed)
    p = rand_dual_hahn(rng, 8)
    for n in range(p.N + 1):
        for m in range(n, p.N + 1):
            s = sum(dual_hahn_weight(x, p) * dual_hahn_eval(n, x, p) * dual_hahn_eval(m, x, p)
                    for x in range(p.N + 1))
            assert s == (dual_hahn_norm(n, p) if n == m else 0)


@pytest.mark.parametrize("selector", ["alpha", "beta_delta", "gamma"])
def test_racah_derived_weights_orthogonality(selector):
    rng = random.Random(zlib.crc32(selector.encode()))
    p = rand_racah(rng, 6, selector)
    for n in range(p.N + 1):
        for m in range(n, p.N + 1):
            s = sum(racah_weight(x, p) * racah_eval(n, x, p) * racah_eval(m, x, p)
                    for x in range(p.N + 1))
            assert s == (racah_norm(n, p) if n == m else 0)


def test_racah_weight_normalization():
    p = rand_racah(random.Random(9), 6, "alpha")
    assert racah_weight(0, p) == 1
    assert sum(racah_weight(x, p) for x in range(p.N + 1)) == racah_norm(0, p)


def test_recurrence_data_closed_forms():
    g, d, N = F(1, 2), F(1, 3), 6
    rec = recurrence_data(DualHahnParams(g, d, N))
    for n in range(N + 1):
        assert rec.A(n) == (n + g + 1) * (n - N)
        assert rec.C(n) == n * (n - d - N - 1)
    assert rec.C(0) == 0
    assert rec.A(N) == 0
    assert rec.Lam(3) == 3 * (3 + g + d + 1)
    rec_h = recurrence_data(HahnParams(g, d, N))
    assert rec_h.Lam(4) == -4
    assert rec_h.A(N) == 0 and rec_h.C(0) == 0


@pytest.mark.parametrize("params", [
    HahnParams(F(1, 2), F(-1, 3), 6),
    DualHahnParams(F(2, 5), F(3, 7), 6),
    RacahParams(-7, F(15, 2), F(1, 3), F(2, 7), "alpha"),
    KrawtchoukParams(F(2, 7), 6),
])
def test_three_term_recurrence_residues(params):
    rec = recurrence_data(params)
    N = params.N
    for n in range(1, N):
        for x in range(N + 1):
            res = (rec.Lam(x) * family_eval(params, n, x)
                   - rec.A(n) * family_eval(params, n + 1, x)
                   + (rec.A(n) + rec.C(n)) * family_eval(params, n, x)
                   - rec.C(n) * family_eval(params, n - 1, x))
            assert res == 0


def test_rational_x_is_formal_but_exact():
    from twodiag.exact import hyper_terminating

    p = DualHahnParams(F(1, 2), F(1, 3), 4)
    v = dual_hahn_eval(2, F(-1), p)  # off-grid point, terminates on -n
    assert v == hyper_terminating([1, F(-1) + F(11, 6), -2], [F(3, 2), -4], 1)


def test_denominator_pole_is_reported():
    p = HahnParams(-1, 0, 3)  # alpha+1 = 0 poles for x >= 1
    assert hahn_eval(1, 0, p) == 1
    with pytest.raises(DenominatorPole):
        hahn_eval(1, 1, p)


def test_degenerate_racah_weight_reports_division():
    # beta - gamma a positive integer makes the weight blow up mid-grid
    p = RacahParams(F(3, 2), F(7, 3), F(1, 3), -5 - F(7, 3), "beta_delta")
    with pytest.raises(ZeroDivisionError):
        racah_weight(2, p)


def test_hahn_norm_degenerate_denominator_reported():
    # 2n+alpha+beta+1 = 0 at n=1: the division by zero surfaces, unmasked
    p = HahnParams(F(-3, 2), F(-3, 2), 4)
    with pytest.raises(ZeroDivisionError):
        hahn_norm(1, p)


def _case_families(seed):
    """(family, its grid points) for both families of every doubling case,
    Racah draws through all three degree caps; the hatted family is also
    taken at x + xshift, the points the eigenvector matrices use."""
    rng = random.Random(seed)
    out = []
    for i, case in enumerate(list(DoubleCase) * 3):
        p = rand_params_for_case(case, rng, 7, i)
        pair = coefficients(case, p)
        shift = int(pair.xshift)
        out.append((p, range(p.N + 1)))
        out.append((pair.hatted, sorted({x + s for x in range(p.N + 1) for s in (0, shift)})))
    return out


def _table_values(fam, xs):
    """y_n(x) for n = 0..N and x in xs from the integer table."""
    return [[F(p, q) for p in ps] for q, ps in family_table(fam, xs)]


def _draws(seed):
    """(family, grid) for random draws at N <= 12 of every family and
    Racah degree cap, each on its grid and on the grid shifted by one."""
    rng = random.Random(seed)
    fams = [rand_hahn(rng, 12), rand_dual_hahn(rng, 12), KrawtchoukParams(
        F(rng.randint(1, 9), 10), rng.randint(1, 12))]
    fams += [rand_racah(rng, 12, sel) for sel in ("alpha", "beta_delta", "gamma")]
    return [(fam, [x + s for x in range(fam.N + 1)]) for fam in fams for s in (0, 1)]


@pytest.mark.parametrize("seed", [0, 1])
def test_family_table_equals_series(seed):
    for fam, xs in _case_families(seed) + _draws(seed):
        xs = list(xs) + [F(-2, 3)]
        table = _table_values(fam, xs)
        assert len(table) == fam.N + 1, fam
        for n, row in enumerate(table):
            assert row == [family_eval(fam, n, x) for x in xs], (fam, n)


def test_family_table_edges():
    p = HahnParams(F(1, 2), F(1, 3), 0)
    assert list(family_table(p, [0, 3])) == [(1, [1, 1])]
    assert _table_values(HahnParams(F(1, 2), F(1, 3), 3), []) == [[]] * 4


@pytest.mark.parametrize("seed", [0, 1])
def test_weight_and_norm_tables_equal_closed_forms(seed):
    for fam, _ in _case_families(seed):
        assert list(family_weights(fam)) == [family_weight(fam, x) for x in range(fam.N + 1)]
        assert list(family_norms(fam)) == [family_norm(fam, n) for n in range(fam.N + 1)]


SERIES_POLES = [
    HahnParams(-2, F(1, 3), 4),                      # alpha+1 = -1
    DualHahnParams(-2, F(1, 3), 4),                  # gamma+1 = -1
    RacahParams(-5, F(1, 2), -2, F(1, 3), "alpha"),  # gamma+1 = -1
]


@pytest.mark.parametrize("params", SERIES_POLES)
def test_column_at_a_series_pole_raises(params):
    with pytest.raises(DenominatorPole):
        family_eval(params, 2, 3)
    with pytest.raises(ZeroDivisionError, match=r"A\(1\) = 0"):
        list(family_table(params, [3]))
    rows = family_table(params, [3])  # rows below the vanishing A(n) come first
    assert next(rows) == (1, [1])


def _series(params, n, x):
    """family_eval(params, n, x), or the type of the exception it raises."""
    try:
        return family_eval(params, n, x)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


@pytest.mark.parametrize("seed", [0, 1])
def test_family_value_equals_series(seed):
    # every family and Racah degree cap, on the base grid, on the hatted
    # grid at x + xshift (which reaches beyond the hatted N), at an
    # off-grid point and at each case's rational transform parameter nu
    rng = random.Random(seed + 10)
    points = _case_families(seed) + _draws(seed)
    for i, case in enumerate(DoubleCase):
        p = rand_params_for_case(case, rng, 7, i)
        points.append((p, [christoffel_nu(case, p)]))
    for fam, xs in points:
        for x in list(xs) + [F(-2, 3)]:
            got = [family_column(fam, x)[n] for n in range(fam.N + 1)]
            assert got == [family_eval(fam, n, x) for n in range(fam.N + 1)], (fam, x)
            for n in (-1, fam.N + 1):
                with pytest.raises(ValueError, match="outside"):
                    family_column(fam, x)[n]


@pytest.mark.parametrize("params", SERIES_POLES + [
    HahnParams(F(-3, 2), F(-3, 2), 4),  # 2n+alpha+beta+1 = 0 at n = 1; no series pole
])
def test_column_past_the_recurrence_stop_reads_the_series(params):
    col = family_column(params, 3)  # building the column raises nothing
    assert list(col.table) == [family_eval(params, n, 3) for n in (0, 1)]
    for x in range(params.N + 1):
        for n in range(params.N + 1):
            expected = _series(params, n, x)
            if isinstance(expected, type):
                with pytest.raises(expected):
                    family_column(params, x)[n]
            else:
                assert family_column(params, x)[n] == expected, (n, x)


def _clear_family_caches():
    for fn in (family_column, family_weights, family_norms, transforms.christoffel_data):
        fn.cache_clear()


def test_a_shifted_hahn_a_fails_the_table_and_the_grids(monkeypatch):
    real = families.recurrence_data

    def mutant(params):
        rec = real(params)
        if not isinstance(params, HahnParams):
            return rec
        a = params.alpha
        # the factor (n + alpha + 1) of A(n) becomes (n + alpha + 2)
        return replace(rec, A=lambda n: rec.A(n) * (n + a + 2) / (n + a + 1))

    for module in (families, doubles, transforms):
        monkeypatch.setattr(module, "recurrence_data", mutant)
    _clear_family_caches()
    try:
        with pytest.raises(AssertionError):
            test_family_table_equals_series(0)
        hahn = {c.value for c in DoubleCase if c.family is HahnParams}
        for suite in (verify.suite_pairs, verify.suite_requirements):
            failed = {o.label.split()[1] for o in suite(random.Random(0), 4, 1) if not o.ok}
            assert failed == hahn, suite.__name__
    finally:
        _clear_family_caches()
