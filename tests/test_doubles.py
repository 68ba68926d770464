import itertools
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from twodiag.doubles import (
    NONSYM_CASES,
    DoubleCase,
    FamilyMismatch,
    GridPole,
    christoffel_nu,
    coefficients,
    locate_failure,
    pair_grid_max_residue,
    pair_residue_backward,
    pair_residue_forward,
    requirements_grid_max_residue,
    verify_pair,
    verify_requirements,
)
from twodiag.families import (
    DualHahnParams,
    HahnParams,
    RacahParams,
    family_column,
    family_eval,
    hahn_eval,
    recurrence_data,
)
from twodiag.sampling import rand_params_for_case

ALL_CASES = list(DoubleCase)


def draw(case, seed, max_n=6):
    return rand_params_for_case(case, random.Random(seed), max_n, seed)


def test_coefficient_spot_values_dual_hahn():
    g, d, N = F(1, 2), F(1, 3), 5
    p = DualHahnParams(g, d, N)
    cs3 = coefficients(DoubleCase.DUAL_HAHN_III, p)
    assert cs3.d(F(2)) == g + 1
    assert cs3.d_hat(F(2)) == (2 + g + 1) * (2 + d) / (g + 1)
    assert (cs3.hatted.gamma, cs3.hatted.delta, cs3.hatted.N) == (g + 1, d - 1, N)
    cs1 = coefficients(DoubleCase.DUAL_HAHN_I, p)
    assert cs1.d_hat(F(3)) == 3 * (3 + g + d + 1) / (N * (g + 1))
    assert (cs1.hatted.gamma, cs1.hatted.delta, cs1.hatted.N) == (g + 1, d + 1, N - 1)
    assert cs1.xshift == -1
    cs2 = coefficients(DoubleCase.DUAL_HAHN_II, p)
    assert (cs2.hatted.gamma, cs2.hatted.delta, cs2.hatted.N) == (g, d, N - 1)
    assert cs2.xshift == 0


def test_coefficient_spot_values_hahn():
    a, b, N = F(2, 3), F(1, 5), 4
    p = HahnParams(a, b, N)
    cs = coefficients(DoubleCase.HAHN_I, p)
    assert cs.d_hat(F(2)) == (a + 2 + 1) / (a + 1)
    assert (cs.hatted.alpha, cs.hatted.beta, cs.hatted.N) == (a + 1, b, N)


def test_hatted_parameter_shift_identity():
    # the dual Hahn shift rule: gamma+delta-(hatted sum) = 2*xshift
    for case in (DoubleCase.DUAL_HAHN_I, DoubleCase.DUAL_HAHN_II, DoubleCase.DUAL_HAHN_III):
        p = draw(case, 3)
        cs = coefficients(case, p)
        lhs = p.gamma + p.delta - (cs.hatted.gamma + cs.hatted.delta)
        assert lhs == 2 * cs.xshift


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda c: c.value)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pair_relations_exact_on_grid(case, seed):
    params = draw(case, seed)
    assert pair_grid_max_residue(coefficients(case, params)) == 0


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda c: c.value)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_requirements_exact_on_grid(case, seed):
    params = draw(case, seed)
    assert requirements_grid_max_residue(coefficients(case, params)) == 0


def test_requirement_boundary_n0_is_trivial():
    p = draw(DoubleCase.DUAL_HAHN_II, 4)
    res = verify_requirements(DoubleCase.DUAL_HAHN_II, p, n=0, x=1)
    assert res[1] == 0  # the C(0) = 0 side


def test_dual_hahn_one_requirement_is_shift_invariant():
    # a(n) ahat(n-1) equals n(n - dhat - Nhat - 1) with dhat+Nhat = d+N
    g, d, N = F(2, 7), F(3, 5), 5
    p = DualHahnParams(g, d, N)
    cs = coefficients(DoubleCase.DUAL_HAHN_I, p)
    assert cs.hatted.delta + cs.hatted.N == d + N
    for n in range(1, N):
        assert cs.a(n) * cs.a_hat(n - 1) == n * (n - d - N - 1)


def test_hahn_ii_n0_forward_relation_shape():
    # at n = 0 the first relation reads (Q_0 - Q_1)/(a+b+2) = x Qhat_0 /(N(a+1))
    a, b, N = F(1, 3), F(2, 5), 4
    p = HahnParams(a, b, N)
    cs = coefficients(DoubleCase.HAHN_II, p)
    for x in range(N + 1):
        lhs = (hahn_eval(0, x, p) - hahn_eval(1, x, p)) / (a + b + 2)
        assert lhs == F(x) / (N * (a + 1))  # Qhat_0 = 1
        assert pair_residue_forward(cs, 0, x) == 0


def test_racah_iii_n0_forward_relation_shape():
    p = RacahParams(-5, F(19, 2), F(1, 3), F(2, 5), "alpha")
    a, b, g, d = p.alpha, p.beta, p.gamma, p.delta
    from twodiag.families import racah_eval

    for x in range(p.N + 1):
        lhs = (racah_eval(1, x, p) - racah_eval(0, x, p)) / (a + b + 2)
        lam = x * (x + g + d + 1)
        assert lhs == lam / ((g + 1) * (b + d + 1) * (a + 1))


def test_eliminating_hatted_family_reproduces_recurrence():
    # substituting relation 2 into relation 1 must reproduce the base
    # family's three-term recurrence, coefficient by coefficient
    for case in (DoubleCase.DUAL_HAHN_III, DoubleCase.HAHN_I, DoubleCase.RACAH_II):
        params = draw(case, 7)
        cs = coefficients(case, params)
        rec = recurrence_data(params)
        N = params.N
        for n in range(1, min(N, cs.hatted.N)):
            for x in range(N + 1):
                y = lambda k: family_eval(params, k, x)
                lhs = (cs.a_hat(n - 1) * (cs.a(n - 1) * y(n - 1) + cs.b(n - 1) * y(n))
                       + cs.b_hat(n - 1) * (cs.a(n) * y(n) + cs.b(n) * y(n + 1)))
                assert lhs == cs.d(F(x)) * cs.d_hat(F(x)) * y(n)
                # and the requirement residues tie those coefficients to A, C
                assert cs.a_hat(n - 1) * cs.a(n - 1) == rec.C(n)
                assert cs.b_hat(n - 1) * cs.b(n) == rec.A(n)


def test_dual_hahn_one_swap_gives_hahn_shift_pair():
    # swapping the roles of degree and variable turns the first case's pair
    # into the forward/backward shift relations for Hahn polynomials
    a, b, N = F(1, 2), F(1, 3), 5
    base = HahnParams(a, b, N)
    hat = HahnParams(a + 1, b + 1, N - 1)
    for n in range(1, N + 1):
        for x in range(N):
            lhs = hahn_eval(n, x, base) - hahn_eval(n, x + 1, base)
            rhs = (n * (n + a + b + 1) / (N * (a + 1))) * hahn_eval(n - 1, x, hat)
            assert lhs == rhs
    for n in range(1, N + 1):
        for x in range(N):
            lhs = (-(x + 1) * (N - x + b) * hahn_eval(n - 1, x, hat)
                   + (N - x - 1) * (x + a + 2) * hahn_eval(n - 1, x + 1, hat))
            assert lhs == N * (a + 1) * hahn_eval(n, x + 1, base)


def test_verify_pair_point_api():
    p = DualHahnParams(F(1, 2), F(1, 3), 4)
    r1, r2 = verify_pair(DoubleCase.DUAL_HAHN_III, p, n=2, x=3)
    assert (r1, r2) == (0, 0)
    with pytest.raises(ValueError):
        verify_pair(DoubleCase.DUAL_HAHN_II, p, n=3, x=0)  # n+1 beyond hatted cap


def test_christoffel_nu_table():
    pd = DualHahnParams(F(1, 2), F(1, 3), 5)
    ph = HahnParams(F(2, 3), F(1, 5), 5)
    pr = RacahParams(-6, F(15, 2), F(1, 3), F(1, 5), "alpha")
    assert christoffel_nu(DoubleCase.DUAL_HAHN_I, pd) == 0
    assert christoffel_nu(DoubleCase.DUAL_HAHN_II, pd) == 5
    assert christoffel_nu(DoubleCase.DUAL_HAHN_III, pd) == -pd.delta
    assert christoffel_nu(DoubleCase.HAHN_I, ph) == -ph.alpha - 1
    assert christoffel_nu(DoubleCase.HAHN_II, ph) == 0
    assert christoffel_nu(DoubleCase.HAHN_III, ph) == 5 + ph.beta + 1
    assert christoffel_nu(DoubleCase.HAHN_IV, ph) == 5
    assert christoffel_nu(DoubleCase.RACAH_I, pr) == -pr.delta
    assert christoffel_nu(DoubleCase.RACAH_II, pr) == pr.beta - pr.gamma
    assert christoffel_nu(DoubleCase.RACAH_III, pr) == 0
    assert christoffel_nu(DoubleCase.RACAH_IV, pr) == -pr.alpha - 1


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda c: c.value)
def test_mutation_sensitivity_single_sign_flip(case):
    params = draw(case, 11, max_n=4)
    cs = coefficients(case, params)
    for which in ("a", "b", "a_hat", "b_hat", "d", "d_hat"):
        bad = cs.flipped(which)
        assert (pair_grid_max_residue(bad) != 0
                or requirements_grid_max_residue(bad) != 0), which


COEFFICIENTS = ("a", "b", "a_hat", "b_hat", "d", "d_hat")


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda c: c.value)
def test_flipping_a_memoised_coefficient_is_caught(case):
    cs = coefficients(case, draw(case, 5, max_n=4))
    assert locate_failure(cs) is None  # fills every memo of the sextet
    for which in COEFFICIENTS:
        assert locate_failure(cs.flipped(which)) is not None, which
    assert locate_failure(cs) is None


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda c: c.value)
def test_sextets_of_different_parameters_share_no_memo(case):
    p1, p2 = draw(case, 1), draw(case, 2)
    assert p1 != p2
    first, second = coefficients(case, p1), coefficients(case, p2)
    formulas = case.record.sextet(p2)  # the same quotients with memos of their own
    N = min(p1.N, p2.N)
    for which in COEFFICIENTS:
        args = range(N) if which in ("a", "b", "a_hat", "b_hat") else [F(x) for x in range(N + 1)]
        [getattr(first, which)(t) for t in args]  # fill the first sextet's memo
        assert [getattr(second, which)(t) for t in args] == [formulas[which](t) for t in args]


def test_family_mismatch():
    with pytest.raises(FamilyMismatch):
        coefficients(DoubleCase.HAHN_I, DualHahnParams(F(1, 2), F(1, 3), 4))
    with pytest.raises(FamilyMismatch):
        christoffel_nu(DoubleCase.DUAL_HAHN_I, HahnParams(F(1, 2), F(1, 3), 4))
    with pytest.raises(FamilyMismatch):
        coefficients(DoubleCase.DUAL_HAHN_I, None)


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda c: c.value)
def test_grid_walks_visit_every_point_once(case, monkeypatch):
    # every grid function evaluates each residue of its grid exactly once,
    # through the module's per-point functions
    from twodiag import doubles

    cs = coefficients(case, draw(case, 3, max_n=4))
    N, points = cs.base.N, []
    for name in ("pair_residue_forward", "pair_residue_backward"):
        fn = getattr(doubles, name)
        monkeypatch.setattr(doubles, name,
                            lambda c, n, x, fn=fn, name=name: points.append((name, n, x)) or fn(c, n, x))
    req = doubles.verify_requirements
    monkeypatch.setattr(doubles, "verify_requirements",
                        lambda c, n, x: points.append(("requirements", n, x)) or req(c, n=n, x=x))
    xs = range(N + 1)
    pairs = ([("pair_residue_forward", n, x) for n in range(N) for x in xs]
             + [("pair_residue_backward", n, x) for n in range(min(N, cs.hatted.N)) for x in xs])
    reqs = [("requirements", n, x) for n in range(N) for x in xs]
    for walk, expected in ((doubles.pair_grid_max_residue, pairs),
                           (doubles.requirements_grid_max_residue, reqs),
                           (doubles.locate_failure, pairs + reqs)):
        points.clear()
        assert walk(cs) in (0, None)
        assert sorted(points) == sorted(expected), walk.__name__


def _factor_mutants(num, den):
    """(what, num, den) with one linear factor altered: its offset + 1, or
    the factor moved across the fraction bar."""
    for i, (k, s) in enumerate(num):
        yield f"num[{i}] offset + 1", num[:i] + [(k, s + 1)] + num[i + 1:], den
        yield f"num[{i}] into den", num[:i] + num[i + 1:], den + [(k, s)]
    for i, (k, s) in enumerate(den):
        yield f"den[{i}] offset + 1", num, den[:i] + [(k, s + 1)] + den[i + 1:]
        yield f"den[{i}] into num", num + [(k, s)], den[:i] + den[i + 1:]


# moving the factor x of dhat into its denominator puts a pole at x = 0,
# where the grid walk starts: the walks name its position instead of passing
POLE_MUTANTS = {("DualHahnI", "d_hat", "num[0] into den"),
                ("HahnII", "d_hat", "num[0] into den"),
                ("RacahIII", "d_hat", "num[0] into den")}


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda c: c.value)
def test_every_altered_factor_is_caught(case, monkeypatch):
    # the builder reads each coefficient through the name Q of `doubles`,
    # one call per coefficient in the order a, b, a_hat, b_hat, d, d_hat;
    # alter one factor of one call and walk the grid
    from twodiag import doubles

    params = next(p for seed in range(50) if (p := draw(case, seed, max_n=5)).N >= 2)
    real, recorded = doubles.Q, []
    monkeypatch.setattr(doubles, "Q", lambda num, den=(), const=1:
                        recorded.append((list(num), list(den))) or real(num, den, const))
    assert locate_failure(coefficients(case, params)) is None
    assert len(recorded) == len(COEFFICIENTS)
    for position, (which, (num, den)) in enumerate(zip(COEFFICIENTS, recorded)):
        for what, mnum, mden in _factor_mutants(num, den):
            calls = itertools.count()

            def altered(num_, den_=(), const=1):
                return real(*((mnum, mden) if next(calls) == position else (num_, den_)), const)

            monkeypatch.setattr(doubles, "Q", altered)
            mutant = coefficients(case, params)
            where = locate_failure(mutant)
            assert where is not None, (which, what)
            if (case.value, which, what) in POLE_MUTANTS:
                assert where == "relation 1 at n=0, x=0: a coefficient has a pole"
                for walk, at in ((pair_grid_max_residue, ("relation", 1, 0, 0)),
                                 (requirements_grid_max_residue, ("requirement", None, 0, 0))):
                    with pytest.raises(GridPole) as pole:
                        walk(mutant)
                    assert pole.value.position == at


# ---------------------------------------------------------------------------
# the per-sextet memos of the grid walks against the unmemoised expressions

def _reference_requirements(cs, n, x):
    """The seven requirement residues written out at one (n, x), no memo."""
    rec, rech = recurrence_data(cs.base), recurrence_data(cs.hatted)
    xf = F(x)
    a, b, ah, bh = cs.a, cs.b, cs.a_hat, cs.b_hat
    dd = cs.d(xf) * cs.d_hat(xf)
    lam, lam_h = rec.Lam(xf), rech.Lam(xf + cs.xshift)
    return [
        a(n) * ah(n - 1) - rech.C(n),
        a(n - 1) * ah(n - 1) - rec.C(n),
        b(n) * bh(n) - rech.A(n),
        b(n) * bh(n - 1) - rec.A(n),
        (a(n) * bh(n - 1) + ah(n) * b(n) + rech.A(n) + rech.C(n)) - (dd - lam_h),
        (a(n) * bh(n - 1) + ah(n - 1) * b(n - 1) + rec.A(n) + rec.C(n)) - (dd - lam),
        (lam - lam_h)
        - (ah(n - 1) * (a(n) - a(n - 1) - b(n - 1)) + b(n) * (ah(n) + bh(n) - bh(n - 1))),
    ]


def _reference_sum(*terms):
    total = F(0)
    for coef, value in terms:
        if coef != 0:
            total += coef * value()
    return total


def _reference_pairs(cs, n, x):
    """(relation 1, relation 2) at one (n, x), columns looked up per call;
    relation 2 is None beyond the hatted degree cap."""
    xf = F(x)
    y, yh = family_column(cs.base, xf), family_column(cs.hatted, xf + cs.xshift)
    forward = _reference_sum((cs.a(n), lambda: y[n]), (cs.b(n), lambda: y[n + 1]),
                             (-cs.d_hat(xf), lambda: yh[n]))
    if n >= min(cs.base.N, cs.hatted.N):
        return forward, None
    return forward, _reference_sum((cs.a_hat(n), lambda: yh[n]), (cs.b_hat(n), lambda: yh[n + 1]),
                                   (-cs.d(xf), lambda: y[n + 1]))


def _memoised_pairs(cs, n, x):
    backward = (pair_residue_backward(cs, n, x) if n < min(cs.base.N, cs.hatted.N) else None)
    return pair_residue_forward(cs, n, x), backward


def _grid_orders(N):
    xs, ns = range(N + 1), range(N)
    x_major = [(n, x) for x in xs for n in ns]
    n_major = [(n, x) for n in ns for x in xs]
    return {"x-major": x_major, "n-major": n_major,
            "repeated": x_major[::-1] + n_major + x_major}


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda c: c.value)
@pytest.mark.parametrize("seed", [0, 1])
def test_memoised_residues_equal_the_unmemoised_expressions(case, seed):
    params = draw(case, seed)
    reference = coefficients(case, params)
    for order, points in _grid_orders(params.N).items():
        cs = coefficients(case, params)
        for n, x in points:
            assert verify_requirements(cs, n=n, x=x) == _reference_requirements(reference, n, x), \
                (order, n, x)
            assert _memoised_pairs(cs, n, x) == _reference_pairs(reference, n, x), (order, n, x)
        # the grid walks over the filled memos read the same zeros
        assert requirements_grid_max_residue(cs) == pair_grid_max_residue(cs) == 0


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda c: c.value)
def test_memoised_residues_equal_the_unmemoised_expressions_off_zero(case):
    # a sign-flipped b_hat makes the residues nonzero, so equal lists here
    # compare values, not just zeros
    params = draw(case, 4)
    bad, reference = coefficients(case, params).flipped("b_hat"), coefficients(case, params).flipped("b_hat")
    nonzero = 0
    for n, x in _grid_orders(params.N)["repeated"]:
        got = verify_requirements(bad, n=n, x=x)
        assert got == _reference_requirements(reference, n, x), (n, x)
        assert _memoised_pairs(bad, n, x) == _reference_pairs(reference, n, x), (n, x)
        nonzero += sum(r != 0 for r in got)
    assert nonzero > 0


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda c: c.value)
def test_the_d_memos_are_read_at_each_grid_point(case):
    # every case's d is constant in x; make d and dhat vary with x, so a
    # memo read at the wrong point gives a wrong value
    params = draw(case, 3)
    whole = coefficients(case, params)
    varying = dict(d=lambda t, d=whole.d: d(t) * (t + 1),
                   d_hat=lambda t, d=whole.d_hat: d(t) * (t + 2))
    reference = replace(whole, **varying)
    nonzero = 0
    for order, points in _grid_orders(params.N).items():
        cs = replace(whole, **varying)
        for n, x in points:
            got = _memoised_pairs(cs, n, x)
            assert got == _reference_pairs(reference, n, x), (order, n, x)
            nonzero += sum(r not in (None, 0) for r in got)
    assert nonzero > 0


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda c: c.value)
@pytest.mark.parametrize("seed", [0, 1])
def test_the_grid_maxima_equal_the_largest_absolute_residue(case, seed):
    cs = coefficients(case, draw(case, seed, max_n=5))
    for grid_max in (pair_grid_max_residue, requirements_grid_max_residue):
        worst = grid_max(cs)
        assert type(worst) is F and worst == 0
    mutants = [cs.flipped(which) for which in COEFFICIENTS]
    mutants.append(replace(cs, a=lambda t, a=cs.a: 2 * a(t) + F(1, 3)))
    for i, mutant in enumerate(mutants):
        for grid_max, kind in ((pair_grid_max_residue, "relation"),
                               (requirements_grid_max_residue, "requirement")):
            residues, pole = _walked(_reference_grid_residues(mutant, kind))
            assert pole is None
            expected = max((abs(r) for _, r in residues), default=F(0))
            assert grid_max(mutant) == expected, (i, kind)


SEXTET_MEMOS = ("_n_rows", "_x_rows", "_columns", "_minus_d", "_minus_d_hat")


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda c: c.value)
def test_copies_of_a_sextet_start_with_empty_memos(case):
    cs = coefficients(case, draw(case, 5, max_n=4))
    assert locate_failure(cs) is None  # fills every memo of the sextet
    mutants = [cs.flipped(which) for which in COEFFICIENTS]
    mutants.append(replace(cs, a=lambda t, a=cs.a: 2 * a(t)))
    # the walk read -d and -dhat through the sextet's per-x memos
    grid = set(range(cs.base.N + 1))
    assert set(cs._minus_d) == set(cs._minus_d_hat) == grid
    for mutant in mutants:
        assert all(getattr(mutant, memo) == {} for memo in SEXTET_MEMOS)
        assert pair_grid_max_residue(mutant) != 0
        assert requirements_grid_max_residue(mutant) != 0
        assert locate_failure(mutant) is not None
        for memo, f in ((mutant._minus_d, mutant.d), (mutant._minus_d_hat, mutant.d_hat)):
            assert all(value == -f(F(x)) for x, value in memo.items())
    assert locate_failure(cs) is None


def _with_pole(f, at):
    """f with a pole at the argument `at`."""
    return lambda t: F(1, 0) if t == at else f(t)


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda c: c.value)
def test_a_pole_is_reported_at_its_first_grid_point(case):
    params = next(p for seed in range(50) if (p := draw(case, seed, max_n=5)).N >= 2)
    cs = coefficients(case, params)
    assert locate_failure(cs) is None  # memos filled before the copies are made
    x0, n0 = params.N - 1, 1
    d_hat_pole = replace(cs, d_hat=_with_pole(cs.d_hat, x0))
    d_pole = replace(cs, d=_with_pole(cs.d, x0))
    b_pole = replace(cs, b=_with_pole(cs.b, n0))
    # relation 1 reads dhat and relation 2 reads d, each at every x
    for mutant, requirement_at, relation_at in (
            (d_hat_pole, ("requirement", None, 0, x0), ("relation", 1, 0, x0)),
            (d_pole, ("requirement", None, 0, x0), ("relation", 2, 0, x0)),
            (b_pole, ("requirement", None, n0, 0), ("relation", 1, n0, 0))):
        with pytest.raises(GridPole) as pole:
            requirements_grid_max_residue(mutant)
        assert pole.value.position == requirement_at
        with pytest.raises(GridPole) as pole:
            pair_grid_max_residue(mutant)
        assert pole.value.position == relation_at


# ---------------------------------------------------------------------------
# the one grid generator against the earlier walk, one function per kind

def _reference_at(position, residue, *args, **kwargs):
    try:
        return position, residue(*args, **kwargs)
    except ZeroDivisionError as exc:
        raise GridPole(position) from exc


def _reference_relation_residues(cs, x):
    from twodiag import doubles

    N = cs.base.N
    for n in range(N):
        yield _reference_at(("relation", 1, n, x), doubles.pair_residue_forward, cs, n, x)
    for n in range(min(N, cs.hatted.N)):
        yield _reference_at(("relation", 2, n, x), doubles.pair_residue_backward, cs, n, x)


def _reference_requirement_residues(cs, x):
    from twodiag import doubles

    for n in range(cs.base.N):
        _, residues = _reference_at(("requirement", None, n, x), doubles.verify_requirements,
                                    cs, n=n, x=x)
        for i, r in enumerate(residues):
            yield ("requirement", i, n, x), r


_REFERENCE_WALKS = {"relation": _reference_relation_residues,
                    "requirement": _reference_requirement_residues}


def _reference_grid_residues(cs, *kinds):
    for x in range(cs.base.N + 1):
        for kind in kinds:
            yield from _REFERENCE_WALKS[kind](cs, x)


def _walked(residues):
    """(every (position, residue) up to the first pole, the pole's position
    and the message of its cause, or None)."""
    out = []
    try:
        for item in residues:
            out.append(item)
    except GridPole as pole:
        return out, (pole.position, str(pole.__cause__))
    return out, None


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda c: c.value)
@pytest.mark.parametrize("seed", [0, 1])
def test_the_grid_generator_walks_as_the_reference_walks(case, seed):
    from twodiag.doubles import _grid_residues

    params = draw(case, seed, max_n=5)
    cs = coefficients(case, params)
    x0 = params.N - 1
    mutants = [cs] + [cs.flipped(which) for which in COEFFICIENTS] + [
        replace(cs, d_hat=_with_pole(cs.d_hat, x0)),
        replace(cs, d=_with_pole(cs.d, x0)),
        replace(cs, b=_with_pole(cs.b, 1))]
    nonzero = poles = 0
    for i, mutant in enumerate(mutants):
        for kinds in (("relation",), ("requirement",), ("relation", "requirement")):
            expected = _walked(_reference_grid_residues(mutant, *kinds))
            assert _walked(_grid_residues(mutant, *kinds)) == expected, (i, kinds)
            nonzero += any(r != 0 for _, r in expected[0])
            poles += expected[1] is not None
    assert nonzero > 0 and poles > 0


# ---------------------------------------------------------------------------
# a pair residue reads a column entry only where its coefficient is nonzero

class _Unread(Exception):
    pass


class _RaisingColumn:
    """A family column whose entry `bad` raises `exc`."""

    def __init__(self, column, bad, exc):
        self.column, self.bad, self.exc = column, bad, exc

    def __getitem__(self, n):
        if n == self.bad:
            raise self.exc
        return self.column[n]


def _pair_terms(cs, relation, n, x):
    """(coefficient, column, degree) of the relation's three terms at (n, x):
    the column is "base" (read at x) or "hatted" (read at x + xshift)."""
    if relation == 1:
        return [(cs.a(n), "base", n), (cs.b(n), "base", n + 1), (cs.d_hat(F(x)), "hatted", n)]
    return [(cs.a_hat(n), "hatted", n), (cs.b_hat(n), "hatted", n + 1), (cs.d(F(x)), "base", n + 1)]


def _raise_at(monkeypatch, cs, which, x, bad, exc):
    """Make entry `bad` of the sextet's `which` column at grid point x raise."""
    from twodiag import doubles

    target = cs.base if which == "base" else cs.hatted
    at = F(x) if which == "base" else F(x + cs.xshift)
    real = doubles.family_column

    def column(params, point):
        col = real(params, point)
        return _RaisingColumn(col, bad, exc) if params == target and point == at else col
    monkeypatch.setattr(doubles, "family_column", column)


def test_a_pair_residue_reads_no_entry_whose_coefficient_is_zero(monkeypatch):
    with_zero_terms = set()
    for case in ALL_CASES:
        params = draw(case, 2, max_n=4)
        whole = coefficients(case, params)
        for relation, residue, top in (
                (1, pair_residue_forward, whole.base.N),
                (2, pair_residue_backward, min(whole.base.N, whole.hatted.N))):
            for n, x in itertools.product(range(top), range(params.N + 1)):
                expected = residue(whole, n, x)
                for coef, which, degree in _pair_terms(whole, relation, n, x):
                    with monkeypatch.context() as patch:
                        _raise_at(patch, whole, which, x, degree, _Unread())
                        cs = coefficients(case, params)  # empty column memos
                        if coef == 0:
                            with_zero_terms.add(case.value)
                            assert residue(cs, n, x) == expected
                        else:
                            with pytest.raises(_Unread):
                                residue(cs, n, x)
    # dhat vanishes at one grid point of each of these cases
    assert with_zero_terms == {"DualHahnI", "DualHahnII", "HahnII", "HahnIV", "RacahI", "RacahIII"}


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda c: c.value)
def test_a_raising_column_entry_is_a_pole_at_its_first_reading(case, monkeypatch):
    params = next(p for seed in range(50) if (p := draw(case, seed, max_n=5)).N >= 2)
    whole, x0 = coefficients(case, params), 1
    # the walk reads relation 1 for every n, then relation 2, at each x in turn
    walk = ([(1, n) for n in range(whole.base.N)]
            + [(2, n) for n in range(min(whole.base.N, whole.hatted.N))])
    first = next((relation, n) for relation, n in walk
                 if any(coef != 0 and (which, degree) == ("base", 1)
                        for coef, which, degree in _pair_terms(whole, relation, n, x0)))
    _raise_at(monkeypatch, whole, "base", x0, 1, ZeroDivisionError("entry 1"))
    with pytest.raises(GridPole) as pole:
        pair_grid_max_residue(coefficients(case, params))
    assert pole.value.position == ("relation", *first, x0)
    assert str(pole.value.__cause__) == "entry 1"


# ---------------------------------------------------------------------------
# the integer-friendly forms against their entries written as Fraction sums

def _reference_nonsym(case, p):
    g, d, N = p.gamma, p.delta, p.N
    sup, sub = [], []
    if case is DoubleCase.DUAL_HAHN_I:
        for k in range(N):
            sup.extend([g + k + 1, F(k + 1)])
            sub.extend([F(N - k), N + d - k])
    elif case is DoubleCase.DUAL_HAHN_II:
        for k in range(N):
            sup.extend([g + N - k, F(k + 1)])
            sub.extend([F(N - k), d + k + 1])
    else:
        for k in range(N + 1):
            sup.append(g + k + 1)
            sub.append(d + N + 1 - k)
            if k < N:
                sup.append(F(k + 1))
                sub.append(F(N - k))
    return sup, sub


@pytest.mark.parametrize("case", NONSYM_CASES, ids=lambda c: c.value)
@pytest.mark.parametrize("gamma, delta", [(F(1, 2), F(1, 3)), (F(-7, 3), F(22, 5)),
                                          (F(4), F(-13, 7)), (F(-1, 6), F(0))])
def test_integer_forms_equal_their_fraction_sums(case, gamma, delta):
    assert set(NONSYM_CASES) == {DoubleCase.DUAL_HAHN_I, DoubleCase.DUAL_HAHN_II,
                                 DoubleCase.DUAL_HAHN_III}
    for N in range(1, 9):
        p = DualHahnParams(gamma, delta, N)
        sup, sub = case.record.nonsym(p)
        want_sup, want_sub = _reference_nonsym(case, p)
        assert (sup, sub) == (want_sup, want_sub), N
        assert all(type(v) is F for v in sup + sub)
