import random
from fractions import Fraction as F

import pytest

from twodiag.doubles import DoubleCase, christoffel_nu
from twodiag.exact import pochhammer
from twodiag.families import (
    DualHahnParams,
    HahnParams,
    dual_hahn_eval,
    family_column,
    recurrence_data,
)
from twodiag.sampling import rand_params_for_case
from twodiag.transforms import (
    SupportCollision,
    ZeroAtNu,
    christoffel_data,
    christoffel_kernel,
    geronimus_reconstruct,
    verify_recurrence_link,
    verify_roundtrip,
    verify_same_family,
)

ALL_CASES = list(DoubleCase)


def test_ratio_closed_forms_dual_hahn():
    g, d, N = F(1, 2), F(1, 3), 5
    p = DualHahnParams(g, d, N)
    # values at the three classified transform points
    for n in range(N + 1):
        assert dual_hahn_eval(n, 0, p) == 1
        assert dual_hahn_eval(n, F(N), p) == pochhammer(-N - d, n) / pochhammer(g + 1, n)
        assert dual_hahn_eval(n, -d, p) == pochhammer(-N - d, n) / pochhammer(-N, n)
    data = christoffel_data(p, 0)
    assert all(data.a_seq(n) == 1 for n in range(N))
    data_n = christoffel_data(p, N)
    assert all(data_n.a_seq(n) == (n - d - N) / (n + g + 1) for n in range(N))
    data_d = christoffel_data(p, -d)
    assert all(data_d.a_seq(n) == (n - d - N) / (n - N) for n in range(N))


def test_b0_is_zero_and_link_identities():
    p = DualHahnParams(F(2, 5), F(3, 7), 6)
    for nu in (F(0), F(6), -p.delta, F(5, 3)):
        data = christoffel_data(p, nu)
        assert data.b_seq(0) == 0
        assert all(r == 0 for r in verify_recurrence_link(p, nu, p.N - 1))


def test_second_link_identity():
    # A(n) a_n + b_n = A(n) + C(n) + Lam(nu) holds by construction; check
    # the independent product identity on a Hahn family as well
    p = HahnParams(F(1, 3), F(2, 7), 6)
    rec = recurrence_data(p)
    nu = F(-4, 3)
    data = christoffel_data(p, nu)
    for n in range(1, p.N):
        assert data.b_seq(n) * data.a_seq(n - 1) == rec.C(n)
        assert rec.A(n) * data.a_seq(n) + data.b_seq(n) == rec.A(n) + rec.C(n) + rec.Lam(nu)


def test_geronimus_n0_reduces_to_one():
    p = DualHahnParams(F(1, 2), F(1, 3), 5)
    for x in range(1, 6):
        assert geronimus_reconstruct(p, 0, 0, x) == 1


def test_geronimus_roundtrip_exact():
    p = DualHahnParams(F(1, 2), F(1, 3), 6)
    for nu in (F(0), F(6), -p.delta):
        assert all(r == 0 for r in verify_roundtrip(p, nu, p.N - 1, range(p.N + 1)))


def test_dual_hahn_ii_reconstruction_display():
    # A(n) P_n - b_n P_{n-1} recombines the smaller-N family with weights
    # -(n-N)/N and n/N and lands back on R_n
    g, d, N = F(1, 2), F(1, 3), 5
    p = DualHahnParams(g, d, N)
    hat = DualHahnParams(g, d, N - 1)
    nu = F(N)
    for n in range(1, N):
        for x in range(N):  # x = N collides with nu
            recon = (F(-(n - N), N) * dual_hahn_eval(n, x, hat)
                     + F(n, N) * dual_hahn_eval(n - 1, x, hat))
            assert recon == dual_hahn_eval(n, x, p)
            assert geronimus_reconstruct(p, nu, n, x) == recon


def test_kernel_constants_match_displays():
    # the three dual Hahn kernel partners with their displayed prefactors
    g, d, N = F(2, 5), F(3, 7), 5
    p = DualHahnParams(g, d, N)
    hat1 = DualHahnParams(g + 1, d + 1, N - 1)
    hat2 = DualHahnParams(g, d, N - 1)
    hat3 = DualHahnParams(g + 1, d - 1, N)
    for n in range(N):
        for x in range(1, N + 1):
            assert christoffel_kernel(p, 0, n, x) == \
                F(-1) / (N * (g + 1)) * dual_hahn_eval(n, x - 1, hat1)
        for x in range(N):
            assert christoffel_kernel(p, N, n, x) == \
                F(-1) / (N * (n + g + 1)) * dual_hahn_eval(n, x, hat2)
        for x in range(N + 1):
            assert christoffel_kernel(p, -d, n, x) == \
                F(1) / ((g + 1) * (n - N)) * dual_hahn_eval(n, x, hat3)


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda c: c.value)
@pytest.mark.parametrize("seed", [0, 1])
def test_same_family_kernel_all_cases(case, seed):
    params = rand_params_for_case(case, random.Random(seed), 6, seed)
    assert all(r == 0 for r in verify_same_family(case, params))


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda c: c.value)
def test_link_and_roundtrip_at_classified_nu(case):
    params = rand_params_for_case(case, random.Random(17), 6, 2)
    nu = christoffel_nu(case, params)
    assert all(r == 0 for r in verify_recurrence_link(params, nu, params.N - 1))
    assert all(r == 0 for r in verify_roundtrip(params, nu, params.N - 1,
                                                range(params.N + 1)))


def test_zero_at_nu_error():
    # Hahn at nu = 1 with parameters making Q_1(1) = 0
    p = HahnParams(0, 0, 2)
    with pytest.raises(ZeroAtNu):
        christoffel_data(p, 1).a_seq(1)


def test_support_collision_error():
    p = DualHahnParams(F(1, 2), F(1, 3), 4)
    with pytest.raises(SupportCollision):
        christoffel_kernel(p, 0, 1, 0)


def test_kernel_is_polynomial_of_reduced_degree():
    # P_n at the first transform point has exact degree n in Lam(x-1)
    p = DualHahnParams(F(1, 2), F(1, 3), 5)
    hat = DualHahnParams(F(3, 2), F(4, 3), 4)
    rec_hat = recurrence_data(hat)
    n = 3
    nodes = [rec_hat.Lam(x - 1) for x in range(1, n + 3)]
    vals = [christoffel_kernel(p, 0, n, x) for x in range(1, n + 3)]
    table = list(vals)
    for order in range(1, n + 2):
        table = [(table[i + 1] - table[i]) / (nodes[i + order] - nodes[i])
                 for i in range(len(table) - 1)]
        if order == n:
            assert table[0] != 0 or len(table) > 1
    assert table[0] == 0  # order n+1 divided difference vanishes


def test_kernel_memo_is_keyed_on_degree_and_point():
    # one ChristoffelData, read in an order that revisits each degree at
    # new points and each point at new degrees; every value must equal the
    # formula (y_{n+1}(x) - a_n y_n(x)) / (Lam(x) - Lam(nu)) at that (n, x)
    p = HahnParams(F(1, 3), F(2, 7), 5)
    nu = F(-4, 3)
    data = christoffel_data(p, nu)
    rec = recurrence_data(p)
    grid = [(n, x) for x in (0, 3, F(1, 2), 5) for n in range(p.N)]
    for n, x in grid + grid[::-1]:
        y = [family_column(p, x)[j] for j in range(p.N + 1)]
        expected = (y[n + 1] - data.a_seq(n) * y[n]) / (rec.Lam(x) - rec.Lam(nu))
        assert data.kernel(n, x) == expected


# ---------------------------------------------------------------------------
# each value as one Fraction of integer terms, against the Fraction
# expressions it replaced

def _reference_kernel(data, n, x):
    denom = data.gap(x)
    if denom == 0:
        raise SupportCollision(f"Lam({x}) = Lam({data.nu})")
    yx = family_column(data.params, x)
    return (yx[n + 1] - data.a_seq(n) * yx[n]) / denom


def _reference_reconstruct(data, n, x):
    rec = recurrence_data(data.params)
    if n == 0:
        return rec.A(0) * _reference_kernel(data, 0, x)
    return (rec.A(n) * _reference_kernel(data, n, x)
            - data.b_seq(n) * _reference_kernel(data, n - 1, x))


def _reference_link(params, nu, n_max):
    rec = recurrence_data(params)
    data = christoffel_data(params, nu)
    return [data.b_seq(n) * data.a_seq(n - 1) - rec.C(n) for n in range(1, n_max + 1)]


def _reference_roundtrip(params, nu, n_max, xs):
    data = christoffel_data(params, nu)
    out = []
    for n in range(n_max + 1):
        for x in xs:
            if data.gap(x) == 0:
                continue
            out.append(_reference_reconstruct(data, n, x) - family_column(params, x)[n])
    return out


def _reference_same_family(cs, nu):
    data = christoffel_data(cs.base, nu)
    grid = range(cs.base.N + 1)
    clear = [x for x in grid if data.gap(x) != 0]
    if not clear:
        raise SupportCollision("no grid point clear of nu")
    c = cs.d_hat(F(clear[0])) / data.gap(clear[0])
    res = [cs.d_hat(F(x)) - c * data.gap(x) for x in grid]
    n_top = min(cs.base.N, cs.hatted.N + 1)
    res += [data.a_seq(n) + cs.a(n) / cs.b(n) for n in range(n_top)]
    for n in range(n_top):
        bn = cs.b(n)
        if bn == 0:
            continue
        for x in clear:
            rhs = (c / bn) * family_column(cs.hatted, F(x) + cs.xshift)[n]
            res.append(_reference_kernel(data, n, x) - rhs)
    return res


def _outcome(f, *args):
    """("value", [(v, type(v)) for each value]) or ("raises", the exception type)."""
    try:
        value = f(*args)
    except ZeroDivisionError as exc:
        return "raises", type(exc)
    return "value", [(v, type(v)) for v in (value if isinstance(value, list) else [value])]


def _nonzero(outcome) -> bool:
    return outcome[0] == "value" and any(v != 0 for v, _ in outcome[1])


def _same_family_with(monkeypatch, case, params, sextet=None, nu=None):
    """verify_same_family(case, params) with the sextet or nu it reads replaced."""
    import twodiag.transforms as transforms

    if sextet is not None:
        monkeypatch.setattr(transforms, "coefficients", lambda c, p: sextet)
    if nu is not None:
        monkeypatch.setattr(transforms, "christoffel_nu", lambda c, p: nu)
    try:
        return _outcome(verify_same_family, case, params)
    finally:
        monkeypatch.undo()


def _kernel_grid(params, nu):
    """(n, x, kernel outcome, reconstruct outcome) over the grid, each point
    read through the point functions and against the reference."""
    N = params.N
    for n in range(N):
        for x in range(N + 1):
            got = (_outcome(christoffel_kernel, params, nu, n, x),
                   _outcome(geronimus_reconstruct, params, nu, n, x))
            data = christoffel_data(params, nu)
            expected = (_outcome(_reference_kernel, data, n, x),
                        _outcome(_reference_reconstruct, data, n, x))
            yield (n, x), got, expected


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda c: c.value)
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_integer_terms_equal_the_fraction_expressions(case, seed, monkeypatch):
    from twodiag.doubles import coefficients

    params = rand_params_for_case(case, random.Random(seed), 6, seed)
    nu = christoffel_nu(case, params)
    cs = coefficients(case, params)
    assert _same_family_with(monkeypatch, case, params) == \
        _outcome(_reference_same_family, cs, nu)
    n_max = params.N - 1
    assert _outcome(verify_recurrence_link, params, nu, n_max) == \
        _outcome(_reference_link, params, nu, n_max)
    xs = range(params.N + 1)
    assert _outcome(verify_roundtrip, params, nu, n_max, xs) == \
        _outcome(_reference_roundtrip, params, nu, n_max, xs)
    for point, got, expected in _kernel_grid(params, nu):
        assert got == expected, point


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda c: c.value)
def test_integer_terms_equal_the_fraction_expressions_off_zero(case, monkeypatch):
    # at a wrong nu and on each sign-flipped sextet the residues are
    # nonzero, so equal lists compare values, not just zeros
    from twodiag.doubles import coefficients

    params = rand_params_for_case(case, random.Random(7), 6, 1)
    cs = coefficients(case, params)
    right = christoffel_nu(case, params)
    link, grid = (params.N - 1,), range(params.N + 1)
    nonzero = 0
    for nu in (right + F(1, 3), right - F(2, 7)):
        checks = [(_same_family_with(monkeypatch, case, params, nu=nu),
                   _outcome(_reference_same_family, cs, nu)),
                  (_outcome(verify_recurrence_link, params, nu, *link),
                   _outcome(_reference_link, params, nu, *link)),
                  (_outcome(verify_roundtrip, params, nu, *link, grid),
                   _outcome(_reference_roundtrip, params, nu, *link, grid))]
        for got, expected in checks:
            assert got == expected, nu
            nonzero += _nonzero(expected)
        for point, got, expected in _kernel_grid(params, nu):
            assert got == expected, (nu, point)
    for which in ("a", "b", "a_hat", "b_hat", "d", "d_hat"):
        flipped = cs.flipped(which)
        expected = _outcome(_reference_same_family, flipped, right)
        assert _same_family_with(monkeypatch, case, params, sextet=flipped) == expected, which
        nonzero += _nonzero(expected)
    assert nonzero > 0


@pytest.mark.parametrize("params,nu,error", [
    (HahnParams(0, 0, 2), F(1), ZeroAtNu),  # y_1(1) = 0
    (DualHahnParams(F(1, 2), F(1, 3), 4), F(0), SupportCollision),  # Lam(0) = Lam(nu)
    (DualHahnParams(F(1, 2), F(1, 3), 4), F(4), SupportCollision),
    (HahnParams(F(1, 3), F(2, 7), 4), F(2), SupportCollision),
])
def test_zero_at_nu_and_collisions_are_raised_where_they_were(params, nu, error):
    raised = set()
    for point, got, expected in _kernel_grid(params, nu):
        assert got == expected, point
        raised.update(value for kind, value in got if kind == "raises")
    assert error in raised
    link, grid = (params, nu, params.N - 1), range(params.N + 1)
    assert _outcome(verify_recurrence_link, *link) == _outcome(_reference_link, *link)
    assert _outcome(verify_roundtrip, *link, grid) == _outcome(_reference_roundtrip, *link, grid)


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda c: c.value)
def test_one_transform_serves_every_check_at_its_nu(case):
    params = rand_params_for_case(case, random.Random(5), 6, 5)
    nu, N = christoffel_nu(case, params), params.N
    christoffel_data.cache_clear()
    res = verify_same_family(case, params)
    res += verify_recurrence_link(params, nu, N - 1)
    res += verify_roundtrip(params, nu, N - 1, range(N + 1))
    assert all(r == 0 for r in res)
    data = christoffel_data(params, nu)
    assert christoffel_data(params, F(nu)) is data
    assert christoffel_data.cache_info().currsize == 1
    # the three checks read P_n(x) for n < N at each grid x clear of nu,
    # and computed each of them once
    clear = [x for x in range(N + 1) if data.gap(x) != 0]
    points = [(n, x) for n in range(N) for x in clear]
    assert data.kernel.cache_info().misses == len(points) == N * len(clear)
    # the point functions read the same transform, through its memos: one
    # kernel read per point, two per reconstruction but one at n = 0
    hits = data.kernel.cache_info().hits
    kernel = {(n, x): christoffel_kernel(params, nu, n, x) for n, x in points}
    rebuilt = {(n, x): geronimus_reconstruct(params, nu, n, x) for n, x in points}
    info = data.kernel.cache_info()
    assert info.misses == len(points) and info.hits == hits + 3 * len(points) - len(clear)
    # a fresh transform starts with empty memos and gives the same values
    christoffel_data.cache_clear()
    fresh = christoffel_data(params, nu)
    assert fresh is not data and fresh.kernel.cache_info().currsize == 0
    for (n, x), value in kernel.items():
        got = (fresh.kernel(n, x), fresh.reconstruct(n, x))
        assert got == (value, rebuilt[n, x]) and all(type(v) is F for v in got), (n, x)
    assert [fresh.a_seq(n) for n in range(N)] == [data.a_seq(n) for n in range(N)]
    assert [fresh.b_seq(n) for n in range(N)] == [data.b_seq(n) for n in range(N)]
