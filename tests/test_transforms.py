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
