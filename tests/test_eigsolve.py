import json
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from twodiag.doubles import DoubleCase
from twodiag import eigsolve
from twodiag.eigsolve import (
    FAMILY_CHOICES,
    FloatTridiag,
    NoConvergence,
    _count_below,
    _dim_to_n,
    _match_error,
    _match_rel_error,
    benchmark,
    build_gallery_matrix,
    sym_tridiag_eigen,
    to_float_tridiag,
)
from twodiag.families import DualHahnParams
from twodiag.matrices import extended_kac_odd, sylvester_kac


def test_two_by_two():
    r = sym_tridiag_eigen(FloatTridiag((0.0, 0.0), (1.0,)))
    assert np.allclose(r.values, [-1.0, 1.0])


def test_kac3_eigenvalues():
    r = sym_tridiag_eigen(to_float_tridiag(sylvester_kac(3)))
    assert np.abs(r.values - np.array([-3.0, -1.0, 1.0, 3.0])).max() < 1e-13


def test_extended_odd_against_closed_form():
    bundle = extended_kac_odd(3, F(1, 4), F(3, 4))
    r = sym_tridiag_eigen(to_float_tridiag(bundle))
    closed = np.sort(bundle.spectrum.floats())
    assert np.abs(r.values - closed).max() < 1e-12
    # closed form is 0, +-2 sqrt(k(k+2))
    expect = sorted([0.0] + [s * 2 * math.sqrt(k * (k + 2)) for k in (1, 2, 3) for s in (1, -1)])
    assert np.allclose(closed, expect)


def test_eigenvectors_residual_and_orthogonality():
    tri = to_float_tridiag(sylvester_kac(40))
    r = sym_tridiag_eigen(tri, want_vectors=True)
    a = tri.to_dense()
    assert np.abs(a @ r.vectors - r.vectors * r.values[None, :]).max() < 1e-12 * np.abs(a).max()
    assert np.abs(r.vectors.T @ r.vectors - np.eye(41)).max() < 1e-13


def test_nonzero_diagonal_is_refused():
    tri = FloatTridiag((0.0, 0.5, 0.0), (1.0, 1.0))
    for want_vectors in (False, True):
        with pytest.raises(ValueError, match=r"^diagonal\[1\] = 0\.5: only zero-diagonal"):
            sym_tridiag_eigen(tri, want_vectors)


def test_computed_spectrum_symmetry():
    tri = to_float_tridiag(sylvester_kac(51))
    vals = sym_tridiag_eigen(tri).values
    assert np.abs(vals + vals[::-1]).max() < 1e-10


def test_dim_to_n_mapping():
    assert _dim_to_n("kac", 101) == 100
    assert _dim_to_n("kac-odd", 11) == 5
    assert _dim_to_n("kac-even", 10) == 5
    assert _dim_to_n("double:DualHahnIII", 12) == 5
    assert _dim_to_n("double:DualHahnI", 11) == 5
    with pytest.raises(ValueError):
        _dim_to_n("kac-odd", 10)
    with pytest.raises(ValueError):
        _dim_to_n("double:HahnI", 11)


def test_match_error_sorted_pairing():
    closed = np.array([-1.0, 0.0, 0.0, 1.0])
    computed = np.array([-1.0, -1e-14, 1e-14, 1.0])
    assert _match_error(computed, closed) == 1e-14
    # a clustered closed spectrum does not excuse a missing eigenvalue: the
    # computed 0.2 pairs with the closed 1.0, not with the nearer 0.0
    closed = np.array([0.0, 0.0, 1.0])
    computed = np.array([0.0, 0.1, 0.2])
    assert _match_error(computed, closed) == 0.8


def test_match_rel_error_by_hand():
    # |1.5 - 2| / 2 = 0.25 beats |-1.1 - -1| / 1 = 0.1; the exact zero
    # counts |0.2 - 0| = 0.2 in absolute terms
    closed = np.array([-1.0, 0.0, 2.0])
    computed = np.array([-1.1, 0.2, 1.5])
    assert _match_rel_error(computed, closed) == 0.25
    assert _match_rel_error(np.array([-1.0, 0.5, 2.0]), closed) == 0.5


def test_benchmark_zero_reps_is_empty():
    assert benchmark("kac", [11], repetitions=0) == []


def test_benchmark_reports():
    reps = benchmark("kac", [51, 101], repetitions=2)
    assert len(reps) == 4
    for rep in reps:
        assert rep.max_abs_eig_error <= 1e-10 * (rep.dim - 1)
        assert rep.wall_ns > 0
        assert rep.sweeps > 0
    line = reps[0].to_json_line()
    doc = json.loads(line)
    assert doc["family"] == "kac" and doc["dim"] == 51
    assert set(doc) == {"family", "params", "dim", "maxAbsEigError", "maxRelEigError",
                        "residualNorm", "nanoseconds", "sweeps"}


def test_benchmark_double_family_integer_eigenvalues():
    # gamma = delta = 2: closed eigenvalues are +-(k+3), exactly integers
    reps = benchmark("double:DualHahnIII", [42],
                     params={"gamma": F(2), "delta": F(2)})
    bundle = build_gallery_matrix("double:DualHahnIII", 20,
                                  {"gamma": F(2), "delta": F(2)})
    assert (sorted(e.exact_rational() for e in bundle.spectrum.entries)
            == sorted(s * (k + 3) for k in range(21) for s in (1, -1)))
    assert reps[0].max_abs_eig_error < 1e-11 * 42


def test_benchmark_with_vectors_residual():
    # eigenvector residual within 1e-11 * max|entry| at dimension 201
    reps = benchmark("nonsym:DualHahnI", [201], want_vectors=True)
    assert reps[0].residual_norm is not None
    tri_scale = max(abs(v) for v in
                    to_float_tridiag(build_gallery_matrix("nonsym:DualHahnI", 100)).offdiagonal)
    assert reps[0].residual_norm <= 1e-11 * tri_scale


def test_gallery_builder_racah_defaults():
    bundle = build_gallery_matrix("double:RacahIII", 4, None)
    assert bundle.matrix.dim == 9
    r = sym_tridiag_eigen(to_float_tridiag(bundle))
    assert np.abs(r.values - np.sort(bundle.spectrum.floats())).max() < 1e-12


def test_gallery_builder_honours_zero_beta():
    # beta = 0 is a pole of the RacahI squares; it must reach the
    # construction rather than be replaced by the default beta
    with pytest.raises(ZeroDivisionError):
        build_gallery_matrix("double:RacahI", 2, {"beta": F(0)})


def test_gallery_builder_rejects_parameters_the_selector_does_not_take():
    with pytest.raises(ValueError, match="--alpha"):
        build_gallery_matrix("double:RacahI", 3, {"alpha": F(1)})
    with pytest.raises(ValueError, match="--gamma"):
        build_gallery_matrix("kac", 3, {"gamma": F(1)})
    with pytest.raises(ValueError, match="RacahII"):
        build_gallery_matrix("double:RacahII", 3)


# ---------------------------------------------------------------------------
# the zero-diagonal path: bisection on the half-size bidiagonal

EPS = np.finfo(float).eps


def _random_offdiagonal(rng, n, kind):
    if kind == "integer":  # exact-zero pivots and exact-zero entries
        return rng.integers(-3, 4, size=n - 1).astype(float)
    off = rng.normal(size=n - 1)
    if kind == "split":
        off[rng.random(n - 1) < 0.3] = 0.0
    return off


def test_zero_diagonal_values_against_lapack_and_ql():
    # (the test keeps the name of the QL solver it was also compared with)
    # n = 2..60 runs through every (kind, scale) pair, odd and even n alike;
    # the scales are powers of two from about 1e-150 to 1e150, so the
    # reference spectrum scales exactly
    rng = np.random.default_rng(11)
    kinds = ("normal", "integer", "split")
    scales = (2.0 ** -498, 2.0 ** -60, 1.0, 2.0 ** 60, 2.0 ** 498)
    for n in range(2, 61):
        off = _random_offdiagonal(rng, n, kinds[n % 3])
        scale = scales[n % 5]
        tri = FloatTridiag((0.0,) * n, tuple(off * scale))
        values = sym_tridiag_eigen(tri).values
        ref = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1)) * scale
        tol = 4 * n * EPS * max(np.abs(off).max(), 1.0) * scale
        assert len(values) == n
        assert np.abs(values - ref).max() <= tol, (n, kinds[n % 3], scale)


def test_zero_diagonal_values_exact_symmetry_and_odd_zero():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 8, 9, 30, 31):
        tri = FloatTridiag((0.0,) * n, tuple(rng.normal(size=n - 1)))
        values = sym_tridiag_eigen(tri).values
        assert np.array_equal(values, -values[::-1])
        assert np.all(np.diff(values) >= 0)
        if n % 2:
            assert values[n // 2] == 0.0
    zero = sym_tridiag_eigen(FloatTridiag((0.0,) * 4, (0.0, 0.0, 0.0)))
    assert np.array_equal(zero.values, np.zeros(4))


def test_zero_diagonal_values_against_gallery_closed_forms():
    for selector in FAMILY_CHOICES:
        if selector in ("double:RacahII", "double:RacahIV"):
            continue  # no matrix
        for dim in (6, 7, 20, 21):
            try:
                n = _dim_to_n(selector, dim)
            except ValueError:
                continue  # the selector takes the other parity
            bundle = build_gallery_matrix(selector, n)
            tri = to_float_tridiag(bundle)
            closed = np.sort(bundle.spectrum.floats())
            values = sym_tridiag_eigen(tri).values
            amax = max(abs(v) for v in tri.offdiagonal)
            assert np.abs(values - closed).max() <= 8 * EPS * amax, (selector, dim)


def test_count_below_recovers_from_vanishing_pivots():
    # integer pivots and integer shifts make exact-zero pivots D_i, whose
    # s = inf or nan must send the shift through the pivmin recount
    rng = np.random.default_rng(2)
    for k in rng.integers(2, 8, size=60):
        a = rng.integers(0, 3, size=k).astype(float)
        b = rng.integers(0, 3, size=k - 1).astype(float)
        bmat = np.diag(a) + np.diag(b, -1)
        eig = np.linalg.eigvalsh(bmat @ bmat.T)
        tau = np.arange(1, 4 * k + 1) / 2.0
        tau = tau[np.abs(eig[:, None] - tau).min(axis=0) > 1e-9]
        count = _count_below(a ** 2, np.append(b ** 2, 0.0), tau)
        assert np.array_equal(count, (eig[:, None] < tau).sum(axis=0)), (a, b)
    # D_0 = 1 - 1 vanishes, so the first count is not finite
    assert _count_below(np.ones(3), np.array([1.0, 1.0, 0.0]), np.array([1.0]))[0] == 1


def test_sweeps_reports_bisection_passes(monkeypatch):
    tri = to_float_tridiag(sylvester_kac(12))
    passes = sym_tridiag_eigen(tri).sweeps
    assert 0 < passes <= eigsolve._MAX_PASSES
    monkeypatch.setattr(eigsolve, "_MAX_PASSES", passes)
    assert sym_tridiag_eigen(tri).sweeps == passes
    monkeypatch.setattr(eigsolve, "_MAX_PASSES", 1)
    with pytest.raises(NoConvergence) as info:
        sym_tridiag_eigen(tri)
    assert info.value.matrix is tri
    doc = json.loads(info.value.matrix_json())
    assert doc["offdiagonal"] == list(tri.offdiagonal)


def test_benchmark_residual_matches_dense_product():
    reps = benchmark("double:HahnI", [62], want_vectors=True)
    tri = to_float_tridiag(build_gallery_matrix("double:HahnI", 30))
    r = sym_tridiag_eigen(tri, want_vectors=True)
    a = tri.to_dense()
    dense = float(np.abs(a @ r.vectors - r.vectors * r.values[None, :]).max())
    assert abs(reps[0].residual_norm - dense) <= 4 * EPS * np.abs(a).max()


# ---------------------------------------------------------------------------
# the zero-diagonal vectors: twisted factorisations at the bisected values


def _eigenpair_errors(tri, r):
    """(max |T V - V Lambda| / max|a|, max |V^T V - I|)."""
    a = tri.to_dense()
    v = r.vectors
    resid = np.abs(a @ v - v * r.values[None, :]).max() / (np.abs(a).max() or 1.0)
    return resid, np.abs(v.T @ v - np.eye(tri.dim)).max()


def test_zero_diagonal_vectors_random():
    # the kinds and scales of the values test; integer and split matrices
    # with repeated values may fall back to LAPACK, and either path must hold
    rng = np.random.default_rng(13)
    kinds = ("normal", "integer", "split")
    scales = (2.0 ** -498, 2.0 ** -60, 1.0, 2.0 ** 60, 2.0 ** 498)
    for n in range(2, 61):
        off = _random_offdiagonal(rng, n, kinds[n % 3])
        tri = FloatTridiag((0.0,) * n, tuple(off * scales[n % 5]))
        r = sym_tridiag_eigen(tri, want_vectors=True)
        resid, orth = _eigenpair_errors(tri, r)
        assert resid <= 1e-12 and orth <= 1e-13, (n, kinds[n % 3], scales[n % 5])


def test_zero_diagonal_vectors_take_the_twisted_path(monkeypatch):
    def no_lapack(*args, **kwargs):
        raise AssertionError("fell back to LAPACK")

    monkeypatch.setattr(np.linalg, "eigh", no_lapack)
    for selector in FAMILY_CHOICES:
        if selector in ("double:RacahII", "double:RacahIV"):
            continue  # no matrix
        for dim in (6, 7, 20, 21, 400, 401):
            try:
                n = _dim_to_n(selector, dim)
            except ValueError:
                continue  # the selector takes the other parity
            bundle = build_gallery_matrix(selector, n)
            tri = to_float_tridiag(bundle)
            r = sym_tridiag_eigen(tri, want_vectors=True)
            assert np.array_equal(r.values, sym_tridiag_eigen(tri).values)
            resid, orth = _eigenpair_errors(tri, r)
            # measured at most 6.1 and 6 eps; without orthogonalisation
            # the loss reaches 111 eps at dimension 400
            assert resid <= 16 * EPS and orth <= 16 * EPS, (selector, dim, resid, orth)


def _assert_lapack_fallback(monkeypatch, tri):
    """The twisted vectors of tri fail their guards: LAPACK gives the
    vectors, once, and bisection the values, as without vectors."""
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
    r = sym_tridiag_eigen(tri, want_vectors=True)
    assert len(calls) == 1
    plain = sym_tridiag_eigen(tri)
    assert np.array_equal(r.values, plain.values) and r.sweeps == plain.sweeps
    resid, orth = _eigenpair_errors(tri, r)
    assert resid <= 1e-12 and orth <= 1e-13, (resid, orth)


@pytest.mark.parametrize("off", [(1.0, 0.0, 1.0), (1.0, 1e-15, 1.0),
                                 (2.0, 1.0, 1e-15, 1.0, 2.0),
                                 (0.0, 0.0, 0.0)])
def test_zero_diagonal_vectors_fall_back_to_ql(monkeypatch, off):
    # repeated or barely split values: the twisted vectors of a cluster
    # coincide and the guard refuses them (the test keeps the name of the
    # fallback before LAPACK)
    _assert_lapack_fallback(monkeypatch, FloatTridiag((0.0,) * (len(off) + 1), off))


def test_graded_zero_diagonal_vectors(monkeypatch):
    # entries graded over 10^-200..1: QL, the fallback before LAPACK, ran
    # out of sweeps on this draw
    rng = np.random.default_rng(1)
    off = rng.normal(size=99) * 10.0 ** rng.uniform(-200, 0, size=99)
    _assert_lapack_fallback(monkeypatch, FloatTridiag((0.0,) * 100, tuple(off)))


def test_glued_kac_blocks_vectors(monkeypatch):
    # two copies of kac(199) joined by 1e-12: each value of a block appears
    # twice, split by at most 1e-12, a true cluster for the twisted vectors
    off = to_float_tridiag(sylvester_kac(199)).offdiagonal
    _assert_lapack_fallback(monkeypatch, FloatTridiag((0.0,) * 400, off + (1e-12,) + off))


def test_zero_diagonal_vectors_residual_guard():
    tri = to_float_tridiag(sylvester_kac(10))
    values = sym_tridiag_eigen(tri).values
    assert eigsolve._zero_diagonal_vectors(tri, values) is not None
    # values off by a relative 1e-9 give vectors that pass the Gram guard
    # and orthogonalise, but miss the band residual
    assert eigsolve._zero_diagonal_vectors(tri, values * (1 + 1e-9)) is None
