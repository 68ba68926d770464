import functools
import hashlib
import json
import math
import random
from fractions import Fraction as F
from pathlib import Path

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
from twodiag.matrices import TwoDiagonal, extended_kac_odd, sylvester_kac, symmetrize


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


def test_benchmark_refuses_an_unknown_selector_as_gallery_params_does():
    with pytest.raises(ValueError) as expected:
        eigsolve.gallery_params("bogus", 5)
    assert str(expected.value) == f"unknown family 'bogus'; choose from {', '.join(FAMILY_CHOICES)}"
    for call in (lambda: benchmark("bogus", [5]), lambda: _dim_to_n("bogus", 5)):
        with pytest.raises(ValueError) as got:
            call()
        assert str(got.value) == str(expected.value)


def test_benchmark_reports():
    reps = benchmark("kac", [51, 101], repetitions=2)
    assert len(reps) == 4
    for rep in reps:
        assert rep.max_abs_eig_error <= 1e-10 * (rep.dim - 1)
        assert rep.wall_ns > 0 and rep.build_ns > 0 and rep.convert_ns > 0
        assert rep.sweeps > 0
    # the build and the conversion are timed once per dimension
    for first, second in (reps[:2], reps[2:]):
        assert (first.build_ns, first.convert_ns) == (second.build_ns, second.convert_ns)
    line = reps[0].to_json_line()
    doc = json.loads(line)
    assert doc["family"] == "kac" and doc["dim"] == 51
    assert set(doc) == {"family", "params", "dim", "maxAbsEigError", "maxRelEigError",
                        "residualNorm", "nanoseconds", "buildNanoseconds",
                        "convertNanoseconds", "sweeps"}
    assert (doc["buildNanoseconds"], doc["convertNanoseconds"]) == (reps[0].build_ns,
                                                                    reps[0].convert_ns)


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


def _lapack_draws():
    """(n, kind, off, scale) for n = 2..60, through every (kind, scale)
    pair, odd and even n alike; the scales are powers of two from about
    1e-150 to 1e150, so the reference spectrum scales exactly."""
    rng = np.random.default_rng(11)
    kinds = ("normal", "integer", "split")
    scales = (2.0 ** -498, 2.0 ** -60, 1.0, 2.0 ** 60, 2.0 ** 498)
    for n in range(2, 61):
        yield n, kinds[n % 3], _random_offdiagonal(rng, n, kinds[n % 3]), scales[n % 5]


def test_zero_diagonal_values_against_lapack_and_ql():
    # (the test keeps the name of the QL solver it was also compared with)
    for n, kind, off, scale in _lapack_draws():
        tri = FloatTridiag((0.0,) * n, tuple(off * scale))
        values = sym_tridiag_eigen(tri).values
        ref = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1)) * scale
        tol = 4 * n * EPS * max(np.abs(off).max(), 1.0) * scale
        assert len(values) == n
        assert np.abs(values - ref).max() <= tol, (n, kind, scale)


def _gallery_dims(*dims):
    """(selector, dim) for every selector with a matrix, at each of dims
    that it takes."""
    for selector in FAMILY_CHOICES:
        if selector in ("double:RacahII", "double:RacahIV"):
            continue  # no matrix
        for dim in dims:
            try:
                _dim_to_n(selector, dim)
            except ValueError:
                continue  # the selector takes the other parity
            yield selector, dim


@functools.lru_cache(maxsize=None)
def _gallery_tri(selector, dim):
    return to_float_tridiag(build_gallery_matrix(selector, _dim_to_n(selector, dim)))


def test_float_offdiagonal_is_float_of_each_symmetric_entry():
    # sqrt(float(square)) is float(ScaledRoot) bit for bit: coef is 0 or 1
    # and sqrt is correctly rounded
    for selector, dim in _gallery_dims(6, 7, 400, 401):
        m = build_gallery_matrix(selector, _dim_to_n(selector, dim))
        sym = symmetrize(m.matrix) if isinstance(m.matrix, TwoDiagonal) else m.matrix
        entries = np.array([float(e) for e in sym.offdiagonal])
        assert np.array(_gallery_tri(selector, dim).offdiagonal).tobytes() == entries.tobytes(), \
            (selector, dim)


def _glued_kac_blocks():
    # two copies of kac(199) joined by 1e-12
    off = to_float_tridiag(sylvester_kac(199)).offdiagonal
    return FloatTridiag((0.0,) * 400, off + (1e-12,) + off)


VALUE_DIGESTS = Path(__file__).parent / "golden" / "value_digests.txt"


def value_digests() -> str:
    """sha256 of the bisected values of the gallery at dimension 400-401
    and 1000-1001, of the draws of the LAPACK test, and of glued Kac
    blocks: the count and the multisection must not move a bit of them.
    The counts are not monotone in the shift everywhere, so these digests
    pin the sequence of cuts as well as the count: on the LAPACK draw with
    n = 51 (normal entries, scale 2^-60) `_count_below` gives 3, 3, 3, 4,
    3, 4, 4 at the seven consecutive floats 6.632462653889239e-4 ..
    6.632462653889245e-4, around the scaled square of the value
    1.7870127608774459e-19, and other cuts there may return a value one ulp
    away.  Graded inputs are left out as well: below the pivot floor their
    counts are not monotone over wider ranges."""
    inputs = [(f"{selector} dim {dim}", _gallery_tri(selector, dim))
              for selector, dim in _gallery_dims(400, 401, 1000, 1001)]
    inputs += [(f"{kind} n {n} scale 2^{int(np.log2(scale))}",
                FloatTridiag((0.0,) * n, tuple(off * scale)))
               for n, kind, off, scale in _lapack_draws()]
    inputs.append(("kac(199) glued to kac(199) by 1e-12", _glued_kac_blocks()))
    return "".join(f"{hashlib.sha256(sym_tridiag_eigen(tri).values.tobytes()).hexdigest()}"
                   f"  {label}\n" for label, tri in inputs)


def test_values_are_bit_identical_to_the_recorded_digests():
    assert value_digests() == VALUE_DIGESTS.read_text()


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
        count = _count_below(a ** 2, np.append(b ** 2, 0.0), tau)[0]
        assert np.array_equal(count, (eig[:, None] < tau).sum(axis=0)), (a, b)
    # D_0 = 1 - 1 vanishes, so the first count is not finite
    assert _count_below(np.ones(3), np.array([1.0, 1.0, 0.0]), np.array([1.0]))[0][0] == 1


def _bidiagonal_squares(rng, rows):
    """Squared entries q (diagonal) and e (subdiagonal, then 0) of a lower
    bidiagonal B whose diagonal dominates, so that B B^T >= 1/4."""
    return rng.uniform(1.0, 4.0, size=rows), np.append(rng.uniform(0.01, 0.25, size=rows - 1), 0.0)


def _dense_counts(q, e, tau):
    """Eigenvalues of B B^T below each tau, by LAPACK, and whether each tau
    lies clear of them."""
    b = np.diag(np.sqrt(q)) + np.diag(np.sqrt(e[:-1]), -1)
    eig = np.linalg.eigvalsh(b @ b.T)
    return (eig[:, None] < tau).sum(axis=0), np.abs(eig[:, None] - tau).min(axis=0) > 1e-9


def _row_by_row_count(q, e, t):
    """The dstqds count of one shift t, one pivot at a time, with the
    pivmin rerun of `_count_below`."""
    for pivmin in (None, eigsolve._PIVMIN):
        s, count = -t, 0
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for qi, ei in zip(q, e):
                d = qi + s
                if pivmin is not None and abs(d) < pivmin:
                    d = np.float64(-pivmin)
                count += int(d < 0)
                s = s / d * ei - t
        if np.isfinite(s):
            break
    return count


def test_count_below_across_block_edges():
    rng = np.random.default_rng(3)
    rows = eigsolve._COUNT_ROWS
    for half in (1, rows - 1, rows, rows + 1, 2 * rows + 1):
        q, e = _bidiagonal_squares(rng, half)
        tau = np.linspace(0.01, 5.0, 3 * half + 4)
        expected, clear = _dense_counts(q, e, tau)
        assert np.array_equal(_count_below(q, e, tau)[0][clear], expected[clear]), half
        # squares and shifts graded over 10^-320..1: the blocked count is the
        # row-by-row recurrence, shift by shift
        q, e = q * 10.0 ** rng.uniform(-300, 0, half), e * 10.0 ** rng.uniform(-300, 0, half)
        tau = 10.0 ** rng.uniform(-320, 0, 3 * half + 4)
        assert (_count_below(q, e, tau)[0].tolist()
                == [_row_by_row_count(q, e, t) for t in tau]), half


def test_count_below_reruns_a_pivot_vanishing_in_the_second_block(monkeypatch):
    # below the spectrum every pivot is positive and s negative; the pivot
    # q_at = -s_at, in the second block, makes D_at = 0 exactly at tau[0]
    rng = np.random.default_rng(4)
    rows = eigsolve._COUNT_ROWS
    half, at = 2 * rows + 1, rows + 3
    q, e = _bidiagonal_squares(rng, half)
    tau = np.concatenate(([0.1], np.linspace(0.01, 5.0, 3 * half)))
    s = -tau[0]
    for qi, ei in zip(q[:at], e[:at]):
        s = s / (qi + s) * ei - tau[0]
    q[at] = -s
    reruns = []
    count_below = eigsolve._count_below

    def spied(q_, e_, tau_, pivmin=None):
        if pivmin is not None:
            reruns.append(tau_.tolist())
        return count_below(q_, e_, tau_, pivmin)

    monkeypatch.setattr(eigsolve, "_count_below", spied)
    count = eigsolve._count_below(q, e, tau)[0]
    assert reruns == [[0.1]]
    expected, clear = _dense_counts(q, e, tau)
    assert clear[0] and count[0] == expected[0] == 1
    assert np.array_equal(count[clear], expected[clear])


def _scaled_squares(rng, rows, kind):
    """Squares q (diagonal) and e (subdiagonal, then 0) of a lower
    bidiagonal B of the kind, scaled below 1/4 as the solver scales them,
    and shifts across B B^T's spectrum."""
    if kind == "integer":  # exact-zero pivots, and shifts at eigenvalues
        a, b = rng.integers(-3, 4, size=rows), rng.integers(-3, 4, size=rows - 1)
    else:
        a, b = rng.normal(size=rows), rng.normal(size=rows - 1)
        if kind == "split":
            b[rng.random(rows - 1) < 0.3] = 0.0
        if kind in ("graded", "steep"):  # entries over 10^-8..1, or 10^-150..1
            low = -8 if kind == "graded" else -150
            a, b = a * 10.0 ** rng.uniform(low, 0, rows), b * 10.0 ** rng.uniform(low, 0, rows - 1)
    shift = -eigsolve._unit_exponent(max(np.abs(a).max(), np.abs(b).max(initial=0.0)) or 1.0)
    q, e = np.ldexp(a, shift) ** 2, np.append(np.ldexp(b, shift) ** 2, 0.0)
    if kind == "integer":
        tau = np.ldexp(np.arange(1, 8 * rows + 1) / 2.0, 2 * shift)
    elif kind in ("graded", "steep"):
        tau = 10.0 ** rng.uniform(-320, 0, 3 * rows + 4)
    else:
        tau = rng.uniform(0.0, 1.0, 3 * rows + 4)
    return q, e, tau


def _exact_log_dets(q, e, tau):
    """log|det(B B^T - t I)| for each t in tau, exactly up to the last
    log: the continuant of the tridiagonal B B^T (diagonal q_i + e_{i-1},
    squared offdiagonal q_i e_i) in integers, every float scaled by one
    power of two; -inf where the determinant vanishes."""
    scale = max(x.as_integer_ratio()[1] for x in [*q, *e, *tau])
    q, e = [int(x * scale) for x in map(F, q)], [int(x * scale) for x in map(F, e)]
    logs = []
    for t in map(F, tau):
        t = int(t * scale)
        before, det = 1, q[0] - t
        for i in range(1, len(q)):
            before, det = det, (q[i] + e[i - 1] - t) * det - q[i - 1] * e[i - 1] * before
        logs.append(math.log(abs(det)) - len(q) * math.log(scale) if det else -math.inf)
    return np.array(logs)


DET_KINDS = ["normal", "integer", "split", "graded", "steep"]


@pytest.mark.parametrize("kind", DET_KINDS)
def test_count_below_determinant_against_exact_ldlt(monkeypatch, kind):
    # the determinant rides along the count: the counts are the row-by-row
    # recurrence's, its sign is (-1)^count, and it matches exact arithmetic where finite; on
    # steep grading most block products underflow and read nan instead
    rng = np.random.default_rng(DET_KINDS.index(kind))
    rows = eigsolve._COUNT_ROWS
    reruns = []
    count_below = eigsolve._count_below

    def spied(q_, e_, tau_, pivmin=None):
        reruns.append(pivmin is not None)
        return count_below(q_, e_, tau_, pivmin)

    monkeypatch.setattr(eigsolve, "_count_below", spied)
    compared = lost = 0
    for size in (1, 2, 5, rows - 1, rows, rows + 1):
        q, e, tau = _scaled_squares(rng, size, kind)
        count, mantissa, exponent = eigsolve._count_below(q, e, tau)
        assert count.tolist() == [_row_by_row_count(q, e, t) for t in tau], (kind, size)
        assert mantissa.shape == exponent.shape == tau.shape and exponent.dtype == np.intc
        known = ~np.isnan(mantissa)
        assert np.array_equal(np.signbit(mantissa[known]), count[known] % 2 == 1), (kind, size)
        exact = _exact_log_dets(q, e, tau)
        finite = np.isfinite(mantissa) & np.isfinite(exact)
        logs = np.log(np.abs(mantissa[finite])) + exponent[finite] * math.log(2.0)
        assert np.all(np.abs(logs - exact[finite])
                      <= 1e-10 * np.maximum(1.0, np.abs(exact[finite]))), (kind, size)
        compared += finite.sum()
        lost += len(tau) - known.sum()
    if kind == "steep":
        assert lost > 100 and compared > 10, (lost, compared)
        # two pivots of 2^-530 multiply to a subnormal with 14 bits left
        det = eigsolve._count_below(np.full(2, 2.0 ** -530), np.zeros(2), np.array([2.0 ** -600]))
        assert np.isnan(det[1][0])
    else:
        assert lost == 0 and compared > 250, (lost, compared)
    if kind == "integer":
        assert any(reruns), "no pivot vanished"


def _passes_and_widths(monkeypatch, tri):
    """The bisection passes of tri's values, and the number of shifts of
    each count."""
    widths = []
    count_below = eigsolve._count_below
    monkeypatch.setattr(eigsolve, "_count_below", lambda q, e, tau, pivmin=None:
                        widths.append(len(tau)) or count_below(q, e, tau, pivmin))
    result = sym_tridiag_eigen(tri)
    monkeypatch.undo()
    return result, widths


def test_multisection_on_ones_splits_and_small_dimensions(monkeypatch):
    for n in (2, 3, 4, 5, 9, 33, 64, 65):
        ones = np.ones(n - 1)
        # the values 2 cos(k pi / (n + 1)), which all start in one interval
        closed = np.sort(2 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1)))
        # B = I, padded with a zero for odd n: every bisected value is 1, so
        # all stay in one interval to the end
        identity = np.where(np.arange(n - 1) % 2, 0.0, 1.0)
        split = np.where(np.arange(n - 1) % 3 == 1, 0.0, ones)
        for off in (ones, identity, split):
            tri = FloatTridiag((0.0,) * n, tuple(off))
            result, widths = _passes_and_widths(monkeypatch, tri)
            values = result.values
            ref = np.linalg.eigvalsh(tri.to_dense())
            assert np.abs(values - ref).max() <= 4 * n * EPS, (n, off)
            assert np.array_equal(values, -values[::-1]) and np.all(np.diff(values) >= 0)
            assert 0 < result.sweeps <= 31 and max(widths) <= 3 * (n // 2), (n, off)
            if off is ones:
                assert np.abs(values - closed).max() <= 4 * n * EPS, n


def test_gallery_needs_at_most_15_passes_at_dimension_1000(monkeypatch):
    # uniform multisection took 25-26 passes here; secant-placed cuts take
    # 11-12 once the values are apart
    for selector, dim in _gallery_dims(1000, 1001):
        result, widths = _passes_and_widths(monkeypatch, _gallery_tri(selector, dim))
        assert result.sweeps <= 15, (selector, result.sweeps)
        assert max(widths) <= 3 * (dim // 2)


def _halving_passes(monkeypatch, tri):
    """Solve tri and assert that each pass at least halves the count of
    floats in every open interval; returns the result and the number of
    values each pass found predicted by `_secant`."""
    split, secant = eigsolve._split, eigsolve._secant
    predicted = []

    def spied_secant(points, dets, scales, alone):
        table = secant(points, dets, scales, alone)
        predicted.append(int(np.sum(table[1] > 0)))
        return table

    def spied_split(q, e, open_, target, points, dets, scales):
        before = (points[1] - points[0])[open_]
        split(q, e, open_, target, points, dets, scales)
        after = (points[1] - points[0])[open_]
        assert np.all(after <= (before + 1) // 2), (before, after)

    monkeypatch.setattr(eigsolve, "_split", spied_split)
    monkeypatch.setattr(eigsolve, "_secant", spied_secant)
    result = sym_tridiag_eigen(tri)
    monkeypatch.setattr(eigsolve, "_secant", secant)
    monkeypatch.setattr(eigsolve, "_split", split)
    return result, predicted


@pytest.mark.parametrize("root", ["lower end", "upper end", "nan"])
def test_secant_misses_still_halve_and_converge(monkeypatch, root):
    # every predicted secant root forced to an interval end or to nan: the
    # ladder then misses the value, and the pattern midpoint among the cuts
    # must still halve each interval, within the pass cap
    secant = eigsolve._secant

    def forced(points, dets, scales, alone):
        table = secant(points, dets, scales, alone)
        x = points.view(float)
        xhat = {"lower end": x[0], "upper end": x[1], "nan": np.full(x.shape[1], np.nan)}[root]
        hit = table[1] > 0
        table[0, hit] = xhat[hit]
        with np.errstate(invalid="ignore"):
            table[2:, hit] = (xhat - x[0])[hit] / table[1, hit], (x[1] - xhat)[hit] / table[1, hit]
        return table

    monkeypatch.setattr(eigsolve, "_secant", forced)
    predicted = 0
    draws = [(f"{kind} n {n}", off, scale) for n, kind, off, scale in _lapack_draws()]
    draws.append(("kac dim 400", np.array(_gallery_tri("kac", 400).offdiagonal), 1.0))
    for label, off, scale in draws:
        n = len(off) + 1
        result, counts = _halving_passes(monkeypatch, FloatTridiag((0.0,) * n, tuple(off * scale)))
        ref = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1)) * scale
        tol = 4 * n * EPS * max(np.abs(off).max(), 1.0) * scale
        assert np.abs(result.values - ref).max() <= tol, label
        assert result.sweeps <= eigsolve._MAX_PASSES, label
        predicted += sum(counts)
    assert predicted > 1000


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
    # each value of a block appears twice, split by at most 1e-12, a true
    # cluster for the twisted vectors
    _assert_lapack_fallback(monkeypatch, _glued_kac_blocks())


def test_zero_diagonal_vectors_residual_guard():
    tri = to_float_tridiag(sylvester_kac(10))
    values = sym_tridiag_eigen(tri).values
    assert eigsolve._zero_diagonal_vectors(tri, values) is not None
    # values off by a relative 1e-9 give vectors that pass the Gram guard
    # and orthogonalise, but miss the band residual
    assert eigsolve._zero_diagonal_vectors(tri, values * (1 + 1e-9)) is None


if __name__ == "__main__":
    VALUE_DIGESTS.write_text(value_digests())
