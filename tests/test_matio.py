from fractions import Fraction as F

import numpy as np
import pytest

from twodiag.doubles import DoubleCase
from twodiag.eigsolve import sym_tridiag_eigen
from twodiag.families import DualHahnParams
from twodiag.matio import (
    MM_HEADER,
    ParseError,
    exact_text,
    json_text,
    matrix_market_text,
    mm_to_float_tridiag,
    parse_exact_text,
    parse_matrix_market,
)
from twodiag.matrices import TwoDiagonal, double_matrix, nonsymmetric_form, sylvester_kac


def test_matrix_market_kac2():
    text = matrix_market_text(sylvester_kac(2).matrix)
    lines = text.strip().splitlines()
    assert lines[0] == "%%MatrixMarket matrix coordinate real general"
    assert lines[1] == "3 3 4"
    assert lines[2:] == ["1 2 1", "2 1 2", "2 3 2", "3 2 1"]


def test_matrix_market_roundtrip_and_solver():
    bundle = nonsymmetric_form(DoubleCase.DUAL_HAHN_I, DualHahnParams(F(1, 2), F(1, 3), 6))
    dim, entries = parse_matrix_market(matrix_market_text(bundle.matrix))
    assert dim == bundle.matrix.dim
    tri = mm_to_float_tridiag(dim, entries)
    vals = sym_tridiag_eigen(tri).values
    closed = np.sort(bundle.spectrum.floats())
    assert np.abs(vals - closed).max() <= 1e-10 * max(map(abs, closed))


def test_matrix_market_symmetric_entries_are_floats():
    bundle = double_matrix(DoubleCase.DUAL_HAHN_I, DualHahnParams(F(1, 2), F(1, 3), 3))
    text = matrix_market_text(bundle.matrix)
    dim, entries = parse_matrix_market(text)
    assert dim == 7
    # entries come in symmetric pairs
    assert len(entries) == 2 * (dim - 1)


def test_matrix_market_skips_exact_zeros():
    m = TwoDiagonal((F(0), F(2)), (F(3), F(0)))
    dim, entries = parse_matrix_market(matrix_market_text(m))
    assert len(entries) == 2


def test_exact_text_roundtrip_bit_identical():
    mat = nonsymmetric_form(DoubleCase.DUAL_HAHN_III,
                            DualHahnParams(F(5, 7), F(-9, 11), 5)).matrix
    text = exact_text(mat)
    back = parse_exact_text(text)
    assert back == mat
    assert exact_text(back) == text


def test_exact_text_format_shape():
    text = exact_text(sylvester_kac(2).matrix)
    lines = text.strip().splitlines()
    assert lines[0] == "dim 3 3"
    assert "1 2 1" in lines and "2 1 2" in lines


def test_exact_text_preserves_zero_entries():
    m = TwoDiagonal((F(0), F(1, 3)), (F(2), F(0)))
    assert parse_exact_text(exact_text(m)) == m


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_exact_text("dim 3 3\n1 2 bogus\n")
    assert "line 2" in str(err.value)
    with pytest.raises(ParseError):
        parse_exact_text("3 3\n")
    with pytest.raises(ParseError):
        parse_matrix_market("not a header\n1 1 1\n")
    with pytest.raises(ParseError) as err:
        parse_exact_text("dim 3 3\n1 3 1/2\n")  # outside the band
    assert "band" in str(err.value)


def test_json_rendering():
    import json

    m = sylvester_kac(2).matrix
    doc = json.loads(json_text("kac", {}, m))
    assert doc["dim"] == 3
    assert doc["superdiagonal"] == ["1", "2"]
    assert doc["subdiagonal"] == ["2", "1"]
    sym = double_matrix(DoubleCase.DUAL_HAHN_I, DualHahnParams(F(1, 2), F(1, 3), 2)).matrix
    doc = json.loads(json_text("double:DualHahnI", {"gamma": "1/2"}, sym))
    assert doc["offdiagonal_squares"] == [str(v.square) for v in sym.offdiagonal]


def test_matrix_market_without_size_line():
    with pytest.raises(ParseError) as err:
        parse_matrix_market("%%MatrixMarket matrix coordinate real general\n% comment\n")
    assert "line 3" in str(err.value) and "size line" in str(err.value)


@pytest.mark.parametrize("entries,bad,line", [
    ("0 1 7.0\n1 0 7.0\n", "(0,1)", 3),
    ("1 2 7.0\n-1 1 7.0\n", "(-1,1)", 4),
    ("1 2 7.0\n4 3 7.0\n", "(4,3)", 4),
])
def test_matrix_market_refuses_coordinates_outside_the_matrix(entries, bad, line):
    with pytest.raises(ParseError) as err:
        mm_to_float_tridiag(*parse_matrix_market(f"{MM_HEADER}\n3 3 2\n{entries}"))
    assert str(err.value).startswith(f"line {line}:") and bad in str(err.value)


def test_float_tridiag_refuses_index_zero():
    # without the check, index 0 lands in the last slot
    with pytest.raises(ParseError):
        mm_to_float_tridiag(3, [(0, 1, 7.0), (1, 0, 7.0)])


@pytest.mark.parametrize("entries,message", [
    ([(0, 1, 7.0), (1, 0, 7.0)], "entry (0,1) outside the 3 x 3 matrix"),
    ([(1, 3, 7.0)], "entry (1,3) outside the tridiagonal band"),
])
def test_entries_handed_in_are_refused_without_a_line(entries, message):
    # entries from a caller have no line of text to name
    with pytest.raises(ParseError) as err:
        mm_to_float_tridiag(3, entries)
    assert str(err.value) == message and err.value.line is None


@pytest.mark.parametrize("sup,sub", [(float("inf"), 1.0), (1e200, 1e200), (float("nan"), 1.0)])
def test_float_tridiag_refuses_a_product_that_is_not_finite(sup, sub):
    with pytest.raises(ParseError, match=r"^entries \(2,3\) and \(3,2\) have product "):
        mm_to_float_tridiag(3, [(1, 2, 1.0), (2, 1, 1.0), (2, 3, sup), (3, 2, sub)])


def test_a_zero_product_gives_a_positive_zero_entry():
    tri = mm_to_float_tridiag(3, [(1, 2, -3.0), (2, 3, 0.0), (3, 2, -0.0)])
    assert [str(v) for v in tri.offdiagonal] == ["0.0", "0.0"]


def test_matrix_market_refuses_symmetric_header():
    # a symmetric file lists the lower triangle only; read as general it
    # would be the zero matrix
    text = "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n2 1 1.0\n3 2 2.0\n"
    with pytest.raises(ParseError) as err:
        parse_matrix_market(text)
    assert str(err.value).startswith("line 1:") and "symmetric" in str(err.value)


def test_duplicate_coordinates_are_refused():
    with pytest.raises(ParseError) as err:
        parse_matrix_market(f"{MM_HEADER}\n3 3 3\n1 2 1.0\n2 1 1.0\n1 2 5.0\n")
    assert str(err.value).startswith("line 5:") and "twice" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_exact_text("dim 3 3\n1 2 1\n2 1 1\n1 2 5\n")
    assert str(err.value).startswith("line 4:") and "twice" in str(err.value)


def test_exact_text_errors_name_the_line_of_the_text():
    with pytest.raises(ParseError) as err:
        parse_exact_text("dim 3 3\n\n1 2 bogus\n")
    assert str(err.value).startswith("line 3:")
    with pytest.raises(ParseError) as err:
        parse_exact_text("\n\ndim 3\n")
    assert str(err.value).startswith("line 3:")


@pytest.mark.parametrize("size", ["0 0 0", "1 1 0", "2 3 0"])
def test_matrix_market_refuses_sizes_below_two_by_two(size):
    with pytest.raises(ParseError) as err:
        parse_matrix_market(f"{MM_HEADER}\n% comment\n{size}\n")
    assert str(err.value).startswith("line 3:") and "dimension >= 2" in str(err.value)


def test_matrix_market_refuses_entries_outside_the_band():
    with pytest.raises(ParseError) as err:
        parse_matrix_market(f"{MM_HEADER}\n3 3 2\n2 2 1.0\n1 3 7.0\n")
    assert str(err.value).startswith("line 4:") and "(1,3)" in str(err.value)
    assert "band" in str(err.value)
    # diagonal entries stay allowed
    assert parse_matrix_market(f"{MM_HEADER}\n2 2 1\n2 2 1.0\n") == (2, [(2, 2, 1.0)])
    assert mm_to_float_tridiag(2, [(2, 2, 1.0)]).diagonal == (0.0, 1.0)


@pytest.mark.parametrize("text,line,message", [
    ("", 1, "missing MatrixMarket header"),
    ("not a header\n1 1 1\n", 1, "missing MatrixMarket header"),
    (f"{MM_HEADER}\n3 x 2\n", 2, "bad size line '3 x 2'"),
    (f"{MM_HEADER}\n% comment\n3 3\n", 3, "bad size line '3 3'"),
    (f"{MM_HEADER}\n3 3 1\n1 2\n", 3, "expected 'i j value', got '1 2'"),
    (f"{MM_HEADER}\n3 3 1\n1 2 x\n", 3, "bad entry '1 2 x'"),
    (f"{MM_HEADER}\n3 3 1\n1.5 2 1\n", 3, "bad entry '1.5 2 1'"),
    (f"{MM_HEADER}\n\n3 3 3\n1 2 1.0\n2 1 1.0\n", 3, "declared 3 entries, found 2"),
])
def test_matrix_market_errors_name_their_line(text, line, message):
    with pytest.raises(ParseError) as err:
        parse_matrix_market(text)
    assert str(err.value) == f"line {line}: {message}" and err.value.line == line


@pytest.mark.parametrize("text,line,message", [
    ("", 1, "empty input"),
    ("\n  \n", 1, "empty input"),
    ("3 3\n", 1, "expected 'dim m n', got '3 3'"),
    ("dim 3 x\n", 1, "bad dimensions in 'dim 3 x'"),
    ("\ndim 3 4\n", 2, "need a square matrix of dimension >= 2"),
    ("dim 1 1\n", 1, "need a square matrix of dimension >= 2"),
    ("dim 3 3\n1 2\n", 2, "expected 'i j p/q', got '1 2'"),
    ("dim 3 3\n1 2 1/0\n", 2, "bad entry '1 2 1/0'"),
    ("dim 3 3\n1 4 1\n", 2, "entry (1,4) outside the 3 x 3 matrix"),
    ("dim 3 3\n1 2 1\n2 2 1\n", 3, "entry (2,2) outside the off-diagonal band"),
])
def test_exact_text_errors_name_their_line(text, line, message):
    with pytest.raises(ParseError) as err:
        parse_exact_text(text)
    assert str(err.value) == f"line {line}: {message}" and err.value.line == line
