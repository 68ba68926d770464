"""Interchange formats for two-diagonal matrices.

Three encodings: Matrix Market coordinate (real general, 1-based, floats at
17 significant digits), an exact-rational text format that round-trips
bit-identically, and a JSON rendering.  Zero-diagonal entries are never
emitted.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Dict, List, Tuple

from .eigsolve import FloatTridiag
from .matrices import SymTridiag, TwoDiagonal, nonnegative_squares

MM_HEADER = "%%MatrixMarket matrix coordinate real general"


class ParseError(ValueError):
    """Bad input at a line of a text, or (line None) in entries handed in."""

    def __init__(self, message: str, line: int | None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


def matrix_market_text(m: TwoDiagonal | SymTridiag) -> str:
    """Matrix Market coordinate text; only nonzero off-diagonal entries."""
    dim = m.dim
    entries: List[Tuple[int, int, float]] = []
    if isinstance(m, TwoDiagonal):
        for i, (b, c) in enumerate(zip(m.sup, m.sub), start=1):
            if b != 0:
                entries.append((i, i + 1, float(b)))
            if c != 0:
                entries.append((i + 1, i, float(c)))
    else:
        for i, v in enumerate(m.offdiag_floats(), start=1):
            if v != 0.0:
                entries.append((i, i + 1, v))
                entries.append((i + 1, i, v))
    lines = [MM_HEADER, f"{dim} {dim} {len(entries)}"]
    lines += [f"{i} {j} {v:.17g}" for i, j, v in entries]
    return "\n".join(lines) + "\n"


def parse_matrix_market(text: str) -> Tuple[int, List[Tuple[int, int, float]]]:
    """(dimension, entries) of a square real general coordinate matrix of
    dimension >= 2; each entry's 1-based indices lie within the dimension
    and the tridiagonal band, and no coordinate is given twice."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("%%MatrixMarket"):
        raise ParseError("missing MatrixMarket header", 1)
    if lines[0].split()[1:] != MM_HEADER.split()[1:]:
        # a symmetric file lists one triangle only; read as general, the
        # other would silently be zero
        raise ParseError(f"unsupported header {lines[0]!r}; need {MM_HEADER!r}", 1)
    body = [(k + 1, ln) for k, ln in enumerate(lines)
            if ln.strip() and not ln.startswith("%")]
    if not body:
        raise ParseError("missing size line", len(lines) + 1)
    lineno, size = body[0]
    try:
        rows, cols, nnz = (int(t) for t in size.split())
    except ValueError:
        raise ParseError(f"bad size line {size!r}", lineno) from None
    if rows != cols or rows < 2:
        raise ParseError("need a square matrix of dimension >= 2", lineno)
    entries = []
    seen = set()
    for lineno, ln in body[1:]:
        toks = ln.split()
        if len(toks) != 3:
            raise ParseError(f"expected 'i j value', got {ln!r}", lineno)
        try:
            i, j, v = int(toks[0]), int(toks[1]), float(toks[2])
        except ValueError:
            raise ParseError(f"bad entry {ln!r}", lineno) from None
        _check_coordinate(i, j, rows, seen, lineno)
        if abs(i - j) > 1:
            raise ParseError(f"entry ({i},{j}) outside the tridiagonal band", lineno)
        entries.append((i, j, v))
    if len(entries) != nnz:
        raise ParseError(f"declared {nnz} entries, found {len(entries)}", body[0][0])
    return rows, entries


def _check_coordinate(i: int, j: int, dim: int, seen: set, lineno: int) -> None:
    """Refuse a 1-based coordinate outside dim x dim or one given before."""
    if not (1 <= i <= dim and 1 <= j <= dim):
        raise ParseError(f"entry ({i},{j}) outside the {dim} x {dim} matrix", lineno)
    if (i, j) in seen:
        raise ParseError(f"entry ({i},{j}) given twice", lineno)
    seen.add((i, j))


def mm_to_float_tridiag(dim: int, entries: List[Tuple[int, int, float]]) -> FloatTridiag:
    """Rebuild a symmetric tridiagonal from the coordinate entries of
    `parse_matrix_market`; a non-symmetric two-diagonal input is
    symmetrized through the products of paired entries, a negative or
    non-finite one refused."""
    # the diagonal, the superdiagonal and the subdiagonal, by j - i
    bands = {0: [0.0] * dim, 1: [0.0] * (dim - 1), -1: [0.0] * (dim - 1)}
    for i, j, v in entries:
        if not (1 <= i <= dim and 1 <= j <= dim):
            raise ParseError(f"entry ({i},{j}) outside the {dim} x {dim} matrix", None)
        if j - i not in bands:
            raise ParseError(f"entry ({i},{j}) outside the tridiagonal band", None)
        bands[j - i][min(i, j) - 1] = v
    diag, sup, sub = bands.values()
    # `or 0.0` drops the sign of a zero product, whose root would be -0.0
    squares = nonnegative_squares(b * c or 0.0 for b, c in zip(sup, sub))
    for i, q in enumerate(squares, start=1):
        if not math.isfinite(q):
            raise ParseError(f"entries ({i},{i + 1}) and ({i + 1},{i}) have product {q}", None)
    return FloatTridiag(tuple(diag), tuple(map(math.sqrt, squares)))


def exact_text(m: TwoDiagonal) -> str:
    """Exact-rational structured text: 'dim m n' then 1-based 'i j p/q'
    triples covering both off-diagonals (zeros included, for losslessness)."""
    lines = [f"dim {m.dim} {m.dim}"]
    for i, (b, c) in enumerate(zip(m.sup, m.sub), start=1):
        lines.append(f"{i} {i + 1} {b}")
        lines.append(f"{i + 1} {i} {c}")
    return "\n".join(lines) + "\n"


def parse_exact_text(text: str) -> TwoDiagonal:
    """Read `exact_text`; blank lines are skipped, and errors name the
    line of the text."""
    body = [(k, ln) for k, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not body:
        raise ParseError("empty input", 1)
    lineno, size = body[0]
    head = size.split()
    if len(head) != 3 or head[0] != "dim":
        raise ParseError(f"expected 'dim m n', got {size!r}", lineno)
    try:
        rows, cols = int(head[1]), int(head[2])
    except ValueError:
        raise ParseError(f"bad dimensions in {size!r}", lineno) from None
    if rows != cols or rows < 2:
        raise ParseError("need a square matrix of dimension >= 2", lineno)
    sup = [Fraction(0)] * (rows - 1)
    sub = [Fraction(0)] * (rows - 1)
    seen = set()
    for k, ln in body[1:]:
        toks = ln.split()
        if len(toks) != 3:
            raise ParseError(f"expected 'i j p/q', got {ln!r}", k)
        try:
            i, j, v = int(toks[0]), int(toks[1]), Fraction(toks[2])
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad entry {ln!r}", k) from None
        _check_coordinate(i, j, rows, seen, k)
        if j == i + 1:
            sup[i - 1] = v
        elif i == j + 1:
            sub[j - 1] = v
        else:
            raise ParseError(f"entry ({i},{j}) outside the off-diagonal band", k)
    return TwoDiagonal(tuple(sup), tuple(sub))


def json_text(label: str, params: Dict[str, str], m: TwoDiagonal | SymTridiag) -> str:
    doc: Dict[str, object] = {"family": label, "params": params, "dim": m.dim}
    if isinstance(m, TwoDiagonal):
        doc["superdiagonal"] = [str(v) for v in m.sup]
        doc["subdiagonal"] = [str(v) for v in m.sub]
    else:
        doc["offdiagonal_squares"] = [str(v.square) for v in m.offdiagonal]
        doc["offdiagonal"] = m.offdiag_floats()
    return json.dumps(doc, indent=2) + "\n"
