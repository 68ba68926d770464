"""Benchmarking a floating-point eigensolver against closed-form spectra.

Every gallery family knows its eigenvalues in closed form, which makes the
matrices drop-in accuracy tests: solve in float64, sort, and compare.
Every gallery matrix has a zero diagonal, so the solver finds its
eigenvalues as the +-singular values of a bidiagonal of half the order, by
bisection; `sweeps` below counts bisection passes, each of which moves
every eigenvalue.  With eigenvectors (`want_vectors=True`) it adds one
twisted factorisation per value and Newton-Schulz orthogonalisation, and
`sweeps` still counts bisection passes; only a matrix whose twisted
vectors fail their guards (repeated values) takes its vectors from LAPACK.
The solver takes zero-diagonal matrices only.
"""

from fractions import Fraction as F

from twodiag import benchmark

jobs = [
    ("kac", [101, 501, 1001], None),
    ("kac-odd", [501], None),
    ("double:DualHahnIII", [402], {"gamma": F(2), "delta": F(2)}),
    ("nonsym:DualHahnI", [301], None),
]

print(f"{'family':22s} {'dim':>5s} {'max |err|':>12s} {'sweeps':>7s} {'time':>9s}")
for family, dims, params in jobs:
    for rep in benchmark(family, dims, params=params):
        print(f"{rep.family:22s} {rep.dim:5d} {rep.max_abs_eig_error:12.3e} "
              f"{rep.sweeps:7d} {rep.wall_ns / 1e9:8.3f}s")

print("\nwith gamma = delta = 2 the closed eigenvalues are the integers "
      "+-3, +-4, ..., +-(N+3); errors above are pure solver error")
