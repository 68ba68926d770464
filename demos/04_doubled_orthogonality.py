"""A merged polynomial system orthogonal on a square-root grid.

Interleaving a family with its shifted partner produces polynomials
P_0, P_1, ... sharing one discrete weight whose support is the spectrum
of the corresponding two-diagonal matrix: 0, +-sqrt(k(k+gamma+delta+1)).
All Gram residues vanish exactly.
"""

from fractions import Fraction as F

from twodiag import DoubleCase, DualHahnParams, doubled_system
from twodiag.families import family_weight
from twodiag.orthosystems import support_matches_spectrum, verify_discrete_orthogonality

g, d, N = F(1, 2), F(1, 3), 4
system = doubled_system(DoubleCase.DUAL_HAHN_I, DualHahnParams(g, d, N))

print(f"{system.dim} polynomials on the support")
print("  S =", ", ".join(f"{float(q):+.4f}" for q in system.support()))
print("  support == matrix spectrum:", support_matches_spectrum(system))

res = verify_discrete_orthogonality(system)
print(f"  {len(res)} Gram residues, all zero: {all(r == 0 for r in res)}")

print("\nweights by support index k (doubled at q = 0):")
for k in range(N + 1):
    w = family_weight(system.params, k)
    print(f"  k={k}: w = {2 * w if system.point_square(k) == 0 else w}")

print("\nnorms by polynomial index:")
for n in range(system.dim):
    print(f"  |P_{n}|^2 = {system.norm(n)}")
