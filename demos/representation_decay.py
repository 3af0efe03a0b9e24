"""Matrix-coefficient decay of the half-density action on the sphere.

The coefficient c(n) of the constant function at diag(e^n, 1, e^-n) is a
plain surface integral; the certified one-sided bound is 4 e^(-n/2), while
the true decay is ~4.37 e^-n.  The bi-rotation average projects onto the
constants, so P_K pi(a_n) P_K is <pi(a_n)1, 1> e0 e0^T, the [0, 0] entry of the
band-compressed pi(a_n); that grid value matches c(n) at n = 1 and falls below
it as the e^(-2n) ridge outgrows the band-16 grid.  No nonzero vector is
invariant under both circle subgroups: the summed defect stays above 1/3 in
every degree.
"""

import numpy as np

from circleops.legendre import legendre_at_zero
from circleops.repsim import (
    assemble_operator,
    build_grid,
    coefficient_decay,
    invariant_gap,
    matrix_coefficient,
)

print("coefficient decay (exact quadrature):")
rows, held = coefficient_decay(6)
for n, c, bound, leak in rows:
    print(f"  n = {int(n)}: c = {c:.6f} <= {bound:.6f}   c * e^n = {c * np.exp(n):.4f}")
print(f"verdict: c positive, strictly decreasing and under 4 e^(-n/2): {'holds' if held else 'FAILS'}")

print("\n[0, 0] entry of the band-16 compressed pi(a_n), the one entry of P_K pi(a_n) P_K:")
grid = build_grid(16)
for n in (1, 3, 5):
    op, leakage = assemble_operator(np.diag([np.exp(n), 1.0, np.exp(-n)]), grid)
    print(f"  n = {n}: grid <pi(a_n)1, 1> = {op[0, 0]:.6f}, "
          f"c(n) = {matrix_coefficient(n):.6f}, leakage {leakage:.3f}")

print("\ninvariant gaps: exact interval [lower, witness defect] vs sqrt(1 - P_j(0)^2):")
for j in range(1, 7):
    lower, upper, _ = invariant_gap(j)
    oracle = np.sqrt(1 - legendre_at_zero(j)[j] ** 2)
    print(f"  degree {j}: [{lower:.15f}, {upper:.15f}] (closed form {oracle:.15f}) >= 1/3")
