"""Matrix-coefficient decay of the half-density action on the sphere.

The coefficient c(n) of the constant function at diag(e^n, 1, e^-n) is a
plain surface integral; the certified one-sided bound is 4 e^(-n/2), while
the true decay is ~4.37 e^-n.  The bi-rotation averaged operators collapse
onto the constants, and no nonzero vector is invariant under both circle
subgroups: the summed defect stays above 1/3 in every degree.
"""

import numpy as np

from circleops.legendre import legendre_at_zero
from circleops.repsim import (
    build_grid,
    coefficient_decay,
    invariant_gap,
    k_averaged_operator,
)

print("coefficient decay (exact quadrature):")
rows = coefficient_decay(6)
for n, c, bound, leak in rows:
    print(f"  n = {int(n)}: c = {c:.6f} <= {bound:.6f}   c * e^n = {c * np.exp(n):.4f}")

print("\nbi-rotation averaged operators at band limit 16 (rank collapses to 1):")
grid = build_grid(16, oversample=2)
for n in (1, 3, 5):
    op = k_averaged_operator(np.diag([np.exp(n), 1.0, np.exp(-n)]), grid)
    s = np.linalg.svd(op.matrix, compute_uv=False)
    print(f"  n = {n}: top singular value {s[0]:.6f}, second {s[1]:.1e}, "
          f"leakage {op.leakage:.3f}")

print("\ninvariant gaps: exact interval [lower, witness defect] vs sqrt(1 - P_j(0)^2):")
for j in range(1, 7):
    lower, upper, _ = invariant_gap(j)
    oracle = np.sqrt(1 - legendre_at_zero(j)[j] ** 2)
    print(f"  degree {j}: [{lower:.15f}, {upper:.15f}] (closed form {oracle:.15f}) >= 1/3")
