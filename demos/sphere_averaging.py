"""Circle averaging on the sphere: quadrature vs the Legendre spectral model.

Builds an exact band-limited grid, checks that the harmonic basis is
orthonormal under its quadrature, averages every harmonic over circles at
inner product delta by honest trapezoid quadrature, and compares with the
predicted eigenvalues P_n(delta).  Then runs the Markov chain whose one-step
kernel is the same averaging operator and watches the mean contract.
"""

import numpy as np

from circleops.legendre import legendre_table
from circleops.sphere import (
    SphereGrid,
    circle_average_operator,
    degree_of_column,
    mixing_profile,
)

band = 16
grid = SphereGrid.build(band)
gram = (grid.basis * grid.weights[:, None]).T @ grid.basis
print(f"grid: {grid.nodes.shape[0]} nodes, basis orthonormal to {np.abs(gram - np.eye(grid.n_coeff)).max():.2e}")

for delta in (-0.6, 0.2, 0.85):
    averaged = circle_average_operator(grid, delta)
    eigs = legendre_table(band, delta)[degree_of_column(band)]
    err = np.abs(averaged - grid.basis * eigs[None, :]).max()
    print(f"delta = {delta:+.2f}: every harmonic is an eigenfunction, sup error {err:.2e}")

print("\nMarkov chain mean contraction (1e5 replicas, start at the north pole):")
delta = 0.6
norms, sigmas = mixing_profile(delta, steps=10, replicas=10**5, seed=1)
for k in (1, 3, 5, 10):
    print(f"  step {k:2d}: ||mean|| = {norms[k-1]:.6f}  theory {delta**k:.6f}  "
          f"(mc sigma {sigmas[k-1]:.1e})")
