"""How sharp is the pointwise defect bound |P_n(0) - P_n(d)| <= 4 sqrt(|d|)?

Sweeps all degrees up to 2000 over a fine abscissa grid and reports the
largest observed ratio defect / (4 sqrt|d|).  The worst case is the degree-2
polynomial at the endpoints (ratio 3/8); everything else sits far below the
certified constant.
"""

import numpy as np

from circleops.legendre import legendre_at_zero, legendre_table
from circleops.spectral import holder_check

deltas = np.linspace(-1.0, 1.0, 2001)
heads, bounds, violating = holder_check(deltas, 2000)  # heads: max defect over degrees <= 2000

ratios = heads / np.maximum(bounds, 1e-300)
d_star = int(np.argmax(ratios))
n_star = int(np.argmax(np.abs(legendre_table(2000, deltas[d_star]) - legendre_at_zero(2000))))
print(f"degrees <= 2000, {deltas.size} abscissae: {int(violating.sum())} abscissae violate the bound")
print(f"largest ratio {ratios.max():.6f} at degree {n_star}, delta {deltas[d_star]:+.4f}")

# the defect scales like sqrt(delta): halving delta halves the squared defect
for d in (0.4, 0.1, 0.025):
    worst = heads[np.argmin(np.abs(deltas - d))]
    print(f"delta = {d:5.3f}: max defect {worst:.6f} = {worst / np.sqrt(d):.6f} * sqrt(delta)")
