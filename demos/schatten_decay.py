"""Schatten-norm decay of the averaging differences, and the p = 4 boundary.

For p > 4 the weighted eigenvalue sums converge and the norms decay like
delta^(1/2 - 2/p); at p = 4 the partial sums keep growing logarithmically.
Both behaviours are shown from direct summation of the diagonal model; for
p > 4 the partial sums are completed by the asymptotic tail estimate.
"""

import numpy as np

from circleops.spectral import completed_power_sums, divergence_probe_p4, schatten_decay

grid = [2.0**-k for k in range(1, 11)]
print("decay fits of the Schatten norms over delta in [2^-10, 1/2]:")
# the finite p share one recurrence pass; p = inf takes the certified sup norms on a pass of its own
for decay in schatten_decay([4.5, 5.0, 6.0, 8.0], grid, n_max=2**14) + schatten_decay([np.inf], grid, n_max=2**14):
    fit = decay.fit
    label = "inf" if np.isinf(decay.p) else f"{decay.p:3.1f}"
    print(f"  p = {label}: fitted exponent {fit.exponent:+.4f}  "
          f"(theory {fit.theory_exponent:+.4f}), constant {fit.constant:.3f}, "
          f"log-residual {fit.residual:.3f}")

print("\ntruncation doubling at delta = 0.25, p = 5 (slow polynomial tail):")
checkpoints = [2**k for k in range(10, 16)]
windows, _, norms = completed_power_sums([0.25], [5.0], checkpoints)
partial = np.cumsum(windows[0, 0]) ** (1 / 5.0)
for label, values in (("raw partial sums", partial), ("completed norms", norms[0, 0])):
    changes = np.abs(np.diff(values)) / values[1:]
    print(f"  {label}: value {values[-1]:.10f} at N = {checkpoints[-1]}; "
          f"doubling changes {' '.join(f'{c:.2e}' for c in changes)}")

print("\nfourth-power partial sums at the boundary exponent (delta = 0.3):")
ns = [2**k for k in range(10, 17)]
sums = divergence_probe_p4(0.3, ns)
for n, s in zip(ns, sums):
    print(f"  N = {n:6d}: {s:.4f}")
print("  steady increments per dyadic window -> logarithmic growth, "
      "consistent with no summability at p = 4")
