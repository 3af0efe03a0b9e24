"""Crossing an annulus of the cone by certified slide segments.

Any two points of {alpha <= max(a1, -a3) <= (1+eps) alpha} are joined by at
most three slides (two when they straddle the axis a2 = 0), each certified by
the jump-cost bound C L^2 e^(2 alpha t) d^s.  Summing over unit annuli gives
the closed-form tail constant and the exponential decay profile.
"""

import numpy as np

from circleops.sl3 import LambdaPoint
from circleops.zigzag import (
    ExponentProfile,
    annulus_diameter_bound,
    cauchy_tail_constant,
    covering_partial_sums,
    diameter_decay_profile,
    ledger_verdict,
)

prof = ExponentProfile(holder_s=0.5, growth_t=0.0, hoelder_C=4.0, growth_L=1.0)
alpha, eps = 2.0, 0.5

a = LambdaPoint(2.6, -0.5, -2.1)  # below the axis: lies on a slice a1 = const
b = LambdaPoint(1.3, 0.9, -2.2)   # above the axis: lies on a slice a3 = const
bound, ledger = annulus_diameter_bound(alpha, eps, prof, a, b)
print(f"annulus alpha = {alpha}, eps = {eps}: bound {bound:.4f}")
for seg in ledger.segments:
    print(f"  {seg.rule:22s} {seg.start.as_array()} -> {seg.end.as_array()} "
          f"cost <= {seg.cost_bound:.4f}")
print(f"  total {ledger.total:.4f} <= {bound:.4f}; verdict (total and per-slide cap "
      f"{prof.slide_cap(alpha, eps):.4f}): {'holds' if ledger_verdict(alpha, eps, prof, bound, ledger) else 'FAILS'}")

c = LambdaPoint(1.5, 0.8, -2.3)
bound, same_side = annulus_diameter_bound(alpha, eps, prof, b, c)
print(f"same-side pair needs {len(same_side.segments)} segments, "
      f"total {same_side.total:.4f}; verdict: "
      f"{'holds' if ledger_verdict(alpha, eps, prof, bound, same_side) else 'FAILS'}")

print(f"\ntail constant C' = {cauchy_tail_constant(prof):.6f}")
sums = covering_partial_sums(prof, 0.0, 8)
print("unit-annulus covering sums ->", np.array2string(sums, precision=3),
      f"-> limit {cauchy_tail_constant(prof):.3f}")

print("\ndecay profile (the certified bound halves every 2 ln 2 in alpha):")
for alpha, bound in diameter_decay_profile([1.0, 2.0, 4.0, 8.0], prof):
    print(f"  alpha = {alpha:4.1f}: bound {bound:10.6f}")
