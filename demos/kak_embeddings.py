"""Double-coset geometry: KAK exponents, the slide family, and embeddings.

A unimodular matrix is identified, up to rotations on both sides, by its
sorted log singular values (a1 >= a2 >= a3, summing to zero).  The slide
family D_a x_d D_a sweeps the slice a3 = -a of that cone as d runs over
[0, 1], and the two-sided family D_(2g-a) x_d D_a produces the embedding
certificates whose rotation factors stay within 2 e^(-g/4) of the identity.
"""

import numpy as np

from circleops.sl3 import embedding2_solve, embedding2_verdict, j_alpha, kak, solve_delta_for_top

rng = np.random.default_rng(0)
g = rng.normal(size=(3, 3))
g /= np.linalg.det(g) ** (1.0 / 3.0)
dec = kak(g)
print("random unimodular matrix:")
print(f"  cone point ({dec.a.a1:+.4f}, {dec.a.a2:+.4f}, {dec.a.a3:+.4f}), "
      f"length {dec.a.ell():.4f}, reconstruction residual {dec.residual(g):.2e}")

alpha = 2.0
print(f"\nslide family at alpha = {alpha}: endpoints and the solved contraction")
print(f"  d = 0   -> {j_alpha(alpha, 0.0).as_array()}")
print(f"  d = 1   -> {j_alpha(alpha, 1.0).as_array()}")
for eps in (0.25, 0.5, 0.75):
    d = solve_delta_for_top(alpha, (1 + eps) * alpha)
    print(f"  top coordinate (1+{eps}) alpha needs d = {d:.6f} "
          f"<= e^((eps-1) alpha) = {np.exp((eps - 1) * alpha):.6f}")

gamma = 4.0
print(f"\nembedding certificates at gamma = {gamma}:")
for alpha in (gamma, 1.1 * gamma, 7 * gamma / 6):
    cert = embedding2_solve(gamma, alpha)
    delta_bound, rotation_bound, _, held = embedding2_verdict(cert)
    k1_gap = np.linalg.norm(cert.k1 - np.eye(3), 2)
    print(f"  alpha = {alpha:.3f}: d1 = {cert.delta1:.2e}, d2 = {cert.delta2:.2e} "
          f"(<= e^-gamma = {delta_bound:.2e}), ||k1 - 1|| = {k1_gap:.3f} "
          f"(<= 2 e^(-gamma/4) = {rotation_bound:.3f}), residuals {cert.residual1:.1e}/{cert.residual2:.1e}; "
          f"verdict: {'holds' if held else 'FAILS'}")
print("  at alpha = 7 gamma / 6 the second factor is the quarter rotation:")
print(embedding2_solve(gamma, 7 * gamma / 6).k2.round(12))
