"""Small-scale unitary action of the special linear group on L2 of the sphere.

The action is the projective one twisted by the half-density cocycle,
(pi(g) f)(x) = ||g^-1 x||^(-3/2) f(g^-1 x / ||g^-1 x||), which is unitary for
the normalized surface measure.  Rotations preserve band limits exactly;
everything else leaks mass above the band limit, and that leakage is
estimated on the (oversampled) sampling grid and reported, never dropped.

The bi-rotation average is the projection onto the constants, so the
averaged operators keep one entry, <pi(g) 1, 1>: at diag(e^n, 1, e^-n) the
matrix coefficient c(n) of the unit constant function.  c(n) itself is
reduced exactly to a longitude integral (the tensor grid cannot resolve the
integrand's e^(-2n) ridge for larger n) and taken by one fixed trapezoid rule
in s, tan(phi) = e^-n sinh(s): there the integrand is even, analytic and
decays like e^(|n| - s), so the rule converges geometrically.  The grid
machinery is cross-checked against it at small n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalDegeneracyError
from .legendre import gauss_rule, legendre_table  # noqa: F401  perfbench/selftest.py checks its traced re-export
from .sphere import SphereGrid, real_sph_harm_matrix

__all__ = [
    "RepOperatorSample",
    "build_grid",
    "assemble_operator",
    "k_averaged_operator",
    "matrix_coefficient",
    "coefficient_decay",
    "rotation_block",
    "axis_average_projection",
    "invariant_gap",
    "DECAY_BOUND_CONSTANT",
    "DECAY_BOUND_RATE",
]

# One-sided decay check: c(n) <= 4 e^(-n/2) (absorbed constants, Hilbert exponents).
DECAY_BOUND_CONSTANT = 4.0
DECAY_BOUND_RATE = 0.5


def build_grid(band_limit: int = 32) -> SphereGrid:
    """Sampling grid for the representation: oversampled twice so that analysis of
    mildly out-of-band images stays accurate."""
    return SphereGrid.build(band_limit, oversample=2)


@dataclass
class RepOperatorSample:
    """Dense compression of pi(g) to the band-limited space, with leakage."""

    g: np.ndarray
    matrix: np.ndarray
    leakage: float


def _transformed_points(g: np.ndarray, nodes: np.ndarray):
    ginv = np.linalg.inv(g)
    gx = nodes @ ginv.T
    r = np.linalg.norm(gx, axis=1)
    return gx / r[:, None], r


def assemble_operator(g: np.ndarray, grid: SphereGrid) -> RepOperatorSample:
    """Dense matrix of the band-compressed pi(g) in the harmonic basis.

    The reported leakage is the worst relative out-of-band mass over all
    basis images.
    """
    pts, r = _transformed_points(g, grid.nodes)
    images = r[:, None] ** -1.5 * real_sph_harm_matrix(pts, grid.band_limit)
    totals = grid.weights @ (images * images)
    matrix = grid.basis.T @ (grid.weights[:, None] * images)
    inband = np.sum(matrix * matrix, axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        leaks = np.where(totals > 0, 1.0 - inband / totals, 0.0)
    return RepOperatorSample(g=np.asarray(g, float), matrix=matrix, leakage=float(np.max(leaks)))


def k_averaged_operator(g: np.ndarray, grid: SphereGrid) -> RepOperatorSample:
    """Bi-rotation average P_K pi(g) P_K of pi(g), P_K the average over the rotations.

    P_K is the projection onto the constants, e0 e0^T, exactly: each degree-n >= 1
    harmonic space is an irreducible, nontrivial rotation representation, so its
    rotation average is zero.  Only the [0, 0] entry, <pi(g) 1, 1>, survives.
    """
    sample = assemble_operator(g, grid)
    matrix = np.zeros_like(sample.matrix)
    matrix[0, 0] = sample.matrix[0, 0]
    return RepOperatorSample(g=sample.g, matrix=matrix, leakage=sample.leakage)


# ---------------------------------------------------------------------------
# Matrix coefficient of the constant function at diag(e^n, 1, e^-n).
# ---------------------------------------------------------------------------


def _inner_profile(z: np.ndarray, nodes: int) -> np.ndarray:
    """F(z) = int_0^z (1+u^2)^(-3/4) du via u = sinh(w), Gauss-Legendre in w."""
    xs, ws = gauss_rule(nodes)
    w_upper = np.arcsinh(z)
    half = 0.5 * w_upper
    pts = half[..., None] * (xs + 1.0)
    return half * np.sum(ws * np.cosh(pts) ** -0.5, axis=-1)


# Steps and cutoff of the trapezoid rule in matrix_coefficient: the integrand
# decays like e^(|n| - s), so the tail beyond s = |n| + 40 is below e^-40.
_TRAPEZOID_STEPS = 256
_TRAPEZOID_CUTOFF = 40.0


def matrix_coefficient(n: float, inner_nodes: int = 192) -> float:
    """c(n) = integral over the sphere of (e^-2n x1^2 + x2^2 + e^2n x3^2)^(-3/4).

    c is even in n (a permutation in K conjugates diag(e^-n, 1, e^n) to
    diag(e^n, 1, e^-n)), so it is evaluated at |n|.  For fixed longitude phi
    the colatitude integral has the closed form 2 c^(-1/4) d^(-1/2) F(sqrt(d/c))
    with c = e^-2n cos^2 + sin^2 and d = e^2n - c.  The longitude integral is
    taken in s, tan(phi) = e^-n sinh(s), where
    c = e^-2n cosh^2 s / (1 + e^-2n sinh^2 s) and
    dphi = e^-n cosh s / (1 + e^-2n sinh^2 s) ds: the integrand is even and
    analytic in s and decays like e^(|n| - s), so the trapezoid rule on
    [0, |n| + _TRAPEZOID_CUTOFF] with _TRAPEZOID_STEPS steps (half weight
    at s = 0) converges geometrically.
    """
    n = abs(n)
    if n == 0:
        return 1.0
    a = np.exp(-n)
    s, h = np.linspace(0.0, n + _TRAPEZOID_CUTOFF, _TRAPEZOID_STEPS + 1, retstep=True)
    cosh = np.cosh(s)
    stretch = 1.0 + (a * np.sinh(s)) ** 2
    c = (a * cosh) ** 2 / stretch
    d = np.exp(2.0 * n) - c
    inner = 2.0 * c**-0.25 * d**-0.5 * _inner_profile(np.sqrt(d / c), inner_nodes)
    integrand = inner * a * cosh / stretch
    integrand[0] *= 0.5
    return float(h * np.sum(integrand) / np.pi)


_LEAKAGE_FRACTION = 0.1  # largest relative quadrature defect coefficient_decay accepts


def coefficient_decay(n_max: int) -> np.ndarray:
    """Rows (n, c_n, bound, leakage) for n = 0..n_max.

    The leakage column is the convergence defect of the quadrature (relative
    change under refinement of the inner rule); the run aborts if it exceeds
    _LEAKAGE_FRACTION of c(n).  Asserts c positive, strictly decreasing and
    c(n) <= 4 e^(-n/2) for n >= 1.
    """
    if not 0 <= n_max <= 8:
        raise ValueError("n_max must lie in [0, 8] (leakage dominates beyond)")
    rows = np.empty((n_max + 1, 4))
    for n in range(n_max + 1):
        coarse = matrix_coefficient(n, inner_nodes=96)
        fine = matrix_coefficient(n, inner_nodes=192)
        defect = abs(fine - coarse)
        if defect > _LEAKAGE_FRACTION * fine:
            raise NumericalDegeneracyError(
                "coefficient_leakage", f"quadrature defect {defect} vs c({n}) = {fine}"
            )
        rows[n] = (n, fine, DECAY_BOUND_CONSTANT * np.exp(-DECAY_BOUND_RATE * n), defect / fine)
    values = rows[:, 1]
    if np.any(values <= 0) or np.any(np.diff(values) >= 0):
        raise AssertionError("matrix coefficients must be positive and strictly decreasing")
    if np.any(values[1:] > rows[1:, 2]):
        raise AssertionError("matrix coefficient exceeds the one-sided decay bound")
    return rows


# ---------------------------------------------------------------------------
# Invariant gap for the two perpendicular circle subgroups.
# ---------------------------------------------------------------------------


def _axis_rotation(axis: str, theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    if axis == "e1":
        return np.array([[1.0, 0, 0], [0, c, -s], [0, s, c]])
    if axis == "e3":
        return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])
    raise ValueError("axis must be 'e1' or 'e3'")


def rotation_block(grid: SphereGrid, degree: int, rot: np.ndarray) -> np.ndarray:
    """Matrix of the rotation action on the degree-j harmonics (2j+1 square)."""
    cols = np.arange(degree * degree, (degree + 1) ** 2)
    rotated = real_sph_harm_matrix(grid.nodes @ rot, grid.band_limit)[:, cols]
    return grid.basis[:, cols].T @ (grid.weights[:, None] * rotated)


def axis_average_projection(grid: SphereGrid, degree: int, axis: str) -> np.ndarray:
    """Averaging projection over the circle subgroup fixing the given axis,
    by uniform angle quadrature (exact once the angle count exceeds 2*degree)."""
    n_ang = 2 * degree + 2
    acc = np.zeros((2 * degree + 1, 2 * degree + 1))
    for a in range(n_ang):
        rot = _axis_rotation(axis, 2.0 * np.pi * a / n_ang)
        acc += rotation_block(grid, degree, rot)
    return acc / n_ang


def invariant_gap(degree: int):
    """Exact interval for the minimum over unit vectors of the summed invariant defects.

    The minimum of ||a - P a|| + ||a - Q a|| over the unit sphere of the
    degree-j harmonics, where P and Q average over the rotations about e1
    and e3.  Returns (lower, witness_defect, witness) with
    lower <= minimum <= witness_defect.

    Proof sketch: for unit a, the angles from a to ran P and to ran Q add up
    to at least arccos ||PQ||, and sin is subadditive on [0, pi/2], so the
    defect sum is at least sqrt(1 - ||PQ||^2).  P and Q come from quadrature,
    so the bound is taken for the exact projections V V^T onto their ranges
    (eigenvectors with eigenvalue > 1/2), where ||PQ|| is the top singular
    value s of V_P^T V_Q; the rounding margin ||V_P V_P^T - P|| +
    ||V_Q V_Q^T - Q|| (spectral norms) is subtracted, since each defect moves
    by at most that much.  The witness is V_Q v1, v1 the top right singular
    vector of V_P^T V_Q (largest-magnitude entry positive), and its measured
    defect is the upper end.  It must come from ran Q: at odd degrees PQ is
    numerically zero and the singular vectors of PQ itself are noise.  The
    closed form is sqrt(1 - P_j(0)^2); the certified claim is lower >= 1/3.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    grid = build_grid(degree)
    projs = [axis_average_projection(grid, degree, axis) for axis in ("e1", "e3")]
    bases, margin = [], 0.0
    for proj in projs:
        vals, vecs = np.linalg.eigh(proj)
        basis = vecs[:, vals > 0.5]
        bases.append(basis)
        margin += np.linalg.norm(basis @ basis.T - proj, 2)
    _, sing, vt = np.linalg.svd(bases[0].T @ bases[1])
    lower = float(np.sqrt(max(0.0, 1.0 - sing[0] ** 2)) - margin)
    witness = bases[1] @ vt[0]
    witness *= np.sign(witness[np.argmax(np.abs(witness))])
    defect = sum(float(np.linalg.norm(witness - proj @ witness)) for proj in projs)
    return lower, defect, witness
