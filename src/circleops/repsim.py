"""Small-scale unitary action of the special linear group on L2 of the sphere.

The action is the projective one twisted by the half-density cocycle,
(pi(g) f)(x) = ||g^-1 x||^(-3/2) f(g^-1 x / ||g^-1 x||), which is unitary for
the normalized surface measure.  Rotations preserve band limits exactly;
everything else leaks mass above the band limit, and that leakage is
estimated on the (oversampled) sampling grid and reported, never dropped.

The bi-rotation-averaged operators collapse onto the constants, so their
norms reproduce the matrix coefficient c(n) of the unit constant function at
diag(e^n, 1, e^-n).  c(n) itself is computed by an exact 1D-reduced
quadrature (the tensor grid cannot resolve the integrand's e^(-2n) ridge for
larger n); the grid machinery is cross-checked against it at small n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .errors import NumericalDegeneracyError
from .legendre import gauss_rule, legendre_table
from .sphere import SphereGrid, real_sph_harm_matrix

__all__ = [
    "BandLimitedFunction",
    "RepOperatorSample",
    "build_grid",
    "quasi_regular_apply",
    "assemble_operator",
    "k_average_matrix",
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


def build_grid(band_limit: int = 32, oversample: int = 2) -> SphereGrid:
    """Sampling grid for the representation: oversampled so that analysis of
    mildly out-of-band images stays accurate."""
    return SphereGrid.build(band_limit, lat_oversample=oversample, lon_oversample=oversample)


@dataclass
class BandLimitedFunction:
    """A function known through its harmonic coefficients up to the band limit."""

    grid: SphereGrid
    coeffs: np.ndarray

    @classmethod
    def from_samples(cls, grid: SphereGrid, samples: np.ndarray) -> "BandLimitedFunction":
        return cls(grid=grid, coeffs=grid.analyze(samples))

    @classmethod
    def constant(cls, grid: SphereGrid) -> "BandLimitedFunction":
        coeffs = np.zeros(grid.n_coeff)
        coeffs[0] = 1.0
        return cls(grid=grid, coeffs=coeffs)

    def samples(self) -> np.ndarray:
        return self.grid.synthesize(self.coeffs)

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


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


def quasi_regular_apply(g: np.ndarray, f: BandLimitedFunction):
    """Apply pi(g) and re-project to the band limit.

    Returns (image, leakage) where leakage is the relative L2 mass the
    projection discarded, estimated on the sampling grid.
    """
    grid = f.grid
    pts, r = _transformed_points(g, grid.nodes)
    values = r**-1.5 * grid.synthesize(f.coeffs, points=pts)
    total = float(np.sum(grid.weights * values * values))
    out = BandLimitedFunction.from_samples(grid, values)
    inband = float(np.sum(out.coeffs**2))
    leakage = max(0.0, 1.0 - inband / total) if total > 0 else 0.0
    return out, leakage


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


def _m_zero_columns(band_limit: int) -> np.ndarray:
    return np.arange(band_limit + 1) ** 2


def k_average_matrix(grid: SphereGrid, k_quadrature: int | None = None) -> np.ndarray:
    """Quadrature average of the rotation operators over the whole rotation group.

    Euler product rule: the uniform averages over the first and last angles
    vanish identically on every nonzero azimuthal order (checked, not
    assumed), so only the zero-order block of the middle-angle average
    survives; that block is integrated by Gauss-Legendre in cos(beta) with
    k_quadrature nodes (exact for the band limit when
    k_quadrature >= (band_limit + 2) // 2).  The result is numerically the
    projection onto constants; rank is asserted by tests, not here.
    """
    B = grid.band_limit
    need = (B + 2) // 2
    n_beta = B + 1 if k_quadrature is None else int(k_quadrature)
    if n_beta < need:
        raise ValueError(f"k_quadrature must be >= {need} at band limit {B}")
    # uniform averages over the azimuthal angles: exactly zero for 0 < m <= B
    n_alpha = 2 * B + 1
    ang = 2.0 * np.pi * np.arange(n_alpha) / n_alpha
    ms = np.arange(1, B + 1)
    resid = np.abs(np.cos(ms[:, None] * ang[None, :]).mean(axis=1)).max()
    resid = max(resid, np.abs(np.sin(ms[:, None] * ang[None, :]).mean(axis=1)).max())
    if resid > 1e-12:
        raise NumericalDegeneracyError("axis_average", f"azimuthal average residual {resid}")

    xg, wg = gauss_rule(n_beta)
    betas = np.arccos(xg)
    m0 = _m_zero_columns(B)
    y0 = grid.basis[:, m0]
    block = np.zeros((B + 1, B + 1))
    scale = np.sqrt(2.0 * np.arange(B + 1) + 1.0)
    for beta, w in zip(betas, wg / 2.0):
        zrot = np.sin(beta) * grid.nodes[:, 0] + np.cos(beta) * grid.nodes[:, 2]
        rotated = scale[:, None] * legendre_table(B, zrot)
        block += w * (y0.T @ (grid.weights[:, None] * rotated.T))
    out = np.zeros((grid.n_coeff, grid.n_coeff))
    out[np.ix_(m0, m0)] = block
    return out


def k_averaged_operator(
    g: np.ndarray, grid: SphereGrid, k_quadrature: int | None = None
) -> RepOperatorSample:
    """Bi-rotation average of pi(g): sends everything into the constants."""
    sample = assemble_operator(g, grid)
    avg = k_average_matrix(grid, k_quadrature)
    return RepOperatorSample(g=sample.g, matrix=avg @ sample.matrix @ avg, leakage=sample.leakage)


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


def matrix_coefficient(n: float, inner_nodes: int = 192) -> float:
    """c(n) = integral over the sphere of (e^-2n x1^2 + x2^2 + e^2n x3^2)^(-3/4).

    Reduced to a 1D adaptive integral: for fixed longitude the colatitude
    integral has the closed form 2 c^(-1/4) d^(-1/2) F(sqrt(d/c)) with
    c = e^-2n cos^2 + sin^2 and d = e^2n - c.
    """
    if n == 0:
        return 1.0
    a2 = np.exp(-2.0 * n)
    b2 = np.exp(2.0 * n)

    def inner(phi: float) -> float:
        c = a2 * np.cos(phi) ** 2 + np.sin(phi) ** 2
        d = b2 - c
        return 2.0 * c**-0.25 * d**-0.5 * float(_inner_profile(np.array(d / c) ** 0.5, inner_nodes))

    val, _ = integrate.quad(inner, 0.0, np.pi / 2.0, limit=400, epsabs=1e-13, epsrel=1e-12)
    return val / np.pi


def coefficient_decay(n_max: int, leakage_fraction: float = 0.1) -> np.ndarray:
    """Rows (n, c_n, bound, leakage) for n = 0..n_max.

    The leakage column is the convergence defect of the quadrature (relative
    change under refinement of the inner rule); the run aborts if it exceeds
    the stated fraction of c(n).  Asserts c positive, strictly decreasing and
    c(n) <= 4 e^(-n/2) for n >= 1.
    """
    if not 0 <= n_max <= 8:
        raise ValueError("n_max must lie in [0, 8] (leakage dominates beyond)")
    rows = np.empty((n_max + 1, 4))
    for n in range(n_max + 1):
        coarse = matrix_coefficient(n, inner_nodes=96)
        fine = matrix_coefficient(n, inner_nodes=192)
        defect = abs(fine - coarse)
        if defect > leakage_fraction * fine:
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
    grid = SphereGrid.build(degree, lat_oversample=2, lon_oversample=2)
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
