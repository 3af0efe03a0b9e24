"""Quadrature realization of circle averaging on S2 and the sphere Markov chain.

The grid is a Gauss-Legendre x uniform-longitude product rule, exact for
products of functions band-limited at the grid's band limit, so the
eigenfunction identity  average_over_circle(Y_nm, delta) = P_n(delta) Y_nm
can be checked against the Legendre spectral model with no quadrature error
beyond roundoff.  Real spherical harmonics throughout, orthonormal for the
normalized surface measure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .legendre import _clamp_delta, gauss_rule, legendre_table

__all__ = [
    "real_sph_harm_matrix",
    "SphereGrid",
    "tangent_frames",
    "circle_average",
    "circle_average_operator",
    "markov_step",
    "markov_steps",
    "MarkovTrace",
    "markov_trace",
    "mixing_profile",
    "occupancy_counts",
    "chi_square_statistic",
    "replica_seeds",
]


def _basis_block(z, cphi, sphi, band_limit, out):
    """Fill out (shape (ncoef, npts)) with real orthonormal harmonics.

    Column layout per degree n (base index n*n): m = 0, then cos/sin pairs for
    m = 1..n.  Uses the stable normalized associated-Legendre recurrences.
    """
    npts = z.shape[0]
    u = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    sqrt2 = np.sqrt(2.0)
    qmm = np.ones(npts)
    cm = np.ones(npts)
    sm = np.zeros(npts)
    q_prev = np.empty(npts)
    q_cur = np.empty(npts)

    def write(n, q):
        """Degree-n column(s) of the loop's current order m (cos/sin pair if m > 0)."""
        if m == 0:
            out[n * n] = q
        else:
            out[n * n + 2 * m - 1] = sqrt2 * q * cm
            out[n * n + 2 * m] = sqrt2 * q * sm

    for m in range(band_limit + 1):
        if m > 0:
            qmm *= u
            qmm *= np.sqrt((2 * m + 1) / (2.0 * m))
            cm, sm = cm * cphi - sm * sphi, sm * cphi + cm * sphi
        np.copyto(q_prev, qmm)
        write(m, q_prev)
        if m == band_limit:
            break
        np.multiply(z, qmm, out=q_cur)
        q_cur *= np.sqrt(2 * m + 3.0)
        write(m + 1, q_cur)
        for n in range(m + 2, band_limit + 1):
            a = np.sqrt((4.0 * n * n - 1.0) / (n * n - m * m))
            b = np.sqrt(
                ((2.0 * n + 1.0) * (n - 1.0 - m) * (n - 1.0 + m))
                / ((2.0 * n - 3.0) * (n * n - m * m))
            )
            q_prev *= -b
            q_prev += a * z * q_cur
            q_prev, q_cur = q_cur, q_prev
            write(n, q_cur)


def real_sph_harm_matrix(points: np.ndarray, band_limit: int, chunk: int = 16384) -> np.ndarray:
    """Real orthonormal spherical harmonics at unit vectors, shape (npts, (B+1)^2).

    Normalized against the probability measure on S2: the constant harmonic
    is identically 1 and the degree-n block has 2n+1 columns.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    npts = pts.shape[0]
    ncoef = (band_limit + 1) ** 2
    out = np.empty((ncoef, npts))
    for lo in range(0, npts, chunk):
        hi = min(lo + chunk, npts)
        x, y, z = pts[lo:hi, 0], pts[lo:hi, 1], pts[lo:hi, 2]
        rho = np.hypot(x, y)
        safe = rho > 0
        cphi = np.where(safe, x / np.where(safe, rho, 1.0), 1.0)
        sphi = np.where(safe, y / np.where(safe, rho, 1.0), 0.0)
        _basis_block(z, cphi, sphi, band_limit, out[:, lo:hi])
    return out.T


def degree_of_column(band_limit: int) -> np.ndarray:
    """Degree n of each basis column in the layout of real_sph_harm_matrix."""
    return np.repeat(np.arange(band_limit + 1), 2 * np.arange(band_limit + 1) + 1)


@dataclass
class SphereGrid:
    """Gauss-Legendre x uniform-longitude product grid with unit total weight.

    Quadrature of Y_n^m * Y_n'^m' is exact for degrees up to band_limit
    (Gauss-Legendre with lat_oversample*(B+1) colatitude nodes integrates
    polynomials of degree 2B+1; 2B+1 offset longitudes kill all aliases).
    """

    band_limit: int
    nodes: np.ndarray
    weights: np.ndarray
    _basis: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def build(cls, band_limit: int, lat_oversample: int = 1, lon_oversample: int = 1):
        if band_limit < 0:
            raise ValueError("band limit must be nonnegative")
        n_lat = lat_oversample * (band_limit + 1)
        n_lon = lon_oversample * (2 * band_limit + 1)
        xg, wg = gauss_rule(n_lat)
        phis = 2.0 * np.pi * (np.arange(n_lon) + 0.5) / n_lon
        sin_t = np.sqrt(1.0 - xg * xg)
        nodes = np.empty((n_lat * n_lon, 3))
        nodes[:, 0] = np.repeat(sin_t, n_lon) * np.tile(np.cos(phis), n_lat)
        nodes[:, 1] = np.repeat(sin_t, n_lon) * np.tile(np.sin(phis), n_lat)
        nodes[:, 2] = np.repeat(xg, n_lon)
        weights = np.repeat(wg / 2.0, n_lon) / n_lon
        return cls(band_limit=band_limit, nodes=nodes, weights=weights)

    @property
    def n_coeff(self) -> int:
        return (self.band_limit + 1) ** 2

    @property
    def basis(self) -> np.ndarray:
        if self._basis is None:
            self._basis = real_sph_harm_matrix(self.nodes, self.band_limit)
        return self._basis

    def analyze(self, samples: np.ndarray) -> np.ndarray:
        """Samples on the grid -> harmonic coefficients up to the band limit."""
        arr = np.asarray(samples, dtype=float).reshape(self.nodes.shape[0], -1)
        coeffs = self.basis.T @ (self.weights[:, None] * arr)
        return coeffs[:, 0] if np.ndim(samples) == 1 else coeffs

    def synthesize(self, coeffs: np.ndarray, points: np.ndarray | None = None) -> np.ndarray:
        """Harmonic coefficients -> values on the grid (or at arbitrary points)."""
        mat = self.basis if points is None else real_sph_harm_matrix(points, self.band_limit)
        return mat @ coeffs

    def inner(self, f: np.ndarray, g: np.ndarray) -> float:
        return float(np.sum(self.weights * f * g))

    def gram_defect(self) -> float:
        """Max deviation of the discrete Gram matrix of the basis from identity."""
        gram = (self.basis * self.weights[:, None]).T @ self.basis
        return float(np.abs(gram - np.eye(self.n_coeff)).max())


def tangent_frames(points: np.ndarray):
    """Deterministic orthonormal frames (u, v) with u, v perpendicular to each point.

    u = normalize(e_k x point) where e_k is the coordinate axis least aligned
    with the point; v = point x u.  Fixed so that runs are reproducible.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    k = np.argmin(np.abs(pts), axis=1)
    e = np.eye(3)[k]
    u = np.cross(e, pts)
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    v = np.cross(pts, u)
    return u, v


def _circle_rule(grid: SphereGrid, delta: float, quadrature_points):
    """Checked delta, circle radius sqrt(1 - delta^2) and point count M >= 2B+1."""
    delta = _clamp_delta(delta)
    B = grid.band_limit
    M = 2 * B + 1 if quadrature_points is None else int(quadrature_points)
    if M < 2 * B + 1:
        raise ValueError(f"need at least {2 * B + 1} circle quadrature points at band limit {B}")
    return delta, np.sqrt(max(0.0, 1.0 - delta * delta)), M


def circle_average_operator(
    grid: SphereGrid, delta: float, quadrature_points: int | None = None
) -> np.ndarray:
    """Matrix of circle averages of every basis harmonic, sampled on the grid.

    Column (n, m) holds the average of Y_n^m over the circles at inner product
    delta around each grid node; shape (n_nodes, n_coeff).  Node l of a ring is
    R_z(beta_l) of its first node, beta_l = 2 pi l / n_lon, so the M-point rule runs
    on the first nodes' circles only (frame e_phi, e_theta); at node l the order-m pair
    (cos, sin) = (a, b) becomes (c a - s b, s a + c b), c, s = cos m beta_l, sin m beta_l.
    """
    delta, radius, M = _circle_rule(grid, delta, quadrature_points)
    n_lon = np.count_nonzero(grid.nodes[:, 2] == grid.nodes[0, 2])  # a ring shares one height
    rings = grid.nodes.reshape(-1, n_lon, 3)  # ValueError unless n_lon divides the node count
    first, beta = rings[:, 0], 2.0 * np.pi * np.arange(n_lon) / n_lon
    w = rings[..., 0] + 1j * rings[..., 1]  # node l: w_0 exp(i beta_l) at one height
    if np.abs(w - w[:, :1] * np.exp(1j * beta)).max() > 1e-12 or np.ptp(rings[..., 2], 1).any():
        raise ValueError("circle_average_operator needs the longitude rings of SphereGrid.build")
    e_phi = np.cross([0.0, 0.0, 1.0], first) / np.hypot(first[:, 0], first[:, 1])[:, None]
    psi = 2.0 * np.pi * np.arange(M)[:, None, None] / M
    circles = delta * first + radius * (np.cos(psi) * e_phi + np.sin(psi) * np.cross(e_phi, first))
    values = real_sph_harm_matrix(circles.reshape(-1, 3), grid.band_limit).T  # (coeffs, M * rings)
    means = values.reshape(grid.n_coeff, M, -1).mean(axis=1).T  # (rings, coeffs)
    offset = np.arange(grid.n_coeff) - degree_of_column(grid.band_limit) ** 2  # 2m-1: cos, 2m: sin
    partner = np.arange(grid.n_coeff) + np.where(offset % 2, 1, np.where(offset > 0, -1, 0))
    turn = np.outer(beta, (offset + 1) // 2)
    c, s = np.cos(turn), np.where(offset % 2, -1.0, 1.0) * np.sin(turn)
    return np.concatenate([a * c + a[partner] * s for a in means])


def circle_average(
    grid: SphereGrid,
    samples: np.ndarray,
    delta: float,
    quadrature_points: int | None = None,
    frames=None,
) -> np.ndarray:
    """Average a band-limited function over circles at inner product delta.

    The input is sampled on the grid; it is analyzed to coefficients, then
    averaged by an M-point trapezoid rule on each node's circle (exact for
    band-limited integrands when M >= 2 band_limit + 1).  The result does not
    depend on the tangent frames; custom frames may be passed to verify that.
    This pointwise rule is the check on circle_average_operator's ring path.
    """
    delta, radius, M = _circle_rule(grid, delta, quadrature_points)
    coeffs = grid.analyze(samples)
    u, v = tangent_frames(grid.nodes) if frames is None else frames
    return sum(
        grid.synthesize(coeffs, delta * grid.nodes + radius * (np.cos(phi) * u + np.sin(phi) * v))
        for phi in 2.0 * np.pi * np.arange(M) / M
    ) / M


# ---------------------------------------------------------------------------
# Markov chain: jump to a uniform point of the circle at inner product delta.
# ---------------------------------------------------------------------------


def replica_seeds(seed: int, replicas: int):
    """Independent child seeds, one per replica, via SeedSequence spawning."""
    return np.random.SeedSequence(seed).spawn(replicas)


def markov_steps(positions: np.ndarray, delta: float, rng: np.random.Generator) -> np.ndarray:
    """One chain step for a batch of unit vectors, shape (R, 3)."""
    delta = _clamp_delta(delta)
    pts = np.atleast_2d(positions)
    u, v = tangent_frames(pts)
    phi = rng.uniform(0.0, 2.0 * np.pi, size=pts.shape[0])
    radius = np.sqrt(max(0.0, 1.0 - delta * delta))
    out = delta * pts + radius * (np.cos(phi)[:, None] * u + np.sin(phi)[:, None] * v)
    return out


def markov_step(x: np.ndarray, delta: float, rng: np.random.Generator) -> np.ndarray:
    """One chain step from a single unit vector."""
    return markov_steps(x[None, :], delta, rng)[0]


@dataclass
class MarkovTrace:
    """A simulated chain path; consecutive positions have inner product delta."""

    delta: float
    seed: int
    steps: int
    positions: np.ndarray

    def consecutive_inner_defect(self) -> float:
        inn = np.sum(self.positions[:-1] * self.positions[1:], axis=1)
        return float(np.abs(inn - self.delta).max()) if inn.size else 0.0


def markov_trace(x0: np.ndarray, delta: float, steps: int, seed: int) -> MarkovTrace:
    """Simulate a single chain of the given length from x0."""
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    pos = np.empty((steps + 1, 3))
    pos[0] = np.asarray(x0, dtype=float) / np.linalg.norm(x0)
    for k in range(steps):
        pos[k + 1] = markov_step(pos[k], delta, rng)
    return MarkovTrace(delta=float(delta), seed=int(seed), steps=int(steps), positions=pos)


def mixing_profile(delta: float, steps: int, replicas: int, seed: int, x0=None):
    """Per-step estimates of || E[x_k] || with Monte-Carlo sigmas.

    All replicas start at x0 (default e3) and evolve independently; the
    degree-1 contraction gives || E[x_k] || = |delta|^k.  Returns
    (norms, sigmas), arrays of length steps, where sigmas[k] is the RMS radius
    sqrt(sum_i Var(x_k,i) / replicas) of the mean estimator.

    Replicas are batched under one seeded generator that draws a row of
    angles per step (deterministic given the seed); use replica_seeds with
    markov_trace for fully separate per-replica streams.
    """
    if steps < 1 or replicas < 1:
        raise ValueError("steps and replicas must be >= 1")
    x0 = np.array([0.0, 0.0, 1.0]) if x0 is None else np.asarray(x0, float) / np.linalg.norm(x0)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    X = np.tile(x0, (replicas, 1))
    norms = np.empty(steps)
    sigmas = np.empty(steps)
    for k in range(steps):
        X = markov_steps(X, delta, rng)
        mean = X.mean(axis=0)
        norms[k] = np.linalg.norm(mean)
        sigmas[k] = np.sqrt(np.sum(X.var(axis=0)) / replicas)
    return norms, sigmas


def occupancy_counts(positions: np.ndarray, n_z: int, n_phi: int) -> np.ndarray:
    """Counts over the equal-area partition (uniform z-slabs x longitude sectors)."""
    z = np.clip(((positions[:, 2] + 1.0) / 2.0 * n_z).astype(int), 0, n_z - 1)
    ph = np.arctan2(positions[:, 1], positions[:, 0])
    p = np.clip(((ph + np.pi) / (2.0 * np.pi) * n_phi).astype(int), 0, n_phi - 1)
    return np.bincount(z * n_phi + p, minlength=n_z * n_phi)


def chi_square_statistic(counts: np.ndarray):
    """Pearson chi-square statistic against the uniform law; returns (stat, dof)."""
    counts = np.asarray(counts, dtype=float)
    expected = counts.sum() / counts.size
    stat = float(np.sum((counts - expected) ** 2 / expected))
    return stat, counts.size - 1
