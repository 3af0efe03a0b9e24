"""Quadrature realization of circle averaging on S2 and the sphere Markov chain.

The grid is a Gauss-Legendre x uniform-longitude product rule, exact for
products of functions band-limited at the grid's band limit, so the
eigenfunction identity  average_over_circle(Y_nm, delta) = P_n(delta) Y_nm
can be checked against the Legendre spectral model with no quadrature error
beyond roundoff.  Real spherical harmonics throughout, orthonormal for the
normalized surface measure.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .legendre import _clamp_delta, gauss_rule, legendre_table

__all__ = [
    "real_sph_harm_matrix",
    "SphereGrid",
    "tangent_frames",
    "circle_average",
    "circle_average_operator",
    "markov_steps",
    "MarkovTrace",
    "markov_trace",
    "mixing_profile",
    "occupancy_counts",
]


def _harmonic_terms(z, cphi, sphi, band_limit):
    """Yield (n, m, q, cos m phi, sin m phi) by increasing order m, then degree n = m..B.

    q is the stable normalized associated Legendre recurrence; Y_n^0 = q and the
    order-m pair is sqrt(2) q (cos, sin).  Yielded arrays are reused: read them at once.
    """
    npts = z.shape[0]
    u = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    qmm = np.ones(npts)
    cm = np.ones(npts)
    sm = np.zeros(npts)
    q_prev = np.empty(npts)
    q_cur = np.empty(npts)
    for m in range(band_limit + 1):
        if m > 0:
            qmm *= u
            qmm *= np.sqrt((2 * m + 1) / (2.0 * m))
            cm, sm = cm * cphi - sm * sphi, sm * cphi + cm * sphi
        np.copyto(q_prev, qmm)
        yield m, m, q_prev, cm, sm
        if m == band_limit:
            break
        np.multiply(z, qmm, out=q_cur)
        q_cur *= np.sqrt(2 * m + 3.0)
        yield m + 1, m, q_cur, cm, sm
        for n in range(m + 2, band_limit + 1):
            a = np.sqrt((4.0 * n * n - 1.0) / (n * n - m * m))
            b = np.sqrt(
                ((2.0 * n + 1.0) * (n - 1.0 - m) * (n - 1.0 + m))
                / ((2.0 * n - 3.0) * (n * n - m * m))
            )
            q_prev *= -b
            q_prev += a * z * q_cur
            q_prev, q_cur = q_cur, q_prev
            yield n, m, q_cur, cm, sm


def _basis_block(z, cphi, sphi, band_limit, out):
    """Fill out (ncoef, npts) with real orthonormal harmonics: per degree n, m = 0 at row
    n*n, then the cos/sin pairs for m = 1..n."""
    sqrt2 = np.sqrt(2.0)
    for n, m, q, cm, sm in _harmonic_terms(z, cphi, sphi, band_limit):
        if m == 0:
            out[n * n] = q
        else:
            out[n * n + 2 * m - 1] = sqrt2 * q * cm
            out[n * n + 2 * m] = sqrt2 * q * sm


def _synthesis_block(z, cphi, sphi, band_limit, coeffs, out):
    """Add sum_nm c_nm Y_nm to out (npts, k), coeffs (ncoef, k), with no harmonic matrix:
    each order m sums c_nm q_nm into a cos and a sin part, folded in once by cos/sin m phi."""
    for n, m, q, cm, sm in _harmonic_terms(z, cphi, sphi, band_limit):
        if m == 0:
            out += np.multiply.outer(q, coeffs[n * n])
            continue
        if n == m:
            acc_cos, acc_sin = np.zeros_like(out), np.zeros_like(out)
        acc_cos += np.multiply.outer(q, coeffs[n * n + 2 * m - 1])
        acc_sin += np.multiply.outer(q, coeffs[n * n + 2 * m])
        if n == band_limit:
            out += np.sqrt(2.0) * (cm[:, None] * acc_cos + sm[:, None] * acc_sin)


_CHUNK = 16384  # points per kernel call


def _point_blocks(points):
    """Yield (rows, z, cos phi, sin phi) over _CHUNK-sized blocks of unit vectors."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    for lo in range(0, pts.shape[0], _CHUNK):
        x, y, z = pts[lo : lo + _CHUNK].T
        rho = np.hypot(x, y)
        safe = rho > 0
        cphi = np.where(safe, x / np.where(safe, rho, 1.0), 1.0)
        sphi = np.where(safe, y / np.where(safe, rho, 1.0), 0.0)
        yield slice(lo, lo + _CHUNK), z, cphi, sphi


def real_sph_harm_matrix(points: np.ndarray, band_limit: int) -> np.ndarray:
    """Real orthonormal spherical harmonics at unit vectors, shape (npts, (B+1)^2).

    Normalized against the probability measure on S2: the constant harmonic
    is identically 1 and the degree-n block has 2n+1 columns.
    """
    npts = np.atleast_2d(points).shape[0]
    out = np.empty(((band_limit + 1) ** 2, npts))
    for rows, z, cphi, sphi in _point_blocks(points):
        _basis_block(z, cphi, sphi, band_limit, out[:, rows])
    return out.T


def degree_of_column(band_limit: int) -> np.ndarray:
    """Degree n of each basis column in the layout of real_sph_harm_matrix."""
    return np.repeat(np.arange(band_limit + 1), 2 * np.arange(band_limit + 1) + 1)


@dataclass
class SphereGrid:
    """Gauss-Legendre x uniform-longitude product grid with unit total weight.

    Quadrature of Y_n^m * Y_n'^m' is exact for degrees up to band_limit
    (Gauss-Legendre with oversample*(B+1) colatitude nodes integrates
    polynomials of degree 2B+1; oversample*(2B+1) offset longitudes kill all
    aliases).
    """

    band_limit: int
    nodes: np.ndarray
    weights: np.ndarray
    _basis: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def build(cls, band_limit: int, oversample: int = 1):
        if band_limit < 0:
            raise ValueError("band limit must be nonnegative")
        if not (isinstance(oversample, numbers.Integral) and oversample >= 1):
            raise ValueError("oversample factor must be an integer >= 1")
        n_lat = oversample * (band_limit + 1)
        n_lon = oversample * (2 * band_limit + 1)
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
        """Coefficients (ncoef,) or (ncoef, k) -> values on the grid (or at arbitrary points).

        Off the grid, one recurrence pass per block of points sums c_nm Y_nm order by
        order (_synthesis_block); no harmonic matrix is formed.
        """
        if points is None:
            return self.basis @ coeffs
        c = np.asarray(coeffs, dtype=float)
        if c.ndim not in (1, 2) or c.shape[0] != self.n_coeff:
            raise ValueError(f"need coefficients of shape ({self.n_coeff},) or ({self.n_coeff}, k)")
        out = np.zeros((np.atleast_2d(points).shape[0], c[0].size))
        for rows, z, cphi, sphi in _point_blocks(points):
            _synthesis_block(z, cphi, sphi, self.band_limit, c.reshape(self.n_coeff, -1), out[rows])
        return out.reshape(out.shape[:1] + c.shape[1:])

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


def _circle_points(grid: SphereGrid, delta: float, centres, u, v):
    """(M, len(centres), 3): the M = B+1 point rule on the circles at inner product
    delta around centres, angle 0 along u and pi/2 along v.

    A harmonic of degree <= B restricted to the circle delta x + r (cos psi u + sin psi v)
    is a trigonometric polynomial of degree <= B in psi, so the M-point trapezoid mean is
    exact once M >= B+1; at M = B the frequency-B terms in psi alias onto the constant.
    """
    delta = _clamp_delta(delta)
    M = grid.band_limit + 1
    psi, radius = 2.0 * np.pi * np.arange(M)[:, None, None] / M, np.sqrt(max(0.0, 1.0 - delta * delta))
    return delta * centres + radius * (np.cos(psi) * u + np.sin(psi) * v)


def circle_average_operator(grid: SphereGrid, delta: float) -> np.ndarray:
    """Matrix of circle averages of every basis harmonic, sampled on the grid.

    Column (n, m) holds the average of Y_n^m over the circles at inner product
    delta around each grid node; shape (n_nodes, n_coeff).  Node l of a ring is
    R_z(beta_l) of its first node, beta_l = 2 pi l / n_lon, so the M-point rule runs
    on the first nodes' circles only (frame e_phi, e_theta); at node l the order-m pair
    (cos, sin) = (a, b) becomes (c a - s b, s a + c b), c, s = cos m beta_l, sin m beta_l.
    """
    n_lon = np.count_nonzero(grid.nodes[:, 2] == grid.nodes[0, 2])  # a ring shares one height
    rings = grid.nodes.reshape(-1, n_lon, 3)  # ValueError unless n_lon divides the node count
    first, beta = rings[:, 0], 2.0 * np.pi * np.arange(n_lon) / n_lon
    w = rings[..., 0] + 1j * rings[..., 1]  # node l: w_0 exp(i beta_l) at one height
    if np.abs(w - w[:, :1] * np.exp(1j * beta)).max() > 1e-12 or np.ptp(rings[..., 2], 1).any():
        raise ValueError("circle_average_operator needs the longitude rings of SphereGrid.build")
    e_phi = np.cross([0.0, 0.0, 1.0], first) / np.hypot(first[:, 0], first[:, 1])[:, None]
    circles = _circle_points(grid, delta, first, e_phi, np.cross(e_phi, first))
    values = real_sph_harm_matrix(circles.reshape(-1, 3), grid.band_limit).T  # (coeffs, M * rings)
    means = values.reshape(grid.n_coeff, len(circles), -1).mean(axis=1).T  # (rings, coeffs)
    offset = np.arange(grid.n_coeff) - degree_of_column(grid.band_limit) ** 2  # 2m-1: cos, 2m: sin
    partner = np.arange(grid.n_coeff) + np.where(offset % 2, 1, np.where(offset > 0, -1, 0))
    turn = np.outer(beta, (offset + 1) // 2)
    c, s = np.cos(turn), np.where(offset % 2, -1.0, 1.0) * np.sin(turn)
    out = np.empty((len(means), n_lon, grid.n_coeff))
    for a, ring in zip(means, out):
        np.multiply(a, c, out=ring)
        ring += a[partner] * s
    return out.reshape(-1, grid.n_coeff)


def circle_average(grid: SphereGrid, samples: np.ndarray, delta: float, frames=None) -> np.ndarray:
    """Average a band-limited function over circles at inner product delta.

    The input is sampled on the grid; it is analyzed to coefficients, then
    averaged by the M = band_limit + 1 point trapezoid rule on each node's circle,
    evaluated at all M x n_nodes circle points by one fused grid.synthesize pass.
    The rule is exact for band-limited integrands: on a circle a harmonic of
    degree <= B is a trigonometric polynomial of degree <= B in the circle angle.
    The result does not depend on the tangent frames; custom frames may be
    passed to verify that.
    This pointwise rule is the check on circle_average_operator's ring path.
    """
    u, v = tangent_frames(grid.nodes) if frames is None else frames
    circles = _circle_points(grid, delta, grid.nodes, u, v)
    values = grid.synthesize(grid.analyze(samples), circles.reshape(-1, 3))
    return values.reshape(circles.shape[:2] + values.shape[1:]).mean(axis=0)


# ---------------------------------------------------------------------------
# Markov chain: jump to a uniform point of the circle at inner product delta.
# ---------------------------------------------------------------------------


def markov_steps(positions: np.ndarray, delta: float, rng: np.random.Generator) -> np.ndarray:
    """One chain step for a batch of unit vectors, shape (R, 3)."""
    delta = _clamp_delta(delta)
    pts = np.atleast_2d(positions)
    u, v = tangent_frames(pts)
    phi = rng.uniform(0.0, 2.0 * np.pi, size=pts.shape[0])
    radius = np.sqrt(max(0.0, 1.0 - delta * delta))
    out = delta * pts + radius * (np.cos(phi)[:, None] * u + np.sin(phi)[:, None] * v)
    return out


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
        pos[k + 1] = markov_steps(pos[k][None], delta, rng)[0]
    return MarkovTrace(delta=float(delta), seed=int(seed), steps=int(steps), positions=pos)


def mixing_profile(delta: float, steps: int, replicas: int, seed: int, x0=None):
    """Per-step estimates of || E[x_k] || with Monte-Carlo sigmas.

    All replicas start at x0 (default e3) and evolve independently; the
    degree-1 contraction gives || E[x_k] || = |delta|^k.  Returns
    (norms, sigmas), arrays of length steps, where sigmas[k] is the RMS radius
    sqrt(sum_i Var(x_k,i) / replicas) of the mean estimator.

    Replicas are batched under one seeded generator that draws a row of
    angles per step (deterministic given the seed).
    """
    if steps < 1 or replicas < 2:
        raise ValueError("need steps >= 1 and replicas >= 2 (one replica has no Monte-Carlo error)")
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
