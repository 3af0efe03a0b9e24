"""Quadrature realization of circle averaging on S2 and the sphere Markov chain.

The grid is a Gauss-Legendre x uniform-longitude product rule, exact for
products of functions band-limited at the grid's band limit, so the
eigenfunction identity  average_over_circle(Y_nm, delta) = P_n(delta) Y_nm
can be checked against the Legendre spectral model with no quadrature error
beyond roundoff.  Real spherical harmonics throughout, orthonormal for the
normalized surface measure.  circle_average applies circle_average_operator to
a function's coefficients, and SphereGrid.synthesize works on the grid only.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

# nothing here calls legendre_table: the import stays because perfbench's selftest reads it from this module
from .legendre import _clamp_delta, gauss_rule, legendre_table

__all__ = [
    "real_sph_harm_matrix",
    "SphereGrid",
    "tangent_frames",
    "circle_average",
    "circle_average_operator",
    "markov_steps",
    "markov_trace",
    "mixing_profile",
]


def _basis_block(z, rho, cphi, sphi, band_limit, out):
    """Fill out (ncoef, npts) with real orthonormal harmonics: per degree n, m = 0 at row
    n*n, then the cos/sin pairs for m = 1..n.

    By increasing order m, then degree n = m..B: q is the stable normalized associated
    Legendre recurrence; Y_n^0 = q and the order-m pair is sqrt(2) q (cos m phi, sin m phi).
    rho = hypot(x, y) is sin theta, accurate near the poles where 1 - z^2 loses its digits.
    """
    npts = z.shape[0]
    sqrt2 = math.sqrt(2.0)
    qmm, cm, sm = np.ones(npts), np.ones(npts), np.zeros(npts)
    q_prev, q_cur, scaled = np.empty(npts), np.empty(npts), np.empty(npts)
    for m in range(band_limit + 1):
        if m > 0:
            qmm *= rho
            qmm *= math.sqrt((2 * m + 1) / (2.0 * m))
            cm, sm = cm * cphi - sm * sphi, sm * cphi + cm * sphi
        for n in range(m, band_limit + 1):
            if n == m:
                np.copyto(q_prev, qmm)
                q = q_prev
            elif n == m + 1:
                q = np.multiply(z, qmm, out=q_cur)
                q *= math.sqrt(2 * m + 3.0)
            else:  # q_n = -b q_{n-2} + a z q_{n-1}
                a = math.sqrt((4.0 * n * n - 1.0) / (n * n - m * m))
                b = math.sqrt(
                    ((2.0 * n + 1.0) * (n - 1.0 - m) * (n - 1.0 + m)) / ((2.0 * n - 3.0) * (n * n - m * m))
                )
                np.multiply(z, a, out=scaled)
                scaled *= q_cur
                q_prev *= -b
                q_prev += scaled
                q_prev, q_cur = q_cur, q_prev
                q = q_cur
            if m == 0:
                out[n * n] = q
            else:
                np.multiply(q, sqrt2, out=scaled)
                np.multiply(scaled, cm, out=out[n * n + 2 * m - 1])
                np.multiply(scaled, sm, out=out[n * n + 2 * m])


# Points per block: the harmonic recurrence keeps a few point rows live and is fastest at 16384.
_CHUNK = 16384


def _point_blocks(points):
    """Yield (rows, z, rho = sin theta, cos phi, sin phi) over blocks of _CHUNK unit vectors."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    for lo in range(0, pts.shape[0], _CHUNK):
        x, y, z = pts[lo : lo + _CHUNK].T
        rho = np.hypot(x, y)
        safe = rho > 0
        cphi = np.where(safe, x / np.where(safe, rho, 1.0), 1.0)
        sphi = np.where(safe, y / np.where(safe, rho, 1.0), 0.0)
        yield slice(lo, lo + _CHUNK), z, rho, cphi, sphi


def _is_count(value, least: int) -> bool:
    """An integer (numpy's too, but not a bool) that is at least `least`."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= least


def _check_band_limit(band_limit) -> None:
    if not _is_count(band_limit, 0):
        raise ValueError("band limit must be an integer >= 0")


def real_sph_harm_matrix(points: np.ndarray, band_limit: int) -> np.ndarray:
    """Real orthonormal spherical harmonics at unit vectors, shape (npts, (B+1)^2).

    Normalized against the probability measure on S2: the constant harmonic
    is identically 1 and the degree-n block has 2n+1 columns.
    """
    _check_band_limit(band_limit)
    npts = np.atleast_2d(points).shape[0]
    out = np.empty(((band_limit + 1) ** 2, npts))
    for rows, z, rho, cphi, sphi in _point_blocks(points):
        _basis_block(z, rho, cphi, sphi, band_limit, out[:, rows])
    return out.T


def degree_of_column(band_limit: int) -> np.ndarray:
    """Degree n of each basis column in the layout of real_sph_harm_matrix."""
    return np.repeat(np.arange(band_limit + 1), 2 * np.arange(band_limit + 1) + 1)


@dataclass(frozen=True)
class SphereGrid:
    """Gauss-Legendre x uniform-longitude product grid with unit total weight.

    Quadrature of Y_n^m * Y_n'^m' is exact for degrees up to band_limit
    (Gauss-Legendre with oversample*(B+1) colatitude nodes integrates
    polynomials of degree 2B+1; oversample*(2B+1) offset longitudes kill all
    aliases).  basis is real_sph_harm_matrix at the nodes, (n_nodes, (B+1)^2).
    Frozen: build hands one grid to every caller of a band limit.
    """

    band_limit: int
    nodes: np.ndarray
    weights: np.ndarray
    basis: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, band_limit: int, oversample: int = 1):
        """The grid of band_limit with oversample * (B+1) colatitudes and oversample * (2B+1)
        longitudes, built with its basis once per (band_limit, oversample) after the checks.

        Every caller of a key shares one grid, so its nodes, weights and basis are read-only.
        The cache keeps the 8 most recently used grids; a basis takes 8 (B+1)^2 bytes per
        node, 75 MB for the B = 32, oversample 2 grid of repsim.build_grid(32).
        """
        _check_band_limit(band_limit)
        if not _is_count(oversample, 1):
            raise ValueError("oversample factor must be an integer >= 1")
        return _built_grid(int(band_limit), int(oversample))

    @property
    def n_coeff(self) -> int:
        return (self.band_limit + 1) ** 2

    def analyze(self, samples: np.ndarray) -> np.ndarray:
        """Samples (n_nodes,) on the grid -> harmonic coefficients (n_coeff,) up to the band limit."""
        f = np.asarray(samples, dtype=float)
        if f.shape != self.weights.shape:
            raise ValueError(f"need samples of shape {self.weights.shape}")
        return self.basis.T @ (self.weights * f)

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """Coefficients (n_coeff,) -> values (n_nodes,) on the grid."""
        c = np.asarray(coeffs, dtype=float)
        if c.shape != (self.n_coeff,):
            raise ValueError(f"need coefficients of shape ({self.n_coeff},)")
        return self.basis @ c


# The sphere-averaging jobs use four band limits, so 8 grids cover them.  Worst case held by
# the cache: 8 bases the size of repsim.build_grid(32)'s (75 MB each), 600 MB.
@functools.lru_cache(maxsize=8)
def _built_grid(band_limit: int, oversample: int) -> SphereGrid:
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
    basis = real_sph_harm_matrix(nodes, band_limit)
    nodes.flags.writeable = weights.flags.writeable = basis.flags.writeable = False
    return SphereGrid(band_limit=band_limit, nodes=nodes, weights=weights, basis=basis)


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


def _circle_step(delta: float, centres, u, v, psi):
    """delta centres + r (cos psi u + sin psi v), r = sqrt(1 - delta^2): the points at
    inner product delta from centres at angles psi (broadcast against u) from u towards v."""
    delta = _clamp_delta(delta)
    radius = np.sqrt(max(0.0, 1.0 - delta * delta))
    return delta * centres + radius * (np.cos(psi) * u + np.sin(psi) * v)


def _circle_points(grid: SphereGrid, delta: float, centres, u, v):
    """(M, len(centres), 3): the M = B+1 point rule on the circles at inner product
    delta around centres, angle 0 along u and pi/2 along v.

    A harmonic of degree <= B restricted to the circle delta x + r (cos psi u + sin psi v)
    is a trigonometric polynomial of degree <= B in psi, so the M-point trapezoid mean is
    exact once M >= B+1; at M = B the frequency-B terms in psi alias onto the constant.
    """
    M = grid.band_limit + 1
    return _circle_step(delta, centres, u, v, 2.0 * np.pi * np.arange(M)[:, None, None] / M)


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
    del values  # free the (coeffs, M * rings) block before the output: cached bases stay live
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
    """Average band-limited samples (n_nodes,) on the grid over the circles at inner product
    delta around each node: circle_average_operator applied to their coefficients.
    The B + 1 point rule is exact on every circle, so the average never depended on where a
    circle's points start.  frames is accepted and unused until the next benchmark change
    drops it from perfbench's frames jobs.
    """
    coeffs = grid.analyze(samples)
    return circle_average_operator(grid, delta) @ coeffs


# ---------------------------------------------------------------------------
# Markov chain: jump to a uniform point of the circle at inner product delta.
# ---------------------------------------------------------------------------


def markov_steps(positions: np.ndarray, delta: float, rng: np.random.Generator) -> np.ndarray:
    """One chain step for a batch of unit vectors, shape (R, 3)."""
    pts = np.atleast_2d(positions)
    u, v = tangent_frames(pts)
    phi = rng.uniform(0.0, 2.0 * np.pi, size=pts.shape[0])
    return _circle_step(delta, pts, u, v, phi[:, None])


def markov_trace(delta: float, steps: int, seed: int) -> np.ndarray:
    """One chain's (steps + 1, 3) path from e3; consecutive positions have inner product delta."""
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    pos = np.empty((steps + 1, 3))
    pos[0] = (0.0, 0.0, 1.0)
    for k in range(steps):
        pos[k + 1] = markov_steps(pos[k][None], delta, rng)[0]
    return pos


def mixing_profile(delta: float, steps: int, replicas: int, seed: int):
    """Per-step estimates of || E[x_k] || with Monte-Carlo sigmas.

    All replicas start at e3 and evolve independently; the degree-1
    contraction gives || E[x_k] || = |delta|^k.  Returns (norms, sigmas),
    arrays of length steps, where sigmas[k] is the RMS radius
    sqrt(sum_i Var(x_k,i) / replicas) of the mean estimator.

    Replicas are batched under one seeded generator that draws a row of
    angles per step (deterministic given the seed).
    """
    if steps < 1 or replicas < 2:
        raise ValueError("need steps >= 1 and replicas >= 2 (one replica has no Monte-Carlo error)")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    X = np.tile([0.0, 0.0, 1.0], (replicas, 1))
    norms = np.empty(steps)
    sigmas = np.empty(steps)
    for k in range(steps):
        X = markov_steps(X, delta, rng)
        mean = X.mean(axis=0)
        norms[k] = np.linalg.norm(mean)
        sigmas[k] = np.sqrt(np.sum(X.var(axis=0)) / replicas)
    return norms, sigmas
