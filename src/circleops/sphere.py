"""Quadrature realization of circle averaging on S2 and the sphere Markov chain.

The grid is a Gauss-Legendre (numpy's leggauss) x uniform-longitude product rule, exact for
products of functions band-limited at the grid's band limit, so the eigenfunction identity
average_over_circle(Y_nm, delta) = P_n(delta) Y_nm can be checked against the Legendre spectral
model with no quadrature error beyond roundoff.  Real spherical harmonics throughout, orthonormal
for the normalized surface measure, from one recurrence over all the points of a call that
advances every order at once, one diagonal n - m per numpy step.  Its factors and row maps are
built once per band limit: degree order is real_sph_harm_matrix's layout, and ring order keeps
each diagonal's Y_k^0, cos and sin rows contiguous, so the kernel writes them in place.
circle_average contracts ring means with a function's coefficients, never forming
circle_average_operator; both read the ring geometry each grid caches on first use (with the
circles' delta-free term), so per delta only the circles' harmonics, in ring order, and their
means are computed, and one take puts the means into degree order, into an array allocated
before the kernel's buffer.  SphereGrid.synthesize works on the grid only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

# nothing here calls legendre_table: the import stays because perfbench's selftest reads it from this module
from .legendre import _clamp_delta, _is_count, legendre_table

__all__ = [
    "real_sph_harm_matrix",
    "SphereGrid",
    "tangent_frames",
    "circle_average",
    "circle_average_operator",
    "markov_steps",
    "markov_trace",
    "mixing_profile",
    "contraction_verdict",
]


class _BandTables(NamedTuple):
    """The point-free tables of _basis_block at one band limit (see _band_tables)."""

    sectoral: tuple  # sqrt((2m + 1) / 2m) for m = 1..B: q_m^m = q_{m-1}^{m-1} rho times entry m - 1
    root: np.ndarray  # (B + 1, 1): sqrt(2m + 3), the k = 1 step
    a: np.ndarray  # (B - 1, B + 1, 1): diagonal k >= 2, order m: q_n = -b q_{n-2} + a z q_{n-1}
    neg_b: np.ndarray  # (B - 1, B + 1, 1): -b
    degree_rows: tuple  # degree order's row map: per diagonal k, (Y_k^0 row, cos rows, sin rows)
    ring_rows: tuple  # ring order's row map: per diagonal k, (Y_k^0 row, cos slice, sin slice)
    ring_to_degree: np.ndarray  # (n_coeff,): the ring-order row of each degree-order row


@functools.lru_cache(maxsize=16)
def _band_tables(band_limit: int) -> _BandTables:
    """_basis_block's recurrence factors and both row maps for band_limit, built once, read-only.

    Degree order is real_sph_harm_matrix's: per degree n, m = 0 at row n*n, then the cos/sin
    pairs for m = 1..n.  Ring order keeps each diagonal k = n - m together: Y_k^0, then the
    cos rows for m = 1..B-k, then their sin rows, so the kernel writes a diagonal with two
    contiguous `out=` products; ring_to_degree puts such rows back into degree order.
    A band's tables take about 40 (B+1)^2 bytes, 44 KB at B = 32.
    """
    B = band_limit
    k, m = np.ogrid[: B + 1, : B + 1]
    cos_row = (k + m) ** 2 + 2 * m - 1  # Y_{m+k}^m's cos row; its sin row is the next one
    sin_row = cos_row + 1
    cos_row.flags.writeable = sin_row.flags.writeable = False  # before the row maps take views of them
    n = k[2:] + m
    a = np.sqrt((4.0 * n * n - 1.0) / (n * n - m * m))[..., None]
    b = np.sqrt(
        ((2.0 * n + 1.0) * (n - 1.0 - m) * (n - 1.0 + m)) / ((2.0 * n - 3.0) * (n * n - m * m))
    )[..., None]
    degree_rows, ring_rows = [], []
    ring_to_degree = np.empty((B + 1) ** 2, dtype=np.intp)
    start = 0
    for k in range(B + 1):
        rows = B + 1 - k
        cos, sin = cos_row[k, 1:rows], sin_row[k, 1:rows]
        degree_rows.append((k * k, cos, sin))
        ring_rows.append((start, slice(start + 1, start + rows), slice(start + rows, start + 2 * rows - 1)))
        ring_to_degree[k * k] = start
        ring_to_degree[cos] = np.arange(start + 1, start + rows)
        ring_to_degree[sin] = np.arange(start + rows, start + 2 * rows - 1)
        start += 2 * rows - 1
    tables = _BandTables(
        sectoral=tuple(math.sqrt((2 * m + 1) / (2.0 * m)) for m in range(1, B + 1)),
        root=np.sqrt(2 * np.arange(B + 1)[:, None] + 3.0),
        a=a,
        neg_b=-b,
        degree_rows=tuple(degree_rows),
        ring_rows=tuple(ring_rows),
        ring_to_degree=ring_to_degree,
    )
    for table in (tables.root, tables.a, tables.neg_b, ring_to_degree):
        table.flags.writeable = False
    return tables


def _basis_block(z, rho, cphi, sphi, band_limit, out, row_map=None):
    """Fill out (ncoef, npts) with real orthonormal harmonics, in degree order by default or
    in the order of row_map, one of _band_tables(band_limit)'s two row maps.

    q_n^m is the stable normalized associated Legendre recurrence in n at fixed m.  The
    sectoral q_m^m, cos m phi and sin m phi come first, one row per order; then one step per
    diagonal k = n - m advances q_{m+k}^m for every order m <= B - k at once and writes those
    rows.  Y_n^0 = q and the order-m pair is sqrt(2) q (cos m phi, sin m phi).  Each value
    gets the operations of the per-(n, m) recurrence in the same order, so its bits do not
    depend on the loop order or the row order, and the cached a, -b tables hold that
    recurrence's float expressions.  In ring order a diagonal's cos and sin rows are two
    slices, written in place; degree order scatters them from a scratch row block.
    rho = hypot(x, y) is sin theta, accurate near the poles where 1 - z^2 loses its digits.
    """
    B, npts = band_limit, z.shape[0]
    tables = _band_tables(B)
    sqrt2 = math.sqrt(2.0)
    q, c, s = np.ones((B + 1, npts)), np.ones((B + 1, npts)), np.zeros((B + 1, npts))
    for m in range(1, B + 1):
        np.multiply(q[m - 1], rho, out=q[m])
        q[m] *= tables.sectoral[m - 1]
        np.subtract(c[m - 1] * cphi, s[m - 1] * sphi, out=c[m])
        np.add(s[m - 1] * cphi, c[m - 1] * sphi, out=s[m])
    q_prev, scaled, pair = np.empty((3, B, npts))
    for k, (zero, cos, sin) in enumerate(tables.degree_rows if row_map is None else row_map):
        rows = B + 1 - k
        if k == 1:
            np.multiply(z, q[:rows], out=q_prev)
            q_prev *= tables.root[:rows]
            q_prev, q = q, q_prev
        elif k > 1:
            step = np.multiply(z, tables.a[k - 2, :rows], out=scaled[:rows])
            step *= q[:rows]
            new = q_prev[:rows]
            new *= tables.neg_b[k - 2, :rows]
            new += step
            q_prev, q = q, q_prev
        out[zero] = q[0]
        root2q = np.multiply(q[1:rows], sqrt2, out=scaled[: rows - 1])
        if isinstance(cos, slice):
            np.multiply(root2q, c[1:rows], out=out[cos])
            np.multiply(root2q, s[1:rows], out=out[sin])
        else:
            out[cos] = np.multiply(root2q, c[1:rows], out=pair[: rows - 1])
            out[sin] = np.multiply(root2q, s[1:rows], out=pair[: rows - 1])


def _check_band_limit(band_limit) -> None:
    if not _is_count(band_limit, 0):
        raise ValueError("band limit must be an integer >= 0")


def real_sph_harm_matrix(points: np.ndarray, band_limit: int) -> np.ndarray:
    """Real orthonormal spherical harmonics at unit vectors, shape (npts, (B+1)^2).

    Normalized against the probability measure on S2: the constant harmonic
    is identically 1 and the degree-n block has 2n+1 columns.
    """
    _check_band_limit(band_limit)
    z, rho, cphi, sphi = _polar(points)
    out = np.empty(((band_limit + 1) ** 2, z.shape[0]))
    _basis_block(z, rho, cphi, sphi, band_limit, out)
    return out.T


def _polar(points):
    """(z, rho, cos phi, sin phi) of unit vectors (npts, 3), rho = hypot(x, y); phi = 0 at the poles."""
    x, y, z = np.atleast_2d(np.asarray(points, dtype=float)).T
    rho = np.hypot(x, y)
    safe = rho > 0
    cphi = np.where(safe, x / np.where(safe, rho, 1.0), 1.0)
    sphi = np.where(safe, y / np.where(safe, rho, 1.0), 0.0)
    return z, rho, cphi, sphi


def degree_of_column(band_limit: int) -> np.ndarray:
    """Degree n of each basis column in the layout of real_sph_harm_matrix."""
    return np.repeat(np.arange(band_limit + 1), 2 * np.arange(band_limit + 1) + 1)


_RING_CHECK = "circle averaging needs the longitude rings of SphereGrid.build"


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
        node, 75 MB for the B = 32, oversample 2 grid of repsim.build_grid(32), and circle
        averaging caches about 16 n_lon (B+1)^2 bytes of ring tables on it, 1.1 MB at B = 32.
        """
        _check_band_limit(band_limit)
        if not _is_count(oversample, 1):
            raise ValueError("oversample factor must be an integer >= 1")
        return _built_grid(int(band_limit), int(oversample))

    @property
    def n_coeff(self) -> int:
        return (self.band_limit + 1) ** 2

    @functools.cached_property
    def _ring_geometry(self):
        """(first, frame, partner, c, s), read-only, cached once the ring check passes.

        Node l of a ring is R_z(beta_l) of its first node, beta_l = 2 pi l / n_lon, so the M-point
        rule runs on the first nodes' circles only: frame (M, rings, 3) is their delta-free term
        cos psi_j e_phi + sin psi_j e_theta.  At node l the order-m pair (cos, sin) = (a, b)
        becomes (c a - s b, s a + c b), c, s = cos m beta_l, sin m beta_l.
        """
        n_lon = np.count_nonzero(self.nodes[:, 2] == self.nodes[0, 2])  # a ring shares one height
        if len(self.nodes) % n_lon:
            raise ValueError(_RING_CHECK)
        rings = self.nodes.reshape(-1, n_lon, 3)
        first, beta = rings[:, 0], 2.0 * np.pi * np.arange(n_lon) / n_lon
        w = rings[..., 0] + 1j * rings[..., 1]  # node l: w_0 exp(i beta_l) at one height
        if np.abs(w - w[:, :1] * np.exp(1j * beta)).max() > 1e-12 or np.ptp(rings[..., 2], 1).any():
            raise ValueError(_RING_CHECK)
        e_phi = np.cross([0.0, 0.0, 1.0], first) / np.hypot(first[:, 0], first[:, 1])[:, None]
        psi = _rule_angles(self.band_limit)
        frame = np.cos(psi) * e_phi + np.sin(psi) * np.cross(e_phi, first)
        offset = np.arange(self.n_coeff) - degree_of_column(self.band_limit) ** 2  # 2m-1: cos, 2m: sin
        partner = np.arange(self.n_coeff) + np.where(offset % 2, 1, np.where(offset > 0, -1, 0))
        turn, order = np.outer(beta, np.arange(self.band_limit + 1)), (offset + 1) // 2  # B + 1 orders
        c, s = np.cos(turn).take(order, 1), np.where(offset % 2, -1.0, 1.0) * np.sin(turn).take(order, 1)
        geometry = (first, frame, partner, c, s)
        for table in geometry:
            table.flags.writeable = False
        return geometry

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
    xg, wg = np.polynomial.legendre.leggauss(n_lat)
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


def _frame_rows(p):
    """tangent_frames on (3, R) rows, with np.cross's operations written out in its order."""
    a = np.abs(p)
    first = (a[0] <= a[1]) & (a[0] <= a[2])  # e = (argmin |p| == axis): ties go to the first axis
    e = (first, ~first & (a[1] <= a[2]), ~first & (a[1] > a[2]))
    u = np.array([e[j] * p[k] - e[k] * p[j] for j, k in ((1, 2), (2, 0), (0, 1))])
    u /= np.sqrt(u[0] * u[0] + u[1] * u[1] + u[2] * u[2])
    v = np.array([p[j] * u[k] - p[k] * u[j] for j, k in ((1, 2), (2, 0), (0, 1))])
    return u, v


def tangent_frames(points: np.ndarray):
    """Deterministic orthonormal frames (u, v) with u, v perpendicular to each point.

    u = normalize(e_k x point) where e_k is the coordinate axis least aligned
    with the point; v = point x u.  Fixed so that runs are reproducible.
    """
    return tuple(w.T for w in _frame_rows(np.atleast_2d(np.asarray(points, dtype=float)).T))


def _circle_step(delta: float, centres, u, v, psi):
    """delta centres + r (cos psi u + sin psi v), r = sqrt(1 - delta^2): the points at
    inner product delta from centres at angles psi (broadcast against u) from u towards v."""
    return _on_circles(delta, centres, np.cos(psi) * u + np.sin(psi) * v)


def _on_circles(delta: float, centres, frame):
    """r frame + delta centres, r = sqrt(1 - delta^2): _circle_step from its delta-free frame term."""
    delta = _clamp_delta(delta)
    radius = np.sqrt(max(0.0, 1.0 - delta * delta))
    # the frame term first: the sum takes its layout, so markov_steps' (3, R) rows stay rows
    return radius * frame + delta * centres


def _rule_angles(band_limit: int):
    """(M, 1, 1): the M = B+1 angles 2 pi j / M of the circle rule."""
    M = band_limit + 1
    return 2.0 * np.pi * np.arange(M)[:, None, None] / M


def _circle_points(grid: SphereGrid, delta: float, centres, u, v):
    """(M, len(centres), 3): the M = B+1 point rule on the circles at inner product
    delta around centres, angle 0 along u and pi/2 along v.

    A harmonic of degree <= B restricted to the circle delta x + r (cos psi u + sin psi v)
    is a trigonometric polynomial of degree <= B in psi, so the M-point trapezoid mean is
    exact once M >= B+1; at M = B the frequency-B terms in psi alias onto the constant.
    """
    return _circle_step(delta, centres, u, v, _rule_angles(grid.band_limit))


def _ring_tables(grid: SphereGrid, delta: float):
    """(means, partner, c, s): the circle average of harmonic k at node l of ring r is
    means[r, k] c[l, k] + means[r, partner[k]] s[l, k]; means is (rings, n_coeff), c, s (n_lon, n_coeff).

    Per delta: the M-point rule on the circles of the grid's _ring_geometry, one harmonic
    kernel call in ring order, and the means, summed point by point in np.mean's order, so
    with its bits; one take puts them into degree order.  means is allocated before the
    kernel's buffer: a long-lived array allocated after it would pin the heap above it.
    """
    first, frame, partner, c, s = grid._ring_geometry
    tables = _band_tables(grid.band_limit)
    M, rings = frame.shape[:2]
    means = np.empty((grid.n_coeff, rings))
    z, rho, cphi, sphi = _polar(_on_circles(delta, first, frame).reshape(-1, 3))
    values = np.empty((grid.n_coeff, M * rings))
    _basis_block(z, rho, cphi, sphi, grid.band_limit, values, tables.ring_rows)
    per_point = values.reshape(grid.n_coeff, M, rings)
    total = per_point[:, 0] + 0.0  # add.reduce starts from +0.0: a sum of -0.0s is +0.0
    for j in range(1, M):
        total += per_point[:, j]
    total /= M
    np.take(total, tables.ring_to_degree, axis=0, out=means, mode="clip")
    return means.T, partner, c, s  # means (rings, coeffs)


def circle_average_operator(grid: SphereGrid, delta: float) -> np.ndarray:
    """Matrix (n_nodes, n_coeff) whose column (n, m) holds the average of Y_n^m over the
    circles at inner product delta around each grid node, filled ring by ring."""
    means, partner, c, s = _ring_tables(grid, delta)
    out = np.empty((len(means), len(c), grid.n_coeff))
    turned = np.empty_like(c)  # the partner term, reused by every ring
    for a, ring in zip(means, out):
        np.multiply(a, c, out=ring)
        ring += np.multiply(a[partner], s, out=turned)  # a[partner] is contiguous; means[:, partner] is not
    return out.reshape(-1, grid.n_coeff)


def circle_average(grid: SphereGrid, samples: np.ndarray, delta: float, frames=None) -> np.ndarray:
    """Average band-limited samples (n_nodes,) on the grid over the circles at inner product
    delta around each node: the ring means are contracted with the samples' coefficients,
    and the (n_nodes, n_coeff) circle_average_operator is never formed.
    The B + 1 point rule is exact on every circle, so the average never depended on where a
    circle's points start.  frames is accepted and unused until the next benchmark change
    drops it from perfbench's frames jobs.
    """
    coeffs = grid.analyze(samples)
    means, partner, c, s = _ring_tables(grid, delta)
    return ((means * coeffs) @ c.T + (means[:, partner] * coeffs) @ s.T).ravel()


# ---------------------------------------------------------------------------
# Markov chain: jump to a uniform point of the circle at inner product delta.
# ---------------------------------------------------------------------------


def markov_steps(positions: np.ndarray, delta: float, rng: np.random.Generator) -> np.ndarray:
    """One chain step for a batch of unit vectors, shape (R, 3): the transpose of a (3, R)
    result, so a chain fed its own output stays in row layout from step to step."""
    pts = np.atleast_2d(np.asarray(positions, dtype=float)).T
    phi = rng.uniform(0.0, 2.0 * np.pi, size=pts.shape[1])
    return _circle_step(delta, pts, *_frame_rows(pts), phi).T


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


def contraction_verdict(delta: float, norms: np.ndarray, sigmas: np.ndarray) -> tuple[float, bool]:
    """The largest pull |norms[k] - |delta|^(k+1)| / sigmas[k] of mixing_profile's output, and
    whether every pull is <= 3 (NaN fails).  A zero gap is a zero pull, as at |delta| = 1 where
    sigmas is 0.  False alarms over seeds 0-299: none at 15 steps and 10^4 replicas for delta in
    {0, 0.3, 0.6, 0.9, -0.5}, 1 at 3 steps and 10 replicas for delta = 0.3."""
    gaps = np.abs(norms - abs(delta) ** np.arange(1, len(norms) + 1))
    with np.errstate(divide="ignore"):
        pulls = np.divide(gaps, sigmas, out=np.zeros_like(gaps), where=gaps != 0.0)
    return float(pulls.max()), bool(np.all(pulls <= 3.0))
