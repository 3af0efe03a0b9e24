"""Tests for the sphere grid, circle averaging, and the Markov chain."""

import dataclasses

import numpy as np
import pytest
from scipy import special, stats

from circleops import sphere
from circleops.legendre import legendre_table
from circleops.sphere import (
    SphereGrid,
    circle_average,
    circle_average_operator,
    degree_of_column,
    markov_steps,
    markov_trace,
    mixing_profile,
    real_sph_harm_matrix,
    tangent_frames,
)

BAND = 12


@pytest.fixture(scope="module")
def grid():
    return SphereGrid.build(BAND)


def gram_defect(grid):
    """Max deviation of the grid's discrete Gram matrix of the basis from the identity."""
    gram = (grid.basis * grid.weights[:, None]).T @ grid.basis
    return float(np.abs(gram - np.eye(grid.n_coeff)).max())


def test_grid_invariants(grid):
    assert np.allclose(np.linalg.norm(grid.nodes, axis=1), 1.0, atol=1e-12)
    assert grid.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(grid.weights > 0)
    assert gram_defect(grid) <= 1e-8


def test_analysis_synthesis_roundtrip(grid):
    rng = np.random.default_rng(3)
    coeffs = rng.normal(size=grid.n_coeff)
    back = grid.analyze(grid.synthesize(coeffs))
    np.testing.assert_allclose(back, coeffs, atol=1e-10)


def test_constant_average_is_constant(grid):
    ones = np.ones(grid.nodes.shape[0])
    out = circle_average(grid, ones, delta=0.37)
    np.testing.assert_allclose(out, 1.0, atol=1e-10)


def test_degree_one_eigenfunction(grid):
    # Y_1^0 is sqrt(3) * z in this normalization
    f = np.sqrt(3.0) * grid.nodes[:, 2]
    for delta in (-0.8, 0.0, 0.4, 0.95):
        out = circle_average(grid, f, delta=delta)
        np.testing.assert_allclose(out, delta * f, atol=1e-10)


def test_all_eigenfunctions_against_spectral_model(grid):
    for delta in (-0.7, 0.12, 0.9):
        averaged = circle_average_operator(grid, delta)
        eigs = legendre_table(BAND, delta)[degree_of_column(BAND)]
        err = np.abs(averaged - grid.basis * eigs[None, :]).max()
        assert err <= 1e-8


def test_frame_independence(grid):
    rng = np.random.default_rng(11)
    f = grid.synthesize(rng.normal(size=grid.n_coeff))
    u, v = tangent_frames(grid.nodes)
    ang = 1.234
    u2 = np.cos(ang) * u + np.sin(ang) * v
    v2 = -np.sin(ang) * u + np.cos(ang) * v
    # the rule is exact on every circle, so circle_average is the ring operator for any frames
    expected = circle_average_operator(grid, 0.3) @ grid.analyze(f)
    assert np.array_equal(circle_average(grid, f, 0.3), expected)
    assert np.array_equal(circle_average(grid, f, 0.3, frames=(u2, v2)), expected)


def test_grid_invariants_oversampled():
    for factor in (np.int64(2), 3):  # numpy integers too
        g = SphereGrid.build(BAND, oversample=factor)
        assert g.nodes.shape[0] == factor * (BAND + 1) * factor * (2 * BAND + 1)
        assert g.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert gram_defect(g) <= 1e-8


@pytest.mark.parametrize("factor", [0, -1, 1.5, 2.0, True])
@pytest.mark.parametrize("which", ["lat_oversample", "lon_oversample"])
def test_build_rejects_bad_oversample(which, factor):
    """One factor scales both axes; the retired per-axis keywords are refused."""
    with pytest.raises(ValueError, match="oversample factor must be an integer >= 1"):
        SphereGrid.build(BAND, oversample=factor)
    with pytest.raises(TypeError, match=which):
        SphereGrid.build(BAND, **{which: factor})


@pytest.mark.parametrize("band", [-1, 2.5, 3.0, None, True])
def test_rejects_bad_band_limit(band):
    """The grid and the harmonic matrix take only integer band limits >= 0."""
    with pytest.raises(ValueError, match="band limit must be an integer >= 0"):
        SphereGrid.build(band)
    with pytest.raises(ValueError, match="band limit must be an integer >= 0"):
        real_sph_harm_matrix(np.array([[0.0, 0.0, 1.0]]), band)


def test_numpy_integer_band_limit():
    g = SphereGrid.build(np.int64(3))
    assert g.n_coeff == 16 and gram_defect(g) <= 1e-12
    assert real_sph_harm_matrix(g.nodes, np.int32(3)).shape == (g.nodes.shape[0], 16)


def test_grid_is_built_once_per_band_limit():
    g = SphereGrid.build(5)
    assert SphereGrid.build(5) is g and SphereGrid.build(np.int64(5)) is g
    assert SphereGrid.build(5, oversample=2) is SphereGrid.build(5, np.int64(2)) is not g
    assert g.basis is SphereGrid.build(5).basis
    # the cached basis has the bits of a fresh harmonic matrix at the nodes
    assert np.array_equal(g.basis, real_sph_harm_matrix(g.nodes, 5))


def test_shared_grid_is_read_only():
    g = SphereGrid.build(4)
    for shared in (g.nodes, g.weights, g.basis):
        with pytest.raises(ValueError, match="read-only"):
            shared[0] *= 2.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.nodes = g.nodes.copy()
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.basis = g.basis.copy()


def test_bad_arguments_are_refused_after_their_key_is_cached():
    # 2.0 == 2 and True == 1 hash like the integers, so the checks must come before the lookup
    for band, oversample in ((3, 2), (3, 1), (1, 1)):
        SphereGrid.build(band, oversample)
    for band, oversample in ((3, 2.0), (3, True), (3.0, 1), (True, 1)):
        with pytest.raises(ValueError, match="must be an integer"):
            SphereGrid.build(band, oversample)


def _pointwise_operator(grid, delta, points):
    """Brute-force operator: the points-point rule on every node's own circle, tangent_frames."""
    u, v = tangent_frames(grid.nodes)
    radius = np.sqrt(max(0.0, 1.0 - delta * delta))
    total = np.zeros((grid.nodes.shape[0], grid.n_coeff))
    for j in range(points):
        phi = 2.0 * np.pi * j / points
        circle = delta * grid.nodes + radius * (np.cos(phi) * u + np.sin(phi) * v)
        total += real_sph_harm_matrix(circle, grid.band_limit)
    return total / points


@pytest.mark.parametrize("band", [4, 8, 12])
def test_b_plus_1_rule_is_exact_and_b_is_not(band):
    # on a circle a degree-<= B harmonic is a trigonometric polynomial of degree <= B
    g = SphereGrid.build(band)
    for delta in (-1.0, 0.0, 0.41, 1.0):
        exact = g.basis * legendre_table(band, delta)[degree_of_column(band)][None, :]
        assert np.abs(_pointwise_operator(g, delta, band + 1) - exact).max() <= 1e-12
        if abs(delta) < 1.0:  # at delta = +-1 the circle is a point and every rule is exact
            assert np.abs(_pointwise_operator(g, delta, band) - exact).max() > 0.1


@pytest.mark.parametrize("band", [4, 8, 12])
@pytest.mark.parametrize("oversample", [1, 2])
@pytest.mark.parametrize("rule", ["B+1", "2B+1", "4B+3"])
def test_ring_operator_matches_pointwise_quadrature(band, oversample, rule):
    # the library's B+1 rule against the brute-force rule with as many or more points
    g = SphereGrid.build(band, oversample=oversample)
    points = {"B+1": band + 1, "2B+1": 2 * band + 1, "4B+3": 4 * band + 3}[rule]
    for delta in (-1.0, 0.0, 0.41, 1.0):
        ring = circle_average_operator(g, delta)
        np.testing.assert_allclose(ring, _pointwise_operator(g, delta, points), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("band", [4, 8, 12])
@pytest.mark.parametrize("oversample", [1, 2])
@pytest.mark.parametrize("rule", ["B+1", "2B+1", "4B+3"])
def test_circle_average_matches_pointwise_quadrature(band, oversample, rule):
    g = SphereGrid.build(band, oversample=oversample)
    points = {"B+1": band + 1, "2B+1": 2 * band + 1, "4B+3": 4 * band + 3}[rule]
    rng = np.random.default_rng(band + 10 * oversample)
    coeffs = rng.normal(size=g.n_coeff)
    u, v = tangent_frames(g.nodes)
    twist = rng.uniform(0.0, 2.0 * np.pi, size=g.nodes.shape[0])
    c, s = np.cos(twist)[:, None], np.sin(twist)[:, None]
    frames = (c * u + s * v, c * v - s * u)
    for delta in (-1.0, 0.0, 0.41, 1.0):
        got = circle_average(g, g.synthesize(coeffs), delta, frames=frames)
        expected = _pointwise_operator(g, delta, points) @ coeffs
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12 * np.abs(coeffs).sum())


def _concatenated_ring_operator(grid, delta):
    """circle_average_operator with its rings joined by np.concatenate, not filled in place."""
    n_lon = np.count_nonzero(grid.nodes[:, 2] == grid.nodes[0, 2])
    first = grid.nodes.reshape(-1, n_lon, 3)[:, 0]
    beta = 2.0 * np.pi * np.arange(n_lon) / n_lon
    e_phi = np.cross([0.0, 0.0, 1.0], first) / np.hypot(first[:, 0], first[:, 1])[:, None]
    circles = sphere._circle_points(grid, delta, first, e_phi, np.cross(e_phi, first))
    values = real_sph_harm_matrix(circles.reshape(-1, 3), grid.band_limit).T
    means = values.reshape(grid.n_coeff, len(circles), -1).mean(axis=1).T
    offset = np.arange(grid.n_coeff) - degree_of_column(grid.band_limit) ** 2
    partner = np.arange(grid.n_coeff) + np.where(offset % 2, 1, np.where(offset > 0, -1, 0))
    turn = np.outer(beta, (offset + 1) // 2)
    c, s = np.cos(turn), np.where(offset % 2, -1.0, 1.0) * np.sin(turn)
    return np.concatenate([a * c + a[partner] * s for a in means])


@pytest.mark.parametrize("band", [0, 1, 4, 12, 16])
@pytest.mark.parametrize("oversample", [1, 2])
def test_in_place_rings_are_bit_identical(band, oversample):
    g = SphereGrid.build(band, oversample=oversample)
    for delta in (-1.0, -0.3, 0.0, 0.41, 0.97):
        got = circle_average_operator(g, delta)
        assert got.shape == (g.nodes.shape[0], g.n_coeff)
        assert np.array_equal(got, _concatenated_ring_operator(g, delta))


def _grid_by_hand(nodes, weights):
    return SphereGrid(6, nodes, weights, real_sph_harm_matrix(nodes, 6))


def test_operator_rejects_non_ring_grid():
    g = SphereGrid.build(6)
    by_hand = circle_average_operator(_grid_by_hand(g.nodes, g.weights), 0.3)
    np.testing.assert_array_equal(by_hand, circle_average_operator(g, 0.3))
    flipped = g.nodes.copy()
    flipped[20, 2] *= -1.0  # a second-ring node: same longitude, other hemisphere
    turned = g.nodes.copy()
    turned[15, :2] = turned[15, 1::-1] * [-1.0, 1.0]  # one node turned by a quarter about the axis
    shuffled = g.nodes[np.random.default_rng(2).permutation(g.nodes.shape[0])]
    for nodes in (flipped, turned, shuffled, g.nodes[:-1]):  # the last: 90 nodes, rings of 13
        with pytest.raises(ValueError):
            circle_average_operator(_grid_by_hand(nodes, g.weights[: len(nodes)]), 0.3)


def test_self_adjoint_on_grid():
    g = SphereGrid.build(8)
    op = circle_average_operator(g, 0.41) @ (g.basis.T * g.weights[None, :])
    weighted = g.weights[:, None] * op
    assert np.abs(weighted - weighted.T).max() <= 1e-8


def test_commutation_on_grid():
    g = SphereGrid.build(8)
    analysis = g.basis.T * g.weights[None, :]
    a = circle_average_operator(g, 0.41) @ analysis
    b = circle_average_operator(g, -0.15) @ analysis
    assert np.abs(a @ b - b @ a).max() <= 1e-8


def occupancy_counts(positions, n_z, n_phi):
    """Counts over the equal-area partition (uniform z-slabs x longitude sectors)."""
    z = np.clip(((positions[:, 2] + 1.0) / 2.0 * n_z).astype(int), 0, n_z - 1)
    ph = np.arctan2(positions[:, 1], positions[:, 0])
    p = np.clip(((ph + np.pi) / (2.0 * np.pi) * n_phi).astype(int), 0, n_phi - 1)
    return np.bincount(z * n_phi + p, minlength=n_z * n_phi)


class TestMarkov:
    def test_delta_one_freezes(self):
        rng = np.random.default_rng(0)
        x = np.array([[0.3, -0.5, np.sqrt(1 - 0.09 - 0.25)], [0.0, 0.0, -1.0]])
        y = markov_steps(x, 1.0, rng)
        np.testing.assert_allclose(y, x, atol=1e-12)

    def test_delta_zero_orthogonal(self):
        rng = np.random.default_rng(1)
        x = np.array([[0.0, 0.0, 1.0], [0.6, 0.0, -0.8]])
        y = markov_steps(x, 0.0, rng)
        np.testing.assert_allclose(np.sum(x * y, axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(y, axis=1), 1.0, atol=1e-12)

    def test_trace_invariant(self):
        trace = markov_trace(0.45, steps=200, seed=99)
        assert trace.shape == (201, 3) and trace[0].tolist() == [0.0, 0.0, 1.0]
        assert np.abs(np.sum(trace[:-1] * trace[1:], axis=1) - 0.45).max() <= 1e-10
        assert np.allclose(np.linalg.norm(trace, axis=1), 1.0, atol=1e-12)

    def test_one_step_conditional_mean(self):
        # Monte-Carlo oracle: the conditional mean over the circle is delta * x
        rng = np.random.default_rng(12345)
        x = np.array([0.0, 0.0, 1.0])
        reps = 10**6
        ys = markov_steps(np.tile(x, (reps, 1)), 0.6, rng)
        mean = ys.mean(axis=0)
        sigma = np.sqrt(np.sum(ys.var(axis=0)) / reps)
        assert np.linalg.norm(mean - 0.6 * x) <= 3.0 * sigma

    def test_mixing_profile_contracts(self):
        norms, sigmas = mixing_profile(0.5, steps=10, replicas=10**5, seed=4)
        assert abs(norms[-1] - 0.5**10) <= 3.0 * sigmas[-1]

    def test_mixing_profile_frozen_at_one(self):
        norms, _ = mixing_profile(1.0, steps=5, replicas=100, seed=5)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_mixing_profile_null_at_zero(self):
        norms, sigmas = mixing_profile(0.0, steps=3, replicas=10**4, seed=6)
        assert np.all(norms <= 4.0 * sigmas)

    @pytest.mark.parametrize("replicas", [0, 1])
    def test_mixing_profile_needs_two_replicas(self, replicas):
        # a single replica has zero spread: mc_sigma 0 would certify any mean
        with pytest.raises(ValueError):
            mixing_profile(0.3, steps=3, replicas=replicas, seed=1)

    def test_uniform_measure_chi_square(self):
        # 10^6 steps as 1000 chains x 1000 steps, started from the invariant
        # (uniform) law; pooled occupancy over a 64-cell equal-area partition
        rng = np.random.default_rng(7)
        x = rng.normal(size=(1000, 3))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        counts = np.zeros(64, dtype=int)
        for _ in range(1000):
            x = markov_steps(x, 0.3, rng)
            counts += occupancy_counts(x, 8, 8)
        assert counts.sum() == 10**6
        stat = stats.chisquare(counts).statistic
        assert stat < stats.chi2.ppf(1 - 1e-3, counts.size - 1)


def test_basis_matches_scipy_on_zonal():
    # independent route for the m = 0 columns: sqrt(2n+1) P_n(z)
    pts = np.random.default_rng(8).normal(size=(50, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    mat = real_sph_harm_matrix(pts, 10)
    for n in range(11):
        expected = np.sqrt(2 * n + 1) * special.eval_legendre(n, pts[:, 2])
        np.testing.assert_allclose(mat[:, n * n], expected, atol=1e-12)


@pytest.mark.parametrize("t", [1e-4, 1e-6, 1e-8])
def test_sin_theta_is_accurate_near_the_pole(t):
    # Y_1^1 = sqrt(3) sin theta cos phi; at t = 1e-8, cos t rounds to 1 and 1 - z^2 to 0
    point = np.array([[np.sin(t), 0.0, np.cos(t)]])
    expected = np.sqrt(3.0) * np.sin(t)
    assert real_sph_harm_matrix(point, 1)[0, 2] == pytest.approx(expected, rel=1e-14, abs=0.0)


def _three_writer_basis_block(z, u, cphi, sphi, band_limit, out):
    """Copy of the harmonic kernel as it was with its three inline column writes (u = sin theta)."""
    npts = z.shape[0]
    sqrt2 = np.sqrt(2.0)
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
        if m == 0:
            out[m * m] = q_prev
        else:
            out[m * m + 2 * m - 1] = sqrt2 * q_prev * cm
            out[m * m + 2 * m] = sqrt2 * q_prev * sm
        if m == band_limit:
            break
        np.multiply(z, qmm, out=q_cur)
        q_cur *= np.sqrt(2 * m + 3.0)
        n = m + 1
        if m == 0:
            out[n * n] = q_cur
        else:
            out[n * n + 2 * m - 1] = sqrt2 * q_cur * cm
            out[n * n + 2 * m] = sqrt2 * q_cur * sm
        for n in range(m + 2, band_limit + 1):
            a = np.sqrt((4.0 * n * n - 1.0) / (n * n - m * m))
            b = np.sqrt(
                ((2.0 * n + 1.0) * (n - 1.0 - m) * (n - 1.0 + m))
                / ((2.0 * n - 3.0) * (n * n - m * m))
            )
            q_prev *= -b
            q_prev += a * z * q_cur
            q_prev, q_cur = q_cur, q_prev
            if m == 0:
                out[n * n] = q_cur
            else:
                out[n * n + 2 * m - 1] = sqrt2 * q_cur * cm
                out[n * n + 2 * m] = sqrt2 * q_cur * sm


@pytest.mark.parametrize("band_limit", [0, 1, 2, 16, 32])
def test_basis_bit_identical_to_three_writer_kernel(band_limit, monkeypatch):
    pts = np.random.default_rng(band_limit).normal(size=(300, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts[0] = [0.0, 0.0, 1.0]  # pole: the rho = 0 branch
    got = real_sph_harm_matrix(pts, band_limit)
    monkeypatch.setattr(sphere, "_basis_block", _three_writer_basis_block)
    assert np.array_equal(got, real_sph_harm_matrix(pts, band_limit))


@pytest.mark.parametrize("band_limit", [0, 1, 16, 32])
def test_blocked_harmonics_are_bit_identical(band_limit, monkeypatch):
    # 300 points in blocks of 128: a pole in the first block and in the partial last one
    pts = np.random.default_rng(band_limit).normal(size=(300, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts[0] = [0.0, 0.0, 1.0]
    pts[290] = [0.0, 0.0, -1.0]
    whole = real_sph_harm_matrix(pts, band_limit)
    monkeypatch.setattr(sphere, "_CHUNK", 128)
    assert np.array_equal(real_sph_harm_matrix(pts, band_limit), whole)


@pytest.mark.parametrize("band_limit", [0, 3])
def test_synthesis_and_analysis_take_one_vector(band_limit):
    # synthesis takes only (n_coeff,), analysis only (n_nodes,): no column stacks
    g = SphereGrid.build(band_limit)
    for wrong in (
        np.ones(g.n_coeff + 1),
        np.ones(2 * g.n_coeff),
        np.ones((g.n_coeff, 1)),
        np.ones((g.n_coeff, 2)),
        np.ones((g.n_coeff, 2, 2)),
    ):
        with pytest.raises(ValueError, match="need coefficients of shape"):
            g.synthesize(wrong)
    n_nodes = g.nodes.shape[0]
    for wrong in (np.ones(n_nodes + 1), np.ones((n_nodes, 1)), np.ones((n_nodes, 2))):
        with pytest.raises(ValueError, match="need samples of shape"):
            g.analyze(wrong)
        with pytest.raises(ValueError, match="need samples of shape"):
            circle_average(g, wrong, 0.3)
