"""Tests for the sphere grid, circle averaging, and the Markov chain."""

import dataclasses
import functools

import numpy as np
import pytest
from scipy import special, stats

from circleops import sphere
from circleops.legendre import _clamp_delta, legendre_table
from circleops.sphere import (
    SphereGrid,
    circle_average,
    circle_average_operator,
    contraction_verdict,
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
    # the rule is exact on every circle, so circle_average is the ring operator for any frames;
    # it contracts the ring means with the coefficients, so it matches the operator to roundoff
    coeffs = grid.analyze(f)
    averaged = circle_average(grid, f, 0.3)
    assert np.array_equal(circle_average(grid, f, 0.3, frames=(u2, v2)), averaged)
    expected = circle_average_operator(grid, 0.3) @ coeffs
    np.testing.assert_allclose(averaged, expected, rtol=1e-13, atol=1e-13 * np.abs(coeffs).sum())


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


def _circle_points(grid, delta, centres, u, v):
    """(B + 1, len(centres), 3): the B + 1 point circle rule at inner product delta around
    centres, angle 0 along u and pi/2 along v."""
    psi = 2.0 * np.pi * np.arange(grid.band_limit + 1)[:, None, None] / (grid.band_limit + 1)
    return sphere._on_circles(delta, centres, np.cos(psi) * u + np.sin(psi) * v)


def _full_table_ring_terms(grid, delta):
    """The ring means, partners and trig tables, with cos and sin evaluated over all
    n_lon x n_coeff entries rather than over the B + 1 distinct orders."""
    n_lon = np.count_nonzero(grid.nodes[:, 2] == grid.nodes[0, 2])
    first = grid.nodes.reshape(-1, n_lon, 3)[:, 0]
    beta = 2.0 * np.pi * np.arange(n_lon) / n_lon
    e_phi = np.cross([0.0, 0.0, 1.0], first) / np.hypot(first[:, 0], first[:, 1])[:, None]
    circles = _circle_points(grid, delta, first, e_phi, np.cross(e_phi, first))
    values = real_sph_harm_matrix(circles.reshape(-1, 3), grid.band_limit).T
    means = values.reshape(grid.n_coeff, len(circles), -1).mean(axis=1).T
    offset = np.arange(grid.n_coeff) - degree_of_column(grid.band_limit) ** 2
    partner = np.arange(grid.n_coeff) + np.where(offset % 2, 1, np.where(offset > 0, -1, 0))
    turn = np.outer(beta, (offset + 1) // 2)
    c, s = np.cos(turn), np.where(offset % 2, -1.0, 1.0) * np.sin(turn)
    return means, partner, c, s


def _mirror_sign(band_limit):
    """(-1)^(n + m) per column of real_sph_harm_matrix's layout: Y_nm(x, y, -z) is this times Y_nm(x, y, z)."""
    n = degree_of_column(band_limit)
    m = (np.arange(len(n)) - n * n + 1) // 2
    return np.where((n + m) % 2, -1.0, 1.0)


def _mirrored(per_ring, band_limit):
    """per_ring (rings, ..., n_coeff) with each upper ring rings-1-r replaced by ring r times
    _mirror_sign, r < rings // 2: the equator mirror that the library applies."""
    out = per_ring.copy(order="K")
    upper = len(out) // 2
    out[len(out) - upper :] = _mirror_sign(band_limit) * out[:upper][::-1]
    return out


def _concatenated_ring_operator(grid, delta):
    """circle_average_operator with its rings joined by np.concatenate, not filled in place,
    and the upper rings mirrored."""
    means, partner, c, s = _full_table_ring_terms(grid, delta)
    joined = np.concatenate([a * c + a[partner] * s for a in means])
    return _mirrored(joined.reshape(len(means), len(c), -1), grid.band_limit).reshape(joined.shape)


def _fresh_temporary_ring_operator(grid, delta):
    """circle_average_operator's per-ring fill with a new temporary for every ring's partner term,
    and the upper rings mirrored."""
    means, partner, c, s = _full_table_ring_terms(grid, delta)
    out = np.empty((len(means), len(c), grid.n_coeff))
    for a, ring in zip(means, out):
        np.multiply(a, c, out=ring)
        ring += a[partner] * s
    return _mirrored(out, grid.band_limit).reshape(-1, grid.n_coeff)


@pytest.mark.parametrize("band", [0, 1, 4, 12, 16])
@pytest.mark.parametrize("oversample", [1, 2])
def test_in_place_rings_are_bit_identical(band, oversample):
    g = SphereGrid.build(band, oversample=oversample)
    for delta in (-1.0, -0.3, 0.0, 0.41, 0.97):
        got = circle_average_operator(g, delta)
        assert got.shape == (g.nodes.shape[0], g.n_coeff)
        assert _same_bits(got, _concatenated_ring_operator(g, delta))


@pytest.mark.parametrize("band", [4, 12, 32])
def test_order_tables_and_reused_scratch_are_bit_identical(band):
    # trig tables from the B + 1 distinct orders, one scratch buffer for every ring
    g = SphereGrid.build(band)
    for delta in (-0.95, 0.0, 0.3, 0.97):
        assert _same_bits(circle_average_operator(g, delta), _fresh_temporary_ring_operator(g, delta))


@pytest.mark.parametrize("band", [0, 1, 7, 8, 16, 24, 32])
@pytest.mark.parametrize("oversample", [1, 2])
def test_mirrored_rings_are_the_direct_evaluation_to_rounding(band, oversample):
    # The mirror is exact in exact arithmetic; in floats the upper rings' direct circle points
    # differ from the mirrored ones in their last bits (cos and sin of psi_(M-j), not of -psi_j),
    # and a harmonic mean moves by its rounding.  Allowance, typed: eps (B + 1) sqrt(2B + 1),
    # B + 1 recurrence steps with a relative rounding each on values of size at most
    # sqrt(2B + 1) (the addition theorem).  An operator entry adds two means times |c|, |s| <= 1,
    # and circle_average adds entries times coefficients.  The largest readings over this grid
    # were 0.42, 0.23 and 0.13 of these three allowances; the largest mean error, 1.3e-14 at B = 32.
    g = SphereGrid.build(band, oversample=oversample)
    allowance = np.finfo(float).eps * (band + 1) * np.sqrt(2 * band + 1)
    samples = g.synthesize(np.random.default_rng(band + 100 * oversample).normal(size=g.n_coeff))
    coeffs = g.analyze(samples)
    for delta in (-1.0, 1.0, -0.3, 0.0, 0.41, 0.97):
        means, partner, c, s = _full_table_ring_terms(g, delta)  # every ring evaluated directly
        assert np.abs(sphere._ring_tables(g, delta)[0] - means).max() <= allowance
        direct = np.concatenate([a * c + a[partner] * s for a in means])
        assert np.abs(circle_average_operator(g, delta) - direct).max() <= 2.0 * allowance
        averaged = ((means * coeffs) @ c.T + (means[:, partner] * coeffs) @ s.T).ravel()
        assert np.abs(circle_average(g, samples, delta) - averaged).max() <= 2.0 * allowance * np.abs(coeffs).sum()


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
    # longitude rings with no mirror pairs: the grid without its last ring, and the last ring
    # turned by half a longitude step, at its mirror's height
    half_turn = np.exp(1j * np.pi / 13) * (g.nodes[-13:, 0] + 1j * g.nodes[-13:, 1])
    last_turned = g.nodes.copy()
    last_turned[-13:, 0], last_turned[-13:, 1] = half_turn.real, half_turn.imag
    for nodes in (flipped, turned, shuffled, g.nodes[:-1], g.nodes[:-13], last_turned):  # g.nodes[:-1]: rings of 13
        bad = _grid_by_hand(nodes, g.weights[: len(nodes)])
        text = "circle averaging needs the longitude rings"
        for _ in range(2):  # a failed check caches nothing, so every call checks again
            with pytest.raises(ValueError, match=text):
                circle_average_operator(bad, 0.3)
            with pytest.raises(ValueError, match=text):
                circle_average(bad, np.zeros(len(nodes)), 0.3)
        assert "_ring_geometry" not in vars(bad)


def test_ring_geometry_is_computed_once_per_grid(monkeypatch):
    geometry = vars(SphereGrid)["_ring_geometry"]
    calls = []

    def counted(grid):
        calls.append(grid is fresh)
        return ring_geometry(grid)

    ring_geometry = geometry.func
    monkeypatch.setattr(geometry, "func", counted)
    g = SphereGrid.build(6)
    fresh = _grid_by_hand(g.nodes, g.weights)  # a hand-built grid fills its own cache on first use
    assert "_ring_geometry" not in vars(fresh)
    samples = fresh.synthesize(np.random.default_rng(3).normal(size=fresh.n_coeff))
    for delta in (0.3, -0.5):
        assert _same_bits(circle_average_operator(fresh, delta), circle_average_operator(g, delta))
        assert _same_bits(circle_average(fresh, samples, delta), circle_average(g, samples, delta))
    assert calls.count(True) == 1 and len(calls) <= 2  # g's cache may be filled already
    assert fresh._ring_geometry is vars(fresh)["_ring_geometry"]


def test_ring_geometry_is_read_only():
    g = SphereGrid.build(6)
    for grid in (g, _grid_by_hand(g.nodes.copy(), g.weights)):  # the second grid's nodes are writable
        for table in grid._ring_geometry:
            with pytest.raises(ValueError, match="read-only"):
                table[0] = table[0]


def test_band_tables_are_read_only_and_built_once_per_band_limit(monkeypatch):
    built = []

    def counted(band_limit):
        built.append(band_limit)
        return exact(band_limit)

    exact = sphere._band_tables.__wrapped__
    monkeypatch.setattr(sphere, "_band_tables", functools.lru_cache(maxsize=16)(counted))
    g = SphereGrid.build(6)
    fresh = _grid_by_hand(g.nodes, g.weights)  # a grid basis and ring tables, B = 6 both
    samples = fresh.synthesize(np.random.default_rng(4).normal(size=fresh.n_coeff))
    for delta in (0.3, -0.5):
        circle_average_operator(fresh, delta)
        circle_average(fresh, samples, delta)
    real_sph_harm_matrix(fresh.nodes[:5], 3)
    real_sph_harm_matrix(fresh.nodes[5:], 3)
    assert built == [6, 3]
    tables = sphere._band_tables(6)
    for table in (tables.root, tables.a, tables.neg_b, tables.ring_to_degree, *tables.degree_rows[1][1:]):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = table[0]


@pytest.mark.parametrize("band_limit", [0, 1, 2, 3, 16, 24, 32])
def test_ring_order_rows_are_degree_rows_permuted(band_limit):
    pts = np.random.default_rng(band_limit).normal(size=(300, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts[0] = [0.0, 0.0, 1.0]  # the poles: the rho = 0 branch
    pts = np.vstack([pts, [0.0, 0.0, -1.0]])
    tables = sphere._band_tables(band_limit)
    ring = np.empty(((band_limit + 1) ** 2, len(pts)))
    sphere._basis_block(*sphere._polar(pts), band_limit, ring, tables.ring_rows)
    assert _same_bits(ring[tables.ring_to_degree], real_sph_harm_matrix(pts, band_limit).T)
    # ring order runs diagonal by diagonal: n - m never decreases, and each diagonal
    # holds Y_k^0, then its cos rows, then its sin rows
    degree_row = np.argsort(tables.ring_to_degree)
    n = degree_of_column(band_limit)[degree_row]
    offset = degree_row - n * n  # 0: m = 0; 2m - 1: cos; 2m: sin
    m = (offset + 1) // 2
    assert np.all(np.diff(n - m) >= 0)
    for k in range(band_limit + 1):
        kind = np.where(offset == 0, 0, 2 - offset % 2)[n - m == k]  # 0, then 1s (cos), then 2s (sin)
        assert kind.tolist() == [0] + [1] * (band_limit - k) + [2] * (band_limit - k)
        assert m[n - m == k].tolist() == [0, *range(1, band_limit - k + 1), *range(1, band_limit - k + 1)]


def test_ring_tables_make_one_kernel_call_per_delta(monkeypatch):
    g = SphereGrid.build(8)
    samples = g.synthesize(np.random.default_rng(5).normal(size=g.n_coeff))
    circle_average_operator(g, 0.0)  # fills the grid's ring geometry before counting
    calls, exact = [], sphere._basis_block

    def counted(*args):
        calls.append(args[-1] is sphere._band_tables(8).ring_rows)
        return exact(*args)

    monkeypatch.setattr(sphere, "_basis_block", counted)
    for delta in (-1.0, 0.3, 0.97):
        sphere._ring_tables(g, delta)
        circle_average_operator(g, delta)
        circle_average(g, samples, delta)
    assert calls == [True] * 9  # one ring-order call each, none through real_sph_harm_matrix


@pytest.mark.parametrize("band", [0, 1, 7, 8, 16, 32])  # M = B + 1 circle points: 1, 2, 8, 9, 17, 33
@pytest.mark.parametrize("oversample", [1, 2])
def test_running_sum_means_are_mean_bit_for_bit(band, oversample):
    # the lower rings: np.mean's bits, signs of zero included (a mean of -0.0s is +0.0);
    # the upper rings: their mirror rings' times (-1)^(n + m), bit for bit
    g = SphereGrid.build(band, oversample=oversample)
    for delta in (-1.0, -0.3, 0.0, 0.41, 1.0):
        means, partner, c, s = sphere._ring_tables(g, delta)
        expected = _full_table_ring_terms(g, delta)
        assert means.strides == expected[0].strides
        assert _same_bits(means, _mirrored(expected[0], band))
        for got, want in zip((partner, c, s), expected[1:]):
            assert _same_bits(got, want)


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


def _cross_tangent_frames(points):
    """tangent_frames as it was in the (R, 3) layout: e_k from np.eye(3), two np.cross."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    e = np.eye(3)[np.argmin(np.abs(pts), axis=1)]
    u = np.cross(e, pts)
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return u, np.cross(pts, u)


def _cross_markov_steps(positions, delta, rng):
    """markov_steps as it was in the (R, 3) layout, on _cross_tangent_frames, at the angles of
    sphere._circle_draw, drawn one _STEP_BLOCK block of replicas at a time."""
    pts = np.atleast_2d(positions)
    u, v = _cross_tangent_frames(pts)
    block = sphere._STEP_BLOCK
    draws = [sphere._circle_draw(rng, min(block, len(pts) - i)) for i in range(0, len(pts), block)]
    cphi, sphi = np.concatenate(draws, axis=1)[:, :, None]
    return delta * pts + np.sqrt(1.0 - delta * delta) * (cphi * u + sphi * v)


def _trig_frame_rows(p):
    """tangent_frames on (3, R) rows as the trig step had them: list comprehensions stacked by np.array."""
    a = np.abs(p)
    first = (a[0] <= a[1]) & (a[0] <= a[2])
    e = (first, ~first & (a[1] <= a[2]), ~first & (a[1] > a[2]))
    u = np.array([e[j] * p[k] - e[k] * p[j] for j, k in ((1, 2), (2, 0), (0, 1))])
    u /= np.sqrt(u[0] * u[0] + u[1] * u[1] + u[2] * u[2])
    v = np.array([p[j] * u[k] - p[k] * u[j] for j, k in ((1, 2), (2, 0), (0, 1))])
    return u, v


def _trig_markov_steps(positions, delta, rng):
    """markov_steps as it was before the trig-free draw: a row of uniform angles and their cos
    and sin, fresh arrays for every term; the oracle of the in-place step."""
    pts = np.atleast_2d(np.asarray(positions, dtype=float)).T
    phi = rng.uniform(0.0, 2.0 * np.pi, size=pts.shape[1])
    u, v = _trig_frame_rows(pts)
    delta = _clamp_delta(delta)
    radius = np.sqrt(max(0.0, 1.0 - delta * delta))
    return (radius * (np.cos(phi) * u + np.sin(phi) * v) + delta * pts).T


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _unit_rows(count, seed):
    x = np.random.default_rng(seed).normal(size=(count, 3))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _oracle_points():
    """Random points (R = 1, 7, 2000), the six axis points, and ties of |x|, |y| and |z|."""
    rng = np.random.default_rng(31)
    sets = [rng.normal(size=(r, 3)) for r in (1, 7, 2000)]
    sets.append(np.vstack([np.eye(3), -np.eye(3)]))
    ties = [(a, b, c) for a in (0.5, -0.5) for b in (0.5, -0.5) for c in (0.8, -0.8)]  # |x| = |y| < |z|
    ties += [(0.5, 0.8, 0.5), (-0.8, 0.5, -0.5), (1.0, 1.0, 1.0), (-1.0, 1.0, -1.0)]
    ties += [(0.3, 0.3, 0.0), (0.0, 0.6, 0.0), (0.8, 0.6, 0.0)]  # a zero coordinate: signed zeros
    sets.append(np.array(ties, dtype=float))
    return [x / np.linalg.norm(x, axis=1, keepdims=True) for x in sets]


class TestMarkov:
    @pytest.mark.parametrize("which", range(5))
    def test_frames_and_steps_keep_the_bits_of_the_cross_product_layout(self, which):
        x = _oracle_points()[which]
        for got, want in zip(tangent_frames(x), _cross_tangent_frames(x)):
            assert _same_bits(got, want)
        for delta in (0.0, 0.3, -0.6, 1.0):
            y = markov_steps(x, delta, np.random.default_rng(which))
            assert _same_bits(y, _cross_markov_steps(x, delta, np.random.default_rng(which)))

    def test_chain_fed_its_own_output_keeps_the_bits(self):
        # from the second step on, markov_steps is fed its own (3, R) result's transposed view;
        # 2 x 10^4 replicas take three blocks of the step, each with its own draw
        x = y = _unit_rows(20000, 9)
        rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
        for _ in range(16):
            x, y = markov_steps(x, 0.6, rng), _cross_markov_steps(y, 0.6, ref_rng)
            assert x.T.flags.c_contiguous and _same_bits(x, y)

    @pytest.mark.parametrize("delta", [1.0, -1.0, 0.0, -0.0, 0.3, -0.6, 0.9, 1.0 + 1e-13])
    @pytest.mark.parametrize("which", range(6))
    def test_in_place_step_keeps_the_bits_of_the_trig_step(self, which, delta):
        # the step at the trig step's angles, chained 16 times; set 5 is 2 x 10^4 replicas
        x = y = [*_oracle_points(), _unit_rows(20000, 9)][which]
        rng, ref_rng = np.random.default_rng(which), np.random.default_rng(which)
        for _ in range(16):
            phi = rng.uniform(0.0, 2.0 * np.pi, size=len(x))
            x = sphere._markov_rows(x.T, delta, np.cos(phi), np.sin(phi), np.empty(x.T.shape)).T
            y = _trig_markov_steps(y, delta, ref_rng)
            assert _same_bits(x, y)

    @pytest.mark.parametrize("replicas", [0, 3])
    def test_bad_delta_is_refused(self, replicas):
        with pytest.raises(ValueError, match="delta must lie in"):
            markov_steps(np.tile([0.0, 0.0, 1.0], (replicas, 1)), 1.5, np.random.default_rng(0))

    def test_integer_positions_step_as_floats(self):
        x = np.array([[0, 0, 1], [-1, 0, 0]])
        got = markov_steps(x, 0.3, np.random.default_rng(2))
        assert _same_bits(got, _cross_markov_steps(x, 0.3, np.random.default_rng(2)))

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

    def test_contraction_verdict_reads_the_pulls(self):
        norms, sigmas = mixing_profile(0.3, steps=15, replicas=10**4, seed=0)
        worst, held = contraction_verdict(0.3, norms, sigmas)
        assert held and worst == float((np.abs(norms - 0.3 ** np.arange(1, 16)) / sigmas).max())
        assert contraction_verdict(-0.3, norms, sigmas) == (worst, held)  # the theory is |delta|^k

    @pytest.mark.parametrize("delta", [1.0, -1.0])
    def test_contraction_verdict_at_the_deterministic_ends(self, delta):
        """At |delta| = 1 every replica follows one path, so sigma is 0 and the gap is 0: a zero pull."""
        norms, sigmas = mixing_profile(delta, steps=4, replicas=10, seed=3)
        assert np.all(sigmas == 0.0) and contraction_verdict(delta, norms, sigmas) == (0.0, True)

    @pytest.mark.parametrize(
        "norms, sigmas, worst, held",
        [([0.5, 0.25], [0.125, 0.125], 0.0, True), ([0.875, 0.25], [0.125, 0.125], 3.0, True),
         ([0.890625, 0.25], [0.125, 0.125], 3.125, False), ([0.625, 0.25], [0.0, 0.125], np.inf, False),
         ([np.nan, 0.25], [0.125, 0.125], np.nan, False)],
        ids=["exact", "three-sigma", "past-three-sigma", "gap-over-zero-sigma", "nan"],
    )
    def test_contraction_verdict_edges(self, norms, sigmas, worst, held):
        """Pulls at delta = 0.5, theory (0.5, 0.25): at most 3 passes; NaN fails."""
        assert contraction_verdict(0.5, np.array(norms), np.array(sigmas)) == pytest.approx((worst, held), nan_ok=True)

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


class _ZeroFirstPair:
    """A generator whose first pair in the square is exactly (0, 0); the rest are default_rng(seed)'s."""

    def __init__(self, seed):
        self.rng, self.calls = np.random.default_rng(seed), 0

    def uniform(self, low, high, size):
        xy = self.rng.uniform(low, high, size)
        if not self.calls:
            xy[:, 0] = 0.0
        self.calls += 1
        return xy


class TestCircleDraw:
    def test_unit_norm_within_two_ulp(self):
        rng = np.random.default_rng(21)
        for size in (1, 7, 2000, 10**6):
            cphi, sphi = sphere._circle_draw(rng, size)
            assert cphi.shape == sphi.shape == (size,)
            assert np.abs(np.hypot(cphi, sphi) - 1.0).max() <= 2 * np.spacing(1.0)

    def test_harmonics_of_the_angle_have_mean_zero(self):
        # E cos k phi = E sin k phi = 0 for k = 1..4 over 4 x 10^6 angles; each of the 8 means has
        # variance 1/(2N) under the uniform law, and the family's false-alarm rate is 1e-3 (Bonferroni)
        rng, draws, sums = np.random.default_rng(22), 4 * 10**6, np.zeros(4, dtype=complex)
        for _ in range(4):
            cphi, sphi = sphere._circle_draw(rng, draws // 4)
            z = cphi + 1j * sphi
            sums += [np.sum(z**k) for k in range(1, 5)]
        means = sums / draws
        pulls = np.abs(np.concatenate([means.real, means.imag])) / np.sqrt(0.5 / draws)
        assert pulls.max() <= stats.norm.isf(1e-3 / 16)

    def test_same_seed_same_stream(self):
        draws = [[sphere._circle_draw(rng, size) for size in (1, 7, 9000)] for rng in
                 (np.random.default_rng(5), np.random.default_rng(5), np.random.default_rng(6))]
        assert all(_same_bits(a, b) for a, b in zip(draws[0], draws[1]))
        assert not any(np.array_equal(a, b) for a, b in zip(draws[0], draws[2]))

    def test_a_zero_pair_is_refused(self):
        rows = sphere._circle_draw(_ZeroFirstPair(3), 50)
        assert np.isfinite(rows).all() and np.abs(np.hypot(*rows) - 1.0).max() <= 2 * np.spacing(1.0)
        steps = markov_steps(np.tile([0.0, 0.6, 0.8], (50, 1)), 0.3, _ZeroFirstPair(3))
        assert np.isfinite(steps).all()


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


# 3: the smallest band in which a diagonal k = n - m >= 2 spans two orders; 24: a benchmark band
@pytest.mark.parametrize("band_limit", [0, 1, 2, 3, 16, 24, 32])
def test_basis_bit_identical_to_three_writer_kernel(band_limit, monkeypatch):
    pts = np.random.default_rng(band_limit).normal(size=(300, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts[0] = [0.0, 0.0, 1.0]  # the poles: the rho = 0 branch
    pts = np.vstack([pts, [0.0, 0.0, -1.0]])
    got = real_sph_harm_matrix(pts, band_limit)
    monkeypatch.setattr(sphere, "_basis_block", _three_writer_basis_block)
    assert np.array_equal(got, real_sph_harm_matrix(pts, band_limit))


@pytest.mark.parametrize("band_limit", [0, 1, 16, 32])
def test_blocked_harmonics_are_bit_identical(band_limit):
    # the kernel works point by point, so 300 points in blocks of 128 give the bits of one call;
    # a pole in the first block and in the partial last one
    pts = np.random.default_rng(band_limit).normal(size=(300, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts[0] = [0.0, 0.0, 1.0]
    pts[290] = [0.0, 0.0, -1.0]
    blocks = [real_sph_harm_matrix(pts[lo : lo + 128], band_limit) for lo in range(0, 300, 128)]
    assert np.array_equal(np.vstack(blocks), real_sph_harm_matrix(pts, band_limit))


@pytest.mark.parametrize("band_limit, oversample", [(0, 1), (15, 1), (32, 1), (16, 2)])
def test_grid_rings_are_leggauss_bit_for_bit(band_limit, oversample):
    # ring r sits at height x_r of numpy's Gauss-Legendre rule and carries weight w_r / 2 over its nodes
    g = SphereGrid.build(band_limit, oversample)
    n_lat, n_lon = oversample * (band_limit + 1), oversample * (2 * band_limit + 1)
    xg, wg = np.polynomial.legendre.leggauss(n_lat)
    heights, weights = g.nodes[:, 2].reshape(n_lat, n_lon), g.weights.reshape(n_lat, n_lon)
    assert np.array_equal(heights, np.repeat(xg[:, None], n_lon, axis=1))
    assert np.array_equal(weights, np.repeat((wg / 2.0)[:, None], n_lon, axis=1) / n_lon)


@pytest.mark.parametrize("oversample", [1, 2, 3])
def test_grid_rings_are_mirror_pairs_bit_for_bit(oversample):
    # circle averaging computes the lower rings only and mirrors the rest: numpy's leggauss
    # symmetrises its nodes, so ring rings-1-r is ring r with z negated, bit for bit
    for band_limit in range(41):
        xg = np.polynomial.legendre.leggauss(oversample * (band_limit + 1))[0]
        assert np.array_equal(xg[::-1], -xg)
    for band_limit in range(13):  # built uncached: a grid's basis grows as B^4
        g = sphere._built_grid.__wrapped__(band_limit, oversample)
        rings = g.nodes.reshape(oversample * (band_limit + 1), -1, 3)
        assert np.array_equal(rings[::-1], rings * [1.0, 1.0, -1.0])
        # and the harmonics turn by (-1)^(n + m) under the mirror, to the bit
        basis = g.basis.reshape(len(rings), -1, g.n_coeff)
        assert np.array_equal(basis[::-1], _mirror_sign(band_limit) * basis)
        assert _same_bits(g._ring_geometry[-1], _mirror_sign(band_limit))


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
