"""Tests for the half-density sphere action and its decay quantities."""

import numpy as np
import pytest
from scipy import integrate
from scipy.linalg import expm

from circleops import repsim
from circleops.legendre import gauss_rule, legendre_at_zero, legendre_table
from circleops.repsim import (
    assemble_operator,
    build_grid,
    coefficient_decay,
    invariant_gap,
    k_averaged_operator,
    matrix_coefficient,
)
from circleops.sl3 import length
from circleops.sphere import SphereGrid, degree_of_column


@pytest.fixture(scope="module")
def grid16():
    return build_grid(16)


def random_rotation(rng):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1.0
    return q


def random_unimodular(rng, scale):
    a = rng.normal(size=(3, 3)) * scale
    a -= np.trace(a) / 3.0 * np.eye(3)
    return expm(a)


def per_vector_leakage(v, image):
    """1 - ||M v||^2 / ||v||^2 for a band-compressed image M v; pi(g) itself is unitary."""
    return 1.0 - (image @ image) / (v @ v)


class TestQuasiRegular:
    def test_identity_fixes_everything(self, grid16):
        rng = np.random.default_rng(1)
        f = rng.normal(size=grid16.n_coeff)
        sample = assemble_operator(np.eye(3), grid16)
        np.testing.assert_allclose(sample.matrix @ f, f, atol=1e-10)
        assert sample.leakage <= 1e-12

    def test_rotations_act_exactly(self, grid16):
        rng = np.random.default_rng(2)
        rot = random_rotation(rng)
        f = rng.normal(size=grid16.n_coeff)
        sample = assemble_operator(rot, grid16)
        out = sample.matrix @ f
        assert sample.leakage <= 1e-10
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(f), abs=1e-8)
        # compare with direct rotation of samples
        direct = grid16.synthesize(f, points=grid16.nodes @ rot)
        np.testing.assert_allclose(grid16.synthesize(out), direct, atol=1e-8)

    def test_degree_one_norm_at_band_32(self):
        grid = build_grid(32)
        sample = assemble_operator(np.diag([np.e, 1.0, 1.0 / np.e]), grid)
        e1 = np.zeros(grid.n_coeff)
        e1[1] = 1.0  # the z-zonal degree-1 harmonic
        out = sample.matrix @ e1
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-4  # leakage-dominated at this band limit
        assert per_vector_leakage(e1, out) <= 1e-3

    def test_group_law_up_to_leakage(self, grid16):
        rng = np.random.default_rng(42)
        deg = degree_of_column(16)
        checked = 0
        while checked < 20:
            g = random_unimodular(rng, 0.2)
            h = random_unimodular(rng, 0.2)
            if max(length(g), length(h)) > 0.5:
                continue
            coeffs = rng.normal(size=grid16.n_coeff)
            coeffs[deg > 8] = 0.0
            f = coeffs / np.linalg.norm(coeffs)
            m_g, m_h, m_gh = (assemble_operator(a, grid16).matrix for a in (g, h, g @ h))
            hf = m_h @ f
            ghf = m_g @ hf
            direct = m_gh @ f
            err = np.linalg.norm(ghf - direct)
            # each image's own leakage: the sample's leakage is the worst over all columns
            leaks = (per_vector_leakage(f, hf), per_vector_leakage(hf, ghf), per_vector_leakage(f, direct))
            budget = sum(np.sqrt(max(v, 0.0)) for v in leaks)
            assert err <= budget + 1e-8
            checked += 1


def _euler_k_average(grid):
    """Oracle for P_K: the average of the rotation operators by an Euler-angle product rule.

    The equispaced averages over the first and last angles remove every nonzero
    azimuthal order, so only the m = 0 block of the middle-angle average remains;
    Gauss-Legendre in cos(beta) with B + 1 nodes integrates it exactly.
    """
    B = grid.band_limit
    xg, wg = gauss_rule(B + 1)
    m0 = np.arange(B + 1) ** 2
    y0 = grid.basis[:, m0]
    block = np.zeros((B + 1, B + 1))
    scale = np.sqrt(2.0 * np.arange(B + 1) + 1.0)
    for beta, w in zip(np.arccos(xg), wg / 2.0):
        zrot = np.sin(beta) * grid.nodes[:, 0] + np.cos(beta) * grid.nodes[:, 2]
        rotated = scale[:, None] * legendre_table(B, zrot)
        block += w * (y0.T @ (grid.weights[:, None] * rotated.T))
    out = np.zeros((grid.n_coeff, grid.n_coeff))
    out[np.ix_(m0, m0)] = block
    return out


class TestOperators:
    def test_rotation_operator_is_orthogonal(self, grid16):
        rot = random_rotation(np.random.default_rng(3))
        sample = assemble_operator(rot, grid16)
        m = sample.matrix
        assert np.abs(m.T @ m - np.eye(grid16.n_coeff)).max() <= 1e-6
        assert sample.leakage <= 1e-10

    def test_k_average_is_projection_onto_constants(self):
        g = np.diag([np.e, 1.0, 1.0 / np.e])
        for band in (8, 16, 32):
            grid = build_grid(band)
            e0 = np.zeros(grid.n_coeff)
            e0[0] = 1.0
            assert np.abs(_euler_k_average(grid) - np.outer(e0, e0)).max() <= 1e-13
            op = k_averaged_operator(g, grid)
            assert op.matrix[0, 0] == assemble_operator(g, grid).matrix[0, 0]
            assert np.count_nonzero(op.matrix) == 1

    def test_averaged_identity_projects(self, grid16):
        op = k_averaged_operator(np.eye(3), grid16)
        svals = np.linalg.svd(op.matrix, compute_uv=False)
        assert svals[0] == pytest.approx(1.0, abs=1e-6)
        assert svals[1] <= 1e-6

    def test_averaged_operators_rank_one_and_decreasing(self, grid16):
        norms = []
        for n in range(1, 7):
            op = k_averaged_operator(np.diag([np.exp(n), 1.0, np.exp(-n)]), grid16)
            svals = np.linalg.svd(op.matrix, compute_uv=False)
            assert svals[1] <= 1e-6  # K-invariants on the sphere are the constants
            norms.append(svals[0])
        assert np.all(np.diff(norms) < 0.0)

    def test_grid_value_matches_exact_coefficient_at_small_n(self, grid16):
        e0 = np.zeros(grid16.n_coeff)
        e0[0] = 1.0
        for n, tol in ((0, 1e-10), (1, 1e-3)):
            op = assemble_operator(np.diag([np.exp(n), 1.0, np.exp(-n)]), grid16)
            grid_value = float(e0 @ op.matrix @ e0)
            assert grid_value == pytest.approx(matrix_coefficient(n), rel=tol)

    def test_grid_value_at_n2_with_oversampling(self):
        grid = SphereGrid.build(16, oversample=4)
        op = assemble_operator(np.diag([np.exp(2), 1.0, np.exp(-2)]), grid)
        grid_value = float(op.matrix[0, 0])
        assert grid_value == pytest.approx(matrix_coefficient(2), rel=0.05)


def _matrix_coefficient_fresh_rule(n: float, inner_nodes: int) -> float:
    """Reference c(n): the same trapezoid rule in s, with a Gauss-Legendre rule built afresh."""
    xs, ws = np.polynomial.legendre.leggauss(inner_nodes)
    a = np.exp(-n)
    s, h = np.linspace(0.0, n + repsim._TRAPEZOID_CUTOFF, repsim._TRAPEZOID_STEPS + 1, retstep=True)
    cosh = np.cosh(s)
    stretch = 1.0 + (a * np.sinh(s)) ** 2
    c = (a * cosh) ** 2 / stretch
    d = np.exp(2.0 * n) - c
    half = 0.5 * np.arcsinh(np.sqrt(d / c))
    profile = half * np.sum(ws * np.cosh(half[..., None] * (xs + 1.0)) ** -0.5, axis=-1)
    integrand = 2.0 * c**-0.25 * d**-0.5 * profile * a * cosh / stretch
    integrand[0] *= 0.5
    return float(h * np.sum(integrand) / np.pi)


def _matrix_coefficient_adaptive(n: float, inner_nodes: int) -> float:
    """Accuracy oracle: adaptive quadrature over the longitude phi in [0, pi/2]."""
    a2, b2 = np.exp(-2.0 * n), np.exp(2.0 * n)

    def inner(phi):
        c = a2 * np.cos(phi) ** 2 + np.sin(phi) ** 2
        d = b2 - c
        return 2.0 * c**-0.25 * d**-0.5 * float(repsim._inner_profile(np.array(d / c) ** 0.5, inner_nodes))

    val, _ = integrate.quad(inner, 0.0, np.pi / 2.0, limit=400, epsabs=1e-13, epsrel=1e-12)
    return val / np.pi


ORACLE_GRID = (0.01, 0.1, 0.5, 1.3, 2.7, 4.4, 6.6, 7.9, 8.0)


class TestDecay:
    @pytest.mark.parametrize("inner_nodes", [96, 192])
    def test_cached_rule_is_bit_identical(self, inner_nodes):
        for n in range(1, 7):
            want = _matrix_coefficient_fresh_rule(n, inner_nodes)
            assert matrix_coefficient(n, inner_nodes=inner_nodes) == want

    @pytest.mark.parametrize("inner_nodes", [96, 192])
    def test_matches_adaptive_quadrature(self, inner_nodes):
        for n in ORACLE_GRID:
            want = _matrix_coefficient_adaptive(n, inner_nodes)
            assert matrix_coefficient(n, inner_nodes=inner_nodes) == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_doubling_the_steps_changes_nothing(self, monkeypatch):
        base = {(n, k): matrix_coefficient(n, inner_nodes=k) for n in ORACLE_GRID for k in (96, 192)}
        monkeypatch.setattr(repsim, "_TRAPEZOID_STEPS", 2 * repsim._TRAPEZOID_STEPS)
        for (n, k), value in base.items():
            assert matrix_coefficient(n, inner_nodes=k) == pytest.approx(value, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("n", [0.5, 3.0, 8.0])
    def test_even_in_n(self, n):
        value = matrix_coefficient(-n)
        assert np.isfinite(value)
        assert value == matrix_coefficient(n)

    def test_unit_at_identity(self):
        assert matrix_coefficient(0) == 1.0

    def test_independent_fine_grid_oracle(self):
        # plain tensor quadrature resolves the integrand for n <= 2
        grid = SphereGrid.build(32, oversample=8)
        for n, tol in ((1, 1e-6), (2, 1e-4)):
            q = (
                np.exp(-2.0 * n) * grid.nodes[:, 0] ** 2
                + grid.nodes[:, 1] ** 2
                + np.exp(2.0 * n) * grid.nodes[:, 2] ** 2
            )
            brute = float(np.sum(grid.weights * q**-0.75))
            assert matrix_coefficient(n) == pytest.approx(brute, rel=tol)

    def test_decay_table(self):
        rows = coefficient_decay(6)
        assert rows.shape == (7, 4)
        values = rows[:, 1]
        assert np.all(np.diff(values) < 0.0)
        assert np.all(values[1:] <= rows[1:, 2])
        assert np.all(rows[:, 3] <= 0.1)
        # the empirical rate approaches e^-1, strictly faster than the
        # certified e^(-1/2) once past the first step
        ratios = values[1:] / values[:-1]
        assert np.all(np.diff(ratios) < 0.0)
        assert np.all(ratios[1:] < np.exp(-0.5))
        assert ratios[-1] < 0.42

    def test_band_limit_guard(self):
        with pytest.raises(ValueError):
            coefficient_decay(9)


class TestInvariantGap:
    @pytest.mark.parametrize("degree", range(1, 13))
    def test_gap_at_least_third_and_matches_oracle(self, degree):
        lower, upper, vec = invariant_gap(degree)
        oracle = np.sqrt(1.0 - legendre_at_zero(degree)[degree] ** 2)
        assert lower <= oracle <= upper
        assert upper - lower <= 1e-13
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
        assert lower >= 1.0 / 3.0

    def test_zonal_vector_defect(self):
        # a vector already invariant under one circle subgroup pays the full
        # defect against the other one
        from circleops.repsim import axis_average_projection

        degree = 2
        grid = build_grid(degree)
        p_u = axis_average_projection(grid, degree, "e1")
        p_ut = axis_average_projection(grid, degree, "e3")
        eigvals, eigvecs = np.linalg.eigh(p_u)
        zonal = eigvecs[:, np.argmax(eigvals)]
        assert np.linalg.norm(zonal - p_u @ zonal) <= 1e-10
        defect = np.linalg.norm(zonal - p_ut @ zonal)
        assert defect >= 1.0 / 3.0
        oracle = np.sqrt(1.0 - legendre_at_zero(degree)[degree] ** 2)
        assert defect == pytest.approx(oracle, abs=1e-10)

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            invariant_gap(0)
