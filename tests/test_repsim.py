"""Tests for the half-density sphere action and its decay quantities."""

import numpy as np
import pytest
from scipy import integrate
from scipy.linalg import expm

from circleops.legendre import legendre_at_zero
from circleops.repsim import (
    BandLimitedFunction,
    assemble_operator,
    build_grid,
    coefficient_decay,
    invariant_gap,
    k_average_matrix,
    k_averaged_operator,
    matrix_coefficient,
    quasi_regular_apply,
)
from circleops.sl3 import length
from circleops.sphere import SphereGrid, degree_of_column


@pytest.fixture(scope="module")
def grid16():
    return build_grid(16, oversample=2)


def random_rotation(rng):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1.0
    return q


def random_unimodular(rng, scale):
    a = rng.normal(size=(3, 3)) * scale
    a -= np.trace(a) / 3.0 * np.eye(3)
    return expm(a)


class TestQuasiRegular:
    def test_identity_fixes_everything(self, grid16):
        rng = np.random.default_rng(1)
        f = BandLimitedFunction(grid16, rng.normal(size=grid16.n_coeff))
        out, leak = quasi_regular_apply(np.eye(3), f)
        np.testing.assert_allclose(out.coeffs, f.coeffs, atol=1e-10)
        assert leak <= 1e-12

    def test_rotations_act_exactly(self, grid16):
        rng = np.random.default_rng(2)
        rot = random_rotation(rng)
        f = BandLimitedFunction(grid16, rng.normal(size=grid16.n_coeff))
        out, leak = quasi_regular_apply(rot, f)
        assert leak <= 1e-10
        assert out.norm() == pytest.approx(f.norm(), abs=1e-8)
        # compare with direct rotation of samples
        direct = grid16.synthesize(f.coeffs, points=grid16.nodes @ rot)
        np.testing.assert_allclose(out.samples(), direct, atol=1e-8)

    def test_degree_one_norm_at_band_32(self):
        grid = build_grid(32, oversample=2)
        f = BandLimitedFunction(grid, np.zeros(grid.n_coeff))
        f.coeffs[1] = 1.0  # the z-zonal degree-1 harmonic
        out, leak = quasi_regular_apply(np.diag([np.e, 1.0, 1.0 / np.e]), f)
        assert abs(out.norm() - 1.0) <= 1e-4  # leakage-dominated at this band limit
        assert leak <= 1e-3

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
            f = BandLimitedFunction(grid16, coeffs / np.linalg.norm(coeffs))
            hf, leak_h = quasi_regular_apply(h, f)
            ghf, leak_gh = quasi_regular_apply(g, hf)
            direct, leak_d = quasi_regular_apply(g @ h, f)
            err = np.linalg.norm(ghf.coeffs - direct.coeffs)
            budget = sum(np.sqrt(max(v, 0.0)) for v in (leak_h, leak_gh, leak_d))
            assert err <= budget + 1e-8
            checked += 1


class TestOperators:
    def test_rotation_operator_is_orthogonal(self, grid16):
        rot = random_rotation(np.random.default_rng(3))
        sample = assemble_operator(rot, grid16)
        m = sample.matrix
        assert np.abs(m.T @ m - np.eye(grid16.n_coeff)).max() <= 1e-6
        assert sample.leakage <= 1e-10

    def test_k_average_is_projection_onto_constants(self, grid16):
        avg = k_average_matrix(grid16)
        e0 = np.zeros(grid16.n_coeff)
        e0[0] = 1.0
        assert np.abs(avg - np.outer(e0, e0)).max() <= 1e-6

    def test_k_average_quadrature_guard(self, grid16):
        with pytest.raises(ValueError):
            k_average_matrix(grid16, k_quadrature=4)

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
        grid = build_grid(16, oversample=4)
        op = assemble_operator(np.diag([np.exp(2), 1.0, np.exp(-2)]), grid)
        grid_value = float(op.matrix[0, 0])
        assert grid_value == pytest.approx(matrix_coefficient(2), rel=0.05)


def _matrix_coefficient_fresh_rule(n: float, inner_nodes: int) -> float:
    """Reference c(n) that builds its Gauss-Legendre rule afresh on every integrand call."""
    a2, b2 = np.exp(-2.0 * n), np.exp(2.0 * n)

    def profile(z):
        xs, ws = np.polynomial.legendre.leggauss(inner_nodes)
        w_upper = np.arcsinh(z)
        half = 0.5 * w_upper
        pts = half[..., None] * (xs + 1.0)
        return half * np.sum(ws * np.cosh(pts) ** -0.5, axis=-1)

    def inner(phi):
        c = a2 * np.cos(phi) ** 2 + np.sin(phi) ** 2
        d = b2 - c
        return 2.0 * c**-0.25 * d**-0.5 * float(profile(np.array(d / c) ** 0.5))

    val, _ = integrate.quad(inner, 0.0, np.pi / 2.0, limit=400, epsabs=1e-13, epsrel=1e-12)
    return val / np.pi


class TestDecay:
    @pytest.mark.parametrize("inner_nodes", [96, 192])
    def test_cached_rule_is_bit_identical(self, inner_nodes):
        for n in range(1, 7):
            want = _matrix_coefficient_fresh_rule(n, inner_nodes)
            assert matrix_coefficient(n, inner_nodes=inner_nodes) == want

    def test_unit_at_identity(self):
        assert matrix_coefficient(0) == 1.0

    def test_independent_fine_grid_oracle(self):
        # plain tensor quadrature resolves the integrand for n <= 2
        grid = SphereGrid.build(32, lat_oversample=8, lon_oversample=8)
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
        grid = SphereGrid.build(degree, lat_oversample=2, lon_oversample=2)
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
