"""Tests for the half-density sphere action and its decay quantities."""

import mpmath
import numpy as np
import pytest
from scipy import integrate
from scipy.linalg import expm

from circleops import repsim
from circleops.errors import NumericalDegeneracyError
from circleops.legendre import gauss_rule, legendre_at_zero, legendre_table
from circleops.repsim import (
    assemble_operator,
    build_grid,
    certified_gaps,
    coefficient_decay,
    invariant_gap,
    matrix_coefficient,
)
from circleops.sl3 import kak
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
        matrix, leakage = assemble_operator(np.eye(3), grid16)
        np.testing.assert_allclose(matrix @ f, f, atol=1e-10)
        assert leakage <= 1e-12

    def test_rotations_act_exactly(self, grid16):
        rng = np.random.default_rng(2)
        rot = random_rotation(rng)
        f = rng.normal(size=grid16.n_coeff)
        matrix, leakage = assemble_operator(rot, grid16)
        out = matrix @ f
        assert leakage <= 1e-10
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(f), abs=1e-8)
        # compare with direct rotation of samples
        direct = grid16.synthesize(f, points=grid16.nodes @ rot)
        np.testing.assert_allclose(grid16.synthesize(out), direct, atol=1e-8)

    def test_degree_one_norm_at_band_32(self):
        grid = build_grid(32)
        matrix, _ = assemble_operator(np.diag([np.e, 1.0, 1.0 / np.e]), grid)
        e1 = np.zeros(grid.n_coeff)
        e1[1] = 1.0  # the z-zonal degree-1 harmonic
        out = matrix @ e1
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-4  # leakage-dominated at this band limit
        assert per_vector_leakage(e1, out) <= 1e-3

    def test_group_law_up_to_leakage(self, grid16):
        rng = np.random.default_rng(42)
        deg = degree_of_column(16)
        checked = 0
        while checked < 20:
            g = random_unimodular(rng, 0.2)
            h = random_unimodular(rng, 0.2)
            if max(kak(g).a.ell(), kak(h).a.ell()) > 0.5:
                continue
            coeffs = rng.normal(size=grid16.n_coeff)
            coeffs[deg > 8] = 0.0
            f = coeffs / np.linalg.norm(coeffs)
            m_g, m_h, m_gh = (assemble_operator(a, grid16)[0] for a in (g, h, g @ h))
            hf = m_h @ f
            ghf = m_g @ hf
            direct = m_gh @ f
            err = np.linalg.norm(ghf - direct)
            # each image's own leakage: assemble_operator's leakage is the worst over all columns
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
        m, leakage = assemble_operator(rot, grid16)
        assert np.abs(m.T @ m - np.eye(grid16.n_coeff)).max() <= 1e-6
        assert leakage <= 1e-10

    def test_k_average_is_projection_onto_constants(self):
        g = np.diag([np.e, 1.0, 1.0 / np.e])
        for band in (8, 16, 32):
            grid = build_grid(band)
            e0 = np.zeros(grid.n_coeff)
            e0[0] = 1.0
            proj = _euler_k_average(grid)
            assert np.abs(proj - np.outer(e0, e0)).max() <= 1e-13
            op, _ = assemble_operator(g, grid)
            assert np.abs(proj @ op @ proj - op[0, 0] * np.outer(e0, e0)).max() <= 1e-12

    def test_averaged_identity_projects(self, grid16):
        proj = _euler_k_average(grid16)
        op, _ = assemble_operator(np.eye(3), grid16)
        svals = np.linalg.svd(proj @ op @ proj, compute_uv=False)
        assert svals[0] == pytest.approx(1.0, abs=1e-6)
        assert svals[1] <= 1e-6

    def test_averaged_operators_rank_one_and_decreasing(self, grid16):
        proj = _euler_k_average(grid16)
        norms = []
        for n in range(1, 7):
            op, _ = assemble_operator(np.diag([np.exp(n), 1.0, np.exp(-n)]), grid16)
            svals = np.linalg.svd(proj @ op @ proj, compute_uv=False)
            assert svals[1] <= 1e-6  # K-invariants on the sphere are the constants
            assert svals[0] == pytest.approx(op[0, 0], rel=1e-12)
            norms.append(svals[0])
        assert np.all(np.diff(norms) < 0.0)

    def test_grid_value_matches_exact_coefficient_at_small_n(self, grid16):
        e0 = np.zeros(grid16.n_coeff)
        e0[0] = 1.0
        for n, tol in ((0, 1e-10), (1, 1e-3)):
            op, _ = assemble_operator(np.diag([np.exp(n), 1.0, np.exp(-n)]), grid16)
            grid_value = float(e0 @ op @ e0)
            assert grid_value == pytest.approx(matrix_coefficient(n), rel=tol)

    def test_grid_value_at_n2_with_oversampling(self):
        grid = SphereGrid.build(16, oversample=4)
        op, _ = assemble_operator(np.diag([np.exp(2), 1.0, np.exp(-2)]), grid)
        grid_value = float(op[0, 0])
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

    @pytest.mark.parametrize("n", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_n(self, n):
        with pytest.raises(ValueError, match="n must be finite"):
            matrix_coefficient(n)

    @pytest.mark.parametrize("n", [177.4, repsim._N_MAX, -repsim._N_MAX])
    def test_finite_up_to_the_overflow_limit(self, n):
        # filterwarnings = error turns any overflow into a failure
        value = matrix_coefficient(n)
        assert 0.0 < value < np.exp(-abs(n) / 2.0)

    @pytest.mark.parametrize("n", [np.nextafter(repsim._N_MAX, np.inf), 177.45, -177.45, 400.0])
    def test_rejects_n_past_the_overflow_limit(self, n):
        # beyond log(DBL_MAX) / 4 the ratio d / c = e^(4n) - 1 at s = 0 overflows to inf
        with pytest.raises(ValueError, match="177.4457"):
            matrix_coefficient(n)

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
        rows, held = coefficient_decay(6)
        assert held and rows.shape == (7, 4)
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

    def test_measured_range_edges(self):
        # the quadrature was measured for n <= 36: 36 runs and holds, 37 is refused
        rows, held = coefficient_decay(36)
        assert held and rows.shape == (37, 4) and rows[:, 3].max() <= 1e-13
        with pytest.raises(ValueError, match="36"):
            coefficient_decay(37)

    def test_nan_coefficient_aborts(self, monkeypatch):
        # every comparison with NaN is false, so each check must fail unless its condition holds
        exact = repsim.matrix_coefficient
        monkeypatch.setattr(
            repsim, "matrix_coefficient", lambda n, inner_nodes: np.nan if n == 3 else exact(n, inner_nodes)
        )
        with pytest.raises(NumericalDegeneracyError, match="coefficient_leakage"):
            coefficient_decay(6)


# The quarter turn about e2, taking e3 to e1.
QUARTER_TURN_E2 = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])


def rotation_block(grid, degree, rot):
    """The rotation action on the degree-j harmonics: the degree-j block of assemble_operator."""
    cols = slice(degree * degree, (degree + 1) ** 2)
    return assemble_operator(rot, grid)[0][cols, cols]


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
        degree = 2
        grid = build_grid(degree)
        zonal = np.zeros(2 * degree + 1)
        zonal[0] = 1.0
        for angle in (0.3, 1.0, 2.5):
            c, s = np.cos(angle), np.sin(angle)
            about_e3 = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
            assert np.abs(rotation_block(grid, degree, about_e3) @ zonal - zonal).max() <= 1e-12
        # the e1 line: the zonal harmonic turned by the quarter turn about e2
        w = rotation_block(grid, degree, QUARTER_TURN_E2)[:, 0]
        w /= np.linalg.norm(w)
        defect = np.linalg.norm(zonal - (w @ zonal) * w)
        assert defect >= 1.0 / 3.0
        oracle = np.sqrt(1.0 - legendre_at_zero(degree)[degree] ** 2)
        assert defect == pytest.approx(oracle, abs=1e-10)

    @pytest.mark.parametrize("degree", range(1, 25))
    def test_block_allowance_encloses_50_digits_within_the_full_gram_allowance(self, degree):
        # the allowance takes the Gram defect of the degree-j columns only, a diagonal block
        # of grid.gram_defect(): the interval may only shrink against the full-Gram one
        lower, upper, _ = invariant_gap(degree)
        with mpmath.workdps(50):
            exact = mpmath.sqrt(1 - mpmath.legendre(degree, 0) ** 2)
            assert mpmath.mpf(lower) <= exact <= mpmath.mpf(upper)
        grid = build_grid(degree)
        w = rotation_block(grid, degree, QUARTER_TURN_E2)[:, 0]
        norm = np.linalg.norm(w)
        c = w[0] / norm
        full = abs(norm - 1.0) + grid.gram_defect()
        assert lower >= np.sqrt(1.0 - c * c) - full
        assert upper <= np.linalg.norm(np.eye(2 * degree + 1)[0] - c * w / norm) + full

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            invariant_gap(0)

    @pytest.mark.parametrize("j_max", [0, -1])
    def test_empty_run_is_refused(self, j_max):
        # no degree would be checked, so ([], True) would certify nothing
        with pytest.raises(ValueError, match="j_max must be >= 1"):
            certified_gaps(j_max)
