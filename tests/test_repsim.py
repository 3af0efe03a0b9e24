"""Tests for the half-density sphere action and its decay quantities."""

import mpmath
import numpy as np
import pytest
from scipy import integrate

from circleops import repsim
from circleops.errors import NumericalDegeneracyError
from circleops.legendre import legendre_at_zero, legendre_table
from circleops.repsim import (
    build_grid,
    certified_gaps,
    coefficient_decay,
    invariant_gap,
    matrix_coefficient,
)
from circleops.sphere import SphereGrid, real_sph_harm_matrix
from test_sphere import gram_defect


EPS = np.finfo(float).eps


@pytest.fixture(scope="module")
def grid16():
    return build_grid(16)


def grid_coefficient(grid, n):
    """<pi(a_n) 1, 1> by the grid's quadrature, a_n = diag(e^n, 1, e^-n): the [0, 0] entry of
    the band-compressed pi(a_n), as P_K pi(a_n) P_K = <pi(a_n) 1, 1> e0 e0^T."""
    r = np.linalg.norm(grid.nodes * np.exp([-n, 0.0, n]), axis=1)  # ||a_n^-1 x||
    return float(grid.weights @ r**-1.5)


def _euler_k_average(grid):
    """Oracle for P_K: the average of the rotation operators by an Euler-angle product rule.

    The equispaced averages over the first and last angles remove every nonzero
    azimuthal order, so only the m = 0 block of the middle-angle average remains;
    Gauss-Legendre in cos(beta) with B + 1 nodes integrates it exactly.
    """
    B = grid.band_limit
    xg, wg = np.polynomial.legendre.leggauss(B + 1)
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
    def test_k_average_is_projection_onto_constants(self):
        for band in (8, 16, 32):
            grid = build_grid(band)
            e0 = np.zeros(grid.n_coeff)
            e0[0] = 1.0
            assert np.abs(_euler_k_average(grid) - np.outer(e0, e0)).max() <= 1e-13

    def test_grid_values_decrease_in_n(self, grid16):
        values = [grid_coefficient(grid16, n) for n in range(1, 7)]
        assert np.all(np.diff(values) < 0.0)

    def test_grid_value_matches_exact_coefficient_at_small_n(self, grid16):
        for n, tol in ((0, 1e-10), (1, 1e-3)):
            assert grid_coefficient(grid16, n) == pytest.approx(matrix_coefficient(n), rel=tol)

    def test_grid_value_at_n2_with_oversampling(self):
        grid = SphereGrid.build(16, oversample=4)
        assert grid_coefficient(grid, 2) == pytest.approx(matrix_coefficient(2), rel=0.05)


def _matrix_coefficient_adaptive(n: float) -> float:
    """Accuracy oracle: adaptive quadrature over the longitude phi in [0, pi/2] of the
    colatitude integral 2 c^(-1/4) d^(-1/2) F(sqrt(d/c)), c = e^-2n cos^2 + sin^2,
    d = e^2n - c, with F(z) = z 2F1(1/2, 3/4; 3/2; -z^2) taken in 40-digit mpmath.
    The breaks e^-n 4^k follow the integrand's ridge of width e^-n at phi = 0."""
    with mpmath.workdps(40):
        a2, b2 = mpmath.exp(-2 * mpmath.mpf(n)), mpmath.exp(2 * mpmath.mpf(n))

        def inner(phi):
            c = a2 * mpmath.cos(phi) ** 2 + mpmath.sin(phi) ** 2
            d = b2 - c
            profile = mpmath.sqrt(d / c) * mpmath.hyp2f1(0.5, 0.75, 1.5, -d / c)
            return float(2 * c**-0.25 / mpmath.sqrt(d) * profile)

        breaks = np.exp(-n) * 4.0 ** np.arange(n + 2)
        val, _ = integrate.quad(
            inner, 0.0, np.pi / 2.0, points=breaks[breaks < np.pi / 2.0], limit=400, epsabs=0.0, epsrel=1e-13
        )
    return val / np.pi


ORACLE_GRID = (0.01, 0.1, 0.5, 1.3, 2.7, 4.4, 6.6, 7.9, 8.0)


class TestDecay:
    def test_matches_adaptive_quadrature(self):
        for n in ORACLE_GRID:
            want = _matrix_coefficient_adaptive(n)
            assert matrix_coefficient(n) == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_doubling_the_steps_changes_nothing(self, monkeypatch):
        base = {n: matrix_coefficient(n) for n in ORACLE_GRID}
        monkeypatch.setattr(repsim, "_TRAPEZOID_STEPS", 2 * repsim._TRAPEZOID_STEPS)
        for n, value in base.items():
            assert matrix_coefficient(n) == pytest.approx(value, rel=1e-15, abs=0.0)

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
        assert held and rows.shape == (37, 4) and rows[:, 3].max() <= 1e-7
        for n in (30, 36):
            assert rows[n, 1] == pytest.approx(_matrix_coefficient_adaptive(n), rel=1e-14, abs=0.0)
        with pytest.raises(ValueError, match="36"):
            coefficient_decay(37)

    def test_decay_evaluates_the_integrand_once_per_degree(self, monkeypatch):
        # each hyp2f1 call is one evaluation of the integrand at every trapezoid node
        import scipy.special

        sizes, exact = [], scipy.special.hyp2f1

        def counted(a, b, c, z):
            sizes.append(np.size(z))
            return exact(a, b, c, z)

        monkeypatch.setattr(scipy.special, "hyp2f1", counted)
        rows, held = coefficient_decay(6)
        assert held and sizes == [repsim._TRAPEZOID_STEPS + 1] * 6  # c(0) = 1 needs no integrand
        assert rows[1:, 1].tolist() == [matrix_coefficient(n) for n in range(1, 7)]

    def test_nan_coefficient_aborts(self, monkeypatch):
        # every comparison with NaN is false, so each check must fail unless its condition holds
        exact = repsim._trapezoid_sums
        monkeypatch.setattr(repsim, "_trapezoid_sums", lambda n: (np.nan, np.nan) if n == 3 else exact(n))
        with pytest.raises(NumericalDegeneracyError, match="coefficient_leakage"):
            coefficient_decay(6)


# The quarter turn about e2, taking e3 to e1.
QUARTER_TURN_E2 = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])


def rotation_block(grid, degree, rot):
    """The rotation action on the degree-j harmonics: the degree-j block of the band-compressed
    pi(rot), in that operator's order of operations (inv(rot).T, the factor r^(-3/2) with r = 1
    up to rounding, the full product, then the slice).  The full-Gram comparison below holds two
    float computations to no allowance, and a block taken on the degree-j columns alone from
    nodes @ rot fails it at degrees 2 and 4."""
    gx = grid.nodes @ np.linalg.inv(rot).T
    r = np.linalg.norm(gx, axis=1)
    images = r[:, None] ** -1.5 * real_sph_harm_matrix(gx / r[:, None], grid.band_limit)
    cols = slice(degree * degree, (degree + 1) ** 2)
    return (grid.basis.T @ (grid.weights[:, None] * images))[cols, cols]


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
        # of the full Gram matrix's: the interval may only shrink against the full-Gram one
        lower, upper, _ = invariant_gap(degree)
        with mpmath.workdps(50):
            exact = mpmath.sqrt(1 - mpmath.legendre(degree, 0) ** 2)
            assert mpmath.mpf(lower) <= exact <= mpmath.mpf(upper)
        grid = build_grid(degree)
        w = rotation_block(grid, degree, QUARTER_TURN_E2)[:, 0]
        norm = np.linalg.norm(w)
        c = w[0] / norm
        full = abs(norm - 1.0) + gram_defect(grid)
        # the block and full Gram products sum the same N-term products in kernel-dependent orders:
        # each computed entry is within gamma_N (|B|^T W |B|)_kl <= gamma_N (1 + full) of its exact
        # value (Higham 2002, eq. 3.5, and Cauchy-Schwarz), so the two maxima keep the exact order
        # (block <= full) to twice that; the two routes' c and ||w|| differ by a few ulps, far less
        n_nodes = grid.nodes.shape[0]
        rounding = 2.0 * n_nodes * EPS / (1.0 - n_nodes * EPS) * (1.0 + full)
        assert lower >= np.sqrt(1.0 - c * c) - full - rounding
        assert upper <= np.linalg.norm(np.eye(2 * degree + 1)[0] - c * w / norm) + full + rounding

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            invariant_gap(0)

    @pytest.mark.parametrize("j_max", [0, -1])
    def test_empty_run_is_refused(self, j_max):
        # no degree would be checked, so ([], True) would certify nothing
        with pytest.raises(ValueError, match="j_max must be an integer >= 1"):
            certified_gaps(j_max)
