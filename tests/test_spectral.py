"""Tests for the diagonal spectral model and its norm/decay estimates."""

import mpmath
import numpy as np
import pytest

from circleops.legendre import legendre_at_zero, legendre_table
from circleops.spectral import (
    SpectralOperator,
    _lerch_abel_plana,
    diff_power_sums,
    diff_power_windows,
    divergence_probe_p4,
    fit_decay,
    op_norm_diff,
    op_norm_diff_certificate,
    schatten_norm_diff,
    schatten_tail_bound,
    schatten_tail_estimate,
    stabilized_norm,
)


def _brute_power_sum(delta, p, nmax):
    """Independent route: numpy legval per degree, plain python accumulation."""
    total = 0.0
    zeros = legendre_at_zero(nmax)
    for n in range(nmax + 1):
        coeffs = np.zeros(n + 1)
        coeffs[n] = 1.0
        pn = np.polynomial.legendre.legval(delta, coeffs)
        total += (2 * n + 1) * abs(pn - zeros[n]) ** p
    return total ** (1.0 / p)


class TestSpectralOperator:
    def test_invariants(self):
        op = SpectralOperator(delta=0.42, truncation=60)
        ev = op.eigenvalues()
        assert ev[0] == 1.0
        assert np.all(np.abs(ev) <= 1.0 + 1e-12)
        assert op.multiplicity(7) == 15
        assert np.all(op.multiplicities() == 2 * np.arange(61) + 1)

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            SpectralOperator(delta=1.5, truncation=10)


class TestOpNormDiff:
    def test_zero_delta(self):
        assert op_norm_diff(0.0, 100) == 0.0

    def test_delta_one_is_three_halves(self):
        # P_2(0) = -1/2, P_2(1) = 1: defect 3/2 dominates every degree
        for n in (2, 5, 50):
            assert op_norm_diff(1.0, n) == pytest.approx(1.5, abs=1e-15)

    def test_rejects_delta_outside_interval(self):
        # the defect pass checks delta: beyond 1e-12 of rounding it is an error
        for delta in (1.5, -1.0 - 1e-9):
            with pytest.raises(ValueError):
                op_norm_diff_certificate(delta, 10)
            for p in (5.0, np.inf):
                with pytest.raises(ValueError):
                    schatten_norm_diff(delta, p, 10)
        assert op_norm_diff(1.0 + 5e-13, 10) == op_norm_diff(1.0, 10)

    def test_holder_bound_example(self):
        assert op_norm_diff(0.04, 500) <= 4.0 * np.sqrt(0.04)

    def test_head_nondecreasing_and_capped(self):
        for delta in (0.03, 0.2, 0.77, -0.5):
            heads = [op_norm_diff_certificate(delta, n).head for n in (2, 4, 8, 64, 256)]
            assert np.all(np.diff(heads) >= -1e-15)
            assert all(op_norm_diff(delta, n) <= 2.0 for n in (2, 8, 256))

    def test_certified_value_monotone_once_head_dominates(self):
        delta = 0.3
        certs = [op_norm_diff_certificate(delta, n) for n in (64, 128, 256, 512)]
        assert all(c.head_dominates for c in certs)
        vals = [c.value for c in certs]
        assert np.all(np.diff(vals) >= -1e-15)

    def test_tail_reported_when_dominating(self):
        cert = op_norm_diff_certificate(1e-6, 2)
        assert not cert.head_dominates
        assert cert.value == cert.tail_bound


class TestSchattenNormDiff:
    def test_zero(self):
        assert schatten_norm_diff(0.0, 5.0, 64) == 0.0

    def test_infinity_matches_op_norm(self):
        assert schatten_norm_diff(0.3, np.inf, 500) == op_norm_diff(0.3, 500)

    def test_matches_brute_force(self):
        for delta, p in ((0.25, 5.0), (-0.6, 4.5), (0.9, 8.0)):
            got = schatten_norm_diff(delta, p, 40)
            expected = _brute_power_sum(delta, p, 40)
            assert got == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_truncation(self):
        vals = [schatten_norm_diff(0.3, 6.0, n) for n in (8, 16, 64, 256, 1024)]
        assert np.all(np.diff(vals) >= 0.0)

    def test_contractive_inclusion_in_p(self):
        # it is harder to be summable at smaller p: norms decrease as p grows
        for delta in (0.1, 0.45):
            vals = [schatten_norm_diff(delta, p, 512) for p in (4.5, 5.0, 6.0, 8.0, 12.0)]
            assert np.all(np.diff(vals) <= 1e-12)

    def test_stabilization_example_p5(self):
        value, rel, _ = stabilized_norm(0.25, 5.0, n_start=1024, n_max=2**15)
        # the limit exists (p > 4); successive changes must shrink
        assert np.all(np.diff(rel) < 0.0)
        fit = fit_decay(5.0, [2.0**-k for k in range(1, 11)], n_max=2**14)
        assert value <= fit.envelope_constant * 0.25 ** fit.theory_exponent * (1 + 1e-12)

    def test_tail_bound_dominates_window(self):
        # the closed-form tail bound must dominate the measured window mass
        delta, p, n = 0.3, 5.0, 2048
        s_n, s_2n = diff_power_sums([delta], [p], [n, 2 * n])[0, 0, :] ** p
        assert s_2n - s_n <= schatten_tail_bound(delta, p, n)

    def test_tail_bound_infinite_at_unit_delta(self):
        # at |delta| = 1 the terms (2n+1)|P_n(delta) - P_n(0)|^p grow like 2n+1 on odd n
        for delta in (1.0, -1.0):
            assert diff_power_windows([delta], [5.0], [1024, 2048])[0, 0, 1] > 3e6
            assert schatten_tail_bound(delta, 5.0, 1024) == np.inf

    def test_windows_summed_on_their_own_across_blocks(self):
        # one delta and the 0.0 abscissa make blocks of 2^15 rows: the windows cross
        # block edges, and a repeated checkpoint closes an empty window
        delta, p, checkpoints = 0.3, 6.0, [1000, 40000, 40000, 70000]
        n = np.arange(70001)
        terms = (2 * n + 1) * np.abs(legendre_table(70000, delta) - legendre_at_zero(70000)) ** p
        want = [terms[1:1001].sum(), terms[1001:40001].sum(), 0.0, terms[40001:].sum()]
        windows = diff_power_windows([delta], [p], checkpoints)[0, 0]
        np.testing.assert_allclose(windows, want, rtol=1e-12, atol=0)
        sums = diff_power_sums([delta], [p], checkpoints)[0, 0]
        np.testing.assert_allclose(sums, np.cumsum(want) ** (1 / p), rtol=1e-12, atol=0)


class TestSchattenTailEstimate:
    N = 4096

    @pytest.mark.parametrize("delta", [0.5, 2.0**-10, -0.6, 0.9, -0.97])
    def test_window_mass_matches_recurrence(self, delta):
        # 1/2 hits an exact resonance, 2^-10 beats slowly, the rest are generic
        n = np.arange(2 * self.N + 1)
        defects = np.abs(legendre_table(2 * self.N, delta) - legendre_at_zero(2 * self.N))
        for p in (4.5, 6.0, 8.0):
            window = np.sum(((2 * n + 1) * defects**p)[self.N + 1 :])
            predicted = schatten_tail_estimate(delta, p, self.N) - schatten_tail_estimate(
                delta, p, 2 * self.N
            )
            assert predicted == pytest.approx(window, rel=1e-6)

    def test_between_zero_and_bound(self):
        for delta in (0.5, 2.0**-10, -0.6, 0.9, -0.97):
            for p in (4.5, 5.0, 6.0, 8.0):
                for n in (1024, 2**18):
                    tail = schatten_tail_estimate(delta, p, n)
                    assert 0.0 <= tail <= schatten_tail_bound(delta, p, n)

    def test_moves_off_resonance_as_power_law(self):
        # A hair off delta = 1/2 the tail moves by C h^(p/2 - 2), from degrees up to
        # about 1/h; treating such a delta as resonant would freeze the move.
        for p in (4.5, 5.0):
            base = schatten_tail_estimate(0.5, p, self.N)
            moves = [schatten_tail_estimate(0.5 + h, p, self.N) - base for h in (1e-11, 1e-12)]
            assert moves[0] / moves[1] == pytest.approx(10 ** (p / 2 - 2), rel=1e-3)

    @pytest.mark.parametrize("alpha", [1e-11, 1e-3, 0.3, -0.7, 3.1])
    def test_lerch_sums_match_mpmath(self, alpha):
        # every mode off resonance is summed by Abel-Plana, |alpha| a from 6e-10 to 1e5
        sigmas = np.array([1.25, 2.25, 3.25])
        for a in (64.4375, 32768.9375):
            got = _lerch_abel_plana(np.full(3, alpha), np.eye(3), sigmas, a)
            with mpmath.workdps(30):
                want = [complex(mpmath.lerchphi(mpmath.expj(alpha), s, a)) for s in sigmas]
            assert np.allclose(got, want, rtol=1e-12, atol=0.0)

    def test_zero_delta(self):
        assert schatten_tail_estimate(0.0, 5.0, 1024) == 0.0

    def test_rejects_p_at_most_four(self):
        for p in (4.0, 3.0):
            with pytest.raises(ValueError):
                schatten_tail_estimate(0.3, p, 1024)


class TestFitDecay:
    GRID = [2.0**-k for k in range(1, 11)]

    def test_sup_norm_exponent(self):
        fit = fit_decay(np.inf, self.GRID, n_max=2**13)
        assert fit.exponent >= 0.45

    def test_p8_exponent(self):
        fit = fit_decay(8.0, self.GRID, n_max=2**14)
        assert fit.exponent >= 0.5 - 2.0 / 8.0 - 0.05

    def test_p45_exponent(self):
        fit = fit_decay(4.5, self.GRID, n_max=2**14)
        assert fit.exponent >= 0.5 - 4.0 / 9.0 - 0.05

    def test_degenerate_grid_rejected(self):
        with pytest.raises(ValueError):
            fit_decay(8.0, [0.25, 0.25, 0.25])


class TestDivergenceProbe:
    def test_first_partial_sum_is_one(self):
        # only the n = 0 eigenvalue contributes at truncation zero
        assert divergence_probe_p4(0.0, [0])[0] == 1.0

    def test_growth_at_delta_03(self):
        sums = divergence_probe_p4(0.3, [2**k for k in range(8, 13)])
        assert np.all(np.diff(sums) > 0.0)
        increments = np.diff(sums)
        assert increments.min() >= 0.25 * increments.max()

    def test_growth_at_delta_099(self):
        sums = divergence_probe_p4(0.99, [2**k for k in range(8, 13)])
        assert np.all(np.diff(sums) > 0.0)

    def test_rejects_unit_delta(self):
        with pytest.raises(ValueError):
            divergence_probe_p4(1.0, [16])
        with pytest.raises(ValueError):
            divergence_probe_p4([0.3, -1.0], [16])

    def test_delta_grid_in_one_pass(self):
        ns = [2**k for k in range(8, 13)]
        sums = divergence_probe_p4([0.3, 0.99], ns)
        assert sums.shape == (2, len(ns))
        assert divergence_probe_p4(0.3, ns).shape == (len(ns),)
        for row, delta in zip(sums, (0.3, 0.99)):
            np.testing.assert_allclose(row, divergence_probe_p4(delta, ns), rtol=1e-13)
