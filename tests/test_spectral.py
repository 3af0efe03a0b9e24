"""Tests for the diagonal spectral model and its norm/decay estimates."""

import dataclasses
import math
import warnings

import mpmath
import numpy as np
import pytest

from circleops.legendre import bernstein_envelope, legendre_at_zero, legendre_table
from circleops.spectral import (
    SchattenDecay,
    SpectralOperator,
    _lerch_abel_plana,
    _power_windows,
    completed_power_sums,
    diff_power_sums,
    diff_power_windows,
    divergence_probe_p4,
    op_norm_diff_certificates,
    probe_growth,
    schatten_decay,
    schatten_tail_bound,
    schatten_tail_estimate,
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
        assert np.all(op.multiplicities() == 2 * np.arange(61) + 1)

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            SpectralOperator(delta=1.5, truncation=10)


def op_norm_diff(delta, truncation):
    heads, tails = op_norm_diff_certificates([delta], truncation)
    return max(heads[0], tails[0])


def scalar_tail_bound(delta, truncation):
    """One delta's tail bound: sup_{n>N} |P_n(0)| plus Bernstein's envelope at N + 1
    (1 at |delta| = 1), capped at 2."""
    if delta == 0.0:
        return 0.0
    m = truncation + 1 if truncation % 2 else truncation + 2  # |P_m(0)| bounds |P_n(0)|, n > N
    zero_part = abs(float(legendre_at_zero(m)[m]))
    delta_part = 1.0 if 1.0 - delta * delta < 1e-12 else float(bernstein_envelope(truncation + 1, delta))
    return min(zero_part + delta_part, 2.0)


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
                op_norm_diff_certificates([0.5, delta], 10)
            with pytest.raises(ValueError):
                diff_power_sums([delta], [5.0], [10])
        assert op_norm_diff(1.0 + 5e-13, 10) == op_norm_diff(1.0, 10)

    def test_holder_bound_example(self):
        assert op_norm_diff(0.04, 500) <= 4.0 * np.sqrt(0.04)

    def test_head_nondecreasing_and_capped(self):
        for delta in (0.03, 0.2, 0.77, -0.5):
            heads = [op_norm_diff_certificates([delta], n)[0][0] for n in (2, 4, 8, 64, 256)]
            assert np.all(np.diff(heads) >= -1e-15)
            assert all(op_norm_diff(delta, n) <= 2.0 for n in (2, 8, 256))

    def test_certified_value_monotone_once_head_dominates(self):
        delta = 0.3
        certs = [op_norm_diff_certificates([delta], n) for n in (64, 128, 256, 512)]
        assert all(head[0] >= tail[0] for head, tail in certs)
        vals = [max(head[0], tail[0]) for head, tail in certs]
        assert np.all(np.diff(vals) >= -1e-15)

    def test_grid_matches_one_delta_at_a_time(self):
        deltas = [-1.0, -0.5, 0.0, 1e-6, 0.04, 0.3, 0.77, 1.0]
        for n in (2, 3, 64, 257):
            heads, tails = op_norm_diff_certificates(deltas, n)
            one_at_a_time = [op_norm_diff_certificates([d], n) for d in deltas]
            assert heads.tolist() == [head[0] for head, _ in one_at_a_time]
            assert tails.tolist() == [tail[0] for _, tail in one_at_a_time]

    @pytest.mark.parametrize("truncation", [0, 1, 2, 3, 64, 257])
    def test_tail_bounds_match_the_scalar_oracle(self, truncation):
        deltas = [-1.0, -1.0 + 1e-13, -0.5, -1e-300, 0.0, 1e-300, 1e-6, 0.3, 1.0 - 1e-13, 1.0]
        _, tails = op_norm_diff_certificates(deltas, truncation)
        assert tails.tolist() == [scalar_tail_bound(d, truncation) for d in deltas]

    @pytest.mark.parametrize("truncation", [0, 1])
    def test_lowest_truncations_bound_the_exact_sup(self, truncation):
        deltas = np.linspace(-1.0, 1.0, 41)
        defects = legendre_table(4000, deltas) - legendre_at_zero(4000)[:, None]
        exact = np.abs(defects).max(axis=0)  # sup over n <= 4000
        heads, tails = op_norm_diff_certificates(deltas, truncation)
        # the head is sup_{n<=N}: 0 at N = 0, |P_1(delta)| = |delta| at N = 1
        assert heads.tolist() == (truncation * np.abs(deltas)).tolist()
        assert np.all(np.maximum(heads, tails) >= exact)
        with pytest.raises(ValueError):
            op_norm_diff_certificates(deltas, -1)

    def test_tail_reported_when_dominating(self):
        (head,), (tail,) = op_norm_diff_certificates([1e-6], 2)
        assert head < tail
        assert op_norm_diff(1e-6, 2) == tail


class TestSchattenNormDiff:
    def test_zero(self):
        assert diff_power_sums([0.0], [5.0], [64])[0, 0, 0] == 0.0

    def test_matches_brute_force(self):
        for delta, p in ((0.25, 5.0), (-0.6, 4.5), (0.9, 8.0)):
            got = diff_power_sums([delta], [p], [40])[0, 0, 0]
            expected = _brute_power_sum(delta, p, 40)
            assert got == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_truncation(self):
        vals = [diff_power_sums([0.3], [6.0], [n])[0, 0, 0] for n in (8, 16, 64, 256, 1024)]
        assert np.all(np.diff(vals) >= 0.0)

    def test_contractive_inclusion_in_p(self):
        # it is harder to be summable at smaller p: norms decrease as p grows
        for delta in (0.1, 0.45):
            vals = [diff_power_sums([delta], [p], [512])[0, 0, 0] for p in (4.5, 5.0, 6.0, 8.0, 12.0)]
            assert np.all(np.diff(vals) <= 1e-12)

    def test_completed_norms_stabilize_p5(self):
        delta, p = 0.25, 5.0
        checkpoints = [2**k for k in range(10, 16)]
        windows, tails, norms = completed_power_sums([delta], [p], checkpoints)
        sums, norms = np.cumsum(windows[0, 0]), norms[0, 0]
        partial = sums ** (1 / p)
        # the limit exists (p > 4): raw doubling changes shrink, completed ones vanish
        raw_change = np.abs(np.diff(partial)) / partial[1:]
        assert np.all(np.diff(raw_change) < 0.0)
        assert np.all(np.abs(np.diff(norms)) / norms[1:] < 1e-6)
        bounds = np.array([schatten_tail_bound(delta, p, n) for n in checkpoints])
        assert np.all(partial <= norms) and np.all(norms <= (sums + bounds) ** (1 / p))
        assert np.array_equal(tails[0, 0], [schatten_tail_estimate(delta, p, n) for n in checkpoints])
        fit = fit_decay(p, [2.0**-k for k in range(1, 11)], n_max=2**14)
        assert partial[-1] <= fit.envelope_constant * delta ** fit.theory_exponent * (1 + 1e-12)

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

    @pytest.mark.parametrize("delta", [np.nan, 1.5, -3.0, 1.0 + 1e-9])
    def test_tail_bound_rejects_bad_delta(self, delta):
        with pytest.raises(ValueError):
            schatten_tail_bound(delta, 5.0, 1024)

    def test_tail_bound_matches_its_closed_form(self):
        # amp = sqrt(2/pi) (1 + sin(theta)^(-1/2)), summed in another order: a few ulps apart
        for delta in (0.5, -0.3, 2.0**-10, 0.99, 1.0 - 1e-13):
            for p, n in ((4.5, 2**18), (5.0, 1024), (8.0, 64)):
                amp = np.sqrt(2.0 / np.pi) * (1.0 + np.sqrt(1.0 - delta * delta) ** -0.5)
                want = 3.0 * amp**p * n ** (2.0 - p / 2.0) / (p / 2.0 - 2.0)
                assert schatten_tail_bound(delta, p, n) == pytest.approx(want, rel=8 * p * 2.0**-52)

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

    def test_windows_of_hand_split_blocks_match_fsum(self):
        # uneven blocks; checkpoint 12 ends inside a block, 19 on a block's last row
        # (then again, an empty window), 20 closes a one-row block
        deltas, ps, checkpoints = [-0.7, 0.05, 0.9], np.array([4.5, 6.0]), [12, 19, 19, 20, 60]
        table = legendre_table(60, np.array(deltas))
        blocks = [table[:7], table[7:20], table[20:21], table[21:]]
        windows = _power_windows(iter(blocks), ps, checkpoints)
        assert windows.shape == (2, 3, 5)
        edges = [-1, *checkpoints]
        for i, p in enumerate(ps):
            for j in range(len(deltas)):
                want = [
                    math.fsum((2 * n + 1) * abs(table[n, j]) ** p for n in range(lo + 1, hi + 1))
                    for lo, hi in zip(edges, edges[1:])
                ]
                np.testing.assert_allclose(windows[i, j], want, rtol=1e-13, atol=0)
        assert np.all(windows[..., 2] == 0.0)

    @pytest.mark.parametrize("n_max", [2**14, 2**18])
    def test_window_masses_barely_depend_on_the_other_deltas(self, n_max):
        # BLAS sums a window in an order set by the block's layout and a column's position, so a
        # delta's mass moves with the other deltas of its run: up to 1.4e-14 relative at 2^14
        # (row loop) and 2.9e-15 at 2^18 (banded, contiguous columns) on these sub-grids
        grid = np.array([2.0**-k for k in range(1, 11)])  # criterion 2's deltas
        ps, checkpoints = [4.5, 5.0, 6.0, 8.0], [n_max // 2, n_max]
        full = diff_power_windows(grid, ps, checkpoints)
        for columns in (slice(None, None, -1), slice(0, 5), slice(5, None), slice(0, None, 2), slice(0, 3)):
            windows = diff_power_windows(grid[columns], ps, checkpoints)
            np.testing.assert_allclose(windows, full[:, columns], rtol=2e-14, atol=0)


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


def fit_decay(p, grid, n_max):
    """The fit of a one-p schatten_decay run."""
    (decay,) = schatten_decay([p], grid, n_max)
    return decay.fit


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
            fit_decay(8.0, [0.25, 0.25, 0.25], n_max=2**10)

    @pytest.mark.parametrize(
        "ps, n_max, message",
        [([8.0, np.inf], 2**10, "cannot share"), ([4.0, 8.0], 2**10, "infinite"), ([np.nan], 2**10, "infinite"),
         ([8.0], 1, "n_max must be at least 2"), ([np.inf], 0, "n_max must be at least 2")],
        ids=["inf-with-finite", "p-four", "p-nan", "n_max-1", "inf-n_max-0"],
    )
    def test_refused_before_any_pass(self, monkeypatch, ps, n_max, message):
        monkeypatch.setattr("circleops.spectral.completed_power_sums", None)
        monkeypatch.setattr("circleops.spectral.op_norm_diff_certificates", None)
        with pytest.raises(ValueError, match=message):
            schatten_decay(ps, self.GRID, n_max)

    def test_one_pass_gives_each_p_its_own_values(self):
        # a window mass is one dot product per exponent, so a p's values do not depend on the others
        together = schatten_decay([5.0, 8.0], self.GRID, 2**10)
        alone = [schatten_decay([p], self.GRID, 2**10)[0] for p in (5.0, 8.0)]
        assert together == alone

    def test_clauses_at_the_default_run(self):
        (decay,) = schatten_decay([8.0], self.GRID, 2**14)
        assert decay.held() and decay.bracket
        assert decay.doubling_change < 1e-6 and decay.window_error <= 1e-6 < decay.raw_change
        record = decay.record()
        assert record["p"] == 8.0 and record["grid"] == decay.fit.grid and "fit" not in record

    @pytest.mark.parametrize(
        "field, value",
        [("doubling_change", 1e-6), ("doubling_change", np.nan), ("window_error", np.nextafter(1e-6, 1.0)),
         ("window_error", np.nan), ("bracket", False), ("exponent", 0.19), ("exponent", np.nan)],
    )
    def test_each_clause_fails_the_verdict(self, field, value):
        decay = SchattenDecay(8.0, fit_decay(8.0, self.GRID, n_max=2**11), 0.0, 0.5, 0.0, True)
        assert decay.held()
        if field == "exponent":
            decay = dataclasses.replace(decay, fit=dataclasses.replace(decay.fit, exponent=value))
        else:
            decay = dataclasses.replace(decay, **{field: value})
        assert not decay.held()

    def test_nan_tail_fails_every_clause(self, monkeypatch):
        monkeypatch.setattr("circleops.spectral.schatten_tail_estimate", lambda delta, p, truncation: np.nan)
        (decay,) = schatten_decay([8.0], self.GRID, 2**10)
        assert decay.bracket is False and not decay.held()
        assert np.isnan([decay.doubling_change, decay.window_error, decay.fit.exponent]).all()

    def test_meets_theory_at_its_edge(self):
        fit = fit_decay(8.0, self.GRID, n_max=2**10)
        assert fit.meets_theory()
        edge = fit.theory_exponent - 0.05
        assert dataclasses.replace(fit, exponent=edge).meets_theory()
        assert not dataclasses.replace(fit, exponent=np.nextafter(edge, -np.inf)).meets_theory()
        assert not dataclasses.replace(fit, exponent=np.nan).meets_theory()

    @pytest.mark.parametrize("n_max", [2**13 + 1, 11913])
    def test_sup_norm_grid_matches_one_pass_per_delta(self, n_max):
        # one blocked pass over the grid against a one-block pass per delta, bit for bit;
        # 11 abscissae make blocks of 65536 // 11 = 5957 rows, so at 11913 the head
        # (rows 0..11913) ends on a block boundary and row 11914, the first even degree
        # past the head, is a block of its own
        zeros = legendre_at_zero(n_max)
        expected = [
            max(float(np.abs(legendre_table(n_max, d) - zeros).max()), scalar_tail_bound(d, n_max))
            for d in self.GRID[::-1]
        ]
        fit = fit_decay(np.inf, self.GRID, n_max=n_max)
        assert [value for _, value in fit.grid] == expected


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

    @pytest.mark.parametrize(
        "delta, sums, held",
        [(0.3, [0.0, 1.0, 2.4], True), (0.3, [0.0, 1.0, 2.5], False), (0.3, [0.0, 1.0, 1.0], False),
         (0.3, [0.0, -1.0, -2.0], False), (0.3, [0.0, np.nan, 2.0], False),
         (0.0, [0.0, 0.106, 0.212], True), (0.0, [0.0, 0.105, 0.210], False), (0.99, [0.0, 5.3, 10.6], True),
         (0.99, [0.0, 5.2, 10.4], False)],
        ids=["ratio-1.4", "ratio-1.5", "flat", "falling", "nan", "above-floor-0", "below-floor-0",
             "above-floor-0.99", "below-floor-0.99"],
    )
    def test_growth_rule(self, delta, sums, held):
        """Steady growth: every increment at least A(delta)/2 = 3 ln 2 / (2 pi^2 (1 - delta^2)) and
        max/min below 1.5; NaN fails.  A/2 is 0.10536 at delta = 0 and 5.2938 at delta = 0.99."""
        inc, steady = probe_growth(delta, sums)
        assert steady is held and np.array_equal(inc, np.diff(sums), equal_nan=True)

    @pytest.mark.parametrize("delta", [0.01, 0.3, 0.7, 0.99, 0.9999])
    def test_increments_approach_their_closed_form(self, delta):
        """Off the resonant delta = 0, each increment over 2^10..2^16 lies within 6 % of
        A(delta) = 3 ln 2 / (pi^2 (1 - delta^2)), far above probe_growth's floor A/2."""
        inc, steady = probe_growth(delta, divergence_probe_p4(delta, [2**k for k in range(10, 17)]))
        ratio = inc / (3.0 * np.log(2.0) / (np.pi**2 * (1.0 - delta**2)))
        assert steady and np.all(np.abs(ratio - 1.0) <= 0.06)

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

    def test_delta_array_keeps_its_shape(self):
        deltas = np.array([[0.3, -0.5], [0.99, 0.0]])
        ns = [16, 64, 256]
        sums = divergence_probe_p4(deltas, ns)
        assert sums.shape == (2, 2, len(ns))
        assert np.array_equal(sums.reshape(4, -1), divergence_probe_p4(deltas.ravel(), ns))


@pytest.mark.parametrize(
    "call",
    [
        lambda: schatten_tail_bound(0.1, 6.0, -5),
        lambda: schatten_tail_bound(0.1, 6.0, 0),
        lambda: schatten_tail_bound(0.1, np.nan, 10),
        lambda: schatten_tail_estimate(0.1, np.nan, 10),
        lambda: diff_power_windows([0.1], [np.nan], [10]),
        lambda: diff_power_sums([0.1], [np.nan], [10]),
        lambda: completed_power_sums([0.1], [np.nan], [10]),
        lambda: diff_power_windows([0.1], [6.0], []),
        lambda: divergence_probe_p4(0.3, []),
    ],
    ids=[
        "tail-bound-negative-truncation",
        "tail-bound-zero-truncation",
        "tail-bound-nan-p",
        "tail-estimate-nan-p",
        "windows-nan-p",
        "sums-nan-p",
        "completed-nan-p",
        "windows-no-checkpoint",
        "probe-no-degree",
    ],
)
def test_bad_input_raises_value_error(call):
    # a NaN exponent fails every check written "not p > bound", as p <= bound does
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: diff_power_windows([0.3], [np.inf], [10]),
        lambda: diff_power_sums([0.3], [np.inf], [10]),
        lambda: completed_power_sums([0.3], [np.inf], [1024]),
        lambda: schatten_tail_bound(0.3, np.inf, 1024),
        lambda: schatten_tail_estimate(0.3, np.inf, 1024),
    ],
    ids=["windows", "sums", "completed", "tail-bound", "tail-estimate"],
)
def test_finite_p_entry_points_refuse_p_inf_and_name_the_sup_norm_path(call):
    # p = inf once read 1.0 from diff_power_sums and NaN, after RuntimeWarnings, from the tails
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"op_norm_diff_certificates or schatten_decay\(\[inf\]"):
            call()
