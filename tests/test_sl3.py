"""Tests for the 3x3 geometry: KAK, length, slide family, embedding certificates."""

from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circleops import sl3
from circleops.errors import NumericalDegeneracyError
from circleops.sl3 import (
    LambdaPoint,
    d_alpha,
    embedding2_solve,
    in_rotation_group,
    j_alpha,
    kak,
    length,
    solve_delta_for_top,
    x_delta,
)


def _bisect_200(below):
    """Second oracle: 200 halvings of [0, 1] for the edge of below(delta)."""
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _svd_top(gamma, alpha, delta):
    """Top singular value of the (1,2)-block of D_(2g-a) x_delta D_a, by SVD."""
    m = d_alpha(2.0 * gamma - alpha) @ x_delta(delta) @ d_alpha(alpha)
    return np.linalg.svd(m[:2, :2], compute_uv=False)[0]


def _mp_delta(gamma, alpha, top=None, log_top=None):
    """50-digit delta giving block top singular value top (or e^log_top), from the float inputs.

    Written with expm1 so that 50 digits resolve levels down to 1e-200:
    delta^2 = expm1(2(l12 - lt)) expm1(2(l21 - lt)) e^(2 lt + a + b) / (expm1(3a) expm1(3b)).
    """
    with mpmath.workdps(50):
        a, b = mpmath.mpf(alpha), mpmath.mpf(2.0 * gamma - alpha)
        lt = mpmath.log(mpmath.mpf(top)) if log_top is None else mpmath.mpf(log_top)
        l12, l21 = b - a / 2, a - b / 2
        if lt <= max(l12, l21):
            return 0.0
        d2 = mpmath.expm1(2 * (l12 - lt)) * mpmath.expm1(2 * (l21 - lt))
        d2 *= mpmath.exp(2 * lt + a + b) / (mpmath.expm1(3 * a) * mpmath.expm1(3 * b))
        return float(mpmath.sqrt(d2))


class TestClosedFormSolve:
    def test_slide_matches_mpmath(self):
        rng = np.random.default_rng(5)
        for i in range(420):
            alpha = rng.uniform(0.01, 20.0)
            # a third of the targets within 1e-6 of the edge a1 = alpha / 2
            if i % 3 == 0:
                target = alpha / 2 + rng.uniform(0.0, 1e-6)
            else:
                target = rng.uniform(alpha / 2, 2 * alpha)
            got = solve_delta_for_top(alpha, target)
            assert abs(got - _mp_delta(alpha, alpha, log_top=target)) <= 2e-15
            # the float oracle cancels in e^(2 alpha) - e^(-alpha) at small alpha
            assert abs(got - closed_form_slide_delta(alpha, target)) <= 1e-12

    def test_embedding_matches_mpmath(self):
        rng = np.random.default_rng(6)
        for _ in range(120):
            gamma = rng.uniform(0.5, 40.0)
            alpha = rng.uniform(gamma, 7 * gamma / 6)
            cert = embedding2_solve(gamma, alpha)
            for delta, top in ((cert.delta1, np.exp(gamma)), (cert.delta2, np.exp(0.75 * gamma))):
                assert abs(delta - _mp_delta(gamma, alpha, top)) <= 2e-15

    def test_agrees_with_200_halvings(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            alpha = rng.uniform(0.5, 5.0)
            target = rng.uniform(alpha / 2, 2 * alpha)
            want = _bisect_200(lambda d: np.log(_svd_top(alpha, alpha, d)) < target)
            assert abs(solve_delta_for_top(alpha, target) - want) <= 1e-14
            gamma = rng.uniform(0.5, 8.0)
            alpha = rng.uniform(gamma, 7 * gamma / 6)
            cert = embedding2_solve(gamma, alpha)
            for delta, top in ((cert.delta1, np.exp(gamma)), (cert.delta2, np.exp(0.75 * gamma))):
                assert abs(delta - _bisect_200(lambda d: _svd_top(gamma, alpha, d) < top)) <= 1e-14

    @pytest.mark.parametrize("alpha", [1e-200, 1e-100, 250.0, 1000.0])
    def test_extreme_levels_stay_finite(self, alpha):
        # everything is summed in log space, so t^2 / (F1 - F0) ~ 1/alpha^2 at small
        # alpha and e^(3 alpha), delta^2 ~ e^(-alpha) at large alpha stay in range;
        # the logs cancel to O(|log alpha| + alpha) eps, hence the relative tolerance
        for target in (0.6 * alpha, 1.5 * alpha, 2.0 * alpha):
            want = _mp_delta(alpha, alpha, log_top=target)
            assert solve_delta_for_top(alpha, target) == pytest.approx(want, rel=1e-12, abs=2e-15)


class TestDegeneracyChecks:
    @pytest.mark.parametrize("b", [0.0, -0.3])
    def test_nonpositive_gap_raises(self, b):
        # F1 - F0 = e^(-a-b)(e^(3a)-1)(e^(3b)-1) is 0 at b = 0 and negative for b < 0
        alpha = 2.0
        gamma = (alpha + b) / 2.0
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(NumericalDegeneracyError) as err:
                sl3._solve_delta(gamma, alpha, 5.0, 0.0)
        assert err.value.invariant == "block_frobenius_gap"

    def test_unattainable_embedding_target_raises(self):
        gamma = 2.0
        top_at_one = np.exp(2 * gamma)  # largest top singular value, at delta = 1
        delta, *_ = sl3._solve_case(gamma, gamma, np.diag([top_at_one, 1.0, np.exp(-gamma)]))
        assert delta == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(NumericalDegeneracyError) as err:
            sl3._solve_case(gamma, gamma, np.diag([1.01 * top_at_one, 1.0, np.exp(-gamma)]))
        assert err.value.invariant == "embedding_range"


@settings(max_examples=200, deadline=None)
@given(alpha=st.floats(min_value=1e-300, max_value=20.0))  # alpha / 2 exact: no subnormals
def test_slide_edge_is_exact(alpha):
    assert solve_delta_for_top(alpha, alpha / 2) == 0.0
    # no slack on the slide: one ulp above the edge the delta is positive and exact
    above = np.nextafter(alpha / 2, np.inf)
    got = solve_delta_for_top(alpha, above)
    assert got > 0.0 and abs(got - _mp_delta(alpha, alpha, log_top=above)) <= 2e-15


@settings(max_examples=200, deadline=None)
@given(gamma=st.floats(min_value=0.5, max_value=40.0))
def test_embedding_tangent_edge_is_exactly_zero(gamma):
    cert = embedding2_solve(gamma, 7 * gamma / 6)
    assert cert.delta2 == 0.0
    assert np.abs(cert.k2 - ROT90).max() <= 1e-9


ROT90 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


def random_rotation(rng):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1.0
    return q


def closed_form_slide_delta(alpha: float, r: float) -> float:
    """Independent inverse of the slide parametrization, from the invariant
    block: determinant e^alpha and Frobenius norm give
    delta = (e^r - e^(alpha - r)) / (e^(2 alpha) - e^(-alpha))."""
    return (np.exp(r) - np.exp(alpha - r)) / (np.exp(2 * alpha) - np.exp(-alpha))


class TestLength:
    def test_identity(self):
        assert length(np.eye(3)) == 0.0

    def test_diagonal(self):
        assert length(np.diag([np.exp(2.0), 1.0, np.exp(-2.0)])) == pytest.approx(2.0, abs=1e-12)

    def test_d_alpha(self):
        for alpha in (0.3, 1.0, 4.2):
            assert length(d_alpha(alpha)) == pytest.approx(alpha, abs=1e-12)

    def test_bi_invariance_and_inverse(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            g = random_rotation(rng) @ np.diag(np.exp([1.2, 0.3, -1.5])) @ random_rotation(rng)
            k1, k2 = random_rotation(rng), random_rotation(rng)
            l0 = length(g)
            assert length(k1 @ g @ k2) == pytest.approx(l0, abs=1e-9)
            assert length(np.linalg.inv(g)) == pytest.approx(l0, abs=1e-9)

    def test_singularity_guard(self):
        with pytest.raises(ValueError):
            length(2.0 * np.eye(3))


class TestKak:
    def test_identity(self):
        dec = kak(np.eye(3))
        assert dec.a.as_array().tolist() == [0.0, 0.0, 0.0]
        assert dec.residual(np.eye(3)) <= 1e-12

    def test_diagonal(self):
        g = np.diag([np.e, 1.0, 1.0 / np.e])
        dec = kak(g)
        np.testing.assert_allclose(dec.a.as_array(), [1.0, 0.0, -1.0], atol=1e-12)

    def test_construct_then_decompose(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            raw = np.sort(rng.uniform(-2.0, 2.0, size=3))[::-1]
            raw -= raw.mean()
            g = random_rotation(rng) @ np.diag(np.exp(raw)) @ random_rotation(rng)
            dec = kak(g)
            assert dec.residual(g) <= 1e-9
            np.testing.assert_allclose(dec.a.as_array(), raw, atol=1e-9)
            assert in_rotation_group(dec.k1, tol=1e-10)
            assert in_rotation_group(dec.k2, tol=1e-10)

    def test_cone_ordering_enforced(self):
        with pytest.raises(ValueError):
            LambdaPoint(0.0, 1.0, -1.0)
        with pytest.raises(ValueError):
            LambdaPoint(1.0, 0.0, -0.5)


# cone points with a repeated singular value: top pair, bottom pair, all equal (a rotation)
REPEATED = st.one_of(
    st.floats(min_value=0.0, max_value=3.0).map(lambda t: (t, t, -2.0 * t)),
    st.floats(min_value=0.0, max_value=3.0).map(lambda t: (2.0 * t, -t, -t)),
    st.just((0.0, 0.0, 0.0)),
)


_SVD = sl3._checked_svd


def _flipped_svd(g):
    """The SVD with the first singular pair negated: same product, det(U) of the other sign."""
    u, s, vt = _SVD(g)
    return u * [-1.0, 1.0, 1.0], s, vt * [[-1.0], [1.0], [1.0]]


@settings(max_examples=100, deadline=None)
@given(a=REPEATED, seeds=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)))
def test_kak_repeated_singular_values_both_sign_branches(a, seeds):
    k1, k2 = (random_rotation(np.random.default_rng(seed)) for seed in seeds)
    g = k1 @ np.diag(np.exp(a)) @ k2
    decs = [kak(g)]
    with mock.patch.object(sl3, "_checked_svd", _flipped_svd):
        decs.append(kak(g))  # det(U) has the other sign, so the other branch runs
    for dec in decs:
        assert in_rotation_group(dec.k1, tol=1e-10) and in_rotation_group(dec.k2, tol=1e-10)
        exps = dec.a.as_array()
        assert np.all(np.diff(exps) <= 0.0)
        assert abs(exps.sum()) <= 1e-12
        np.testing.assert_allclose(exps, a, atol=1e-9)
        assert dec.residual(g) <= 1e-9


class TestSlideFamily:
    def test_endpoints(self):
        for alpha in (0.5, 1.0, 3.0):
            np.testing.assert_allclose(
                j_alpha(alpha, 0.0).as_array(), [alpha / 2, alpha / 2, -alpha], atol=1e-9
            )
            np.testing.assert_allclose(
                j_alpha(alpha, 1.0).as_array(), [2 * alpha, -alpha, -alpha], atol=1e-9
            )

    def test_even_in_delta(self):
        for delta in (0.2, 0.9):
            a = j_alpha(1.7, delta).as_array()
            b = j_alpha(1.7, -delta).as_array()
            np.testing.assert_allclose(a, b, atol=1e-9)

    def test_bottom_coordinate_pinned(self):
        for delta in np.linspace(0.0, 1.0, 17):
            assert j_alpha(2.3, delta).a3 == pytest.approx(-2.3, abs=1e-9)

    def test_top_coordinate_monotone(self):
        tops = [j_alpha(1.1, d).a1 for d in np.linspace(0.0, 1.0, 33)]
        assert np.all(np.diff(tops) >= -1e-12)

    def test_solved_delta_obeys_contraction(self):
        alpha, eps = 3.0, 0.5
        delta = solve_delta_for_top(alpha, (1.0 + eps) * alpha)
        assert delta <= np.exp((eps - 1.0) * alpha)
        # independent closed-form oracle for the same parameter
        assert delta == pytest.approx(
            closed_form_slide_delta(alpha, (1.0 + eps) * alpha), abs=1e-12
        )

    def test_solver_against_closed_form_grid(self):
        for alpha in (0.8, 2.0, 5.0):
            for frac in (0.55, 0.8, 1.0, 1.5, 1.9):
                r = frac * alpha
                if r < alpha / 2:
                    continue
                got = solve_delta_for_top(alpha, r)
                assert got == pytest.approx(closed_form_slide_delta(alpha, r), abs=1e-10)

    def test_solver_range_guard(self):
        with pytest.raises(ValueError):
            solve_delta_for_top(1.0, 2.5)


class TestEmbedding:
    @pytest.mark.parametrize("gamma", [0.5, 2.0, 4.0])
    def test_certificate_invariants(self, gamma):
        for alpha in np.linspace(gamma, 7 * gamma / 6, 7):
            cert = embedding2_solve(gamma, alpha)
            m1 = d_alpha(2 * gamma - alpha) @ x_delta(cert.delta1) @ d_alpha(alpha)
            m2 = d_alpha(2 * gamma - alpha) @ x_delta(cert.delta2) @ d_alpha(alpha)
            r1 = np.linalg.norm(m1 - cert.k1 @ cert.diag1() @ cert.k1p, 2)
            r2 = np.linalg.norm(m2 - cert.k2 @ cert.diag2() @ cert.k2p, 2)
            assert r1 / max(1.0, np.linalg.norm(m1, 2)) <= 1e-9
            assert r2 / max(1.0, np.linalg.norm(m2, 2)) <= 1e-9
            assert cert.residual1 <= 1e-9 and cert.residual2 <= 1e-9
            assert max(cert.delta1, cert.delta2) <= np.exp(-gamma)
            two_exp = 2.0 * np.exp(-gamma / 4.0)
            assert np.linalg.norm(cert.k1 - np.eye(3), 2) <= two_exp
            assert np.linalg.norm(cert.k1p - np.eye(3), 2) <= two_exp
            assert np.linalg.norm(cert.k2p - np.eye(3), 2) <= two_exp
            for k in (cert.k1, cert.k1p, cert.k2, cert.k2p):
                assert in_rotation_group(k, tol=1e-10)
                assert abs(k[2, 2] - 1.0) <= 1e-12  # block form: fixes e3

    def test_quarter_rotation_at_right_edge(self):
        for gamma in (1.0, 4.0):
            cert = embedding2_solve(gamma, 7 * gamma / 6)
            assert cert.delta2 == 0.0
            assert np.abs(cert.k2 - ROT90).max() <= 1e-9

    def test_factors_vary_continuously(self):
        # the factor angles behave like sqrt(edge - alpha) at the right edge,
        # so the 50-point probe grid is clustered there accordingly
        gamma = 5.0
        width = 7 * gamma / 6 - gamma
        us = np.linspace(0.0, 1.0, 50)
        angles = []
        for alpha in 7 * gamma / 6 - width * (1.0 - us) ** 2:
            cert = embedding2_solve(gamma, alpha)
            angles.append(
                [
                    np.arctan2(k[1, 0], k[0, 0])
                    for k in (cert.k1, cert.k1p, cert.k2, cert.k2p)
                ]
            )
        gaps = np.abs(np.diff(np.array(angles), axis=0))
        assert gaps.max() <= 0.15

    def test_preconditions(self):
        with pytest.raises(ValueError):
            embedding2_solve(0.2, 0.2)
        with pytest.raises(ValueError):
            embedding2_solve(2.0, 2.5)


def test_kak_rejects_non_unimodular():
    with pytest.raises(ValueError):
        kak(np.diag([2.0, 1.0, 1.0]))


def test_length_degenerate_matrix_aborts():
    tiny = np.diag([1e20, 1.0, 1e-20])
    with pytest.raises(NumericalDegeneracyError):
        length(tiny)
