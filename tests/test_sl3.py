"""Tests for the 3x3 geometry: KAK, length, slide family, embedding certificates."""

import numpy as np
import pytest

from circleops import sl3
from circleops.errors import NumericalDegeneracyError
from circleops.sl3 import (
    LambdaPoint,
    _top_exponent,
    _top_singular,
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
    """Reference: the fixed 200 halvings the solvers ran before stopping at a collapsed bracket."""
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_bisection_matches_fixed_200_halvings():
    rng = np.random.default_rng(5)
    for _ in range(40):
        alpha = rng.uniform(0.5, 5.0)
        target = rng.uniform(alpha / 2, 2 * alpha)
        want = _bisect_200(lambda d: _top_exponent(alpha, d) < target)
        assert solve_delta_for_top(alpha, target) == want
        gamma = rng.uniform(0.5, 8.0)
        alpha = rng.uniform(gamma, 7 * gamma / 6)
        cert = embedding2_solve(gamma, alpha)
        for delta, top in ((cert.delta1, np.exp(gamma)), (cert.delta2, np.exp(0.75 * gamma))):
            if delta > 0.0:
                assert delta == _bisect_200(lambda d: _top_singular(gamma, alpha, d) < top)


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


class TestMonotonicityCheck:
    def test_samples_the_full_grid_once_per_level(self, monkeypatch):
        calls = []

        def counted(alpha, delta):
            calls.append(delta)
            return _top_exponent(alpha, delta)

        sl3._check_monotone.cache_clear()
        monkeypatch.setattr(sl3, "_top_exponent", counted)
        sl3._check_monotone(2.0, 64)
        assert calls == list(np.linspace(0.0, 1.0, 64))
        sl3._check_monotone(2.0, 64)
        assert len(calls) == 64
        sl3._check_monotone(2.0, 33)
        assert len(calls) == 64 + 33

    def test_violation_raises_on_every_call(self, monkeypatch):
        sl3._check_monotone.cache_clear()
        monkeypatch.setattr(sl3, "_top_exponent", lambda alpha, delta: alpha * (1.0 + np.sin(6.0 * delta)))
        for _ in range(2):
            with pytest.raises(NumericalDegeneracyError) as err:
                solve_delta_for_top(1.3, 1.0)
            assert err.value.invariant == "jalpha_monotonicity"
        assert sl3._check_monotone.cache_info().currsize == 0


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
