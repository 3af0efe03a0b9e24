"""Tests for the 3x3 geometry: KAK, length, slide family, embedding certificates."""

import contextlib
import math
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from circleops import sl3
from circleops.errors import NumericalDegeneracyError
from circleops.sl3 import (
    LambdaPoint,
    d_alpha,
    embedding2_solve,
    j_alpha,
    kak,
    solve_delta_for_top,
    x_delta,
)


def in_rotation_group(k):
    return np.linalg.norm(k.T @ k - np.eye(3), 2) <= 1e-10 and abs(np.linalg.det(k) - 1.0) <= 1e-10


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
        pair = np.diag(d_alpha(gamma))[None, :].repeat(2, axis=0)  # b = 2 gamma - alpha = gamma
        (delta,), *_ = sl3._solve_cases(gamma, gamma, np.array([[top_at_one, 1.0, np.exp(-gamma)]]), pair)
        assert delta == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(NumericalDegeneracyError) as err:
            sl3._solve_cases(gamma, gamma, np.array([[1.01 * top_at_one, 1.0, np.exp(-gamma)]]), pair)
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
        assert kak(np.eye(3)).a.ell() == 0.0

    def test_diagonal(self):
        assert kak(np.diag([np.exp(2.0), 1.0, np.exp(-2.0)])).a.ell() == pytest.approx(2.0, abs=1e-12)

    def test_d_alpha(self):
        for alpha in (0.3, 1.0, 4.2):
            assert kak(d_alpha(alpha)).a.ell() == pytest.approx(alpha, abs=1e-12)

    def test_bi_invariance_and_inverse(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            g = random_rotation(rng) @ np.diag(np.exp([1.2, 0.3, -1.5])) @ random_rotation(rng)
            k1, k2 = random_rotation(rng), random_rotation(rng)
            l0 = kak(g).a.ell()
            assert kak(k1 @ g @ k2).a.ell() == pytest.approx(l0, abs=1e-9)
            assert kak(np.linalg.inv(g)).a.ell() == pytest.approx(l0, abs=1e-9)

    def test_singularity_guard(self):
        with pytest.raises(ValueError):
            kak(2.0 * np.eye(3))


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
            assert in_rotation_group(dec.k1)
            assert in_rotation_group(dec.k2)

    def test_cone_ordering_enforced(self):
        with pytest.raises(ValueError):
            LambdaPoint(0.0, 1.0, -1.0)
        with pytest.raises(ValueError):
            LambdaPoint(1.0, 0.0, -0.5)

    def test_sum_tolerance_scales_with_the_coordinates(self):
        # a route point that zigzag builds at alpha near 5.7e5, with rounding of 1.2e-10 in its sum
        LambdaPoint(400000.3, 285714.5, -685714.7999999999)
        with pytest.raises(ValueError):  # unchanged for coordinates of size <= 1
            LambdaPoint(1.0, 0.0, -1.0 + 2e-10)
        with pytest.raises(ValueError):
            LambdaPoint(1e6, 0.0, -1e6 + 1.0)
        for bad in [(np.nan, 0.0, 0.0), (np.inf, 0.0, -np.inf)]:
            with pytest.raises(ValueError):
                LambdaPoint(*bad)


# cone points with a repeated singular value: top pair, bottom pair, all equal (a rotation)
REPEATED = st.one_of(
    st.floats(min_value=0.0, max_value=3.0).map(lambda t: (t, t, -2.0 * t)),
    st.floats(min_value=0.0, max_value=3.0).map(lambda t: (2.0 * t, -t, -t)),
    st.just((0.0, 0.0, 0.0)),
)


_SVD = np.linalg.svd


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
    with mock.patch.object(sl3.np.linalg, "svd", _flipped_svd):
        decs.append(kak(g))  # det(U) has the other sign, so the other branch of _rotation_svd runs
    for dec in decs:
        assert in_rotation_group(dec.k1) and in_rotation_group(dec.k2)
        exps = dec.a.as_array()
        assert np.all(np.diff(exps) <= 0.0)
        assert abs(exps.sum()) <= 1e-12
        np.testing.assert_allclose(exps, a, atol=1e-9)
        assert dec.residual(g) <= 1e-9


def _det_rotation_svd(m):
    """kak's sign rule as it was, with det(U) from np.linalg.det: the oracle for the triple product."""
    u, s, vt = np.linalg.svd(m)
    if np.linalg.det(u) < 0:
        u[:, -1] *= -1.0
        vt[-1, :] *= -1.0
    return u, s, vt


def test_triple_product_sign_keeps_kaks_bits():
    rng = np.random.default_rng(13)
    for i in range(600):
        if i % 2:
            g = rng.normal(size=(3, 3))
            g *= np.sign(np.linalg.det(g)) / np.cbrt(abs(np.linalg.det(g)))
        else:  # a repeated top or bottom pair, or a rotation
            t = rng.uniform(0.1, 1.5)
            exps = [(t, t, -2 * t), (2 * t, -t, -t), (0.0, 0.0, 0.0)][i // 2 % 3]
            g = random_rotation(rng) @ np.diag(np.exp(exps)) @ random_rotation(rng)
        for got, want in zip(sl3._rotation_svd(g), _det_rotation_svd(g)):
            assert got.tobytes() == want.tobytes()


def _reference_kak(g):
    """kak as it was, with numpy-scalar bookkeeping around the SVD: LU det, np.log and a numpy
    sum; the oracle for the float bookkeeping."""
    g = np.asarray(g, dtype=float)
    if not abs((det := np.linalg.det(g)) - 1.0) <= 1e-8:
        raise ValueError(f"determinant {det} too far from 1")
    u, s, vt = sl3._rotation_svd(g)
    if s[-1] < 1e-14:
        raise NumericalDegeneracyError("kak_singularity", f"smallest singular value {s[-1]} below 1e-14")
    logs = np.log(s)
    logs -= logs.sum() / 3.0
    return sl3.KAKDecomposition(k1=u, a=LambdaPoint(*logs), k2=vt)


def _perfbench_matrix(rng, pattern):
    """A unimodular matrix as perfbench's KAK batches draw one: generic Gaussian, a repeated
    top pair, a repeated bottom pair, or a rotation."""
    if pattern == "generic":
        while abs(det := np.linalg.det(g := rng.normal(size=(3, 3)))) < 0.05:
            pass
        if det < 0:
            g[0] *= -1.0
        return g / abs(det) ** (1.0 / 3.0)
    s = rng.uniform(0.1, 1.5)
    exps = {"top_pair": [s, s, -2 * s], "bottom_pair": [2 * s, -s, -s], "rotation": [0.0, 0.0, 0.0]}[pattern]
    return random_rotation(rng) @ np.diag(np.exp(exps)) @ random_rotation(rng)


def _criterion_8_matrices():
    """The unimodular matrices that check-all's criterion 8 decomposes (seed 11)."""
    rng = np.random.default_rng(11)
    out = []
    for _ in range(1000):
        g = rng.normal(size=(3, 3))
        det = np.linalg.det(g)
        if abs(det) < 0.05:
            continue
        if det < 0:
            g[0] *= -1.0
            det = -det
        out.append(g / det ** (1.0 / 3.0))
    return out


def _wide_spread_matrices():
    """Rotations around diag(e^a) out to where a determinant's rounding nears the 1e-8 gate:
    2 a1 + a2 = 3t for t up to 5, from top pairs (t, t, -2t) through generic spreads to bottom
    pairs (2t, -t, -t), so a1 reaches 10 while eps s1^2 s2, the error scale of the LU and SVD
    determinants, stays below 1e-9 (past it LU's own decisions turn to noise).  A cofactor
    expansion errs by eps s1^3: past 1e-8 by a1 = 8 on bottom pairs."""
    rng = np.random.default_rng(37)
    out = []
    for t in np.linspace(0.5, 5.0, 40):
        for a1 in (t, 2.0 * t, t * rng.uniform(1.0, 2.0)):
            exps = [a1, 3.0 * t - 2.0 * a1, a1 - 3.0 * t]
            out.append(random_rotation(rng) @ np.diag(np.exp(exps)) @ random_rotation(rng))
    return out


def _kak_samples():
    rng = np.random.default_rng(23)
    patterns = ["generic", "top_pair", "bottom_pair", "rotation"] * 400
    return [_perfbench_matrix(rng, pattern) for pattern in patterns] + _criterion_8_matrices() + _wide_spread_matrices()


def _outcome(decompose, g):
    """The bytes of k1, k2 and the exponents, or the error's type and text."""
    try:
        dec = decompose(g)
    except (ValueError, NumericalDegeneracyError) as exc:
        return type(exc), str(exc)
    return dec.k1.tobytes(), dec.k2.tobytes(), dec.a.as_array().tobytes()


def test_float_kak_matches_the_reference_bit_for_bit():
    for g in _kak_samples():
        assert _outcome(kak, g) == _outcome(_reference_kak, g)
        assert type(kak(g).a.a1) is float


def test_wide_spreads_pass_the_gate():
    # the bit-for-bit samples above reach a1 = 10 and are all accepted, not refused alike
    samples = _wide_spread_matrices()
    assert max(kak(g).a.a1 for g in samples) > 9.9


UNIMODULAR = st.lists(st.floats(-3.0, 3.0), min_size=9, max_size=9).map(lambda v: np.reshape(v, (3, 3)))


@settings(max_examples=200, deadline=None)
@given(m=UNIMODULAR)
def test_float_kak_matches_the_reference_on_drawn_matrices(m):
    det = np.linalg.det(m)
    assume(abs(det) >= 1e-3)
    g = m * np.sign(det) / np.cbrt(abs(det))
    assert _outcome(kak, g) == _outcome(_reference_kak, g)
    assert _exact_det_error(g, _svd_det(g)) <= _svd_bound(g)


@contextlib.contextmanager
def _counting_linalg(*names):
    """Count the calls sl3 makes to the named np.linalg functions; yields the counts."""
    counts = dict.fromkeys(names, 0)

    def counting(name, exact):
        def call(*args, **kwargs):
            counts[name] += 1
            return exact(*args, **kwargs)

        return call

    with mock.patch.multiple(sl3.np.linalg, **{name: counting(name, getattr(np.linalg, name)) for name in names}):
        yield counts


def test_kak_makes_one_svd_call_and_no_det():
    samples = _kak_samples()[::40]
    with _counting_linalg("svd", "det") as counts:
        for g in samples:
            kak(g)
    assert counts == {"svd": len(samples), "det": 0}


def _gamma(k):
    u = 2.0**-53
    return k * u / (1.0 - k * u)


def _exact_det_error(g, det):
    """|det - det g| with det g in exact rational arithmetic, as a float."""
    (a, b, c), (d, e, f), (p, q, r) = ([Fraction(x) for x in row] for row in g.tolist())
    return float(abs(Fraction(det) - (a * (e * r - f * q) - b * (d * r - f * p) + c * (d * q - e * p))))


def _svd_det(g):
    """kak's determinant: s1 s2 s3 with the sign of det V^T, U being a rotation."""
    _, s, vt = sl3._rotation_svd(g)
    return math.copysign(math.prod(s.tolist()), sl3._det3(vt))


def _backward_bound(g, e, roundings):
    """|computed - det g| for the determinant of g + E, ||E||_2 <= e, taken as a product with
    `roundings` roundings: each singular value moves by at most e (Weyl), so |det(g + E)| lies
    within prod(s + e) - prod(s) of |det g|, and the product adds gamma_roundings."""
    s = np.linalg.svd(g, compute_uv=False).tolist()
    wide = math.prod(x + e for x in s)
    return wide - math.prod(s) + _gamma(roundings) * wide


def _svd_bound(g):
    """LAPACK's SVD is backward stable, ||E||_2 <= p(3) eps ||g||_2; p(3) is taken as 16 (the
    worst seen on 3000 draws is under 4).  The product s1 s2 s3 rounds twice."""
    return _backward_bound(g, 16.0 * 2.0**-53 * np.linalg.norm(g, 2), 2)


def _lu_bound(g):
    """LU with partial pivoting: L U = P g + E with |E| <= gamma_3 |L| |U| componentwise, so
    ||E||_2 <= gamma_3 || |L| |U| ||_2; the product of U's diagonal rounds twice."""
    _, lower, upper = scipy.linalg.lu(g)
    return _backward_bound(g, _gamma(3) * np.linalg.norm(np.abs(lower) @ np.abs(upper), 2), 2)


def test_svd_and_lu_determinants_agree_within_their_rounding_bounds():
    for g in _kak_samples():
        svd, lu = _svd_det(g), float(np.linalg.det(g))
        assert _exact_det_error(g, svd) <= _svd_bound(g)
        assert _exact_det_error(g, lu) <= _lu_bound(g)
        assert abs(svd - lu) <= _svd_bound(g) + _lu_bound(g)


def test_the_cofactor_determinant_is_no_gate_for_wide_spreads():
    # why kak does not take det g from _det3: on a rotated diag(e^8, e^-4, e^-4) it errs by up to
    # about eps e^24 ~ 1e-7, past the gate, where kak's determinant errs below 1e-9
    rng = np.random.default_rng(41)
    errors = []
    for _ in range(20):
        g = random_rotation(rng) @ np.diag(np.exp([8.0, -4.0, -4.0])) @ random_rotation(rng)
        errors.append(_exact_det_error(g, sl3._det3(g)))
        assert _exact_det_error(g, _svd_det(g)) <= 1e-9
        kak(g)
    assert max(errors) > 1e-8


@pytest.mark.parametrize("side", [-1.0, 1.0], ids=["below-1", "above-1"])
@pytest.mark.parametrize("edge", [1.0 - 1e-6, 1.0 + 1e-6], ids=["inside", "outside"])
def test_the_gate_decides_as_lu_did_at_its_edge(side, edge):
    """At |det g - 1| = 1e-8 (1 -+ 1e-6) both determinants fall on the exact side of the gate."""
    rng = np.random.default_rng(29)
    inside = edge < 1.0
    for _ in range(100):
        g = random_rotation(rng) @ np.diag([1.0 + side * 1e-8 * edge, 1.0, 1.0]) @ random_rotation(rng)
        distance = abs(_exact_det_error(g, 1.0) - 1e-8)  # from the gate, exactly up to one rounding
        assert distance > max(_svd_bound(g), _lu_bound(g))  # the sample tests the edge
        assert (abs(_svd_det(g) - 1.0) <= 1e-8) is inside
        assert bool(abs(np.linalg.det(g) - 1.0) <= 1e-8) is inside
        if inside:
            kak(g)
        else:
            with pytest.raises(ValueError, match="too far from 1"):
                kak(g)


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
        # the two case targets, built here rather than read back from the solver
        diag1 = np.diag([np.exp(gamma), 1.0, np.exp(-gamma)])
        diag2 = np.diag([np.exp(0.75 * gamma), np.exp(0.25 * gamma), np.exp(-gamma)])
        for alpha in np.linspace(gamma, 7 * gamma / 6, 7):
            cert = embedding2_solve(gamma, alpha)
            m1 = d_alpha(2 * gamma - alpha) @ x_delta(cert.delta1) @ d_alpha(alpha)
            m2 = d_alpha(2 * gamma - alpha) @ x_delta(cert.delta2) @ d_alpha(alpha)
            r1 = np.linalg.norm(m1 - cert.k1 @ diag1 @ cert.k1p, 2)
            r2 = np.linalg.norm(m2 - cert.k2 @ diag2 @ cert.k2p, 2)
            assert r1 / max(1.0, np.linalg.norm(m1, 2)) <= 1e-9
            assert r2 / max(1.0, np.linalg.norm(m2, 2)) <= 1e-9
            assert cert.residual1 <= 1e-9 and cert.residual2 <= 1e-9
            assert max(cert.delta1, cert.delta2) <= np.exp(-gamma)
            two_exp = 2.0 * np.exp(-gamma / 4.0)
            assert np.linalg.norm(cert.k1 - np.eye(3), 2) <= two_exp
            assert np.linalg.norm(cert.k1p - np.eye(3), 2) <= two_exp
            assert np.linalg.norm(cert.k2p - np.eye(3), 2) <= two_exp
            for k in (cert.k1, cert.k1p, cert.k2, cert.k2p):
                assert in_rotation_group(k)
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


def _reference_embedding2_solve(gamma, alpha):
    """The per-case solve that embedding2_solve's stacked pass replaced, kept as its oracle:
    each case's delta, pair matrix, 2x2 rotation SVD (signs by np.linalg.det) and
    np.linalg.norm residual, one case after the other."""
    fields = {"gamma": float(gamma), "alpha": float(alpha)}
    diags = (
        np.diag([np.exp(gamma), 1.0, np.exp(-gamma)]),
        np.diag([np.exp(0.75 * gamma), np.exp(0.25 * gamma), np.exp(-gamma)]),
    )
    for case, diag in zip("12", diags):
        delta = sl3._solve_delta(gamma, alpha, float(np.log(diag[0, 0])), 1e-13)
        assert delta <= 1.0 + 1e-12
        delta = min(1.0, delta)
        m = d_alpha(2.0 * gamma - alpha) @ x_delta(delta) @ d_alpha(alpha)
        u, _, vt = np.linalg.svd(m[:2, :2])
        if np.linalg.det(u) < 0:
            u[:, -1] *= -1.0
            vt[-1, :] *= -1.0
        if vt[0, 0] < 0:
            u, vt = -u, -vt
        k, kp = np.eye(3), np.eye(3)
        k[:2, :2], kp[:2, :2] = u, vt
        residual = np.linalg.norm(m - k @ diag @ kp, 2) / max(1.0, np.linalg.norm(m, 2))
        fields.update({f"delta{case}": float(delta), f"k{case}": k, f"k{case}p": kp, f"residual{case}": float(residual)})
    return fields


def _cone_pass_pairs(count, seed):
    """(gamma, alpha) drawn as perfbench's cone pass draws its embedding jobs: gamma uniform in
    [2, 16], ten interior alphas uniform in [gamma, 7 gamma / 6], then two on the tangent edge."""
    rng = np.random.default_rng(seed)
    pairs = []
    for i in range(count):
        gamma = rng.uniform(2.0, 16.0)
        pairs.append((gamma, 7.0 * gamma / 6.0 if i % 12 >= 10 else rng.uniform(gamma, 7.0 * gamma / 6.0)))
    return pairs


EMBEDDING_GRID = [
    (gamma, alpha)
    for gamma in (0.5, 2.0, 4.0, 8.0, 16.0, 600.0)
    for alpha in (gamma, (gamma + 7.0 * gamma / 6.0) / 2.0, 7.0 * gamma / 6.0)
]


def test_stacked_solve_matches_the_per_case_oracle_bit_for_bit():
    for gamma, alpha in EMBEDDING_GRID + _cone_pass_pairs(2000, seed=9):
        cert, want = embedding2_solve(gamma, alpha), _reference_embedding2_solve(gamma, alpha)
        for name, value in want.items():
            got = getattr(cert, name)
            assert type(got) is type(value), (gamma, alpha, name)
            assert np.asarray(got).tobytes() == np.asarray(value).tobytes(), (gamma, alpha, name)
            assert np.shape(got) == np.shape(value), (gamma, alpha, name)


def test_embedding_solve_makes_two_svd_calls_and_no_det_or_norm():
    with _counting_linalg("svd", "det", "norm") as counts:
        for gamma, alpha in EMBEDDING_GRID:
            embedding2_solve(gamma, alpha)
    assert counts == {"svd": 2 * len(EMBEDDING_GRID), "det": 0, "norm": 0}


def test_spectral_norms_are_numpys_two_norm_bit_for_bit():
    rng = np.random.default_rng(11)
    stack = np.concatenate(
        (
            rng.normal(size=(200, 3, 3)) * np.exp(rng.uniform(-30.0, 30.0, size=(200, 1, 1))),
            [np.zeros((3, 3)), np.eye(3), ROT90 - np.eye(3), np.diag([1e300, 1.0, 1e-300])],
        )
    )
    norms = sl3._spectral_norms(stack)
    assert norms.shape == (len(stack),)
    assert norms.tobytes() == np.array([np.linalg.norm(a, 2) for a in stack]).tobytes()
    g = stack[0] / np.cbrt(np.linalg.det(stack[0]))
    dec = kak(g)
    want = np.linalg.norm(g - dec.k1 @ np.diag(np.exp(dec.a.as_array())) @ dec.k2, 2)
    assert np.float64(dec.residual(g)).tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize(
    "call, text",
    [
        (lambda bad: j_alpha(bad, 0.3), "alpha must be nonnegative and finite"),
        (lambda bad: solve_delta_for_top(bad, 1.0), "alpha must be positive and finite"),
        (lambda bad: embedding2_solve(bad, bad), "gamma must be finite"),
    ],
    ids=["j_alpha", "solve_delta_for_top", "embedding2_solve"],
)
def test_nan_and_inf_parameters_are_named(call, text, bad):
    # each guard is written so that NaN fails it; inf is refused as input, not
    # reported later as a degenerate computation
    with pytest.raises(ValueError, match=text):
        call(bad)


@pytest.mark.parametrize("diagonal, det", [([1.0, 1.0, 2.0], "2.0"), ([-1.0, 1.0, 1.0], "-1.0")], ids=["det-2", "reflection"])
def test_kak_rejects_non_unimodular(diagonal, det):
    """The SVD's determinant, signed by det V^T, serves both the check and the error text; LU's det is not called."""
    with _counting_linalg("det") as counts, pytest.raises(ValueError) as exc:
        kak(np.diag(diagonal))
    assert str(exc.value) == f"determinant {det} too far from 1" and counts == {"det": 0}


@pytest.mark.parametrize(
    "entries, text",
    [
        ({(0, 0): np.nan}, "nan at (0, 0)"),
        ({(1, 2): np.inf}, "inf at (1, 2)"),
        ({(2, 0): -np.inf, (2, 2): np.nan}, "-inf at (2, 0), nan at (2, 2)"),
    ],
)
def test_kak_names_non_finite_entries(entries, text):
    # under warnings-as-errors: the float determinant warns of nothing, and an inf entry is
    # named rather than reported as the NaN determinant that 0 * inf makes of it
    g = np.eye(3)
    for place, value in entries.items():
        g[place] = value
    with pytest.raises(ValueError) as exc:
        kak(g)
    assert str(exc.value) == f"matrix entries must be finite: {text}"


@pytest.mark.parametrize("delta", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("alpha", [356.0, 1e308])
def test_j_alpha_past_overflow_is_the_kak_singularity(alpha, delta):
    # under warnings-as-errors: D_alpha x_delta D_alpha would overflow from alpha near 355, and
    # e^alpha itself past 709.8, so the degeneracy is decided before any numpy call
    with pytest.raises(NumericalDegeneracyError) as exc:
        j_alpha(alpha, delta)
    assert exc.value.invariant == "kak_singularity"


def test_j_alpha_singularity_edge_is_kaks():
    """Around e^-alpha = 1e-14, j_alpha's guard decides as kak did on the product itself."""
    edge = 14.0 * math.log(10.0)
    rng = np.random.default_rng(31)
    for k in range(-200, 200):
        alpha, delta = edge + 4 * k * math.ulp(edge), rng.uniform(0.0, 1.0)
        da = d_alpha(alpha)
        try:
            kak(da @ x_delta(delta) @ da)
            singular = False
        except NumericalDegeneracyError:
            singular = True
        assert singular == (math.exp(-alpha) < 1e-14), alpha
        if singular:
            with pytest.raises(NumericalDegeneracyError):
                j_alpha(alpha, delta)
        else:
            j_alpha(alpha, delta)


@pytest.mark.parametrize("alpha", [710.0, -1420.0, math.inf, -math.inf, math.nan])
def test_d_alpha_refuses_alphas_past_the_float_range(alpha):
    # under warnings-as-errors: np.exp would overflow, so alpha is checked before any numpy call
    with pytest.raises(ValueError) as exc:
        d_alpha(alpha)
    assert str(exc.value) == f"d_alpha needs e^alpha and e^(-alpha/2) finite: alpha = {alpha}"


def test_d_alpha_range_is_np_exps_own():
    """The accepted range ends where np.exp overflows, and inside it the entries are np.exp's."""
    top = math.log(np.finfo(float).max)
    inside = [top, -2.0 * top, 0.0, -0.0, 1e-300, *np.random.default_rng(5).uniform(-1400, 700, 50)]
    for alpha in inside:
        exps = [np.exp(alpha), np.exp(-alpha / 2.0), np.exp(-alpha / 2.0)]
        assert d_alpha(alpha).tobytes() == np.diag(exps).tobytes()
    assert np.isfinite(d_alpha(top)).all() and np.isfinite(d_alpha(-2.0 * top)).all()
    for alpha in (math.nextafter(top, math.inf), math.nextafter(-2.0 * top, -math.inf)):
        with pytest.raises(ValueError, match="d_alpha needs"):
            d_alpha(alpha)
        with np.errstate(over="ignore"):
            assert not np.isfinite(np.exp([alpha, -alpha / 2.0])).all()


def test_length_degenerate_matrix_aborts():
    tiny = np.diag([1e20, 1.0, 1e-20])
    with pytest.raises(NumericalDegeneracyError):
        kak(tiny)
