"""Tests for the cone-combinatorics cost ledgers and tail constants."""

import mpmath
import numpy as np
import pytest

from circleops import zigzag
from circleops.sl3 import LambdaPoint, solve_delta_for_top
from circleops.zigzag import (
    J_ALPHA_SLIDE,
    THETA_REFLECTED_SLIDE,
    CostLedger,
    ExponentProfile,
    Segment,
    annulus_diameter_bound,
    cauchy_tail_constant,
    covering_partial_sums,
    diameter_decay_profile,
    jump_cost,
    ledger_verdict,
)

HILBERT = ExponentProfile(holder_s=0.5, growth_t=0.0, hoelder_C=4.0, growth_L=1.0)
SLOW = ExponentProfile(holder_s=0.5, growth_t=0.2, hoelder_C=4.0, growth_L=1.0)


def slide_point(alpha, r):
    """Point of the slice a3 = -alpha with top coordinate r."""
    return LambdaPoint(r, alpha - r, -alpha)


def mp_slide_delta(alpha, r):
    """50-digit slide parameter with top exponent r on the slice a3 = -alpha."""
    with mpmath.workdps(50):
        a, r = mpmath.mpf(alpha), mpmath.mpf(r)
        top = max(0, mpmath.exp(r) - mpmath.exp(a - r))
        return float(top / (mpmath.exp(2 * a) - mpmath.exp(-a)))


def reflected_point(alpha, r):
    return slide_point(alpha, r).reflect()


class TestProfile:
    def test_growth_budget_enforced(self):
        with pytest.raises(ValueError):
            ExponentProfile(holder_s=0.5, growth_t=0.25, hoelder_C=1.0, growth_L=1.0)
        with pytest.raises(ValueError):
            ExponentProfile(holder_s=0.6, growth_t=0.0, hoelder_C=1.0, growth_L=1.0)

    @pytest.mark.parametrize(
        "field, value, text",
        [
            ("holder_s", np.nan, "holder exponent"),
            ("holder_s", np.inf, "holder exponent"),
            ("growth_t", np.nan, "nonnegative"),
            ("growth_t", -np.inf, "nonnegative"),
            ("growth_t", np.inf, "growth_t < holder_s / 2"),
            ("hoelder_C", np.nan, "Hoelder constant"),
            ("hoelder_C", np.inf, "Hoelder constant"),
            ("hoelder_C", 0.0, "Hoelder constant"),
            ("growth_L", np.nan, "growth constant"),
            ("growth_L", np.inf, "growth constant"),
            ("growth_L", 0.5, "growth constant"),
        ],
    )
    def test_nan_and_inf_are_refused(self, field, value, text):
        # NaN fails every comparison, so each check must be one that NaN fails
        params = {"holder_s": 0.5, "growth_t": 0.0, "hoelder_C": 4.0, "growth_L": 1.0, field: value}
        with pytest.raises(ValueError, match=text):
            ExponentProfile(**params)

    @pytest.mark.parametrize("hoelder_C", [4.0, 1e-10, 1e300])
    def test_six_c_l_squared_must_be_a_finite_float(self, hoelder_C):
        # L^2 and C' = 6 C L^2 e^s / (1 - e^(2t - s)) may reach e^709 < max float, decided in log
        # space before any product; C' = 4.19 * 6 C L^2 at s = 1/2, t = 0, so 6 C L^2 stays finite
        log_factor = 0.5 - np.log(-np.expm1(-0.5))
        limit = np.exp(min(709.0, 709.0 - np.log(6.0 * hoelder_C) - log_factor) / 2.0)
        below = ExponentProfile(0.5, 0.0, hoelder_C, limit * (1.0 - 1e-12))
        # filterwarnings = error turns any overflow into a failure
        assert np.isfinite(6.0 * hoelder_C * below.growth_L**2) and np.isfinite(below.slide_cap(1.0, 0.5))
        assert np.isfinite(cauchy_tail_constant(below))
        for growth_L in (limit * (1.0 + 1e-12), 1e160, 1e300):
            with pytest.raises(ValueError, match="must stay below e\\^709"):
                ExponentProfile(0.5, 0.0, hoelder_C, growth_L)


class TestJumpCost:
    def test_zero_delta(self):
        assert jump_cost(3.0, 0.0, HILBERT) == 0.0

    def test_arithmetic(self):
        assert jump_cost(1.0, 0.25, HILBERT) == pytest.approx(2.0, abs=1e-14)

    def test_contraction_regime(self):
        # delta = e^((eps-1) alpha) gives cost C L^2 e^(-gamma alpha)
        alpha, eps = 2.5, 0.3
        prof = SLOW
        gamma = prof.holder_s - eps * prof.holder_s - 2 * prof.growth_t
        got = jump_cost(alpha, np.exp((eps - 1.0) * alpha), prof)
        expected = prof.hoelder_C * prof.growth_L**2 * np.exp(-gamma * alpha)
        assert got == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("alpha", [np.nan, -0.5])
@pytest.mark.parametrize(
    "call",
    [
        lambda alpha: jump_cost(alpha, 0.5, HILBERT),
        lambda alpha: covering_partial_sums(HILBERT, alpha, 4),
    ],
    ids=["jump_cost", "covering_partial_sums"],
)
def test_alpha_outside_the_cone_raises(call, alpha):
    # each guard is written so that NaN fails it, as a negative alpha does
    with pytest.raises(ValueError, match="alpha must be nonnegative"):
        call(alpha)


class TestAnnulus:
    def test_opposite_sides_two_segments(self):
        alpha, eps = 2.0, 0.5
        a = slide_point(2.2, 1.6)       # a2 > 0 side
        b = reflected_point(2.4, 1.5)   # a2 < 0 side
        bound, ledger = annulus_diameter_bound(alpha, eps, HILBERT, a, b)
        assert len(ledger.segments) == 2
        assert [s.rule for s in ledger.segments] == [J_ALPHA_SLIDE, THETA_REFLECTED_SLIDE]
        assert ledger.total <= bound
        per_seg = 2 * HILBERT.hoelder_C * HILBERT.growth_L**2 * np.exp(
            -(HILBERT.holder_s - eps * HILBERT.holder_s) * alpha
        )
        assert all(s.cost_bound <= per_seg + 1e-12 for s in ledger.segments)

    def test_same_side_three_segments(self):
        alpha, eps = 2.0, 0.5
        a = slide_point(2.1, 1.4)
        b = slide_point(2.8, 2.0)
        bound, ledger = annulus_diameter_bound(alpha, eps, HILBERT, a, b)
        assert len(ledger.segments) == 3
        assert ledger.total <= bound

    def test_nan_ledger_total_fails_the_verdict(self, monkeypatch):
        # a NaN total never exceeds the bound, so the verdict must be "total <= bound"
        monkeypatch.setattr(zigzag, "jump_cost", lambda alpha, delta, prof: np.nan)
        bound, ledger = annulus_diameter_bound(2.0, 0.5, HILBERT, slide_point(2.1, 1.4), slide_point(2.8, 2.0))
        assert np.isnan(ledger.total) and np.isfinite(bound)
        assert not ledger_verdict(2.0, 0.5, HILBERT, bound, ledger)

    def test_verdict_edges(self):
        """The total may equal the bound but not pass it; a segment may pass the cap by 1e-12, not more."""
        alpha, eps = 2.0, 0.5
        a, b = slide_point(2.1, 1.4), slide_point(2.8, 2.0)
        bound, ledger = annulus_diameter_bound(alpha, eps, HILBERT, a, b)
        assert ledger_verdict(alpha, eps, HILBERT, bound, ledger)
        assert bound == 6.0 * HILBERT.hoelder_C * HILBERT.growth_L**2 * np.exp(-(0.5 - eps * 0.5) * alpha)
        cap = HILBERT.slide_cap(alpha, eps)

        def one_segment(cost):
            return CostLedger([Segment(a, b, cost, J_ALPHA_SLIDE)])

        assert ledger_verdict(alpha, eps, HILBERT, cap, one_segment(cap))
        assert not ledger_verdict(alpha, eps, HILBERT, cap, one_segment(np.nextafter(cap, np.inf)))
        assert ledger_verdict(alpha, eps, HILBERT, bound, one_segment(cap + 1e-12))
        assert not ledger_verdict(alpha, eps, HILBERT, bound, one_segment(cap + 2e-12))

    def test_slide_costs_use_exact_deltas(self):
        a, b = slide_point(2.1, 1.4), slide_point(2.8, 2.0)
        _, ledger = annulus_diameter_bound(2.0, 0.5, HILBERT, a, b)
        assert len(ledger.segments) == 3
        for seg in ledger.segments:
            p, q = seg.start, seg.end
            if seg.rule == THETA_REFLECTED_SLIDE:
                p, q = p.reflect(), q.reflect()
            level = -p.a3
            want = jump_cost(level, mp_slide_delta(level, p.a1), HILBERT) + jump_cost(
                level, mp_slide_delta(level, q.a1), HILBERT
            )
            assert seg.cost_bound == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 5.0])
    def test_slice_base_point_costs_nothing(self, alpha):
        # b sits at a1 = alpha / 2, the delta = 0 end of its slide, so the
        # slide ending there pays only the jump from its start
        a = LambdaPoint(1.2 * alpha, -0.5 * alpha, -0.7 * alpha)
        b = LambdaPoint(0.5 * alpha, 0.5 * alpha, -alpha)
        _, ledger = annulus_diameter_bound(alpha, 0.5, HILBERT, a, b)
        slide = ledger.segments[-1]
        assert slide.rule == J_ALPHA_SLIDE and slide.end == b
        start_delta = solve_delta_for_top(alpha, slide.start.a1)
        assert slide.cost_bound == jump_cost(alpha, start_delta, HILBERT)

    def test_same_reflected_side_three_segments(self):
        alpha, eps = 2.0, 0.5
        a = reflected_point(2.1, 1.4)
        b = reflected_point(2.8, 2.0)
        _, ledger = annulus_diameter_bound(alpha, eps, HILBERT, a, b)
        assert len(ledger.segments) == 3
        assert ledger.segments[0].rule == THETA_REFLECTED_SLIDE

    def test_equal_endpoints(self):
        a = slide_point(2.0, 1.4)
        bound, ledger = annulus_diameter_bound(2.0, 0.5, HILBERT, a, a)
        assert ledger.segments == []
        assert ledger.total == 0.0 <= bound

    def test_axis_points_route_through_corner(self):
        alpha, eps = 2.0, 0.5
        a = LambdaPoint(2.0, 0.0, -2.0)
        b = LambdaPoint(2.9, 0.0, -2.9)
        _, ledger = annulus_diameter_bound(alpha, eps, HILBERT, a, b)
        assert len(ledger.segments) == 2

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, 0.0])
    def test_alpha_guard_names_alpha(self, alpha):
        a = slide_point(2.0, 1.4)
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            annulus_diameter_bound(alpha, 0.5, HILBERT, a, a)

    def test_bound_must_be_a_finite_float(self):
        # gamma = 0.5 (1 - 0.5) - 0.4 = -0.15: the log of the bound 24 e^(0.15 alpha) is 709 at 4705.5
        for alpha in (4705.0, 4705.4):
            a = slide_point(alpha, alpha)
            bound, ledger = annulus_diameter_bound(alpha, 0.5, SLOW, a, a)
            assert np.isfinite(bound) and ledger_verdict(alpha, 0.5, SLOW, bound, ledger)
        for alpha in (4705.6, 5000.0, 1e300):  # at 5000 the exp itself overflows: the check comes first
            a = slide_point(alpha, alpha)
            with pytest.raises(ValueError, match="not a finite float"):
                annulus_diameter_bound(alpha, 0.5, SLOW, a, a)

    @pytest.mark.parametrize("constants", [
        {"hoelder_C": 1e307, "growth_L": 1.0},  # 6 C = 6e307 is finite, C' = 4.19 * 6 C is not
        {"hoelder_C": 1e-10, "growth_L": 1.5e154},  # L^2 overflows
    ], ids=["C", "L"])
    def test_constant_must_be_a_finite_float(self, constants):
        # the profile refuses such constants, so the annulus bound never sees them
        with pytest.raises(ValueError, match="must stay below e\\^709"):
            ExponentProfile(holder_s=0.5, growth_t=0.0, **constants)

    def test_coordinates_must_keep_a_finite_squared_norm(self):
        # ell <= 1.5 alpha < sqrt(max / 3) keeps each squared coordinate difference below max / 3
        limit = np.sqrt(np.finfo(float).max / 3.0) / 1.5
        alpha = limit * (1.0 - 1e-12)
        a, b = LambdaPoint(1.4 * alpha, -0.7 * alpha, -0.7 * alpha), slide_point(1.4 * alpha, 0.7 * alpha)
        bound, ledger = annulus_diameter_bound(alpha, 0.5, HILBERT, a, b)
        assert np.isfinite(a.distance(b)) and ledger_verdict(alpha, 0.5, HILBERT, bound, ledger)
        for alpha in (limit * (1.0 + 1e-12), 1e308):
            a = slide_point(alpha, alpha)
            with pytest.raises(ValueError, match="overflow a squared norm"):
                annulus_diameter_bound(alpha, 0.5, HILBERT, a, a)

    def test_outside_annulus_rejected(self):
        with pytest.raises(ValueError):
            annulus_diameter_bound(2.0, 0.5, HILBERT, slide_point(1.0, 0.7), slide_point(2.2, 1.6))

    def test_slices_validated(self):
        alpha, eps = 1.5, 0.4
        rng = np.random.default_rng(3)
        for _ in range(25):
            la, lb = rng.uniform(alpha, (1 + eps) * alpha, size=2)
            ra = rng.uniform(la, min(2 * la, (1 + eps) * alpha))
            rb = rng.uniform(lb, min(2 * lb, (1 + eps) * alpha))
            a = slide_point(la, ra) if rng.random() < 0.5 else reflected_point(la, ra)
            b = slide_point(lb, rb) if rng.random() < 0.5 else reflected_point(lb, rb)
            bound, ledger = annulus_diameter_bound(alpha, eps, SLOW, a, b)
            ledger.validate()
            assert ledger.total <= bound


def _four_branch_segment(p, q, rule, prof):
    """Slide cost with the reflected slide written out on its own."""
    if rule == J_ALPHA_SLIDE:
        level = -p.a3
        d_p = solve_delta_for_top(level, min(p.a1, 2.0 * level))
        d_q = solve_delta_for_top(level, min(q.a1, 2.0 * level))
    else:
        level = p.a1
        d_p = solve_delta_for_top(level, min(p.reflect().a1, 2.0 * level))
        d_q = solve_delta_for_top(level, min(q.reflect().a1, 2.0 * level))
    return Segment(p, q, jump_cost(level, d_p, prof) + jump_cost(level, d_q, prof), rule)


def _four_branch_ledger(alpha, a, b, prof, tol=1e-9):
    """Routing with every reflected-side route written out by hand, one branch per side pattern."""
    J, T = J_ALPHA_SLIDE, THETA_REFLECTED_SLIDE

    def chain(points, rules):
        return CostLedger([_four_branch_segment(p, q, r, prof) for p, q, r in zip(points, points[1:], rules)])

    if a.distance(b) <= tol:
        return CostLedger()
    la, lb = a.ell(), b.ell()
    two = chain([a, LambdaPoint(lb, la - lb, -la), b], [J, T])
    two_reflected = chain([a, LambdaPoint(la, lb - la, -lb), b], [T, J])
    if a.a2 >= 0 and b.a2 <= 0:  # both on the axis included: J first
        return two
    if a.a2 <= 0 and b.a2 >= 0:
        return two_reflected
    corner = LambdaPoint(la, 0.0, -la)
    if a.a2 > 0 and b.a2 > 0:
        return chain([a, corner, LambdaPoint(la, lb - la, -lb), b], [J, T, J])
    return chain([a, corner, LambdaPoint(lb, la - lb, -la), b], [T, J, T])


# a2 of a drawn point: well off either side, exactly on the axis, or within 2e-9 of it
_SIDES = ("below", "near_below", "axis", "near_above", "above")


def _sided_point(rng, alpha, eps, side):
    top = rng.uniform(alpha, (1.0 + eps) * alpha)
    if side == "axis":
        gap = 0.0
    elif side.startswith("near"):
        gap = rng.choice([rng.uniform(0.0, 1e-9), rng.uniform(1e-9, 2e-9), 1e-9, 5e-324])
    else:
        gap = rng.uniform(0.0, top / 2.0)
    point = LambdaPoint(top, -gap, gap - top)  # ell = top, a2 = -gap <= 0
    return point.reflect() if side.endswith("above") else point


class TestMirroredRoutes:
    """Routes built once and mirrored equal the hand-written four-branch routing exactly.

    Both route on the exact sign of a2, so every pair validates, near-axis
    ones included (a2 within 2e-9 of 0, exactly 1e-9 and 5e-324 among them).
    """

    @pytest.mark.parametrize("side_a", _SIDES)
    @pytest.mark.parametrize("side_b", _SIDES)
    def test_matches_four_branch_routing(self, side_a, side_b):
        rng = np.random.default_rng([_SIDES.index(side_a), _SIDES.index(side_b)])
        for _ in range(100):
            alpha, eps = rng.uniform(0.5, 6.0), rng.uniform(0.05, 0.95)
            prof = SLOW if rng.random() < 0.5 else HILBERT
            a = _sided_point(rng, alpha, eps, side_a)
            b = a if rng.random() < 0.05 else _sided_point(rng, alpha, eps, side_b)
            got = annulus_diameter_bound(alpha, eps, prof, a, b)[1]  # validates its ledger
            want = _four_branch_ledger(alpha, a, b, prof).validate()
            assert got.segments == want.segments, (a, b)


_SWAP = {J_ALPHA_SLIDE: THETA_REFLECTED_SLIDE, THETA_REFLECTED_SLIDE: J_ALPHA_SLIDE}


def _bits(point):
    return np.array([point.a1, point.a2, point.a3]).tobytes()


class TestMirrorSymmetry:
    """The cone symmetry (a1, a2, a3) -> (-a3, -a2, -a1) maps routes to routes.

    The reflected pair's ledger has the reflected waypoints, the swapped rules
    and the same cost bits.  A pair with both points on the axis is its own
    reflection (up to the sign of a2 = 0): it keeps the J-first route, and the
    mirror route, priced on its own, costs the same bits.
    """

    @pytest.mark.parametrize("side_a", _SIDES)
    @pytest.mark.parametrize("side_b", _SIDES)
    def test_reflected_pair_takes_the_mirrored_route(self, side_a, side_b):
        rng = np.random.default_rng([7, _SIDES.index(side_a), _SIDES.index(side_b)])
        for _ in range(40):
            alpha, eps = rng.uniform(0.5, 6.0), rng.uniform(0.05, 0.95)
            prof = SLOW if rng.random() < 0.5 else HILBERT
            a, b = _sided_point(rng, alpha, eps, side_a), _sided_point(rng, alpha, eps, side_b)
            # an axis point is drawn with a2 = -0.0; its reflection is the same point with a2 = 0.0
            a, b = (point.reflect() if point.a2 == 0 and rng.random() < 0.5 else point for point in (a, b))
            _, ledger = annulus_diameter_bound(alpha, eps, prof, a, b)
            _, mirrored = annulus_diameter_bound(alpha, eps, prof, a.reflect(), b.reflect())
            if a.a2 == 0 and b.a2 == 0:
                assert [seg.rule for seg in ledger.segments] == [J_ALPHA_SLIDE, THETA_REFLECTED_SLIDE]
                assert [seg.rule for seg in mirrored.segments] == [J_ALPHA_SLIDE, THETA_REFLECTED_SLIDE]
                mirrored = CostLedger(
                    [zigzag._segment(seg.start.reflect(), seg.end.reflect(), _SWAP[seg.rule], prof)
                     for seg in ledger.segments]
                ).validate()
            assert len(mirrored.segments) == len(ledger.segments) in (2, 3)
            for seg, ref in zip(ledger.segments, mirrored.segments):
                assert _bits(ref.start) == _bits(seg.start.reflect()), (a, b)
                assert _bits(ref.end) == _bits(seg.end.reflect()), (a, b)
                assert ref.rule == _SWAP[seg.rule]
                assert ref.cost_bound.hex() == seg.cost_bound.hex()


class TestTailConstant:
    def test_closed_form_value(self):
        expected = 24.0 * np.exp(0.5) / (1.0 - np.exp(-0.5))
        assert cauchy_tail_constant(HILBERT) == pytest.approx(expected, rel=1e-15)
        assert cauchy_tail_constant(HILBERT) == pytest.approx(100.565, abs=5e-3)

    def test_matches_50_digits_near_critical_growth(self):
        # 1 - e^(2t - s) = 4e-6 at s = 1/2, t = 1/4 - 1e-6: 1 - exp(2t - s) loses 6 digits there
        t = 0.25 - 1e-6
        with mpmath.workdps(50):
            want = float(24 * mpmath.exp(mpmath.mpf(0.5)) / -mpmath.expm1(2 * mpmath.mpf(t) - mpmath.mpf(0.5)))
        assert cauchy_tail_constant(ExponentProfile(0.5, t, 4.0, 1.0)) == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_blowup_towards_critical_growth(self):
        vals = [
            cauchy_tail_constant(ExponentProfile(0.5, t, 4.0, 1.0))
            for t in (0.0, 0.1, 0.2, 0.24, 0.2499)
        ]
        assert np.all(np.diff(vals) > 0)
        assert vals[-1] > 1e3

    def test_partial_sums_converge_from_below(self):
        for prof, alpha, limit in ((HILBERT, 0.0, cauchy_tail_constant(HILBERT)),
                                   (SLOW, 2.0, diameter_decay_profile([2.0], SLOW)[0, 1])):
            sums = covering_partial_sums(prof, alpha, 60)
            assert np.all(np.diff(sums) > 0)
            assert np.all(sums < limit)
            gap = limit - sums[-1]
            assert gap == pytest.approx(diameter_decay_profile([alpha + 60], prof)[0, 1], rel=1e-12)

    def test_partial_sum_gap_formula_at_alpha_zero(self):
        # after terms n = 0..50 the remainder is the exact geometric tail
        sums = covering_partial_sums(HILBERT, 0.0, 51)
        limit = cauchy_tail_constant(HILBERT)
        ratio = np.exp(2 * HILBERT.growth_t - HILBERT.holder_s)
        rel_gap = (limit - sums[-1]) / limit
        assert rel_gap == pytest.approx(ratio**51, rel=1e-9)
        assert rel_gap <= ratio**51 / (1.0 - ratio)


class TestDecayProfile:
    def test_halving_scale_hilbert(self):
        rows = diameter_decay_profile([1.0, 1.0 + 2.0 * np.log(2.0)], HILBERT)
        assert rows[1, 1] == pytest.approx(rows[0, 1] / 2.0, rel=1e-12)

    def test_slower_decay_with_growth(self):
        rows = diameter_decay_profile([1.0, 11.0], SLOW)
        assert rows[1, 1] / rows[0, 1] == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_ratio_alpha_10_vs_1(self):
        rows = diameter_decay_profile([1.0, 10.0], HILBERT)
        assert rows[1, 1] / rows[0, 1] == pytest.approx(np.exp(-4.5), rel=1e-12)

    def test_covering_needs_alpha_at_least_one(self):
        with pytest.raises(ValueError):
            diameter_decay_profile([0.5], HILBERT)
        with pytest.raises(ValueError, match="alpha >= 1"):
            diameter_decay_profile([1.0, np.nan, 2.0], HILBERT)
