"""Tests for the cone-combinatorics cost ledgers and tail constants."""

import mpmath
import numpy as np
import pytest

from circleops.sl3 import LambdaPoint, solve_delta_for_top
from circleops.zigzag import (
    J_ALPHA_SLIDE,
    THETA_REFLECTED_SLIDE,
    CostLedger,
    ExponentProfile,
    Segment,
    annulus_diameter_bound,
    cauchy_tail_constant,
    covering_limit,
    covering_partial_sums,
    covering_tail_exact,
    diameter_decay_profile,
    jump_cost,
    ledger_reflect,
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

    def test_reflection_preserves_totals(self):
        alpha, eps = 2.0, 0.5
        a = slide_point(2.1, 1.4)
        b = slide_point(2.8, 2.0)
        _, ledger = annulus_diameter_bound(alpha, eps, SLOW, a, b)
        mirrored = ledger_reflect(ledger).validate()
        assert mirrored.total == ledger.total
        rules = {J_ALPHA_SLIDE: THETA_REFLECTED_SLIDE, THETA_REFLECTED_SLIDE: J_ALPHA_SLIDE}
        for seg, ref in zip(ledger.segments, mirrored.segments):
            assert ref.rule == rules[seg.rule]
            assert ref.cost_bound == seg.cost_bound


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
    if a.a2 >= -tol and b.a2 <= tol:
        routes = [two]
        if a.a2 <= tol and b.a2 >= -tol:
            routes.append(two_reflected)
        hub = LambdaPoint(alpha, 0.0, -alpha)
        return min(routes, key=lambda led: led.segments[0].end.distance(hub))
    if a.a2 <= tol and b.a2 >= -tol:
        return two_reflected
    corner = LambdaPoint(la, 0.0, -la)
    if a.a2 > 0 and b.a2 > 0:
        return chain([a, corner, LambdaPoint(la, lb - la, -lb), b], [J, T, J])
    return chain([a, corner, LambdaPoint(lb, la - lb, -la), b], [T, J, T])


def _outcome(route):
    """Segments of a validated ledger, or the ValueError its validation raises.

    A point with |a2| = 1e-9 exactly is routed as lying on the axis, yet its
    first slide leaves the slice by 1e-9 plus rounding and fails validation;
    both routings must fail alike there.
    """
    try:
        return route().validate().segments
    except ValueError as exc:
        return str(exc)


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
    """Routes built once and mirrored equal the hand-written four-branch routing exactly."""

    @pytest.mark.parametrize("side_a", _SIDES)
    @pytest.mark.parametrize("side_b", _SIDES)
    def test_matches_four_branch_routing(self, side_a, side_b):
        rng = np.random.default_rng([_SIDES.index(side_a), _SIDES.index(side_b)])
        for _ in range(100):
            alpha, eps = rng.uniform(0.5, 6.0), rng.uniform(0.05, 0.95)
            prof = SLOW if rng.random() < 0.5 else HILBERT
            a = _sided_point(rng, alpha, eps, side_a)
            b = a if rng.random() < 0.05 else _sided_point(rng, alpha, eps, side_b)
            got = _outcome(lambda: annulus_diameter_bound(alpha, eps, prof, a, b)[1])
            assert got == _outcome(lambda: _four_branch_ledger(alpha, a, b, prof)), (a, b)


class TestTailConstant:
    def test_closed_form_value(self):
        expected = 24.0 * np.exp(0.5) / (1.0 - np.exp(-0.5))
        assert cauchy_tail_constant(HILBERT) == pytest.approx(expected, rel=1e-15)
        assert cauchy_tail_constant(HILBERT) == pytest.approx(100.565, abs=5e-3)

    def test_blowup_towards_critical_growth(self):
        vals = [
            cauchy_tail_constant(ExponentProfile(0.5, t, 4.0, 1.0))
            for t in (0.0, 0.1, 0.2, 0.24, 0.2499)
        ]
        assert np.all(np.diff(vals) > 0)
        assert vals[-1] > 1e3

    def test_partial_sums_converge_from_below(self):
        for prof, alpha in ((HILBERT, 0.0), (SLOW, 2.0)):
            sums = covering_partial_sums(prof, alpha, 60)
            limit = covering_limit(prof, alpha)
            assert np.all(np.diff(sums) > 0)
            assert np.all(sums < limit)
            gap = limit - sums[-1]
            assert gap == pytest.approx(covering_tail_exact(prof, alpha, 60), rel=1e-12)

    def test_partial_sum_gap_formula_at_alpha_zero(self):
        # after terms n = 0..50 the remainder is the exact geometric tail
        sums = covering_partial_sums(HILBERT, 0.0, 51)
        limit = covering_limit(HILBERT, 0.0)
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
