"""Zigzag cost combinatorics on the Weyl cone.

Jumps along a slice a3 = -alpha (the image of the one-parameter conjugation
family) or its reflection a1 = alpha cost at most C L^2 e^(2 alpha t) delta^s;
chaining at most three such slides crosses the annulus
{alpha <= max(a1, -a3) <= (1+eps) alpha} at total cost 6 C L^2 e^(-gamma alpha)
with gamma = s - eps*s - 2t, and summing the unit-step covering over annuli
yields the tail constant 6 C L^2 e^s / (1 - e^(2t - s)).  Costs here are
certified upper bounds; no operator distance is ever computed in this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .sl3 import LambdaPoint, solve_delta_for_top

__all__ = [
    "ExponentProfile",
    "Segment",
    "CostLedger",
    "J_ALPHA_SLIDE",
    "THETA_REFLECTED_SLIDE",
    "jump_cost",
    "annulus_diameter_bound",
    "ledger_reflect",
    "cauchy_tail_constant",
    "covering_partial_sums",
    "covering_limit",
    "covering_tail_exact",
    "diameter_decay_profile",
]

J_ALPHA_SLIDE = "J_ALPHA_SLIDE"
THETA_REFLECTED_SLIDE = "THETA_REFLECTED_SLIDE"

_GEOM_TOL = 1e-9


@dataclass(frozen=True)
class ExponentProfile:
    """Hoelder exponent/constant (s, C) and growth bound (t, L), with t < s/2."""

    holder_s: float
    growth_t: float
    hoelder_C: float
    growth_L: float

    def __post_init__(self):
        if not 0.0 < self.holder_s <= 0.5:
            raise ValueError("holder exponent must lie in (0, 1/2]")
        if self.growth_t < 0.0:
            raise ValueError("growth exponent must be nonnegative")
        if self.growth_t >= self.holder_s / 2.0:
            raise ValueError("need growth_t < holder_s / 2")
        if self.hoelder_C <= 0.0:
            raise ValueError("Hoelder constant must be positive")
        if self.growth_L < 1.0:
            raise ValueError("growth constant must be >= 1")


def jump_cost(alpha: float, delta: float, prof: ExponentProfile) -> float:
    """Cost bound C L^2 e^(2 alpha t) delta^s for one slide jump."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must lie in [0, 1]")
    if delta == 0.0:
        return 0.0
    return (
        prof.hoelder_C
        * prof.growth_L**2
        * np.exp(2.0 * alpha * prof.growth_t)
        * delta**prof.holder_s
    )


@dataclass(frozen=True)
class Segment:
    start: LambdaPoint
    end: LambdaPoint
    cost_bound: float
    rule: str


@dataclass
class CostLedger:
    """A chain of slide segments with per-segment certified cost bounds."""

    segments: list = field(default_factory=list)

    @property
    def total(self) -> float:
        return float(sum(seg.cost_bound for seg in self.segments))

    def validate(self):
        for prev, cur in zip(self.segments, self.segments[1:]):
            if prev.end.distance(cur.start) > _GEOM_TOL:
                raise ValueError("consecutive segments must share endpoints")
        for seg in self.segments:
            if seg.rule == J_ALPHA_SLIDE:
                if abs(seg.start.a3 - seg.end.a3) > _GEOM_TOL:
                    raise ValueError("slide segment must keep a3 constant")
            elif seg.rule == THETA_REFLECTED_SLIDE:
                if abs(seg.start.a1 - seg.end.a1) > _GEOM_TOL:
                    raise ValueError("reflected slide must keep a1 constant")
            else:
                raise ValueError(f"unknown rule {seg.rule}")
        return self


def _slide_delta(level: float, a1: float) -> float:
    """Slide parameter of the point with top exponent a1 on the slice a3 = -level."""
    return solve_delta_for_top(level, min(a1, 2.0 * level))


def _segment(p: LambdaPoint, q: LambdaPoint, rule: str, prof: ExponentProfile) -> Segment:
    """Certified cost of sliding between two points on a common slice.

    Both points are within jump_cost of the slice's base point (parameter 0),
    so the triangle inequality certifies the sum of their two jump costs.  A
    reflected slide costs what the slide between the reflected points costs.
    """
    s, t = (p, q) if rule == J_ALPHA_SLIDE else (p.reflect(), q.reflect())
    level = -s.a3
    cost = jump_cost(level, _slide_delta(level, s.a1), prof) + jump_cost(level, _slide_delta(level, t.a1), prof)
    return Segment(start=p, end=q, cost_bound=cost, rule=rule)


def _in_annulus(p: LambdaPoint, alpha: float, epsilon: float) -> bool:
    ell = p.ell()
    return alpha - _GEOM_TOL <= ell <= (1.0 + epsilon) * alpha + _GEOM_TOL


def annulus_diameter_bound(
    alpha: float,
    epsilon: float,
    prof: ExponentProfile,
    a: LambdaPoint,
    b: LambdaPoint,
):
    """Closed-form annulus bound 6 C L^2 e^(-gamma alpha) plus a witnessing ledger.

    The ledger connects the two caller-supplied points of the annulus
    {alpha <= max(a1, -a3) <= (1+eps) alpha} by at most three slide segments
    (two when the points lie on opposite sides of the axis a2 = 0); its total
    is asserted to stay within the returned bound.  Routes are built with a
    on the slide side (a2 >= 0); the others are their ledger_reflect images.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    for point in (a, b):
        if not _in_annulus(point, alpha, epsilon):
            raise ValueError(f"point {point} outside the annulus at alpha={alpha}, eps={epsilon}")
    gamma = prof.holder_s - epsilon * prof.holder_s - 2.0 * prof.growth_t
    bound = 6.0 * prof.hoelder_C * prof.growth_L**2 * np.exp(-gamma * alpha)

    ledger = CostLedger()
    if a.distance(b) > _GEOM_TOL:
        routes = []
        if a.a2 >= -_GEOM_TOL and b.a2 <= _GEOM_TOL:
            routes.append(_two_segment_route(a, b, prof))
        if a.a2 <= _GEOM_TOL and b.a2 >= -_GEOM_TOL:
            routes.append(ledger_reflect(_two_segment_route(a.reflect(), b.reflect(), prof)))
        if not routes:  # both strictly on one side of the axis
            routes.append(
                _three_segment_route(a, b, prof)
                if a.a2 > 0
                else ledger_reflect(_three_segment_route(a.reflect(), b.reflect(), prof))
            )
        ledger = _pick_route(routes, alpha)
    ledger.validate()
    if ledger.total > bound + 1e-12:
        raise AssertionError(
            f"ledger total {ledger.total} exceeds certified bound {bound}"
        )
    return bound, ledger


def _two_segment_route(a: LambdaPoint, b: LambdaPoint, prof: ExponentProfile) -> CostLedger:
    """a on the slide side (a2 >= 0), b on the reflected side (a2 <= 0): J then theta."""
    la, lb = a.ell(), b.ell()
    cross = LambdaPoint(lb, la - lb, -la)
    return CostLedger([_segment(a, cross, J_ALPHA_SLIDE, prof), _segment(cross, b, THETA_REFLECTED_SLIDE, prof)])


def _three_segment_route(a: LambdaPoint, b: LambdaPoint, prof: ExponentProfile) -> CostLedger:
    """a and b on the slide side (a2 > 0): J to the axis, theta along it, J to b."""
    la, lb = a.ell(), b.ell()
    hub, turn = LambdaPoint(la, 0.0, -la), LambdaPoint(la, lb - la, -lb)
    return CostLedger(
        [
            _segment(a, hub, J_ALPHA_SLIDE, prof),
            _segment(hub, turn, THETA_REFLECTED_SLIDE, prof),
            _segment(turn, b, J_ALPHA_SLIDE, prof),
        ]
    )


def _pick_route(routes, alpha: float) -> CostLedger:
    """Tie-break between valid routes: prefer the crossing nearest (a, 0, -a)."""
    if len(routes) == 1:
        return routes[0]
    hub = LambdaPoint(alpha, 0.0, -alpha)
    return min(routes, key=lambda led: led.segments[0].end.distance(hub))


def ledger_reflect(ledger: CostLedger) -> CostLedger:
    """Apply the cone symmetry (a1,a2,a3) -> (-a3,-a2,-a1) to a whole ledger.

    Slide rules swap and every cost bound is preserved (the slice level and
    the solved slide parameters are symmetric).
    """
    swap = {J_ALPHA_SLIDE: THETA_REFLECTED_SLIDE, THETA_REFLECTED_SLIDE: J_ALPHA_SLIDE}
    return CostLedger(
        [
            Segment(
                start=seg.start.reflect(),
                end=seg.end.reflect(),
                cost_bound=seg.cost_bound,
                rule=swap[seg.rule],
            )
            for seg in ledger.segments
        ]
    )


# ---------------------------------------------------------------------------
# Covering sums over unit annuli and the resulting tail constant.
# ---------------------------------------------------------------------------


def cauchy_tail_constant(prof: ExponentProfile) -> float:
    """C' = 6 C L^2 e^s / (1 - e^(2t - s))."""
    ratio = np.exp(2.0 * prof.growth_t - prof.holder_s)
    if ratio >= 1.0:
        raise ValueError("diverges: need 2t < s")
    return 6.0 * prof.hoelder_C * prof.growth_L**2 * np.exp(prof.holder_s) / (1.0 - ratio)


def covering_partial_sums(prof: ExponentProfile, alpha: float, n_terms: int) -> np.ndarray:
    """Partial sums sum_{n=0}^{N} 6 C L^2 e^((2t-s)(alpha+n)+s), N < n_terms.

    They increase to covering_limit(prof, alpha) from below.
    """
    if n_terms < 1:
        raise ValueError("need at least one term")
    n = np.arange(n_terms)
    terms = (
        6.0
        * prof.hoelder_C
        * prof.growth_L**2
        * np.exp((2.0 * prof.growth_t - prof.holder_s) * (alpha + n) + prof.holder_s)
    )
    return np.cumsum(terms)


def covering_limit(prof: ExponentProfile, alpha: float) -> float:
    return cauchy_tail_constant(prof) * np.exp((2.0 * prof.growth_t - prof.holder_s) * alpha)


def covering_tail_exact(prof: ExponentProfile, alpha: float, n_terms: int) -> float:
    """Exact geometric remainder covering_limit - covering_partial_sums[-1]."""
    return covering_limit(prof, alpha + n_terms)


def diameter_decay_profile(alpha_grid, prof: ExponentProfile) -> np.ndarray:
    """Certified decay bounds C' e^((2t-s) alpha) on a grid of alphas >= 1.

    Returns an array of rows (alpha, bound).
    """
    alphas = np.asarray(alpha_grid, dtype=float)
    if np.any(alphas < 1.0):
        raise ValueError("covering argument needs alpha >= 1")
    bounds = np.array([covering_limit(prof, a) for a in alphas])
    return np.column_stack([alphas, bounds])
