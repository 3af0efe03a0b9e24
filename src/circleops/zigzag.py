"""Zigzag cost combinatorics on the Weyl cone.

Jumps along a slice a3 = -alpha (the image of the one-parameter conjugation
family) or its reflection a1 = alpha cost at most C L^2 e^(2 alpha t) delta^s;
chaining at most three such slides crosses the annulus
{alpha <= max(a1, -a3) <= (1+eps) alpha} at total cost 6 C L^2 e^(-gamma alpha)
with gamma = s - eps*s - 2t, and summing the unit-step covering over annuli
yields the tail constant 6 C L^2 e^s / (1 - e^(2t - s)).  Each crossing
builds one route through at most two waypoints: with the first point on the
slide side, two segments when the second lies on the other side of the axis
a2 = 0 (or on it), three otherwise; the symmetry (a1, a2, a3) -> (-a3, -a2, -a1)
reflects these waypoints and swaps the two slide rules for the other pairs.
Costs here are certified upper bounds; no operator distance is ever computed
in this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .legendre import _require_count
from .sl3 import LambdaPoint, solve_delta_for_top

__all__ = [
    "ExponentProfile",
    "Segment",
    "CostLedger",
    "J_ALPHA_SLIDE",
    "THETA_REFLECTED_SLIDE",
    "jump_cost",
    "annulus_diameter_bound",
    "ledger_verdict",
    "annulus_pair",
    "ANNULUS_SEED",
    "cauchy_tail_constant",
    "covering_partial_sums",
    "tail_constant_gap",
    "diameter_decay_profile",
]

J_ALPHA_SLIDE = "J_ALPHA_SLIDE"
THETA_REFLECTED_SLIDE = "THETA_REFLECTED_SLIDE"
ANNULUS_SEED = 77  # seeds annulus_pair's generator afresh in each zigzag run (criterion 10 is three)

_GEOM_TOL = 1e-9


@dataclass(frozen=True)
class ExponentProfile:
    """Hoelder exponent/constant (s, C) and growth bound (t, L), with t < s/2."""

    holder_s: float
    growth_t: float
    hoelder_C: float
    growth_L: float

    def __post_init__(self):
        # each check is written so that NaN fails it
        if not 0.0 < self.holder_s <= 0.5:
            raise ValueError("holder exponent must lie in (0, 1/2]")
        if not self.growth_t >= 0.0:
            raise ValueError("growth exponent must be nonnegative")
        if not self.growth_t < self.holder_s / 2.0:
            raise ValueError("need growth_t < holder_s / 2")
        if not 0.0 < self.hoelder_C < np.inf:
            raise ValueError("Hoelder constant must be positive and finite")
        if not 1.0 <= self.growth_L < np.inf:
            raise ValueError("growth constant must be finite and >= 1")
        # L^2 and C' = 6 C L^2 e^s / (1 - e^(2t - s)) stay below e^709 < max float, decided in log
        # space; C' >= 4.19 * 6 C L^2 for every accepted s and t, so 6 C L^2 stays finite too
        log_l2 = 2.0 * np.log(self.growth_L)
        log_six_c_l2 = np.log(6.0) + np.log(self.hoelder_C) + log_l2
        log_tail = log_six_c_l2 + self.holder_s - np.log(-np.expm1(2.0 * self.growth_t - self.holder_s))
        if not all(x <= 709.0 for x in (log_l2, log_tail)):
            raise ValueError(
                f"L^2 and C' = 6 C L^2 e^s / (1 - e^(2t - s)) must stay below e^709: s = {self.holder_s}, "
                f"t = {self.growth_t}, C = {self.hoelder_C}, L = {self.growth_L}"
            )

    def gamma(self, epsilon: float) -> float:
        """gamma = s - eps s - 2t, the rate at which the annulus bound decays in alpha."""
        return self.holder_s - epsilon * self.holder_s - 2.0 * self.growth_t

    def slide_cap(self, alpha: float, epsilon: float) -> float:
        """2 C L^2 e^(-gamma alpha): the cap on one slide's cost across the annulus."""
        return 2.0 * self.hoelder_C * self.growth_L**2 * np.exp(-self.gamma(epsilon) * alpha)


def jump_cost(alpha: float, delta: float, prof: ExponentProfile) -> float:
    """Cost bound C L^2 e^(2 alpha t) delta^s for one slide jump."""
    if not alpha >= 0:  # NaN fails too
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


def annulus_diameter_bound(
    alpha: float,
    epsilon: float,
    prof: ExponentProfile,
    a: LambdaPoint,
    b: LambdaPoint,
):
    """Closed-form annulus bound 3 slide_cap = 6 C L^2 e^(-gamma alpha) plus a witnessing ledger.

    The ledger connects the two caller-supplied points of the annulus
    {alpha <= max(a1, -a3) <= (1+eps) alpha} by at most three slide segments,
    through waypoints at la = a.ell() and lb = b.ell().  With a on the slide
    side (a2 >= 0), a second point with a2 <= 0 takes J to (lb, la - lb, -la)
    and theta to b; one with a2 > 0 takes J to the axis point (la, 0, -la),
    theta to (la, lb - la, -lb) and J to b.  Any other pair is a mirror image
    of these: its waypoints are reflected and J and theta trade places.  A
    pair with both points on the axis takes the two-segment route, J first;
    the mirror route costs the same.  ledger_verdict says whether the ledger
    certifies the bound.

    Before any exp or norm, two limits refuse alpha (NaN fails both).  ExponentProfile keeps 2 log L
    and log C' <= 709 < log(max float) (decided in log space), and 6 C L^2 <= C' / 4.19, so the bound
    3 (2 C) L^2 e^(-gamma alpha) and its partial products are finite while -gamma alpha and their
    sum do too.
    In the annulus a1 lies in [0, ell], a2 in [-ell/2, ell/2] and a3 in [-ell, 0], ell <= (1 + eps)
    alpha, so the squared norm that distance sums over a difference of two points stays
    finite while (1 + eps) alpha < sqrt(max float / 3), about 7.7e153.
    """
    if not 0.0 < alpha < np.inf:  # NaN fails too
        raise ValueError("alpha must be positive and finite")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    gamma = prof.gamma(epsilon)
    log_bound = np.log(6.0) + np.log(prof.hoelder_C) + 2.0 * np.log(prof.growth_L) - gamma * alpha
    if not all(x <= 709.0 for x in (-gamma * alpha, log_bound)):
        raise ValueError(f"the bound 6 C L^2 e^(-gamma alpha) is not a finite float at alpha = {alpha}")
    if not (1.0 + epsilon) * alpha < np.sqrt(np.finfo(float).max / 3.0):
        raise ValueError(f"annulus coordinates overflow a squared norm at alpha = {alpha}")
    for point in (a, b):
        if not alpha - _GEOM_TOL <= point.ell() <= (1.0 + epsilon) * alpha + _GEOM_TOL:
            raise ValueError(f"point {point} outside the annulus at alpha={alpha}, eps={epsilon}")
    bound = 3.0 * prof.slide_cap(alpha, epsilon)

    ledger = CostLedger()
    if a.distance(b) > _GEOM_TOL:
        # a flipped pair takes the mirror image of the route of its reflection
        flip = a.a2 < 0 or (a.a2 == 0 and b.a2 > 0)
        j, theta = (THETA_REFLECTED_SLIDE, J_ALPHA_SLIDE) if flip else (J_ALPHA_SLIDE, THETA_REFLECTED_SLIDE)
        la, lb = a.ell(), b.ell()
        if (b.reflect() if flip else b).a2 <= 0:
            stops, rules = [LambdaPoint(lb, la - lb, -la)], [j, theta]
        else:
            stops, rules = [LambdaPoint(la, 0.0, -la), LambdaPoint(la, lb - la, -lb)], [j, theta, j]
        points = [a, *(stop.reflect() if flip else stop for stop in stops), b]
        ledger = CostLedger([_segment(p, q, rule, prof) for p, q, rule in zip(points, points[1:], rules)])
    ledger.validate()
    return bound, ledger


def ledger_verdict(alpha: float, epsilon: float, prof: ExponentProfile, bound: float, ledger: CostLedger) -> bool:
    """Total <= bound, no slack, and each segment <= slide_cap(alpha, epsilon) + 1e-12 (NaN fails)."""
    cap = prof.slide_cap(alpha, epsilon) + 1e-12
    return bool(ledger.total <= bound and all(seg.cost_bound <= cap for seg in ledger.segments))


def annulus_pair(alpha: float, epsilon: float, rng: np.random.Generator) -> tuple[LambdaPoint, LambdaPoint]:
    """Two random annulus points (a1, level - a1, -level): level uniform in [alpha, (1+eps) alpha],
    a1 in [level, min(2 level, (1+eps) alpha)], each reflected when its third draw is >= 0.5."""
    points = []
    for _ in range(2):
        level = rng.uniform(alpha, (1 + epsilon) * alpha)
        top = rng.uniform(level, min(2 * level, (1 + epsilon) * alpha))
        p = LambdaPoint(top, level - top, -level)
        points.append(p if rng.random() < 0.5 else p.reflect())
    return points[0], points[1]


# ---------------------------------------------------------------------------
# Covering sums over unit annuli and the resulting tail constant.
# ---------------------------------------------------------------------------


def cauchy_tail_constant(prof: ExponentProfile) -> float:
    """C' = 6 C L^2 e^s / (1 - e^(2t - s)), finite for every profile ExponentProfile accepts.

    The denominator is -expm1(2t - s), which is positive as 2t < s and keeps its digits as 2t nears s.
    """
    denominator = -np.expm1(2.0 * prof.growth_t - prof.holder_s)
    return 6.0 * prof.hoelder_C * prof.growth_L**2 * np.exp(prof.holder_s) / denominator


def covering_partial_sums(prof: ExponentProfile, alpha: float, n_terms: int) -> np.ndarray:
    """Partial sums sum_{n=0}^{N} 6 C L^2 e^((2t-s)(alpha+n)+s), N < n_terms.

    They increase to cauchy_tail_constant(prof) e^((2t-s) alpha) from below.
    """
    if not alpha >= 0:  # NaN fails too
        raise ValueError("alpha must be nonnegative")
    _require_count(n_terms, "n_terms", 1)
    n = np.arange(n_terms)
    terms = (
        6.0
        * prof.hoelder_C
        * prof.growth_L**2
        * np.exp((2.0 * prof.growth_t - prof.holder_s) * (alpha + n) + prof.holder_s)
    )
    return np.cumsum(terms)


def tail_constant_gap(prof: ExponentProfile) -> tuple[float, bool]:
    """The relative gap between covering_partial_sums(prof, 0, 2000)[-1] and its closed form, the finite
    geometric sum C' (1 - e^((2t-s) 2000)), and whether it is at most 1e-12 (NaN fails).

    The finite sum keeps the gap a rounding error on every accepted profile, also where e^(2t-s) is
    so near 1 that 2000 terms fall far short of C'; where e^((2t-s) 2000) underflows it is C' itself.
    """
    closed = cauchy_tail_constant(prof) * -np.expm1((2.0 * prof.growth_t - prof.holder_s) * 2000)
    gap = abs(float(covering_partial_sums(prof, 0.0, 2000)[-1]) - closed) / closed
    return gap, bool(gap <= 1e-12)


def diameter_decay_profile(alpha_grid, prof: ExponentProfile) -> np.ndarray:
    """Certified decay bounds C' e^((2t-s) alpha) on a grid of finite alphas >= 1.

    Returns an array of rows (alpha, bound).
    """
    alphas = np.asarray(alpha_grid, dtype=float)
    covered = (alphas >= 1.0) & (alphas < np.inf)  # NaN fails too
    if not covered.all():
        raise ValueError(f"covering argument needs finite alpha >= 1: alpha = {alphas[~covered][0]}")
    bounds = cauchy_tail_constant(prof) * np.exp((2.0 * prof.growth_t - prof.holder_s) * alphas)
    return np.column_stack([alphas, bounds])
