"""Acceptance suite: every exit criterion at its stated tolerance.

Each criterion is a self-contained check returning (passed, detail),
declared once with its number, name and wall-clock gate by `_criterion`, so
the CLI's check-all and the pytest acceptance module run one registry,
ALL_CRITERIA.  A certificate that a CLI subcommand also checks has its
bound, slack and verdict in the library, and both call it:
spectral.holder_check (criterion 1), schatten.interpolation_check (7),
sl3.embedding2_verdict (9), zigzag.ledger_verdict (10),
repsim.coefficient_decay (11) and repsim.certified_gaps (12).
Criterion 2 checks completed Schatten norms, not raw truncations (criterion_2).
"""

from __future__ import annotations

import functools
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import NumericalDegeneracyError
from .legendre import legendre_table
from .repsim import certified_gaps, coefficient_decay, decay_ratio
from .schatten import SingularProfile, dyadic_sum, interpolation_check
from .sl3 import LambdaPoint, embedding2_solve, embedding2_verdict, j_alpha, kak, solve_delta_for_top
from .spectral import DecayFit, completed_power_sums, divergence_probe_p4, holder_check, schatten_tail_bound
from .sphere import SphereGrid, circle_average_operator, degree_of_column, mixing_profile
from .zigzag import (
    ExponentProfile,
    annulus_diameter_bound,
    cauchy_tail_constant,
    covering_partial_sums,
    ledger_verdict,
)

__all__ = ["CriterionResult", "ALL_CRITERIA", "run_criteria"]


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    elapsed: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} criterion {self.number:2d} [{self.name}] ({self.elapsed:.1f}s): {self.detail}"


ALL_CRITERIA: dict[int, Callable[[], CriterionResult]] = {}


def _criterion(number: int, name: str, seconds: float | None = None):
    """Register a check returning (passed, detail) as criterion `number`.

    The registered zero-argument callable times the check, fails it when a
    wall-clock gate is set and the check takes `seconds` or longer, and
    returns the CriterionResult; ALL_CRITERIA[number] is that callable.  A
    check that raises NumericalDegeneracyError fails with the detail
    "raised NumericalDegeneracyError: <message>", so the criteria after it still run.
    """

    def register(check: Callable[[], tuple[bool, str]]) -> Callable[[], CriterionResult]:
        @functools.wraps(check)
        def run() -> CriterionResult:
            start = time.perf_counter()
            try:
                passed, detail = check()
            except NumericalDegeneracyError as exc:
                passed, detail = False, f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            if seconds is not None and elapsed >= seconds:
                passed = False
            return CriterionResult(number, name, passed, detail, elapsed)

        ALL_CRITERIA[number] = run
        return run

    return register


@_criterion(1, "pointwise defect bound", seconds=10.0)
def criterion_1():
    """Pointwise defect bound |P_n(0) - P_n(d)| <= 4 sqrt|d|, n <= 2000; violations count deltas."""
    heads, bounds, violating = holder_check(np.linspace(-1.0, 1.0, 1000), 2000)
    violations = int(np.sum(violating))
    worst = float((heads / np.maximum(bounds, 1e-300)).max())
    return violations == 0, f"violations={violations}, max ratio={worst:.6f}"


@_criterion(2, "Schatten truncation stability + decay fit", seconds=120.0)
def criterion_2():
    """Schatten decay: completed norms stable to 1e-6 by N=2^18, fit exponents.

    completed_power_sums gives the partial sums at N = 2^17 and 2^18 and
    their completions by schatten_tail_estimate from one recurrence pass.
    Completed norms at N and 2N differ only by the estimate's error over the
    window N < n <= 2N, so the 1e-6 stabilization clause is a consistency
    check on the completion; the binding check is that the mass the estimate
    predicts between 2^17 and 2^18 matches the recurrence's own mass there to
    1e-6.  The completion must also lie between the partial sum and the
    partial sum plus schatten_tail_bound.  The exponents are fitted to the
    completed norms at 2^18.
    """
    ps = np.array([4.5, 5.0, 6.0, 8.0])
    deltas = np.array([2.0**-k for k in range(1, 11)])
    checkpoints = [2**17, 2**18]
    roots = 1.0 / ps[:, None]
    windows, tails, completed = completed_power_sums(deltas, ps, checkpoints)
    sums = np.cumsum(windows, axis=-1)
    partial = sums ** roots[..., None]
    final_change = np.abs(completed[..., 1] - completed[..., 0]) / completed[..., 1]
    raw_change = np.abs(partial[..., 1] - partial[..., 0]) / partial[..., 1]
    stab_ok = bool(np.all(final_change < 1e-6))
    fits = [DecayFit.from_grid(deltas, completed[i, :, 1], 0.5 - 2.0 / p) for i, p in enumerate(ps)]
    exp_ok = all(fit.exponent >= fit.theory_exponent - 0.05 for fit in fits)
    bounds = np.array([[schatten_tail_bound(d, p, checkpoints[-1]) for d in deltas] for p in ps])
    ceiling = (sums[..., 1] + bounds) ** roots
    bracket_ok = bool(np.all((partial[..., 1] <= completed[..., 1]) & (completed[..., 1] <= ceiling)))
    masses = windows[..., -1]
    window_err = np.abs(tails[..., 0] - tails[..., 1] - masses) / masses
    window_ok = bool(np.all(window_err <= 1e-6))
    detail = (
        "max doubling change per p "
        + np.array2string(final_change.max(axis=1), precision=2)
        + " (need < 1e-6; raw truncation "
        + np.array2string(raw_change.max(axis=1), precision=2)
        + "); fitted exponents "
        + np.array2string(np.array([fit.exponent for fit in fits]), precision=3)
        + f"; tail window error {window_err.max():.1e} (need <= 1e-6); "
        + f"partial <= completed <= partial + tail bound: {'yes' if bracket_ok else 'NO'}"
    )
    return stab_ok and exp_ok and bracket_ok and window_ok, detail


@_criterion(3, "boundary-exponent growth probe")
def criterion_3():
    """Fourth-power partial sums keep growing with steady dyadic increments."""
    ok = True
    parts = []
    deltas = (0.3, 0.99)
    probes = divergence_probe_p4(deltas, [2**k for k in range(10, 17)])
    for delta, floor, sums in zip(deltas, (0.1, 4.0), probes):
        inc = np.diff(sums)
        ok &= bool(np.all(inc > floor)) and inc.max() / inc.min() < 1.5
        parts.append(f"delta={delta}: increments in [{inc.min():.4f}, {inc.max():.4f}]")
    return ok, "; ".join(parts)


@_criterion(4, "spectral-quadrature equivalence", seconds=60.0)
def criterion_4():
    """Quadrature circle averages match the Legendre eigenvalues, band 32."""
    grid = SphereGrid.build(32)
    degs = degree_of_column(32)
    worst = 0.0
    for delta in np.linspace(-0.95, 0.95, 20):
        averaged = circle_average_operator(grid, delta)
        eigs = legendre_table(32, delta)[degs]
        worst = max(worst, float(np.abs(averaged - grid.basis * eigs[None, :]).max()))
    return worst <= 1e-8, f"sup error {worst:.3e} (tolerance 1e-8)"


@_criterion(5, "Markov mean contraction")
def criterion_5():
    """Markov mean contraction ||E x_k|| = |delta|^k within 3 MC sigmas."""
    ok = True
    worst = 0.0
    for i, delta in enumerate((0.0, 0.3, 0.6, 0.9)):
        norms, sigmas = mixing_profile(delta, steps=15, replicas=10**5, seed=100 + i)
        theory = delta ** np.arange(1, 16)
        pulls = np.abs(norms - theory) / sigmas
        worst = max(worst, float(pulls.max()))
        ok &= bool(np.all(pulls <= 3.0))
    return ok, f"max |deviation|/sigma = {worst:.2f} (3 allowed), 1e5 replicas"


@_criterion(6, "dyadic decomposition inequality")
def criterion_6():
    """Dyadic block inequality on 100 random profiles x 4 exponents."""
    rng = np.random.default_rng(20240601)
    violations = 0
    for _ in range(100):
        size = int(rng.integers(1, 4097))
        vals = np.sort(rng.uniform(0.0, 5.0, size=size))[::-1]
        if rng.random() < 0.3:
            vals[int(0.8 * size):] = 0.0
        prof = SingularProfile(vals)
        for r in (1.2, 2.0, 3.0, 5.0):
            if dyadic_sum(prof, r) > 2.0 * prof.schatten_norm(r) ** r + 1e-9:
                violations += 1
    return violations == 0, f"violations={violations} over 100 profiles x 4 exponents"


@_criterion(7, "interpolation consistency")
def criterion_7():
    """The exact mixed norm of the diagonal T_0 - T_delta never exceeds the interpolation bound."""
    violations = 0
    margin = np.inf
    for p in (4.0, 6.0, 8.0):
        for delta in (0.025, 0.05, 0.1, 0.2):
            value, upper, held = interpolation_check(delta, p, 16)
            violations += not held
            margin = min(margin, upper - value)
    return violations == 0, f"violations={violations}, smallest upper-lower margin {margin:.4f}"


@_criterion(8, "KAK fidelity and slide geometry")
def criterion_8():
    """KAK reconstruction, slide endpoints, and the solved-parameter contraction."""
    rng = np.random.default_rng(11)
    worst_res = 0.0
    for _ in range(1000):
        g = rng.normal(size=(3, 3))
        det = np.linalg.det(g)
        if abs(det) < 0.05:
            continue
        if det < 0:
            g[0] *= -1.0
            det = -det
        g /= det ** (1.0 / 3.0)
        dec = kak(g)
        worst_res = max(worst_res, dec.residual(g))
    endpoint_err = 0.0
    for alpha in (0.5, 1.0, 2.0, 4.0):
        got0 = j_alpha(alpha, 0.0).as_array()
        got1 = j_alpha(alpha, 1.0).as_array()
        endpoint_err = max(
            endpoint_err,
            float(np.abs(got0 - [alpha / 2, alpha / 2, -alpha]).max()),
            float(np.abs(got1 - [2 * alpha, -alpha, -alpha]).max()),
        )
    contraction_ok = True
    for alpha in np.linspace(0.5, 5.0, 10):
        for eps in np.linspace(0.05, 0.95, 10):
            delta = solve_delta_for_top(alpha, (1.0 + eps) * alpha)
            contraction_ok &= delta <= np.exp((eps - 1.0) * alpha) + 1e-12
    ok = worst_res <= 1e-9 and endpoint_err <= 1e-9 and contraction_ok
    return ok, (
        f"max reconstruction residual {worst_res:.2e}, endpoint error {endpoint_err:.2e}, "
        f"contraction bound {'holds' if contraction_ok else 'violated'} on the 10x10 grid"
    )


@_criterion(9, "embedding certificates")
def criterion_9():
    """Embedding certificates across gamma in {2,4,8,16} x 20 alphas."""
    rot90 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    ok = True
    worst_res, worst_edge = 0.0, 0.0
    for gamma in (2.0, 4.0, 8.0, 16.0):
        for alpha in np.linspace(gamma, 7 * gamma / 6, 20):
            cert = embedding2_solve(gamma, alpha)
            ok &= embedding2_verdict(cert)[2]
            worst_res = max(worst_res, cert.residual1, cert.residual2)
        ok &= cert.delta2 == 0.0  # the last alpha is the tangent edge 7 gamma / 6
        worst_edge = max(worst_edge, float(np.abs(cert.k2 - rot90).max()))
    ok &= worst_edge <= 1e-9
    return ok, f"max residual {worst_res:.2e}, max edge-rotation error {worst_edge:.2e}"


@_criterion(10, "tail constant and ledger bounds")
def criterion_10():
    """Tail constant vs independent geometric sum; ledger totals within bounds."""
    prof = ExponentProfile(holder_s=0.5, growth_t=0.0, hoelder_C=4.0, growth_L=1.0)
    closed = cauchy_tail_constant(prof)
    independent = float(covering_partial_sums(prof, 0.0, 2000)[-1])
    gap = abs(closed - independent) / closed
    ok = gap <= 1e-12
    rng = np.random.default_rng(77)
    checked = held = 0
    for alpha in (1.0, 2.0, 4.0, 8.0):
        for eps in (0.2, 0.5, 0.8):
            for _ in range(5):
                pts = []
                for _k in range(2):
                    ell = rng.uniform(alpha, (1 + eps) * alpha)
                    top = rng.uniform(ell, min(2 * ell, (1 + eps) * alpha))
                    p = LambdaPoint(top, ell - top, -ell)
                    pts.append(p if rng.random() < 0.5 else p.reflect())
                bound, ledger = annulus_diameter_bound(alpha, eps, prof, pts[0], pts[1])
                held += ledger_verdict(alpha, eps, prof, bound, ledger)
                checked += 1
    return ok and held == checked, f"closed-form vs numeric sum gap {gap:.2e}; {held}/{checked} ledgers within bounds"


@_criterion(11, "matrix coefficient decay")
def criterion_11():
    """Coefficient decay: c(n) strictly decreasing, c(n) <= 4 e^(-n/2), quadrature defect < 10%."""
    rows, held = coefficient_decay(6)
    shape = "c strictly decreasing" if held else "c NOT positive, decreasing and within 4 e^(-n/2)"
    return held, f"{shape}, max c/bound={decay_ratio(rows):.3f}, max quadrature defect={rows[:, 3].max():.2e}"


@_criterion(12, "invariant gap")
def criterion_12():
    """Invariant gap >= 1/3 for degrees 1..6: exact lower end, witnessed upper end."""
    gaps, ok = certified_gaps(6)
    lowers, uppers = np.array([gap[:2] for gap in gaps]).T
    return ok, (
        f"gaps >= {np.array2string(lowers, precision=4)}, witnessed <= "
        f"{np.array2string(uppers, precision=4)}, widest interval {(uppers - lowers).max():.1e}"
    )


def run_criteria(numbers=None):
    """Run the selected criteria (all by default), printing one line each.

    Unknown numbers raise ValueError before any criterion runs.
    """
    selected = sorted(ALL_CRITERIA) if numbers is None else sorted(numbers)
    unknown = sorted(set(selected) - set(ALL_CRITERIA))
    if unknown:
        valid = ", ".join(map(str, sorted(ALL_CRITERIA)))
        raise ValueError(f"no criterion {unknown}; the criteria are {valid}")
    results = []
    for num in selected:
        result = ALL_CRITERIA[num]()
        results.append(result)
        print(result.line())
    return results
