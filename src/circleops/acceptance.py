"""Acceptance suite: every exit criterion at its stated tolerance.

Each criterion is declared once with its number, name and wall-clock gate,
so the CLI's check-all and the pytest acceptance module run one registry,
ALL_CRITERIA.  A criterion is either CLI subcommand runs at its parameters
(`_subcommand`), failing on the subcommand's library verdict, or, for the
three claims that no subcommand makes (criteria 4, 6 and 8), a check
returning (passed, detail) (`_criterion`) that reads the library's rules itself.
A check that trips its wall-clock gate fails, and its detail says how long it took.
"""

from __future__ import annotations

import functools
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .cli import build_parser
from .errors import NumericalDegeneracyError
from .legendre import legendre_table
from .schatten import SingularProfile, dyadic_sum
from .sl3 import j_alpha, kak, solve_delta_for_top
from .sphere import SphereGrid, circle_average_operator, degree_of_column

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
                passed, detail = False, f"{detail}; took {elapsed:.1f} s, gate {seconds:g} s"
            return CriterionResult(number, name, passed, detail, elapsed)

        ALL_CRITERIA[number] = run
        return run

    return register


def _subcommand(number: int, name: str, argvs: list[list[str]], seconds: float | None = None) -> None:
    """Register criterion `number` as the CLI subcommand runs `argvs`, every other flag at its default.

    Each run computes its outputs and reads its library verdict, but writes no file.  The
    criterion passes when no run fails, and its detail is the runs' lines joined by "; ".
    """

    def check() -> tuple[bool, str]:
        runs = [(args := build_parser().parse_args(argv)).func(args) for argv in argvs]
        return all(failure is None for _, _, failure in runs), "; ".join(line for line, _, _ in runs)

    _criterion(number, name, seconds)(check)


_subcommand(1, "pointwise defect bound", [["legendre-bounds"]], seconds=10.0)
_subcommand(2, "Schatten truncation stability + decay fit",
            [["tdelta-norms", "--p", "4.5,5,6,8", "--nmax", "262144"]], seconds=120.0)
_subcommand(3, "boundary-exponent growth probe", [["schatten-probe", "--delta", d] for d in ("0.3", "0.99")])
_subcommand(5, "Markov mean contraction",
            [["markov", "--delta", d, "--replicas", "100000", "--seed", str(100 + i)]
             for i, d in enumerate(("0.0", "0.3", "0.6", "0.9"))])
_subcommand(7, "interpolation consistency",
            [["mixed-norm", "--p", p, "--delta", d] for p in ("4", "6", "8") for d in ("0.025", "0.05", "0.1", "0.2")])
_subcommand(9, "embedding certificates", [["embedding2", "--gamma", gamma] for gamma in ("2", "4", "8", "16")])
_subcommand(10, "tail constant and ledger bounds",
            [["zigzag", "--alpha-grid", "20", "--epsilon", eps] for eps in ("0.2", "0.5", "0.8")])
_subcommand(11, "matrix coefficient decay", [["howe-moore"]])
_subcommand(12, "invariant gap", [["invariant-gap"]])


@_criterion(4, "spectral-quadrature equivalence", seconds=60.0)
def criterion_4():
    """Quadrature circle averages match the Legendre eigenvalues, band 32, compared ring by ring."""
    grid = SphereGrid.build(32)
    degs, rings = degree_of_column(grid.band_limit), grid.band_limit + 1
    worst = 0.0
    for delta in np.linspace(-0.95, 0.95, 20):
        eigs = legendre_table(grid.band_limit, delta)[degs]
        operator = circle_average_operator(grid, delta)
        # the nodes are ring-major, so each ring's comparison stays in cache (566 kB at B = 32)
        for averaged, basis in zip(np.split(operator, rings), np.split(grid.basis, rings)):
            worst = max(worst, float(np.abs(averaged - basis * eigs).max()))
    return worst <= 1e-8, f"sup error {worst:.3e} (tolerance 1e-8)"


@_criterion(6, "dyadic decomposition inequality")
def criterion_6():
    """||lambda||_r^r <= dyadic_sum <= 2 ||lambda||_r^r on 100 random profiles x 4 exponents; the lower
    side holds as dyadic block k has at most 2^k values, each at most lambda_(2^k)."""
    rng = np.random.default_rng(20240601)
    violations, smallest = 0, np.inf
    for _ in range(100):
        size = int(rng.integers(1, 4097))
        vals = np.sort(rng.uniform(0.0, 5.0, size=size))[::-1]
        if rng.random() < 0.3:
            vals[int(0.8 * size):] = 0.0
        prof = SingularProfile(vals)
        for r in (1.2, 2.0, 3.0, 5.0):
            dyadic, power = dyadic_sum(prof, r), prof.schatten_norm(r) ** r
            violations += dyadic > 2.0 * power + 1e-9 or power > dyadic + 1e-9
            if power > 0.0:
                smallest = min(smallest, dyadic / power)
    return violations == 0, (f"violations={violations} over 100 profiles x 4 exponents; "
                             f"smallest dyadic_sum / ||lambda||_r^r = {smallest:.3f} (need >= 1)")


@_criterion(8, "KAK fidelity and slide geometry")
def criterion_8():
    """KAK reconstruction, slide endpoints, and the solved-parameter contraction."""
    rng = np.random.default_rng(11)
    worst_res, kak_ok = 0.0, True
    for _ in range(1000):
        g = rng.normal(size=(3, 3))
        det = np.linalg.det(g)
        if abs(det) < 0.05:
            continue
        if det < 0:
            g[0] *= -1.0
            det = -det
        g /= det ** (1.0 / 3.0)
        residual, held = kak(g).verdict(g)
        worst_res, kak_ok = max(worst_res, residual), kak_ok and held
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
    ok = kak_ok and endpoint_err <= 1e-9 and contraction_ok
    return ok, (
        f"max reconstruction residual {worst_res:.2e}, endpoint error {endpoint_err:.2e}, "
        f"contraction bound {'holds' if contraction_ok else 'violated'} on the 10x10 grid"
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
