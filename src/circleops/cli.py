"""Command-line surface: reproducible experiment runs with manifests, and check-all.

Every subcommand computes all of its outputs (CSV with #-comment metadata,
JSON for structured certificates) and returns (line, files, failure); `main`
alone prints "<command>: <line>" and has `_finish` write the files together
with a run manifest recording the command, every flag except --outdir, the
seed, and the produced files.  On one machine and OpenBLAS kernel, identical
manifests reproduce byte-identical outputs: floats print at 17 significant digits and
all randomness is seeded.  howe-moore runs the closed-form c(n) alone.  No
subcommand types a pass rule: each fails on its library verdict.  zigzag checks its tail constant
and draws its pairs from a generator seeded by the fixed seed its manifest records.

check-all runs the exit criteria of the table CRITERIA, {number: (name, gate, runs)}, and prints
one line per criterion as it finishes; it writes no file.  A row's runs are either subcommand
argv lists, every other flag at its default, or (criteria 4, 6 and 8, the claims no subcommand
makes) a check returning (passed, detail).  Subcommand runs pass when none fails, and their
detail is their lines' "; "-separated fragments, each printed once.  A criterion that reaches
its wall-clock gate (seconds) or raises a degeneracy fails, and its detail says so.

Exit codes: 0 success, 1 a failed certificate check (files still written), 2 flag
errors (an empty, malformed or unknown check-all --only list, an unusable --outdir or output name
included) and runs that run out of memory, 3 numerical-degeneracy aborts.  A run
that exits 2 or 3 writes no file.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import NumericalDegeneracyError
from .legendre import legendre_table
from .repsim import GAP_FLOOR, certified_gaps, coefficient_decay
from .schatten import SingularProfile, dyadic_sum, interpolation_check
from .sl3 import embedding2_solve, embedding2_verdict, j_alpha, kak, solve_delta_for_top
from .spectral import divergence_probe_p4, holder_check, probe_growth, schatten_decay
from .sphere import (SphereGrid, circle_average_operator, contraction_verdict, degree_of_column, markov_trace,
                     mixing_profile)
from .zigzag import (
    ANNULUS_SEED,
    ExponentProfile,
    annulus_diameter_bound,
    annulus_pair,
    cauchy_tail_constant,
    diameter_decay_profile,
    ledger_verdict,
    tail_constant_gap,
)

OUTDIR_ENV = "CIRCLEOPS_OUTDIR"


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _csv(claim: str, header, rows) -> str:
    lines = [f"# checks: {claim}", ",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _json(payload) -> str:
    """numpy arrays, integers and bools go through .tolist(); numpy floats already are floats."""
    return json.dumps(payload, default=lambda obj: obj.tolist(), indent=2, sort_keys=True) + "\n"


def _finish(args, files: dict, failure: str | None = None) -> int:
    """Write a run's files (name -> text), then its manifest; exit 1 if a check failed.

    The manifest's parameters are every parsed flag except --outdir, so the
    record of a run cannot drift from the flags that produced it.
    """
    out = Path(args.outdir or os.environ.get(OUTDIR_ENV) or ".")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in its place, say; main reports it as exit 2
        raise ValueError(f"cannot use {out} as the output directory: {exc.strerror}") from exc
    skip = ("outdir", "command", "func", "seed")
    manifest = {
        "command": args.command,
        "parameters": {k: v for k, v in vars(args).items() if k not in skip},
        "seed": getattr(args, "seed", None),
        "artifact_version": __version__,
        "outputs": list(files),
    }
    files = {**files, f"{args.command.replace('-', '_')}_manifest.json": _json(manifest)}
    taken = [name for name in files if (out / name).exists() and not (out / name).is_file()]
    if taken:  # checked before the first write, so a refused run writes no file
        raise ValueError(f"cannot write {', '.join(taken)} in {out}: not a regular file")
    for name, text in files.items():
        (out / name).write_text(text)
    if failure:
        print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


def float_list(text: str) -> list[float]:
    """The type of list flags (--deltas, tdelta-norms --p): comma-separated floats, sorted ascending."""
    return sorted(float(tok) for tok in text.split(","))


def positive_int(text: str) -> int:
    """The type of count flags: a run over zero (or fewer) items would certify nothing."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


# ---------------------------------------------------------------------------
# subcommands: each computes every output and returns (line, files, failure);
# main prints "<command>: <line>" and hands the files to _finish
# ---------------------------------------------------------------------------


def cmd_legendre_bounds(args):
    deltas = np.linspace(-1.0, 1.0, args.grid)
    defects, bounds, violating = holder_check(deltas, args.nmax)
    violations = int(np.sum(violating))
    worst = float((defects / np.maximum(bounds, 1e-300)).max())
    csv = _csv("max_n |P_n(0)-P_n(delta)| <= 4*sqrt(|delta|)",
               ["delta", "max_defect", "bound"], zip(deltas, defects, bounds))
    return (f"violations={violations}, max ratio={worst:.6f}", {"legendre_bounds.csv": csv},
            "pointwise defect bound violated" if violations else None)


def _decay_line(decay) -> str:
    line = f"p={decay.p:g}: exponent {decay.fit.exponent:.3f} (theory {decay.fit.theory_exponent:.3f})"
    return line if decay.window_error is None else (  # p = inf checks the exponent alone
        f"{line}, doubling change {decay.doubling_change:.2e} (raw {decay.raw_change:.2e}), "
        f"window error {decay.window_error:.1e}, bracket {'held' if decay.bracket else 'NOT held'}")


def cmd_tdelta_norms(args):
    decays = schatten_decay(args.p, args.deltas, n_max=args.nmax)
    return "; ".join(map(_decay_line, decays)), {
        "tdelta_norms.csv": _csv(
            "Schatten norm of the averaging difference decays like delta^(1/2-2/p)",
            ["delta", "p", "N", "value"],
            [(d, decay.p, args.nmax, v) for decay in decays for d, v in decay.fit.grid]),
        "tdelta_decay_fit.json": _json([decay.record() for decay in decays]),
    }, None if all(decay.held() for decay in decays) else "a p fails its doubling, window, bracket or exponent clause"


def cmd_schatten_probe(args):
    ns = [2**k for k in range(10, 17)]
    sums = divergence_probe_p4(args.delta, ns)
    inc, held = probe_growth(args.delta, sums)
    return (f"increments per dyadic window in [{inc.min():.6f}, {inc.max():.6f}] at delta={args.delta}",
            {"schatten_probe_p4.csv": _csv("fourth-power partial sums grow ~log N (boundary exponent p=4)",
                                           ["N", "partial_sum"], zip(ns, sums))},
            None if held else "an increment is below A(delta)/2 = 3 ln 2 / (2 pi^2 (1 - delta^2)) "
                              "or max/min is not below 1.5")


def cmd_mixed_norm(args):
    value, interp, held = interpolation_check(args.delta, args.p, args.truncation)
    csv = _csv("exact norm of the diagonal difference <= interpolation upper bound",
               ["delta", "p", "exact_norm", "interp_bound"], [(args.delta, args.p, value, interp)])
    return (f"p={args.p:g}, delta={args.delta:g}: exact {value:.6f}, interpolation bound {interp:.6f}",
            {"mixed_norm.csv": csv}, None if held else "exact norm exceeded the interpolation bound")


def cmd_kak(args):
    g = np.array(args.matrix, dtype=float).reshape(3, 3)
    dec = kak(g)
    residual, held = dec.verdict(g)
    return f"exponents {dec.a.as_array()}, residual {residual:.3e}", {"kak.json": _json({
        "input": g,
        "k1": dec.k1,
        "a": dec.a.as_array(),
        "k2": dec.k2,
        "residual": residual,
        "length": dec.a.ell(),
    })}, None if held else "reconstruction residual above 1e-9"


def cmd_embedding2(args):
    embedding2_solve(args.gamma, args.gamma)  # the library refuses a bad gamma before numpy builds a grid from it
    alphas = np.linspace(args.gamma, 7.0 * args.gamma / 6.0, args.alpha_grid)  # ends exactly on the tangent edge
    certs, held, edge = [], True, 0.0
    for alpha in alphas:
        cert = embedding2_solve(args.gamma, float(alpha))
        delta_bound, rotation_bound, edge_error, ok = embedding2_verdict(cert)
        certs.append({**dataclasses.asdict(cert), "delta_bound": delta_bound, "rotation_bound": rotation_bound})
        held, edge = held and ok, max(edge, edge_error)
    worst = max(max(c["residual1"], c["residual2"]) for c in certs)
    return (f"gamma={args.gamma:g}: {len(certs)} certificates, max residual {worst:.2e}, "
            f"edge-rotation error {edge:.2e}", {"embedding2.json": _json(certs)},
            None if held else "a certificate exceeds its residual, delta, rotation or tangent-edge bound")


def cmd_zigzag(args):
    prof = ExponentProfile(holder_s=args.s, growth_t=args.t, hoelder_C=args.C, growth_L=args.L)
    cprime = cauchy_tail_constant(prof)
    gap, gap_held = tail_constant_gap(prof)
    diameter_decay_profile([args.alpha_min, args.alpha_max], prof)  # refuses a bad end before numpy builds the grid
    alphas = np.linspace(args.alpha_min, args.alpha_max, args.alpha_grid)
    decay = diameter_decay_profile(alphas, prof)
    ledgers, held = [], True
    rng = np.random.default_rng(args.seed)
    for alpha in alphas:
        a, b = annulus_pair(float(alpha), args.epsilon, rng)
        bound, ledger = annulus_diameter_bound(float(alpha), args.epsilon, prof, a, b)
        held &= ledger_verdict(float(alpha), args.epsilon, prof, bound, ledger)
        ledgers.append({
            "alpha": float(alpha),
            "epsilon": args.epsilon,
            "bound": bound,
            "total": ledger.total,
            "segments": [
                {
                    "from": seg.start.as_array(),
                    "to": seg.end.as_array(),
                    "cost_bound": seg.cost_bound,
                    "rule": seg.rule,
                }
                for seg in ledger.segments
            ],
        })
    failure = "; ".join(text for ok, text in (
        (gap_held, "the 2000-term covering sum misses its closed form by more than 1e-12"),
        (held, "a ledger total or segment exceeds its bound")) if not ok)
    return (f"tail constant C' = {cprime:.6g}; closed-form vs numeric sum gap {gap:.2e}; "
            f"{len(ledgers)} ledgers at epsilon={args.epsilon:g}, "
            f"{'all totals within bounds' if held else 'NOT all within their bounds'}"), {
        "zigzag_decay.csv": _csv("tail-diameter bound C' * e^((2t-s) alpha)", ["alpha", "bound"], decay),
        "zigzag_ledgers.json": _json(ledgers),
    }, failure or None


def cmd_markov(args):
    trace = markov_trace(args.delta, args.steps, args.seed)
    norms, sigmas = mixing_profile(args.delta, args.steps, args.replicas, args.seed)
    worst, held = contraction_verdict(args.delta, norms, sigmas)
    defect = np.abs(np.sum(trace[:-1] * trace[1:], axis=1) - args.delta).max(initial=0.0)
    return (f"{args.steps} steps, chain defect {defect:.2e}, "
            f"final mean norm {norms[-1]:.6f} (theory {abs(args.delta) ** args.steps:.6f}), "
            f"max pull {worst:.2f} (3 allowed)"), {
        "markov_trace.csv": _csv("consecutive positions have inner product delta",
                                 ["step", "x1", "x2", "x3"],
                                 [(k, *trace[k]) for k in range(args.steps + 1)]),
        "markov_profile.csv": _csv("mean-vector norm contracts like |delta|^step",
                                   ["step", "mean_norm", "mc_sigma"],
                                   [(k + 1, norms[k], sigmas[k]) for k in range(args.steps)]),
    }, None if held else "a mean-vector norm lies more than 3 Monte-Carlo sigmas from |delta|^step"


def cmd_howe_moore(args):
    rows, held = coefficient_decay(args.nmax)
    shape = "c strictly decreasing" if held else "c(0) NOT 1, or c NOT positive, decreasing and within 4 e^(-n/2)"
    ratio = (rows[1:, 1] / rows[1:, 2]).max()
    return (f"{shape}, max c/bound={ratio:.3f}, max quadrature defect={rows[:, 3].max():.2e}",
            {"howe_moore_decay.csv": _csv("matrix coefficient of the constant vector decays below 4*e^(-n/2)",
                                          ["n", "c_n", "bound", "quadrature_defect"], rows)},
            None if held else "c(0) not 1, or c(n) not positive, strictly decreasing and within 4 e^(-n/2)")


def cmd_invariant_gap(args):
    gaps, held = certified_gaps(args.jmax)
    lowers, uppers = np.array([gap[:2] for gap in gaps]).T
    rows = [(degree, lower, upper, GAP_FLOOR) for degree, (lower, upper, _) in enumerate(gaps, 1)]
    lower_text, upper_text = (np.array2string(ends, precision=4, max_line_width=10**6) for ends in (lowers, uppers))
    return f"gaps >= {lower_text}, witnessed <= {upper_text}, widest interval {(uppers - lowers).max():.1e}", {
        "invariant_gap.csv": _csv("summed invariant defect over the two circle subgroups >= 1/3",
                                  ["degree", "lower", "witness_defect", "threshold"], rows),
        "invariant_gap_witnesses.json": _json({str(degree): vec for degree, (_, _, vec) in enumerate(gaps, 1)}),
    }, None if held else "gap below 1/3 or above its witness"


# ---------------------------------------------------------------------------
# check-all: the exit criteria
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    elapsed: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} criterion {self.number:2d} [{self.name}] ({self.elapsed:.1f}s): {self.detail}"


def _criterion_4():
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


def _criterion_6():
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


def _criterion_8():
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


CRITERIA = {
    1: ("pointwise defect bound", 10.0, [["legendre-bounds"]]),
    2: ("Schatten truncation stability + decay fit", 120.0,
        [["tdelta-norms", "--p", "4.5,5,6,8", "--nmax", "262144"]]),
    3: ("boundary-exponent growth probe", None, [["schatten-probe", "--delta", d] for d in ("0.3", "0.99")]),
    4: ("spectral-quadrature equivalence", 60.0, _criterion_4),
    5: ("Markov mean contraction", None,
        [["markov", "--delta", d, "--replicas", "100000", "--seed", str(100 + i)]
         for i, d in enumerate(("0.0", "0.3", "0.6", "0.9"))]),
    6: ("dyadic decomposition inequality", None, _criterion_6),
    7: ("interpolation consistency", None,
        [["mixed-norm", "--p", p, "--delta", d] for p in ("4", "6", "8") for d in ("0.025", "0.05", "0.1", "0.2")]),
    8: ("KAK fidelity and slide geometry", None, _criterion_8),
    9: ("embedding certificates", None, [["embedding2", "--gamma", gamma] for gamma in ("2", "4", "8", "16")]),
    10: ("tail constant and ledger bounds", None,
         [["zigzag", "--alpha-grid", "20", "--epsilon", eps] for eps in ("0.2", "0.5", "0.8")]),
    11: ("matrix coefficient decay", None, [["howe-moore"]]),
    12: ("invariant gap", None, [["invariant-gap"]]),
}


def run_criterion(number: int) -> CriterionResult:
    """Time criterion `number`'s row of CRITERIA and judge it; its subcommand runs write no file."""
    name, seconds, runs = CRITERIA[number]
    start = time.perf_counter()
    try:
        if callable(runs):
            passed, detail = runs()
        else:
            outcomes = [(args := build_parser().parse_args(argv)).func(args) for argv in runs]
            fragments = dict.fromkeys(part for line, _, _ in outcomes for part in line.split("; "))
            passed, detail = all(failure is None for _, _, failure in outcomes), "; ".join(fragments)
    except NumericalDegeneracyError as exc:
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if seconds is not None and elapsed >= seconds:
        passed, detail = False, f"{detail}; took {elapsed:.1f} s, gate {seconds:g} s"
    return CriterionResult(number, name, passed, detail, elapsed)


def cmd_check_all(args) -> int:
    """The one subcommand that prints its own lines (one per criterion) and writes no file."""
    try:
        selected = sorted(CRITERIA if args.only is None else {int(tok) for tok in args.only.split(",")})
    except ValueError:
        raise ValueError(f"--only takes comma-separated criterion numbers, got {args.only!r}") from None
    unknown = [num for num in selected if num not in CRITERIA]
    if unknown:
        raise ValueError(f"no criterion {unknown}; the criteria are {', '.join(map(str, CRITERIA))}")
    failed = 0
    for num in selected:
        result = run_criterion(num)
        failed += not result.passed
        print(result.line())
    print(f"\n{len(selected) - failed}/{len(selected)} criteria passed")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circleops",
        description="Numerical certificates for circle-averaging operators and "
        "special-linear double-coset geometry.",
    )
    parser.add_argument("--outdir", default=None,
                        help=f"output directory (default: ${OUTDIR_ENV} or cwd)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("legendre-bounds", help="pointwise defect bounds vs 4 sqrt(delta)")
    p.add_argument("--nmax", type=positive_int, default=2000)
    p.add_argument("--grid", type=positive_int, default=1000)
    p.set_defaults(func=cmd_legendre_bounds)

    p = sub.add_parser("tdelta-norms", help="Schatten norms of the averaging difference")
    p.add_argument("--p", type=float_list, default="8")
    p.add_argument("--deltas", type=float_list, default=",".join(str(2.0**-k) for k in range(1, 11)))
    p.add_argument("--nmax", type=int, default=2**14)
    p.set_defaults(func=cmd_tdelta_norms)

    p = sub.add_parser("schatten-probe", help="fourth-power boundary divergence probe")
    p.add_argument("--delta", type=float, default=0.3)
    p.set_defaults(func=cmd_schatten_probe)

    p = sub.add_parser("mixed-norm", help="exact norm of the diagonal difference vs interpolation bound")
    p.add_argument("--p", type=float, default=4.0)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--truncation", type=positive_int, default=16)
    p.set_defaults(func=cmd_mixed_norm)

    p = sub.add_parser("kak", help="decompose a unimodular 3x3 matrix")
    p.add_argument("--matrix", type=float, nargs=9, required=True,
                   metavar="M", help="nine entries, row major")
    p.set_defaults(func=cmd_kak)

    p = sub.add_parser("embedding2", help="two-sided conjugation certificates")
    p.add_argument("--gamma", type=float, default=4.0)
    p.add_argument("--alpha-grid", type=positive_int, default=20)
    p.set_defaults(func=cmd_embedding2)

    p = sub.add_parser("zigzag", help="cost ledgers and tail constants")
    p.add_argument("--s", type=float, default=0.5)
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--C", type=float, default=4.0)
    p.add_argument("--L", type=float, default=1.0)
    p.add_argument("--alpha-grid", type=positive_int, default=8)
    p.add_argument("--alpha-min", type=float, default=1.0)
    p.add_argument("--alpha-max", type=float, default=8.0)
    p.add_argument("--epsilon", type=float, default=0.5)
    p.set_defaults(func=cmd_zigzag, seed=ANNULUS_SEED)  # the manifest records it, no flag sets it

    p = sub.add_parser("markov", help="sphere chain traces and contraction profile")
    p.add_argument("--delta", type=float, default=0.3)
    p.add_argument("--steps", type=int, default=15)
    p.add_argument("--replicas", type=int, default=10**4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_markov)

    p = sub.add_parser("howe-moore", help="matrix-coefficient decay table")
    p.add_argument("--nmax", type=positive_int, default=6)
    p.set_defaults(func=cmd_howe_moore)

    p = sub.add_parser("invariant-gap", help="invariant defect gap per degree")
    p.add_argument("--jmax", type=positive_int, default=6)
    p.set_defaults(func=cmd_invariant_gap)

    p = sub.add_parser("check-all", help="run the acceptance suite")
    p.add_argument("--only", default=None, help="comma-separated criterion numbers")
    p.set_defaults(func=cmd_check_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.func is cmd_check_all:
            return cmd_check_all(args)
        line, files, failure = args.func(args)
        print(f"{args.command}: {line}")
        return _finish(args, files, failure)
    except NumericalDegeneracyError as exc:
        print(f"numerical degeneracy [{exc.invariant}]: {exc.detail}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # sizes past this machine's memory fail no certificate; outputs are computed before any write
        print(f"out of memory: {args.command} needs more than this machine has; choose smaller sizes", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
