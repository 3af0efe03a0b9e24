"""Command-line surface: reproducible experiment runs with manifests.

Every subcommand computes all of its outputs (CSV with #-comment metadata,
JSON for structured certificates) before `_finish` writes them into the
output directory together with a run manifest recording the command, every
flag except --outdir, the seed, and the produced files.  Identical manifests
reproduce byte-identical outputs: floats print at 17 significant digits and
all randomness is seeded.  howe-moore runs the closed-form c(n) alone.  No
subcommand types a pass rule: each exits 1 on the library verdict that the
matching check-all criterion also reads (listed in the acceptance docstring).

Exit codes: 0 success, 1 a failed certificate check (files still written), 2 flag
errors (an unknown check-all --only number, an unusable --outdir or output name
included), 3 numerical-degeneracy aborts.  A run that exits 2 or 3 writes no
file.  check-all records a criterion that raises a degeneracy as FAIL.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import NumericalDegeneracyError
from .repsim import GAP_FLOOR, certified_gaps, coefficient_decay, decay_ratio
from .schatten import interpolation_check
from .sl3 import LambdaPoint, embedding2_solve, embedding2_verdict, kak
from .spectral import divergence_probe_p4, fit_decay, holder_check
from .sphere import markov_trace, mixing_profile
from .zigzag import (
    ExponentProfile,
    annulus_diameter_bound,
    cauchy_tail_constant,
    diameter_decay_profile,
    ledger_verdict,
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


def delta_list(text: str) -> list[float]:
    """The --deltas type: comma-separated floats, sorted ascending."""
    return sorted(float(tok) for tok in text.split(","))


def positive_int(text: str) -> int:
    """The type of count flags: a run over zero (or fewer) items would certify nothing."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


# ---------------------------------------------------------------------------
# subcommand implementations: compute every output, then hand them to _finish
# ---------------------------------------------------------------------------


def cmd_legendre_bounds(args) -> int:
    deltas = np.linspace(-1.0, 1.0, args.grid)
    defects, bounds, violating = holder_check(deltas, args.nmax)
    violations = int(np.sum(violating))
    print(f"legendre-bounds: {args.grid} deltas, degrees <= {args.nmax}, violations={violations}")
    csv = _csv("max_n |P_n(0)-P_n(delta)| <= 4*sqrt(|delta|)",
               ["delta", "max_defect", "bound"], zip(deltas, defects, bounds))
    return _finish(args, {"legendre_bounds.csv": csv},
                   "pointwise defect bound violated" if violations else None)


def cmd_tdelta_norms(args) -> int:
    fit = fit_decay(args.p, args.deltas, n_max=args.nmax)
    print(f"tdelta-norms: fitted exponent {fit.exponent:.4f} "
          f"(theory {fit.theory_exponent:.4f}), constant {fit.constant:.4f}")
    return _finish(args, {
        "tdelta_norms.csv": _csv(
            "Schatten norm of the averaging difference decays like delta^(1/2-2/p)",
            ["delta", "p", "N", "value"],
            [(d, args.p, args.nmax, v) for d, v in fit.grid]),
        "tdelta_decay_fit.json": _json({"p": args.p, **dataclasses.asdict(fit)}),
    })


def cmd_schatten_probe(args) -> int:
    ns = [2**k for k in range(10, 17)]
    sums = divergence_probe_p4(args.delta, ns)
    inc = np.diff(sums)
    print(f"schatten-probe: increments per dyadic window in "
          f"[{inc.min():.6f}, {inc.max():.6f}] at delta={args.delta}")
    return _finish(args, {"schatten_probe_p4.csv": _csv(
        "fourth-power partial sums grow ~log N (boundary exponent p=4)",
        ["N", "partial_sum"], zip(ns, sums))})


def cmd_mixed_norm(args) -> int:
    value, interp, held = interpolation_check(args.delta, args.p, args.truncation)
    print(f"mixed-norm: exact {value:.6f} <= interpolation {interp:.6f}")
    csv = _csv("exact norm of the diagonal difference <= interpolation upper bound",
               ["delta", "p", "exact_norm", "interp_bound"], [(args.delta, args.p, value, interp)])
    return _finish(args, {"mixed_norm.csv": csv}, None if held else "exact norm exceeded the interpolation bound")


def cmd_kak(args) -> int:
    g = np.array(args.matrix, dtype=float).reshape(3, 3)
    dec = kak(g)
    print(f"kak: exponents {dec.a.as_array()}, residual {dec.residual(g):.3e}")
    return _finish(args, {"kak.json": _json({
        "input": g,
        "k1": dec.k1,
        "a": dec.a.as_array(),
        "k2": dec.k2,
        "residual": dec.residual(g),
        "length": dec.a.ell(),
    })})


def cmd_embedding2(args) -> int:
    embedding2_solve(args.gamma, args.gamma)  # the library refuses a bad gamma before numpy builds a grid from it
    alphas = np.linspace(args.gamma, 7.0 * args.gamma / 6.0, args.alpha_grid)
    certs, held = [], True
    for alpha in alphas:
        cert = embedding2_solve(args.gamma, float(alpha))
        delta_bound, rotation_bound, ok = embedding2_verdict(cert)
        certs.append({**dataclasses.asdict(cert), "delta_bound": delta_bound, "rotation_bound": rotation_bound})
        held &= ok
    worst = max(max(c["residual1"], c["residual2"]) for c in certs)
    print(f"embedding2: {len(certs)} certificates, max residual {worst:.3e}")
    return _finish(args, {"embedding2.json": _json(certs)},
                   None if held else "a certificate exceeds its residual, delta or rotation bound")


def cmd_zigzag(args) -> int:
    prof = ExponentProfile(holder_s=args.s, growth_t=args.t, hoelder_C=args.C, growth_L=args.L)
    cprime = cauchy_tail_constant(prof)
    diameter_decay_profile([args.alpha_min, args.alpha_max], prof)  # refuses a bad end before numpy builds the grid
    alphas = np.linspace(args.alpha_min, args.alpha_max, args.alpha_grid)
    decay = diameter_decay_profile(alphas, prof)
    ledgers, held = [], True
    for alpha in alphas:
        a = LambdaPoint(1.2 * alpha, -0.5 * alpha, -0.7 * alpha)
        b = LambdaPoint(0.5 * alpha, 0.5 * alpha, -alpha)
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
    print(f"zigzag: tail constant C' = {cprime:.6g}; {len(ledgers)} ledgers, "
          f"{'all totals within bounds' if held else 'NOT all within their bounds'}")
    return _finish(args, {
        "zigzag_decay.csv": _csv("tail-diameter bound C' * e^((2t-s) alpha)", ["alpha", "bound"], decay),
        "zigzag_ledgers.json": _json(ledgers),
    }, None if held else "a ledger total or segment exceeds its bound")


def cmd_markov(args) -> int:
    trace = markov_trace(args.delta, args.steps, args.seed)
    norms, sigmas = mixing_profile(args.delta, args.steps, args.replicas, args.seed)
    defect = np.abs(np.sum(trace[:-1] * trace[1:], axis=1) - args.delta).max(initial=0.0)
    print(f"markov: {args.steps} steps, chain defect {defect:.2e}, "
          f"final mean norm {norms[-1]:.6f} (theory {abs(args.delta) ** args.steps:.6f})")
    return _finish(args, {
        "markov_trace.csv": _csv("consecutive positions have inner product delta",
                                 ["step", "x1", "x2", "x3"],
                                 [(k, *trace[k]) for k in range(args.steps + 1)]),
        "markov_profile.csv": _csv("mean-vector norm contracts like |delta|^step",
                                   ["step", "mean_norm", "mc_sigma"],
                                   [(k + 1, norms[k], sigmas[k]) for k in range(args.steps)]),
    })


def cmd_howe_moore(args) -> int:
    rows, held = coefficient_decay(args.nmax)
    print(f"howe-moore: c(n) for n <= {args.nmax}, "
          f"max c/bound = {decay_ratio(rows):.4f}")
    return _finish(args, {"howe_moore_decay.csv": _csv(
        "matrix coefficient of the constant vector decays below 4*e^(-n/2)",
        ["n", "c_n", "bound", "quadrature_defect"], rows)},
        None if held else "c(n) not positive, strictly decreasing and within 4 e^(-n/2)")


def cmd_invariant_gap(args) -> int:
    gaps, held = certified_gaps(args.jmax)
    rows = [(degree, lower, upper, GAP_FLOOR) for degree, (lower, upper, _) in enumerate(gaps, 1)]
    print("invariant-gap: " + ", ".join(f"j={d}: [{lo:.4f}, {up:.4f}]" for d, lo, up, _ in rows))
    return _finish(args, {
        "invariant_gap.csv": _csv("summed invariant defect over the two circle subgroups >= 1/3",
                                  ["degree", "lower", "witness_defect", "threshold"], rows),
        "invariant_gap_witnesses.json": _json({str(degree): vec for degree, (_, _, vec) in enumerate(gaps, 1)}),
    }, None if held else "gap below 1/3 or above its witness")


def cmd_check_all(args) -> int:
    from .acceptance import run_criteria

    results = run_criteria({int(tok) for tok in args.only.split(",")} if args.only else None)
    failed = [r for r in results if not r.passed]
    print(f"\n{len(results) - len(failed)}/{len(results)} criteria passed")
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
    p.add_argument("--p", type=float, default=8.0)
    p.add_argument("--deltas", type=delta_list, default=",".join(str(2.0**-k) for k in range(1, 11)))
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
    p.set_defaults(func=cmd_zigzag)

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
        return args.func(args)
    except NumericalDegeneracyError as exc:
        print(f"numerical degeneracy [{exc.invariant}]: {exc.detail}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
