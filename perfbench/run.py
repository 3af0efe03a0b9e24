"""Benchmark runner: seeded certificate workloads, timed from outside the library.

    python3 perfbench/run.py --workload sphere-averaging --seed 1 --seconds 30 --trace 0

A run makes `round(seconds / pass_seconds)` passes of its workload (see
workloads.py), so the work in a run is fixed by the benchmark, not by the
speed of the commit.  The last line of standard output is one JSON object.

With `--trace 0` it holds the end-to-end metrics of untraced passes:
setup_s (median of fresh-interpreter set-ups), wall_s (median pass time),
job_p50_ms, job_tail_ms (the highest percentile with ten jobs beyond it),
pass_ratio (jobs that passed their check over jobs attempted) and
peak_rss_mb.  Times are calibrated to a nominal machine speed (speed.py);
the raw wall-clock values are written beside the result.

With `--trace 1` each pass runs once untraced and once traced, the outputs of
the two must agree bit for bit, and it holds the per-layer metrics per
traced pass.  An environment record, the result and (traced) the spans are
written beside each other under perfbench/out/.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import bootstrap

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "pass_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    from tracer import COUNTED_METHODS, HOT_FUNCTIONS, KERNEL_COUNTS, LAYERS

    units = {}
    for layer in LAYERS:
        units.update({f"{layer}.calls": "count", f"{layer}.self_s": "s", f"{layer}.errors": "count"})
    for name in HOT_FUNCTIONS:
        units.update({f"{name}.calls": "count", f"{name}.self_s": "s"})
    units.update({f"{name}.calls": "count" for name in COUNTED_METHODS})
    units.update({count: "count" for count, _ in KERNEL_COUNTS.values()})
    units["sphere.harmonic_bytes"] = "bytes"
    units.update({"trace.overhead_s": "s", "checks.self_s": "s", "sphere.markov_pull_max": "sigma"})
    return units


@dataclasses.dataclass
class JobResult:
    kind: str
    seconds: float
    ok: bool
    digest: str = ""
    diagnostics: dict = dataclasses.field(default_factory=dict)
    marks: tuple[int, int] = (-1, -1)  # speed samples taken before and after the job


def _feed(h, obj) -> None:
    """Hash an output's exact bits: arrays, floats, dataclasses and containers."""
    if hasattr(obj, "dtype") and hasattr(obj, "tobytes"):
        h.update(f"{obj.dtype}{getattr(obj, 'shape', ())}".encode())
        h.update(obj.tobytes())
    elif isinstance(obj, float):
        h.update(obj.hex().encode())
    elif isinstance(obj, (bool, int, str)):
        h.update(repr(obj).encode())
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            _feed(h, getattr(obj, f.name))
    elif isinstance(obj, dict):
        for key in sorted(obj):
            h.update(key.encode())
            _feed(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        h.update(f"[{len(obj)}".encode())
        for item in obj:
            _feed(h, item)
    else:
        raise TypeError(f"cannot fingerprint {type(obj).__name__}")


def fingerprint(obj) -> str:
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def run_pass(jobs, tracer=None, digest=False, perturb=(), speed=None) -> list[JobResult]:
    """Run jobs one after another; a job fails if it raises or its check is false.

    Job time covers the library calls only; the check runs after the clock
    stops.  With a tracer, each job and each check is a root span.  With a
    speed log, the calibration kernel runs before the first job and after
    each check.  Kinds named in `perturb` have their output replaced by a
    wrong one before the check (self-test only).
    """
    results = []
    mark = speed.mark() if speed else -1
    for job in jobs:
        results.append(_run_job(job, tracer, digest, job.kind.name in perturb))
        if speed:
            after = speed.mark()
            results[-1].marks = (mark, after)
            mark = after
    return results


def _run_job(job, tracer, digest: bool, perturb: bool) -> JobResult:
    kind = job.kind
    start = time.perf_counter()
    try:
        out = tracer.span(f"job.{kind.name}", kind.run, job.params) if tracer else kind.run(job.params)
    except Exception:
        traceback.print_exc()
        return JobResult(kind.name, time.perf_counter() - start, False)
    seconds = time.perf_counter() - start
    if perturb:
        out = kind.perturb(out)
    try:
        if tracer:
            ok = bool(tracer.span(f"check.{kind.name}", kind.check, job.params, out))
        else:
            ok = bool(kind.check(job.params, out))
        diagnostics = kind.diagnose(job.params, out) if kind.diagnose else {}
    except Exception:
        traceback.print_exc()
        ok, diagnostics = False, {}
    if not ok:
        print(f"perfbench: {kind.name} job failed its check", file=sys.stderr)
    return JobResult(kind.name, seconds, ok, fingerprint(out) if digest else "", diagnostics)


def pass_seconds(results: list[JobResult]) -> float:
    return sum(r.seconds for r in results)


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND jobs beyond it, and its value.

    With fewer than TAIL_BEYOND + 1 jobs there is no such percentile; the
    maximum is reported and labelled as the 100th.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def measure_setup(workload: str, seed: int, speed) -> list[tuple[float, float]]:
    """(raw, calibrated) import plus pass-0 input generation, each in a fresh interpreter."""
    samples = []
    for _ in range(SETUP_PROBES):
        before = speed.mark()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        raw = float(proc.stdout.strip().splitlines()[-1])
        samples.append((raw, raw * speed.scale(before, speed.mark())))
    return samples


def _timings(setup: list[float], passes: list[list[float]]) -> dict:
    latencies = [x for seconds in passes for x in seconds]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(sum(seconds) for seconds in passes),
        "job_p50_ms": 1e3 * statistics.median(latencies),
        "job_tail_ms": 1e3 * tail(latencies)[1],
    }


def end_to_end(workload, args):
    """Untraced passes; returns the metrics, every job result and the raw timings."""
    from speed import SpeedLog

    speed = SpeedLog()
    setup = measure_setup(workload.name, args.seed, speed)
    passes = [run_pass(workload.generate(args.seed, k), speed=speed) for k in range(workload.passes(args.seconds))]
    results = [r for res in passes for r in res]
    metrics = _timings(
        [calibrated for _, calibrated in setup],
        [[r.seconds * speed.scale(*r.marks) for r in res] for res in passes],
    )
    metrics["pass_ratio"] = sum(r.ok for r in results) / len(results)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    percentile = tail([r.seconds for r in results])[0]
    print(
        f"perfbench: {len(passes)} passes, {len(results)} jobs; job_tail_ms is the "
        f"p{percentile:.1f} latency ({TAIL_BEYOND} jobs beyond it)"
    )
    raw = _timings([r for r, _ in setup], [[r.seconds for r in res] for res in passes])
    record = {
        "raw_timings": raw,
        "tail_percentile": percentile,
        "jobs": [[r.kind, r.seconds, speed.scale(*r.marks)] for r in results],
        "speed_samples": speed.samples,
    }
    return metrics, results, record


def environment(args) -> dict:
    import numpy
    import scipy

    sha = None
    if (bootstrap.ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=bootstrap.ROOT, capture_output=True, text=True, timeout=30
        )
        sha = proc.stdout.strip() or None
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": bootstrap.thread_settings(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_traced(workload, args):
    """Pairs of (untraced, traced) runs of the same pass; returns both and the tracer."""
    from tracer import Tracer

    tracer = Tracer()
    plain, traced = [], []
    for k in range(max(1, workload.passes(args.seconds) // 2)):
        jobs = workload.generate(args.seed, k)
        plain.append(run_pass(jobs, digest=True))
        tracer.install()
        try:
            traced.append(run_pass(jobs, tracer=tracer, digest=True))
        finally:
            tracer.uninstall()
    return plain, traced, tracer


def per_layer_metrics(tracer, plain, traced) -> dict:
    from tracer import COUNTED_METHODS, HOT_FUNCTIONS, KERNEL_COUNTS, LAYERS

    n = len(traced)
    self_s, calls = tracer.self_times()
    values = {}
    for layer in LAYERS:
        prefix = layer + "."
        values[f"{layer}.calls"] = (
            sum(c for name, c in calls.items() if name.startswith(prefix))
            + sum(tracer.counts[name] for name in COUNTED_METHODS if name.startswith(prefix))
        ) / n
        values[f"{layer}.self_s"] = sum(s for name, s in self_s.items() if name.startswith(prefix)) / n
        values[f"{layer}.errors"] = sum(e for name, e in tracer.errors.items() if name.startswith(prefix)) / n
    for name in HOT_FUNCTIONS:
        values[f"{name}.calls"] = calls[name] / n
        values[f"{name}.self_s"] = self_s[name] / n
    for name in COUNTED_METHODS:
        values[f"{name}.calls"] = tracer.counts[name] / n
    for count, _ in KERNEL_COUNTS.values():
        values[count] = tracer.kernel[count] / n
    values["sphere.harmonic_bytes"] = 8 * values["sphere.harmonic_values"]
    values["trace.overhead_s"] = statistics.median(
        pass_seconds(t) - pass_seconds(p) for p, t in zip(plain, traced)
    )
    values["checks.self_s"] = sum(s for name, s in self_s.items() if name.startswith("check.")) / n
    pulls = [r.diagnostics["sphere.markov_pull_max"] for res in traced for r in res if r.diagnostics]
    values["sphere.markov_pull_max"] = max(pulls, default=0.0)
    return {
        name: int(values[name]) if unit in ("count", "bytes") and float(values[name]).is_integer() else values[name]
        for name, unit in per_layer_units().items()
    }


def layer_shares(tracer) -> dict:
    """Each layer's self time as a share of all time inside job and check spans."""
    from tracer import LAYERS

    self_s, _ = tracer.self_times()
    total = sum(end - start for name, start, end, parent in tracer.spans if parent < 0)
    return {layer: sum(s for n, s in self_s.items() if n.startswith(layer + ".")) / total for layer in LAYERS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    bootstrap.prepare()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]

    record = {}
    if args.trace:
        plain, traced, tracer = run_traced(workload, args)
        results = [r for res in plain + traced for r in res]
        identical = all(
            [r.digest for r in p] == [r.digest for r in t] for p, t in zip(plain, traced)
        )
        metrics = per_layer_metrics(tracer, plain, traced)
        units = per_layer_units()
        shares = layer_shares(tracer)
        print("perfbench: layer share of traced time: " + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
        print(f"perfbench: traced outputs identical to untraced: {identical}")
    else:
        metrics, results, record = end_to_end(workload, args)
        units = END_TO_END_UNITS
        identical = True

    failed = sum(not r.ok for r in results)
    report = {
        "correct": failed == 0 and identical,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    bootstrap.OUT.mkdir(exist_ok=True)
    (bootstrap.OUT / f"{stem}.env.json").write_text(json.dumps(environment(args), indent=1) + "\n")
    (bootstrap.OUT / f"{stem}.result.json").write_text(json.dumps({**report, **record}, indent=1) + "\n")
    if args.trace:
        (bootstrap.OUT / f"{stem}.spans.json").write_text(json.dumps(tracer.dump()) + "\n")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
