"""Self-tests of the benchmark: tracer coverage, gates that can fail, neutral tracing.

    python3 perfbench/selftest.py

Prints one line per check and exits non-zero if any fails.  Takes about two
minutes on a 2-core box, most of it one untraced and two traced passes of
every workload.
"""

from __future__ import annotations

import json
import sys

import bootstrap

bootstrap.prepare()

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from circleops import repsim, sl3, sphere, spectral, zigzag  # noqa: E402

SEED = 0
FAILURES = []


def expect(label: str, ok: bool, detail: str = "") -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {label}" + (f": {detail}" if detail else ""))
    if not ok:
        FAILURES.append(label)


def test_wrapping() -> None:
    """Re-exported names are wrapped too, and the operator's harmonic calls are all seen."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        imported = (
            (repsim, "real_sph_harm_matrix", "sphere.real_sph_harm_matrix"),
            (zigzag, "solve_delta_for_top", "sl3.solve_delta_for_top"),
            (spectral, "legendre_table", "legendre.legendre_table"),
            (sphere, "legendre_table", "legendre.legendre_table"),
            (repsim, "legendre_table", "legendre.legendre_table"),
        )
        for module, attr, name in imported:
            expect(f"{module.__name__}.{attr} is traced as {name}", getattr(module, attr) is tracer.wrapped[name])
        job = workloads.Job(workloads.OPERATOR, {"band_limit": 32, "delta": 0.3})
        (result,) = run.run_pass([job], tracer=tracer)
        under = tracer.children("sphere.circle_average_operator", "sphere.real_sph_harm_matrix")
        total = tracer.self_times()[1]["sphere.real_sph_harm_matrix"]
        expect("B = 32 operator job passes its check", result.ok)
        expect("B = 32 operator makes 2B+1 = 65 harmonic calls", under == 65, f"{under}")
        expect("plus one call for the grid basis", total == 66, f"{total} in all")
    finally:
        tracer.uninstall()
    originals = (repsim.real_sph_harm_matrix, zigzag.solve_delta_for_top, sl3.kak, sphere.SphereGrid.build)
    expect("uninstall restores every original", not any(hasattr(f, "__wrapped__") for f in originals))


def _cheapest(jobs):
    return min(jobs, key=lambda job: (job.params.get("band_limit", 0), job.params.get("n", 0)))


def test_gates() -> None:
    """A perturbed output of every job kind is counted as a failed job."""
    for workload in workloads.WORKLOADS.values():
        jobs = workload.generate(SEED, 0)
        for kind in workload.kinds:
            job = _cheapest([j for j in jobs if j.kind is kind])
            clean = run.run_pass([job])
            wrong = run.run_pass([job], perturb={kind.name})
            expect(f"{workload.name}/{kind.name}: clean output passes", clean[0].ok)
            expect(f"{workload.name}/{kind.name}: perturbed output fails", sum(not r.ok for r in wrong) == 1)


def _counts(tracer) -> dict:
    return {"calls": dict(tracer.self_times()[1]), "counted": dict(tracer.counts), "kernel": dict(tracer.kernel)}


def test_neutral_tracing() -> None:
    """Traced outputs equal untraced ones bit for bit; counts repeat exactly."""
    for workload in workloads.WORKLOADS.values():
        jobs = workload.generate(SEED, 0)
        plain = run.run_pass(jobs, digest=True)
        traced, counts = [], []
        for _ in range(2):
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced.append(run.run_pass(jobs, tracer=tracer, digest=True))
            finally:
                tracer.uninstall()
            counts.append(_counts(tracer))
        digests = [r.digest for r in plain]
        expect(f"{workload.name}: every job passes", all(r.ok for res in (plain, *traced) for r in res))
        expect(f"{workload.name}: traced outputs identical", all([r.digest for r in t] == digests for t in traced))
        expect(f"{workload.name}: counts repeat exactly", counts[0] == counts[1])


def test_tail() -> None:
    percentile, value = run.tail([float(x) for x in range(1, 31)])
    expect("tail of 30 jobs is the 20th, p66.7", value == 20.0 and abs(percentile - 200 / 3) < 1e-12)


def test_manifest() -> None:
    """BENCHMARK.json names exactly the workloads and metrics the runner reports."""
    spec = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
    expect("workloads match", [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS))
    expect(
        "end-to-end metrics match",
        {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS,
    )
    expect("per-layer metrics match", {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units())


if __name__ == "__main__":
    test_manifest()
    test_tail()
    test_wrapping()
    test_gates()
    test_neutral_tracing()
    print(f"{len(FAILURES)} failed" if FAILURES else "all self-tests passed")
    sys.exit(1 if FAILURES else 0)
