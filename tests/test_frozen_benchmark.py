"""The library still serves the frozen benchmark: each perfbench job kind runs and its gate can fail.

perfbench/ changes only with the benchmark, so a library change that breaks what
its jobs call would otherwise show only when the benchmark runs.  For every job
kind of every workload declared in BENCHMARK.json, the cheapest job of pass 0 at
seed 0 runs through the kind's own run and check, and the kind's perturbed
output must fail that check.
"""

import importlib
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = [w["name"] for w in json.loads((REPO / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(REPO / "perfbench"))
        yield importlib.import_module("workloads")


def _cheapest(jobs):
    return min(jobs, key=lambda job: (job.params.get("band_limit", 0), job.params.get("n", 0)))


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_every_job_kind_runs_and_its_gate_can_fail(workloads, name):
    workload = workloads.WORKLOADS[name]
    jobs = workload.generate(0, 0)
    for kind in workload.kinds:
        job = _cheapest([j for j in jobs if j.kind is kind])
        out = kind.run(job.params)
        assert kind.check(job.params, out), f"{name}/{kind.name}: clean output fails its check"
        assert not kind.check(job.params, kind.perturb(out)), f"{name}/{kind.name}: perturbed output passes"
