"""Export consistency: each module's __all__ resolves, and the package itself re-exports nothing.

Callers import names from their modules, so importing the bare package loads
no submodule.  Also an import-cost guard: importing the package or its CLI
loads no `scipy.special`, `scipy.integrate` or `scipy.optimize` (the CLI does
load `scipy.linalg`, for legendre's `dtbsv`; `zeta` is imported by the one
estimate that calls it).  A
signature guard pins the parameter names of callables whose settings are fixed
constants, so a setting cannot come back without a visible test change.  A
guard keeps the names the frozen perfbench harness calls.  And a caller census: every exported name is used by the library, a demo or a
benchmark, not only by tests.
"""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import circleops
from circleops import acceptance, repsim, schatten, sphere, zigzag

MODULES = sorted(info.name for info in pkgutil.iter_modules(circleops.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"circleops.{module}")
    missing = [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
    assert missing == []


def _fresh_import(module: str, probe: str) -> str:
    """stdout of `probe` run in a new interpreter right after `import sys, module`."""
    src = str(Path(circleops.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = f"import sys, {module}; {probe}"
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout


@pytest.mark.parametrize("module", ["circleops", "circleops.cli"])
def test_import_loads_no_scipy_special(module):
    heavy = ("scipy.special", "scipy.integrate", "scipy.optimize")
    probe = f"print(sorted(m for m in sys.modules if m.startswith({heavy!r})))"
    assert _fresh_import(module, probe).strip() == "[]"


def test_package_import_loads_no_submodule():
    probe = "print(sorted(m for m in sys.modules if m.startswith('circleops.')))"
    assert _fresh_import("circleops", probe).strip() == "[]"
    # besides dunders, the namespace holds only the submodules this process imported
    assert [name for name in vars(circleops) if not name.startswith("__") and name not in MODULES] == []


SIGNATURES = {
    sphere.circle_average_operator: ["grid", "delta"],
    sphere.circle_average: ["grid", "samples", "delta", "frames"],
    sphere.SphereGrid.build: ["band_limit", "oversample"],
    repsim.build_grid: ["band_limit"],
    repsim.coefficient_decay: ["n_max"],
    repsim.invariant_gap: ["degree"],
    sphere.mixing_profile: ["delta", "steps", "replicas", "seed"],
    sphere.markov_trace: ["delta", "steps", "seed"],
    schatten.interpolation_check: ["delta", "p", "truncation"],
    schatten.dyadic_sum: ["profile", "r"],
    acceptance.run_criteria: ["numbers"],
    # perfbench calls it positionally
    zigzag.annulus_diameter_bound: ["alpha", "epsilon", "prof", "a", "b"],
}


@pytest.mark.parametrize("func", SIGNATURES, ids=lambda func: func.__qualname__)
def test_public_signatures(func):
    assert list(inspect.signature(func).parameters) == SIGNATURES[func]


# perfbench is frozen with the benchmark: its tracer patches these two methods out of
# MixedNormSpace.__dict__ at install, and its _run_mixed passes restarts, iters and seed
# to mixed_norm_lower_bound on a diagonal T and reads value and witness.
def test_what_the_frozen_benchmark_calls_is_kept():
    assert {"norming_dual", "norm"} <= set(schatten.MixedNormSpace.__dict__)
    d = np.array([0.25, -0.5, 0.0])
    space = schatten.MixedNormSpace(d.size, 4, 6.0)
    for seed in (0, 7):
        result = schatten.mixed_norm_lower_bound(np.diag(d), space, restarts=16, iters=200, seed=seed)
        assert result.value == 0.5
        assert space.norm(result.witness) == 1.0


REPO = Path(__file__).resolve().parents[1]
CALLER_TREES = [REPO / "src" / "circleops", REPO / "demos", REPO / "perfbench", REPO / "benchmarks"]


@pytest.mark.parametrize("module", ["acceptance", "cli"])
def test_front_ends_import_no_private_name(module):
    """check-all and the CLI read each pass rule through a public name, never a module's private helper."""
    tree = ast.parse((REPO / "src" / "circleops" / f"{module}.py").read_text())
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert private == []


def test_every_public_name_has_a_caller_outside_tests():
    used = set()
    for tree in CALLER_TREES:
        for path in sorted(tree.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    unused = [
        f"{module}.{name}"
        for module in MODULES
        for name in getattr(importlib.import_module(f"circleops.{module}"), "__all__", [])
        if name not in used
    ]
    assert unused == []


def test_no_module_fails_by_assertion():
    """A certificate fails by returning its verdict; no module asserts, raises or catches AssertionError."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((REPO / "src" / "circleops").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert) or (isinstance(node, ast.Name) and node.id == "AssertionError")
    ]
    assert found == []
