"""Export consistency: each module's __all__ resolves, and the package re-exports only exported names.

Also an import-cost guard: importing the package or its CLI must not load the
heavy scipy subpackages that nothing in it needs.  And a signature guard:
the parameter names of callables whose settings are fixed constants are
pinned, so a setting cannot come back without a visible test change.
"""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import circleops
from circleops import repsim, sphere

MODULES = sorted(info.name for info in pkgutil.iter_modules(circleops.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"circleops.{module}")
    missing = [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
    assert missing == []


def test_package_reexports_only_exported_names():
    with open(circleops.__file__) as source:
        tree = ast.parse(source.read())
    imports = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert imports, "circleops/__init__.py imports nothing from its submodules"
    stray = [
        f"{module}.{name}"
        for module, name in imports
        if name not in importlib.import_module(f"circleops.{module}").__all__
    ]
    assert stray == []


@pytest.mark.parametrize("module", ["circleops", "circleops.cli"])
def test_import_leaves_out_scipy_integrate_and_optimize(module):
    src = str(Path(circleops.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = f"import sys, {module}; print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


SIGNATURES = {
    sphere.circle_average_operator: ["grid", "delta"],
    sphere.circle_average: ["grid", "samples", "delta", "frames"],
    sphere.SphereGrid.build: ["band_limit", "oversample"],
    repsim.build_grid: ["band_limit"],
    repsim.k_averaged_operator: ["g", "grid"],
    repsim.coefficient_decay: ["n_max"],
}


@pytest.mark.parametrize("func", SIGNATURES, ids=lambda func: func.__qualname__)
def test_public_signatures(func):
    assert list(inspect.signature(func).parameters) == SIGNATURES[func]
