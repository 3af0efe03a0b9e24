"""Export consistency: each module's __all__ resolves, and the package itself re-exports nothing.

Callers import names from their modules, so importing the bare package loads
no submodule.  Also a start-up guard: importing the package or its CLI loads
no `scipy` module and no `numpy.polynomial`, and the light subcommands run
without scipy (legendre imports `dtbsv` in its first deep pass, `zeta` and
`hyp2f1` are imported inside the two functions that call them, and
spectral builds its Gauss-Legendre panel on first use).  A
signature guard pins the parameter names of callables whose settings are fixed
constants, so a setting cannot come back without a visible test change.  A
guard keeps the names the frozen perfbench harness calls.  A front-end guard keeps check-all's
own checks (cli.CRITERIA rows with a check function) to the claims no subcommand makes, and
an import guard keeps the modules' relative imports acyclic.  And a caller census: every
exported name is used by the library or a benchmark, not only by tests or demos, and every
module-level function or class that no __all__ names is used by the library itself.
"""

import ast
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import circleops
from circleops import cli, legendre, repsim, schatten, spectral, sphere, zigzag

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


# what start-up leaves unloaded, as an expression the probe prints: the first call that needs
# scipy or numpy.polynomial imports it
LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m.startswith('numpy.polynomial'))"


@pytest.mark.parametrize("module", ["circleops", "circleops.cli"])
def test_import_loads_no_scipy(module):
    assert _fresh_import(module, f"print({LOADED})").strip() == "[]"


@pytest.mark.parametrize(
    "argv, loads_scipy",
    [
        (["kak", "--matrix", "2", "1", "0", "1", "1", "0", "0", "0", "1"], False),
        (["embedding2"], False),
        (["zigzag"], False),
        (["legendre-bounds"], False),
        # 2^16 + 1 rows over one abscissa: the banded solver, whose first pass imports dtbsv
        (["schatten-probe"], True),
    ],
    ids=lambda value: value[0] if isinstance(value, list) else None,
)
def test_subcommand_loads_scipy_only_for_a_deep_pass(tmp_path, argv, loads_scipy):
    run = f"code = circleops.cli.main({['--outdir', str(tmp_path), *argv]!r})"
    code, loaded = _fresh_import("circleops.cli", f"{run}; print(code, {LOADED})").splitlines()[-1].split(" ", 1)
    assert code == "0"
    if loads_scipy:
        assert "'scipy.linalg'" in loaded
    else:
        assert loaded == "[]"


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
    cli.run_criterion: ["number"],
    # perfbench calls it positionally
    zigzag.annulus_diameter_bound: ["alpha", "epsilon", "prof", "a", "b"],
}


@pytest.mark.parametrize("func", SIGNATURES, ids=lambda func: func.__qualname__)
def test_public_signatures(func):
    assert list(inspect.signature(func).parameters) == SIGNATURES[func]


_PROFILE = zigzag.ExponentProfile(holder_s=0.5, growth_t=0.0, hoelder_C=4.0, growth_L=1.0)
_DIAGONAL_SPACE = schatten.MixedNormSpace(2, 2, 3.0)
_POLE = np.array([[0.0, 0.0, 1.0]])

# Every public integer parameter, as (callable, parameter) -> (a call passing the value there, least
# value).  A checkpoint list gets the value next to a valid checkpoint, so each element is checked.
COUNTS = {
    (legendre.legendre_table, "max_degree"): (lambda n: legendre.legendre_table(n, 0.3), 0),
    (legendre.legendre_at_zero, "max_degree"): (legendre.legendre_at_zero, 0),
    (repsim.build_grid, "band_limit"): (repsim.build_grid, 0),
    (repsim.coefficient_decay, "n_max"): (repsim.coefficient_decay, 0),
    (repsim.invariant_gap, "degree"): (repsim.invariant_gap, 1),
    (repsim.certified_gaps, "j_max"): (repsim.certified_gaps, 1),
    (schatten.MixedNormSpace, "outer_dim"): (lambda n: schatten.MixedNormSpace(n, 1, 3.0), 1),
    (schatten.MixedNormSpace, "inner_dim"): (lambda n: schatten.MixedNormSpace(1, n, 3.0), 1),
    (schatten.mixed_norm_lower_bound, "restarts"): (
        lambda n: schatten.mixed_norm_lower_bound(np.eye(2), _DIAGONAL_SPACE, restarts=n), 1),
    (schatten.mixed_norm_lower_bound, "iters"): (
        lambda n: schatten.mixed_norm_lower_bound(np.eye(2), _DIAGONAL_SPACE, iters=n), 0),
    (schatten.interpolation_check, "truncation"): (lambda n: schatten.interpolation_check(0.3, 3.0, n), 0),
    (spectral.SpectralOperator, "truncation"): (lambda n: spectral.SpectralOperator(0.3, n), 0),
    (spectral.op_norm_diff_certificates, "truncation"): (
        lambda n: spectral.op_norm_diff_certificates([0.3], n), 0),
    (spectral.holder_check, "truncation"): (lambda n: spectral.holder_check([0.3], n), 0),
    (spectral.schatten_tail_bound, "truncation"): (lambda n: spectral.schatten_tail_bound(0.3, 5.0, n), 1),
    (spectral.schatten_tail_estimate, "truncation"): (lambda n: spectral.schatten_tail_estimate(0.3, 5.0, n), 1),
    (spectral.schatten_decay, "n_max"): (lambda n: spectral.schatten_decay([8.0], [0.1, 0.2, 0.3], n), 2),
    (spectral.diff_power_windows, "checkpoints"): (lambda n: spectral.diff_power_windows([0.3], [5.0], [4, n]), 1),
    (spectral.diff_power_sums, "checkpoints"): (lambda n: spectral.diff_power_sums([0.3], [5.0], [4, n]), 1),
    (spectral.completed_power_sums, "checkpoints"): (
        lambda n: spectral.completed_power_sums([0.3], [5.0], [4, n]), 1),
    (spectral.divergence_probe_p4, "n_list"): (lambda n: spectral.divergence_probe_p4(0.3, [4, n]), 0),
    (sphere.real_sph_harm_matrix, "band_limit"): (lambda n: sphere.real_sph_harm_matrix(_POLE, n), 0),
    (sphere.SphereGrid.build, "band_limit"): (sphere.SphereGrid.build, 0),
    (sphere.SphereGrid.build, "oversample"): (lambda n: sphere.SphereGrid.build(2, n), 1),
    (sphere.markov_trace, "steps"): (lambda n: sphere.markov_trace(0.3, n, 0), 0),
    (sphere.mixing_profile, "steps"): (lambda n: sphere.mixing_profile(0.3, n, 4, 0), 1),
    (sphere.mixing_profile, "replicas"): (lambda n: sphere.mixing_profile(0.3, 2, n, 0), 2),
    (zigzag.covering_partial_sums, "n_terms"): (lambda n: zigzag.covering_partial_sums(_PROFILE, 0.0, n), 1),
}
# integer-annotated parameters outside the count rule
NOT_COUNTS = {
    (legendre.bernstein_envelope, "n"),  # a real parameter of Bernstein's formula
    (repsim.matrix_coefficient, "inner_nodes"),  # accepted and unused
    (schatten.mixed_norm_lower_bound, "seed"),  # accepted and unused
    (sphere.markov_trace, "seed"),  # numpy's SeedSequence rule
    (sphere.mixing_profile, "seed"),
    (sphere.SphereGrid, "band_limit"),  # a field: SphereGrid.build checks it
    (cli.run_criterion, "number"),  # a key of cli.CRITERIA
}


def _int_parameters(func):
    return {(func, name) for name, param in inspect.signature(func).parameters.items() if param.annotation == "int"}


def test_counts_name_every_integer_parameter():
    """The count table covers every parameter annotated int of SIGNATURES and of each public
    callable (a class's constructor and public methods too), and the checkpoint lists besides."""
    public = []
    for module in MODULES:
        mod = importlib.import_module(f"circleops.{module}")
        for obj in (getattr(mod, name) for name in getattr(mod, "__all__", [])):
            members = [getattr(obj, name) for name in vars(obj) if not name.startswith("_")] if inspect.isclass(obj) else []
            public += [func for func in (obj, *members) if callable(func)]
    annotated = set().union(*map(_int_parameters, public))
    assert set().union(*map(_int_parameters, SIGNATURES)) <= COUNTS.keys() | NOT_COUNTS
    assert annotated - NOT_COUNTS == {key for key in COUNTS if key[1] not in ("checkpoints", "n_list")}


@pytest.mark.parametrize("bad", [True, 2.0, 2.7, -1], ids=repr)
@pytest.mark.parametrize("key", COUNTS, ids=lambda key: f"{key[0].__qualname__}:{key[1]}")
def test_integer_parameters_follow_the_count_rule(key, bad):
    """True, 2.0, 2.7 and -1 are not counts: each is the same ValueError, raised before any numpy warning."""
    call, least = COUNTS[key]
    name = {"checkpoints": "checkpoint", "n_list": "degree", "max_degree": "degree",
            "band_limit": "band limit", "oversample": "oversample factor"}.get(key[1], key[1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer >= {least}, got {bad!r}")):
            call(bad)


@pytest.mark.parametrize("key", COUNTS, ids=lambda key: f"{key[0].__qualname__}:{key[1]}")
def test_numpy_integers_are_counts(key):
    call, _ = COUNTS[key]
    call(np.int64(2))


# perfbench is frozen with the benchmark: its tracer patches these two methods out of
# MixedNormSpace.__dict__ at install, and its selftest reads the re-exported names below from
# the modules that import them.  tests/test_frozen_benchmark.py runs its jobs.
def test_what_the_frozen_benchmark_calls_is_kept():
    assert {"norming_dual", "norm"} <= set(schatten.MixedNormSpace.__dict__)
    reexported = [(spectral, "legendre_table"), (sphere, "legendre_table"), (repsim, "legendre_table"),
                  (repsim, "real_sph_harm_matrix"), (zigzag, "solve_delta_for_top")]
    assert [f"{module.__name__}.{name}" for module, name in reexported if not hasattr(module, name)] == []


REPO = Path(__file__).resolve().parents[1]
CALLER_TREES = [REPO / "src" / "circleops", REPO / "perfbench", REPO / "benchmarks"]


def test_front_ends_import_no_private_name():
    """check-all and the CLI read each pass rule through a public name, never a module's private helper."""
    tree = ast.parse((REPO / "src" / "circleops" / "cli.py").read_text())
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert private == []


def test_acceptance_keeps_custom_checks_only_for_claims_without_a_subcommand():
    """Criteria 3 and 10 are schatten-probe and zigzag runs, so check-all's own checks read neither the
    probe nor anything of zigzag; the rows with a check function are criteria 4, 6 and 8 alone."""
    custom = {number: runs for number, (_, _, runs) in cli.CRITERIA.items() if callable(runs)}
    assert set(custom) == {4, 6, 8}
    names = {
        node.id if isinstance(node, ast.Name) else node.attr
        for check in custom.values()
        for node in ast.walk(ast.parse(inspect.getsource(check)))
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    assert names & {"zigzag", *zigzag.__all__, "divergence_probe_p4", "probe_growth"} == set()


def _relative_imports(path: Path) -> set[str]:
    """The modules that `from .x import ...` and `from . import ...` name anywhere in a file, functions included."""
    return {node.module or "__init__" for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom) and node.level == 1}


def test_src_modules_import_no_cycle():
    graph = {path.stem: _relative_imports(path) for path in (REPO / "src" / "circleops").glob("*.py")}
    done, path = set(), []

    def visit(module):
        assert module not in path, f"import cycle {' -> '.join(path[path.index(module):] + [module])}"
        if module not in done:
            path.append(module)
            for target in sorted(graph.get(module, ())):
                visit(target)
            done.add(path.pop())

    for module in sorted(graph):
        visit(module)
    assert done >= graph.keys() and "legendre" in graph["cli"]


def test_every_public_name_has_a_caller_outside_tests():
    """Callers are the library, perfbench and benchmarks/: a name that only tests or demos
    use is not public API, so it leaves __all__ or leaves the library."""
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


def test_every_private_definition_has_a_caller_in_the_library():
    """A module-level function or class of src/ that no __all__ names is used in src/ outside its own
    definition (exported names face the caller census above): code that only tests call lives in the tests."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted((REPO / "src" / "circleops").glob("*.py"))}
    references = [
        (node.id if isinstance(node, ast.Name) else node.attr, id(node))
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]
    unused = []
    for module, tree in trees.items():
        exported = getattr(importlib.import_module(f"circleops.{module}"), "__all__", [])
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in exported:
                inside = {id(child) for child in ast.walk(node)}
                if not any(name == node.name and key not in inside for name, key in references):
                    unused.append(f"{module}.{node.name}")
    assert unused == []
