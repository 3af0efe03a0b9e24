"""Export consistency: each module's __all__ resolves, and the package re-exports only exported names."""

import ast
import importlib
import pkgutil

import pytest

import circleops

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
