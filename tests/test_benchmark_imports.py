"""Smoke test: every pytest-benchmark file in benchmarks/ imports against the current API.

benchmarks/ lies outside testpaths, so a timing row that imports a deleted name would
otherwise fail only when someone times it.  This runs no row.
"""

import runpy
from pathlib import Path

import pytest

BENCHMARKS = sorted((Path(__file__).parent.parent / "benchmarks").glob("test_*.py"))


def test_benchmarks_found():
    assert BENCHMARKS


@pytest.mark.parametrize("path", BENCHMARKS, ids=lambda p: p.stem)
def test_benchmark_file_imports(path):
    rows = runpy.run_path(str(path))
    assert any(name.startswith("test_") for name in rows)
