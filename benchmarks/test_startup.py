"""Start-up timings: fresh interpreters that import the CLI or run a light subcommand.

    PYTHONPATH=src python -m pytest benchmarks/test_startup.py --benchmark-only

Each round is a new process, so a module-level import anywhere in the package shows up
here.  Each row also checks that the process exits 0 with no scipy module loaded: only a
deep Legendre pass imports scipy.linalg.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
REPORT = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"


def _fresh_process(code: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)


@pytest.mark.parametrize(
    "argv",
    [None, ["kak", "--matrix", "2", "1", "0", "1", "1", "0", "0", "0", "1"]],
    ids=["import-cli", "kak"],
)
def test_startup(benchmark, tmp_path, argv):
    run = f"circleops.cli.main({['--outdir', str(tmp_path), *argv]!r})" if argv else "0"
    code = f"import sys, circleops.cli; code = {run}; {REPORT}; sys.exit(code)"
    done = benchmark.pedantic(_fresh_process, args=(code,), rounds=5, warmup_rounds=1)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
