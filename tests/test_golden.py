"""Behaviour lock: every CLI subcommand reproduces its recorded outputs.

tests/golden/<command>/ holds the files one run of the subcommand wrote at its
default flags (kak needs a matrix).
Numbers are compared at rtol 1e-12 rather than byte for byte, so that a
rewrite may reorder floating-point operations but may not change a result;
text (headers, claims, rule names, manifest fields) must match exactly.
The fields that are rounding noise themselves take an absolute floor instead
(ROUNDING_FLOOR), so that the goldens hold under every BLAS kernel.
check-all writes no file, so it has no golden: the acceptance tests cover it,
and the runner at the bottom logs it for a diff of two trees.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from circleops.cli import build_parser, main

GOLDEN = Path(__file__).parent / "golden"
RTOL = 1e-12
# embedding2's residual1 and residual2 (at most 9.5e-16) are the rounding of a 3 x 3 reconstruction
# k diag k' relative to its norm: each entry is a sum of 3 products, which rounds by up to
# gamma_3 = 3 eps / (1 - 3 eps) (Higham 2002, eq. 3.5), so another kernel may move them that far
ROUNDING_KEYS = ("residual1", "residual2")
EPS = float(np.finfo(float).eps)
ROUNDING_FLOOR = 3 * EPS / (1 - 3 * EPS)

COMMANDS = {
    "legendre-bounds": [],
    "tdelta-norms": [],
    "schatten-probe": [],
    "mixed-norm": [],
    "kak": ["--matrix", "2", "1", "0", "1", "1", "0", "0", "0", "1"],
    "embedding2": [],
    "zigzag": [],
    "markov": [],
    "howe-moore": [],
    "invariant-gap": [],
}


def _same_number(got: float, want: float, floor: float = 0.0) -> bool:
    return got == want or abs(got - want) <= max(RTOL * abs(want), floor)


def _compare_json(got, want, where: str) -> list:
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            return [f"{where}: keys {sorted(got) if isinstance(got, dict) else got} != {sorted(want)}"]
        return [e for k in want for e in _compare_json(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: length differs"]
        return [e for i, (g, w) in enumerate(zip(got, want)) for e in _compare_json(g, w, f"{where}[{i}]")]
    if isinstance(want, bool) or isinstance(got, bool):  # 1 == True, so compare by identity
        return [] if got is want else [f"{where}: {got!r} is not {want!r}"]
    if isinstance(want, (int, float)):
        floor = ROUNDING_FLOOR if where.rpartition(".")[2] in ROUNDING_KEYS else 0.0
        ok = isinstance(got, (int, float)) and _same_number(float(got), float(want), floor)
        return [] if ok else [f"{where}: {got!r} != {want!r}"]
    return [] if got == want else [f"{where}: {got!r} != {want!r}"]


def _compare_csv(got: str, want: str, where: str) -> list:
    got_lines, want_lines = got.splitlines(), want.splitlines()
    if got_lines[:2] != want_lines[:2] or len(got_lines) != len(want_lines):
        return [f"{where}: comment, header or row count differs"]
    got_rows = np.array([[float(v) for v in line.split(",")] for line in got_lines[2:]])
    want_rows = np.array([[float(v) for v in line.split(",")] for line in want_lines[2:]])
    if got_rows.shape != want_rows.shape:
        return [f"{where}: shape {got_rows.shape} != {want_rows.shape}"]
    bad = ~((got_rows == want_rows) | (np.abs(got_rows - want_rows) <= RTOL * np.abs(want_rows)))
    return [
        f"{where} row {i + 1} col {j + 1}: {got_rows[i, j]!r} != {want_rows[i, j]!r}"
        for i, j in np.argwhere(bad)
    ]


@pytest.fixture(scope="module")
def outdir(tmp_path_factory):
    """Output directory of one default run per subcommand, shared by the tests below."""
    runs = {}

    def run(command):
        if command not in runs:
            out = tmp_path_factory.mktemp(command)
            assert main(["--outdir", str(out), command, *COMMANDS[command]]) == 0
            runs[command] = out
        return runs[command]

    return run


def _compare_dir(got_dir: Path, want_dir: Path) -> list:
    got_names, want_names = sorted(p.name for p in got_dir.iterdir()), sorted(p.name for p in want_dir.iterdir())
    if got_names != want_names:
        return [f"{want_dir.name}: files {got_names} != {want_names}"]
    errors = []
    for want in sorted(want_dir.iterdir()):
        got = (got_dir / want.name).read_text()
        if want.suffix == ".json":
            errors += _compare_json(json.loads(got), json.loads(want.read_text()), want.name)
        else:
            errors += _compare_csv(got, want.read_text(), want.name)
    return errors


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_golden(command, outdir):
    errors = _compare_dir(outdir(command), GOLDEN / command)
    assert not errors, "\n".join(errors[:20])


# The OpenBLAS kernel a process runs, as numpy's bundled OpenBLAS names it.
_CORENAME = """import ctypes, numpy._core._multiarray_umath as m
name = ctypes.CDLL(m.__file__).scipy_openblas_get_corename64_
name.restype = ctypes.c_char_p
print(name().decode())"""


def test_golden_under_the_haswell_kernel(tmp_path):
    # OpenBLAS picks its kernel by CPU; OPENBLAS_CORETYPE forces another one in the child process only
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = subprocess.run([sys.executable, "-c", _CORENAME], env=env, capture_output=True, text=True)
    if probe.stdout.strip() != "Haswell":
        pytest.skip(f"OPENBLAS_CORETYPE=Haswell does not take here: {(probe.stdout or probe.stderr).strip()[-200:]}")
    subprocess.run([sys.executable, __file__, str(tmp_path)], env=env, check=True)
    logs = {command: (tmp_path / f"{command}.log").read_text() for command in COMMANDS}
    assert all(log.endswith("exit 0\n") for log in logs.values()), logs
    check_all = (tmp_path / "check-all.log").read_text()
    assert check_all.endswith("\n12/12 criteria passed\nexit 0\n"), check_all
    errors = [e for command in sorted(COMMANDS) for e in _compare_dir(tmp_path / command, GOLDEN / command)]
    assert not errors, "\n".join(errors[:20])


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_manifest_records_every_flag(command, outdir):
    manifest = json.loads((outdir(command) / f"{command.replace('-', '_')}_manifest.json").read_text())
    flags = vars(build_parser().parse_args([command, *COMMANDS[command]]))
    assert sorted(manifest["parameters"]) == sorted(set(flags) - {"outdir", "command", "func", "seed"})


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_golden.py OUTDIR writes each run above into OUTDIR/<command>
    # and its stdout, stderr and exit code into OUTDIR/<command>.log, for a diff -r of two trees' runs;
    # check-all's log has its "(N.Ns)" times stripped
    import contextlib
    import io

    Path(sys.argv[1]).mkdir(parents=True, exist_ok=True)
    for command, flags in [*COMMANDS.items(), ("check-all", [])]:
        out = Path(sys.argv[1]) / command
        with io.StringIO() as log:
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                print("exit", main(["--outdir", str(out), command, *flags]))
            Path(f"{out}.log").write_text(re.sub(r" \(\d+\.\ds\)", "", log.getvalue()))
