"""Behaviour lock: every CLI subcommand reproduces its recorded outputs.

tests/golden/<command>/ holds the files one run of the subcommand wrote at its
default flags (schatten-probe needs --p4 to run at all, kak needs a matrix).
Numbers are compared at rtol 1e-12 rather than byte for byte, so that a
rewrite may reorder floating-point operations but may not change a result;
text (headers, claims, rule names, manifest fields) must match exactly.
check-all is not locked here: the acceptance tests cover it.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from circleops.cli import build_parser, main

GOLDEN = Path(__file__).parent / "golden"
RTOL = 1e-12

COMMANDS = {
    "legendre-bounds": [],
    "tdelta-norms": [],
    "schatten-probe": ["--p4"],
    "mixed-norm": [],
    "kak": ["--matrix", "2", "1", "0", "1", "1", "0", "0", "0", "1"],
    "embedding2": [],
    "zigzag": [],
    "markov": [],
    "howe-moore": [],
    "invariant-gap": [],
}


def _same_number(got: float, want: float) -> bool:
    return got == want or abs(got - want) <= RTOL * abs(want)


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
        ok = isinstance(got, (int, float)) and _same_number(float(got), float(want))
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


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_golden(command, outdir):
    got_dir = outdir(command)
    want_dir = GOLDEN / command
    assert sorted(p.name for p in got_dir.iterdir()) == sorted(p.name for p in want_dir.iterdir())
    errors = []
    for want in sorted(want_dir.iterdir()):
        got = (got_dir / want.name).read_text()
        if want.suffix == ".json":
            errors += _compare_json(json.loads(got), json.loads(want.read_text()), want.name)
        else:
            errors += _compare_csv(got, want.read_text(), want.name)
    assert not errors, "\n".join(errors[:20])


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_manifest_records_every_flag(command, outdir):
    manifest = json.loads((outdir(command) / f"{command.replace('-', '_')}_manifest.json").read_text())
    flags = vars(build_parser().parse_args([command, *COMMANDS[command]]))
    assert sorted(manifest["parameters"]) == sorted(set(flags) - {"outdir", "command", "func", "seed"})
