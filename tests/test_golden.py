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

from circleops.cli import main

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
    if isinstance(want, (int, float)) and not isinstance(want, bool):
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


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_golden(command, tmp_path):
    assert main(["--outdir", str(tmp_path), command, *COMMANDS[command]]) == 0
    want_dir = GOLDEN / command
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in want_dir.iterdir())
    errors = []
    for want in sorted(want_dir.iterdir()):
        got = (tmp_path / want.name).read_text()
        if want.suffix == ".json":
            errors += _compare_json(json.loads(got), json.loads(want.read_text()), want.name)
        else:
            errors += _compare_csv(got, want.read_text(), want.name)
    assert not errors, "\n".join(errors[:20])
