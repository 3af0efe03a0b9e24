"""End-to-end tests for the command-line surface."""

import json

import numpy as np
import pytest

from circleops.cli import main


def run(tmp_path, *argv):
    return main(["--outdir", str(tmp_path), *argv])


def test_kak_identity(tmp_path):
    code = run(tmp_path, "kak", "--matrix", "1", "0", "0", "0", "1", "0", "0", "0", "1")
    assert code == 0
    payload = json.loads((tmp_path / "kak.json").read_text())
    assert payload["a"] == [0.0, 0.0, 0.0]
    assert payload["residual"] <= 1e-12
    manifest = json.loads((tmp_path / "kak_manifest.json").read_text())
    assert manifest["command"] == "kak"
    assert "kak.json" in manifest["outputs"]


def test_kak_degenerate_exits_3(tmp_path):
    code = run(tmp_path, "kak", "--matrix", "1e20", "0", "0", "0", "1", "0", "0", "0", "1e-20")
    assert code == 3


def test_bad_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "kak", "--matrix", "1", "2")
    assert exc.value.code == 2


def test_unknown_command_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "no-such-command")
    assert exc.value.code == 2


def test_legendre_bounds(tmp_path):
    assert run(tmp_path, "legendre-bounds", "--nmax", "200", "--grid", "101") == 0
    lines = (tmp_path / "legendre_bounds.csv").read_text().splitlines()
    assert lines[0].startswith("# checks:")
    assert lines[1] == "delta,max_defect,bound"
    assert len(lines) == 103


def test_tdelta_norms_and_fit(tmp_path):
    assert run(tmp_path, "tdelta-norms", "--p", "8", "--nmax", "4096") == 0
    fit = json.loads((tmp_path / "tdelta_decay_fit.json").read_text())
    assert fit["exponent"] >= 0.2


def test_tdelta_norms_bad_grid_exits_2(tmp_path):
    assert run(tmp_path, "tdelta-norms", "--p", "8", "--deltas", "0.9,0.8,0.7") == 2
    assert list(tmp_path.iterdir()) == []


def test_schatten_probe(tmp_path):
    assert run(tmp_path, "schatten-probe", "--p4") == 0
    lines = (tmp_path / "schatten_probe_p4.csv").read_text().splitlines()
    sums = [float(line.split(",")[1]) for line in lines[2:]]
    assert np.all(np.diff(sums) > 0)


def test_mixed_norm(tmp_path):
    assert run(tmp_path, "mixed-norm", "--p", "4", "--delta", "0.1",
               "--restarts", "4", "--iters", "50", "--truncation", "8") == 0
    row = (tmp_path / "mixed_norm.csv").read_text().splitlines()[2].split(",")
    lower, interp = float(row[2]), float(row[3])
    assert lower <= interp + 1e-9


def test_mixed_norm_negative_delta_uses_abs_delta(tmp_path):
    bounds = []
    for delta in ("-0.1", "0.1"):
        out = tmp_path / delta
        assert main(["--outdir", str(out), "mixed-norm", "--delta", delta,
                     "--restarts", "2", "--iters", "5", "--truncation", "4"]) == 0
        bounds.append(float((out / "mixed_norm.csv").read_text().splitlines()[2].split(",")[3]))
    assert np.isfinite(bounds[0])
    assert bounds[0] == bounds[1]


@pytest.mark.parametrize("flag, value", [("--restarts", "-3"), ("--iters", "-1")])
def test_mixed_norm_bad_count_exits_2(tmp_path, flag, value):
    assert run(tmp_path, "mixed-norm", "--p", "4", "--delta", "0.1", flag, value) == 2
    assert not (tmp_path / "mixed_norm_manifest.json").exists()


def test_embedding2(tmp_path):
    assert run(tmp_path, "embedding2", "--gamma", "2", "--alpha-grid", "5") == 0
    certs = json.loads((tmp_path / "embedding2.json").read_text())
    assert len(certs) == 5
    assert all(c["residual1"] <= 1e-9 for c in certs)


def test_zigzag_summary_constant(tmp_path, capsys):
    assert run(tmp_path, "zigzag", "--s", "0.5", "--t", "0", "--C", "4", "--L", "1") == 0
    out = capsys.readouterr().out
    assert "100.56" in out
    ledgers = json.loads((tmp_path / "zigzag_ledgers.json").read_text())
    assert all(led["total"] <= led["bound"] for led in ledgers)


@pytest.mark.parametrize(
    "command, argv",
    [
        ("mixed-norm", ["--p", "4", "--restarts", "2", "--iters", "5", "--truncation", "4"]),
        ("markov", ["--steps", "3", "--replicas", "10"]),
        ("schatten-probe", ["--p4"]),
    ],
)
def test_nan_delta_exits_2_without_manifest(tmp_path, command, argv):
    assert run(tmp_path, command, "--delta", "nan", *argv) == 2
    assert not (tmp_path / f"{command.replace('-', '_')}_manifest.json").exists()


def test_tdelta_norms_nan_delta_exits_2(tmp_path):
    assert run(tmp_path, "tdelta-norms", "--p", "8", "--nmax", "64", "--deltas", "nan,0.1,0.2") == 2
    assert not (tmp_path / "tdelta_norms.csv").exists()


def test_markov_deterministic(tmp_path):
    assert run(tmp_path, "markov", "--delta", "0.3", "--steps", "5",
               "--replicas", "200", "--seed", "9") == 0
    first = (tmp_path / "markov_trace.csv").read_bytes()
    profile_first = (tmp_path / "markov_profile.csv").read_bytes()
    assert run(tmp_path, "markov", "--delta", "0.3", "--steps", "5",
               "--replicas", "200", "--seed", "9") == 0
    assert (tmp_path / "markov_trace.csv").read_bytes() == first
    assert (tmp_path / "markov_profile.csv").read_bytes() == profile_first


def test_howe_moore(tmp_path):
    assert run(tmp_path, "howe-moore", "--band-limit", "8", "--nmax", "4") == 0
    lines = (tmp_path / "howe_moore_decay.csv").read_text().splitlines()
    values = [float(line.split(",")[1]) for line in lines[2:]]
    assert np.all(np.diff(values) < 0)


def test_invariant_gap(tmp_path):
    assert run(tmp_path, "invariant-gap", "--jmax", "2") == 0
    lines = (tmp_path / "invariant_gap.csv").read_text().splitlines()
    assert lines[1] == "degree,lower,witness_defect,threshold"
    rows = [[float(v) for v in line.split(",")] for line in lines[2:]]
    assert all(1.0 / 3.0 <= lower <= upper for _, lower, upper, _ in rows)


def test_invariant_gap_has_no_seed_flag(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "invariant-gap", "--seed", "0")
    assert exc.value.code == 2
    assert not any(tmp_path.iterdir())


def test_check_all_subset(tmp_path):
    assert run(tmp_path, "check-all", "--only", "3,6") == 0


@pytest.mark.parametrize("only", ["99", "0", "3,99"])
def test_check_all_unknown_criterion_exits_2(tmp_path, capsys, only):
    assert run(tmp_path, "check-all", "--only", only) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no criterion ran
    assert "1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12" in captured.err


def test_csv_floats_roundtrip(tmp_path):
    run(tmp_path, "markov", "--delta", "0.3", "--steps", "3", "--replicas", "50", "--seed", "1")
    lines = (tmp_path / "markov_trace.csv").read_text().splitlines()[2:]
    for line in lines:
        for tok in line.split(",")[1:]:
            assert float(tok) == float(repr(float(tok)))
