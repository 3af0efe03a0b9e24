"""End-to-end tests for the command-line surface."""

import dataclasses
import json

import numpy as np
import pytest

from circleops import cli, repsim, schatten, sl3, spectral, sphere, zigzag
from circleops.cli import main
from circleops.errors import NumericalDegeneracyError
from circleops.legendre import legendre_table
from circleops.sl3 import LambdaPoint


def run(tmp_path, *argv):
    return main(["--outdir", str(tmp_path), *argv])


def csv_rows(path):
    return [[float(v) for v in line.split(",")] for line in path.read_text().splitlines()[2:]]


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


@pytest.mark.parametrize("grid", [64, 200], ids=["banded", "row-loop"])
def test_legendre_bounds_match_the_defect_table(tmp_path, grid):
    # 65537 rows are deep: with the zero column, 65 abscissae take the banded solver and
    # 201 the row loop, in the streaming pass and in the one-block table alike; so the
    # oracle carries the zero column too, where a width-1 pass would take the banded solver
    assert run(tmp_path, "legendre-bounds", "--nmax", "65536", "--grid", str(grid)) == 0
    lines = (tmp_path / "legendre_bounds.csv").read_text().splitlines()[2:]
    got = np.array([float(line.split(",")[1]) for line in lines])
    table = legendre_table(65536, np.append(np.linspace(-1.0, 1.0, grid), 0.0))
    want = np.abs(table[:, :-1] - table[:, -1:]).max(axis=0)
    np.testing.assert_array_equal(got, want)


def test_legendre_bounds_at_degree_one(tmp_path):
    assert run(tmp_path, "legendre-bounds", "--nmax", "1", "--grid", "11") == 0
    rows = [line.split(",") for line in (tmp_path / "legendre_bounds.csv").read_text().splitlines()[2:]]
    # the sup over n <= 1 of |P_n(d) - P_n(0)| is |P_1(d)| = |d|
    assert all(float(defect) == abs(float(delta)) for delta, defect, _ in rows)
    empty = tmp_path / "negative"
    with pytest.raises(SystemExit) as exc:
        run(empty, "legendre-bounds", "--nmax", "-1", "--grid", "11")
    assert exc.value.code == 2
    assert not empty.exists()


def test_tdelta_norms_and_fit(tmp_path):
    assert run(tmp_path, "tdelta-norms", "--p", "8", "--nmax", "4096") == 0
    (fit,) = json.loads((tmp_path / "tdelta_decay_fit.json").read_text())
    assert fit["p"] == 8.0 and fit["exponent"] >= 0.2
    assert fit["doubling_change"] < 1e-6 and fit["window_error"] <= 1e-6 and fit["bracket"] is True


# the estimate's predicted mass over N/2 < n <= N misses the recurrence's by 3.0e-6 at N = 1024 and
# by 7.5e-7 at 2048 (max over p = 4.5, 5, 6, 8 and the default deltas); doubling and bracket hold at both
@pytest.mark.parametrize("nmax, code", [("1024", 1), ("2048", 0)])
def test_tdelta_norms_window_clause_sets_the_exit_code(tmp_path, nmax, code):
    assert run(tmp_path, "tdelta-norms", "--p", "4.5,5,6,8", "--nmax", nmax) == code
    fits = json.loads((tmp_path / "tdelta_decay_fit.json").read_text())
    assert [fit["p"] for fit in fits] == [4.5, 5.0, 6.0, 8.0]
    assert all(fit["doubling_change"] < 1e-6 and fit["bracket"] for fit in fits)
    assert (max(fit["window_error"] for fit in fits) <= 1e-6) == (code == 0)


def test_tdelta_norms_bad_grid_exits_2(tmp_path):
    assert run(tmp_path, "tdelta-norms", "--p", "8", "--deltas", "0.9,0.8,0.7") == 2
    assert list(tmp_path.iterdir()) == []


# at N = 256 the certified sup norms of the small deltas are their tail bounds, so their fitted
# exponent (0.32) misses the theory 1/2 by more than 0.05: that run writes its files and exits 1
@pytest.mark.parametrize("p, code", [("inf", 1), ("8", 0), ("8,5", 0)], ids=["inf", "8", "two-p"])
def test_tdelta_norms_csv_matches_fit_grid(tmp_path, p, code):
    assert run(tmp_path, "tdelta-norms", "--p", p, "--nmax", "256") == code
    rows = [line.split(",") for line in (tmp_path / "tdelta_norms.csv").read_text().splitlines()[2:]]
    fits = json.loads((tmp_path / "tdelta_decay_fit.json").read_text())
    want = [(delta, fit["p"], value) for fit in fits for delta, value in fit["grid"]]
    assert [(float(row[0]), float(row[1]), float(row[3])) for row in rows] == want
    assert [fit["p"] for fit in fits] == sorted(float(tok) for tok in p.split(","))


def test_tdelta_norms_inf_checks_the_exponent_alone(tmp_path):
    assert run(tmp_path, "tdelta-norms", "--p", "inf", "--nmax", "2048") == 0
    (fit,) = json.loads((tmp_path / "tdelta_decay_fit.json").read_text())
    assert [fit[key] for key in ("doubling_change", "raw_change", "window_error", "bracket")] == [None] * 4


@pytest.mark.parametrize("argv, message", [
    (["--p", "8,inf"], "cannot share a run with finite p"),
    (["--nmax", "1"], "n_max must be at least 2"),
    (["--p", "inf", "--nmax", "1"], "n_max must be at least 2"),
], ids=["inf-with-finite", "nmax-1", "inf-nmax-1"])
def test_tdelta_norms_refused_runs_exit_2(tmp_path, capsys, argv, message):
    assert run(tmp_path, "tdelta-norms", *argv) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_tdelta_norms_p_at_most_four_exits_2(tmp_path):
    # the Schatten 4-norm of the difference is infinite: no truncation may stand for it
    assert run(tmp_path, "tdelta-norms", "--p", "4") == 2
    assert list(tmp_path.iterdir()) == []


def test_schatten_probe(tmp_path):
    assert run(tmp_path, "schatten-probe") == 0
    lines = (tmp_path / "schatten_probe_p4.csv").read_text().splitlines()
    sums = [float(line.split(",")[1]) for line in lines[2:]]
    assert np.all(np.diff(sums) > 0)


def test_mixed_norm(tmp_path):
    assert run(tmp_path, "mixed-norm", "--p", "4", "--delta", "0.1", "--truncation", "8") == 0
    row = (tmp_path / "mixed_norm.csv").read_text().splitlines()[2].split(",")
    exact, interp = float(row[2]), float(row[3])
    assert exact <= interp + 1e-9


def test_mixed_norm_negative_delta_uses_abs_delta(tmp_path):
    bounds = []
    for delta in ("-0.1", "0.1"):
        out = tmp_path / delta
        assert main(["--outdir", str(out), "mixed-norm", "--delta", delta, "--truncation", "4"]) == 0
        bounds.append(float((out / "mixed_norm.csv").read_text().splitlines()[2].split(",")[3]))
    assert np.isfinite(bounds[0])
    assert bounds[0] == bounds[1]


@pytest.mark.parametrize(
    "flag, value",
    [("--restarts", "-3"), ("--iters", "-1"), ("--restarts", "32"), ("--iters", "200"), ("--seed", "0"),
     ("--inner-dim", "4")],
)
def test_mixed_norm_bad_count_exits_2(tmp_path, flag, value):
    # the diagonal operator's norm is its largest entry for every inner space, so mixed-norm
    # takes no search count and no inner dimension at all
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "mixed-norm", "--p", "4", "--delta", "0.1", flag, value)
    assert exc.value.code == 2
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "command, flag",
    [("invariant-gap", "--jmax"), ("legendre-bounds", "--grid"),
     ("zigzag", "--alpha-grid"), ("embedding2", "--alpha-grid"), ("howe-moore", "--nmax"),
     ("legendre-bounds", "--nmax"), ("mixed-norm", "--truncation")],
)
def test_zero_count_exits_2(tmp_path, command, flag):
    # a run over no items, or over degree 0 alone, would certify nothing
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, command, flag, "0")
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("replicas", ["1", "0"])
def test_markov_too_few_replicas_exits_2(tmp_path, replicas):
    # one replica has zero Monte-Carlo spread, so its profile would claim a mean norm of 1
    assert run(tmp_path, "markov", "--replicas", replicas, "--steps", "3") == 2
    assert not (tmp_path / "markov_manifest.json").exists()
    assert list(tmp_path.iterdir()) == []


def test_embedding2(tmp_path):
    assert run(tmp_path, "embedding2", "--gamma", "2", "--alpha-grid", "5") == 0
    certs = json.loads((tmp_path / "embedding2.json").read_text())
    assert len(certs) == 5
    assert all(c["residual1"] <= 1e-9 for c in certs)


@pytest.mark.parametrize(
    "fault",
    # e^-2 = 0.135; ||k - 1|| = 2 > 2 e^-0.5; a residual above 1e-9
    [{"delta2": 0.2}, {"k1p": np.diag([1.0, 1.0, -1.0])}, {"residual1": 1.0}],
    ids=["delta", "rotation", "residual"],
)
def test_embedding2_past_its_bound_writes_then_exits_1(tmp_path, monkeypatch, fault):
    def faulty(gamma, alpha):
        return dataclasses.replace(sl3.embedding2_solve(gamma, alpha), **fault)

    monkeypatch.setattr(cli, "embedding2_solve", faulty)  # criterion 9 runs embedding2, so this fails it too
    assert run(tmp_path, "embedding2", "--gamma", "2", "--alpha-grid", "3") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["embedding2.json", "embedding2_manifest.json"]
    assert not cli.run_criterion(9).passed


def test_zigzag_summary_constant(tmp_path, capsys):
    assert run(tmp_path, "zigzag", "--s", "0.5", "--t", "0", "--C", "4", "--L", "1") == 0
    out = capsys.readouterr().out
    assert "100.56" in out
    ledgers = json.loads((tmp_path / "zigzag_ledgers.json").read_text())
    assert all(led["total"] <= led["bound"] for led in ledgers)


def test_zigzag_large_alpha_exits_0(tmp_path):
    # route points near alpha = 5.7e5 carry coordinate-sum rounding above 1e-10
    assert run(tmp_path, "zigzag", "--alpha-max", "1e6") == 0
    ledgers = json.loads((tmp_path / "zigzag_ledgers.json").read_text())
    assert all(led["total"] <= led["bound"] for led in ledgers)


def test_zigzag_alpha_below_one_exits_2(tmp_path):
    # the covering argument needs alpha >= 1: the run is refused, not clamped to alpha = 1
    assert run(tmp_path, "zigzag", "--alpha-min", "0.5") == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [["--C", "nan"], ["--t", "nan"], ["--L", "nan"], ["--C", "inf"], ["--L", "inf"], ["--alpha-max", "nan"]],
)
def test_zigzag_nan_or_inf_exits_2_and_writes_nothing(tmp_path, argv):
    assert run(tmp_path, "zigzag", *argv) == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, refused",
    [
        # gamma = -0.15: the bound 24 e^(0.15 alpha) would overflow at alpha = 5000
        (["--t", "0.2", "--epsilon", "0.5", "--alpha-max", "5000"], "not a finite float at alpha = 5000.0"),
        (["--alpha-max", "1e308"], "overflow a squared norm at alpha = 1.4285714285714286e+307"),
    ],
    ids=["bound", "norm"],
)
def test_zigzag_past_the_float_range_exits_2_and_writes_nothing(tmp_path, capsys, argv, refused):
    # refused by the ledgers' library check before any exp or norm overflows: no warning escapes
    assert run(tmp_path, "zigzag", *argv) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("invalid parameters:") and line.endswith(refused)
    assert list(tmp_path.iterdir()) == []


def test_zigzag_growth_constant_below_the_float_limit_runs(tmp_path):
    # log C' = log(6 C L^2 e^s / (1 - e^(2t - s))) = 708.99 at C = 4, L = 9e152, under the limit of 709
    assert run(tmp_path, "zigzag", "--L", "9e152") == 0
    ledgers = json.loads((tmp_path / "zigzag_ledgers.json").read_text())
    assert all(np.isfinite(led["bound"]) and led["total"] <= led["bound"] for led in ledgers)


@pytest.mark.parametrize("growth_L", ["2e153", "1e160"])
def test_zigzag_growth_constant_past_the_float_limit_exits_2(tmp_path, capsys, growth_L):
    # L^2 or 6 C L^2 past e^709 is refused as a flag error, before any product can overflow
    assert run(tmp_path, "zigzag", "--L", growth_L) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("invalid parameters:") and line.endswith(f"L = {float(growth_L)}")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv", [["--L", "1.8e153"], ["--t", "0.24999999999999", "--L", "1e150"], ["--s", "1e-310"]]
)
def test_zigzag_tail_constant_past_the_float_limit_exits_2(tmp_path, capsys, argv):
    # C' = 6 C L^2 e^s / (1 - e^(2t - s)) past e^709 is refused before it can overflow to inf
    assert run(tmp_path, "zigzag", *argv) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("invalid parameters: L^2 and C' = 6 C L^2 e^s / (1 - e^(2t - s)) must stay below e^709")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, printed", [(["--s", "1e-300"], "2.4e+301"), (["--C", "1e-300"], "2.51413e-299")])
def test_zigzag_prints_the_tail_constant_in_six_digits(tmp_path, capsys, argv, printed):
    # -expm1(-1e-300) = 1e-300, where 1 - exp(-1e-300) rounds to 0; .6g keeps both ends of the range short
    assert run(tmp_path, "zigzag", *argv) == 0
    assert f"tail constant C' = {printed};" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, refused",
    [
        (["embedding2", "--gamma", "inf"], "gamma = inf"),
        (["embedding2", "--gamma", "1e308"], "gamma = 1e+308"),  # 7 gamma / 6 overflows
        (["zigzag", "--alpha-max", "inf"], "alpha = inf"),
    ],
    ids=["gamma-inf", "gamma-1e308", "alpha-max-inf"],
)
def test_flags_are_refused_before_a_grid_is_built(tmp_path, capsys, argv, refused):
    # the library's check runs before np.linspace, so no numpy warning (an error under
    # this suite's filter) escapes main, and the one stderr line names the refused value
    assert run(tmp_path, *argv) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("invalid parameters:") and line.endswith(refused)
    assert list(tmp_path.iterdir()) == []


def test_embedding2_nan_gamma_exits_2_naming_gamma(tmp_path, capsys):
    assert run(tmp_path, "embedding2", "--gamma", "nan") == 2
    assert "gamma must be finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command, argv",
    [
        ("mixed-norm", ["--p", "4", "--truncation", "4"]),
        ("markov", ["--steps", "3", "--replicas", "10"]),
        ("schatten-probe", []),
    ],
)
def test_nan_delta_exits_2_without_manifest(tmp_path, command, argv):
    assert run(tmp_path, command, "--delta", "nan", *argv) == 2
    assert not (tmp_path / f"{command.replace('-', '_')}_manifest.json").exists()


@pytest.mark.parametrize("p", ["nan", "0", "0.5"])
def test_mixed_norm_p_below_one_exits_2_naming_the_exponent(tmp_path, capsys, p):
    assert run(tmp_path, "mixed-norm", "--p", p) == 2
    assert "inner exponent must be >= 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_tdelta_norms_nan_delta_exits_2(tmp_path):
    assert run(tmp_path, "tdelta-norms", "--p", "8", "--nmax", "64", "--deltas", "nan,0.1,0.2") == 2
    assert not (tmp_path / "tdelta_norms.csv").exists()


def test_outdir_env_is_the_default_directory(tmp_path, monkeypatch):
    target = tmp_path / "from-env"
    monkeypatch.setenv(cli.OUTDIR_ENV, str(target))
    monkeypatch.chdir(tmp_path)
    assert main(["howe-moore", "--nmax", "1"]) == 0
    assert sorted(p.name for p in target.iterdir()) == ["howe_moore_decay.csv", "howe_moore_manifest.json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["from-env"]


@pytest.mark.parametrize("via_env", [False, True], ids=["flag", "env"])
def test_outdir_naming_a_file_exits_2_and_writes_nothing(tmp_path, monkeypatch, capsys, via_env):
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    monkeypatch.chdir(tmp_path)
    if via_env:
        monkeypatch.setenv(cli.OUTDIR_ENV, str(taken))
        assert main(["howe-moore", "--nmax", "1"]) == 2
    else:
        assert run(taken, "howe-moore", "--nmax", "1") == 2
    assert list(tmp_path.iterdir()) == [taken] and taken.read_text() == "kept\n"
    err = capsys.readouterr().err
    assert err.startswith("invalid parameters: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "taken, argv",
    [
        ("legendre_bounds.csv", ["legendre-bounds", "--nmax", "200", "--grid", "11"]),
        ("markov_profile.csv", ["markov", "--steps", "3", "--replicas", "10"]),  # the second output
        ("markov_manifest.json", ["markov", "--steps", "3", "--replicas", "10"]),
    ],
)
def test_output_name_taken_by_a_directory_exits_2_and_writes_nothing(tmp_path, capsys, taken, argv):
    (tmp_path / taken).mkdir()
    assert run(tmp_path, *argv) == 2
    assert list(tmp_path.iterdir()) == [tmp_path / taken] and not any((tmp_path / taken).iterdir())
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("invalid parameters: ") and taken in line


def test_outdir_flag_wins_over_env(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path / "from-env"))
    assert run(tmp_path / "from-flag", "howe-moore", "--nmax", "1") == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["from-flag"]
    assert (tmp_path / "from-flag" / "howe_moore_decay.csv").exists()


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
    assert run(tmp_path, "howe-moore", "--nmax", "4") == 0
    lines = (tmp_path / "howe_moore_decay.csv").read_text().splitlines()
    values = [float(line.split(",")[1]) for line in lines[2:]]
    assert np.all(np.diff(values) < 0)


def test_howe_moore_nan_coefficient_exits_3(tmp_path, monkeypatch):
    exact = repsim._trapezoid_sums
    monkeypatch.setattr(repsim, "_trapezoid_sums", lambda n: (np.nan, np.nan) if n == 3 else exact(n))
    assert run(tmp_path, "howe-moore") == 3
    assert list(tmp_path.iterdir()) == []


def test_invariant_gap(tmp_path):
    assert run(tmp_path, "invariant-gap", "--jmax", "2") == 0
    lines = (tmp_path / "invariant_gap.csv").read_text().splitlines()
    assert lines[1] == "degree,lower,witness_defect,threshold"
    rows = [[float(v) for v in line.split(",")] for line in lines[2:]]
    assert all(1.0 / 3.0 <= lower <= upper for _, lower, upper, _ in rows)


def test_invariant_gap_prints_one_line(tmp_path, capsys):
    # twelve degrees pass numpy's 75-column array wrap; the summary stays one line
    assert run(tmp_path, "invariant-gap", "--jmax", "12") == 0
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith("invariant-gap: gaps >= [") and "0.9742], widest interval " in line


def test_invariant_gap_has_no_seed_flag(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "invariant-gap", "--seed", "0")
    assert exc.value.code == 2
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "command, argv",
    [("schatten-probe", ["--p4"]), ("howe-moore", ["--band-limit", "8"])],
)
def test_retired_flags_exit_2(tmp_path, command, argv):
    # schatten-probe always runs the p = 4 probe; howe-moore runs only the closed form
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, command, *argv)
    assert exc.value.code == 2
    assert not any(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# check-all and the subcommands read one verdict from the library
# ---------------------------------------------------------------------------


def test_legendre_bounds_reports_criterion_1(tmp_path, capsys):
    assert run(tmp_path, "legendre-bounds", "--nmax", "2000", "--grid", "1000") == 0
    _, defects, bounds = np.array(csv_rows(tmp_path / "legendre_bounds.csv")).T
    violations = int(np.sum(defects > bounds + 1e-14))
    ratio = float((defects / np.maximum(bounds, 1e-300)).max())
    detail = f"violations={violations}, max ratio={ratio:.6f}"
    assert capsys.readouterr().out == f"legendre-bounds: {detail}\n"
    assert cli.run_criterion(1).detail == detail


@pytest.mark.parametrize(
    "criterion, argvs",
    [
        (1, [["legendre-bounds"]]),
        (2, [["tdelta-norms", "--p", "4.5,5,6,8", "--nmax", "262144"]]),
        (3, [["schatten-probe", "--delta", d] for d in ("0.3", "0.99")]),
        (5, [["markov", "--delta", d, "--replicas", "100000", "--seed", str(100 + i)]
             for i, d in enumerate(("0.0", "0.3", "0.6", "0.9"))]),
        (7, [["mixed-norm", "--p", p, "--delta", d] for p in ("4", "6", "8") for d in ("0.025", "0.05", "0.1", "0.2")]),
        (9, [["embedding2", "--gamma", gamma] for gamma in ("2", "4", "8", "16")]),
        (10, [["zigzag", "--alpha-grid", "20", "--epsilon", eps] for eps in ("0.2", "0.5", "0.8")]),
        (11, [["howe-moore"]]),
        (12, [["invariant-gap"]]),
    ],
)
def test_criterion_detail_is_its_subcommand_lines(tmp_path, capsys, criterion, argvs):
    """A criterion with a subcommand is that subcommand's runs: its detail is their printed lines."""
    lines = []
    for i, argv in enumerate(argvs):
        assert main(["--outdir", str(tmp_path / str(i)), *argv]) == 0
        (line,) = capsys.readouterr().out.splitlines()
        lines.append(line.removeprefix(f"{argv[0]}: "))
    result = cli.run_criterion(criterion)
    fragments = [fragment for line in lines for fragment in line.split("; ")]
    assert result.passed and result.detail == "; ".join(dict.fromkeys(fragments))


def test_criterion_10_prints_its_tail_constant_once():
    """Each zigzag run checks the same C' and covering-sum gap; the detail prints them once, then the three ledgers."""
    fragments = cli.run_criterion(10).detail.split("; ")
    assert fragments[:2] == ["tail constant C' = 100.565", "closed-form vs numeric sum gap 9.89e-16"]
    assert fragments[2:] == [f"20 ledgers at epsilon={eps}, all totals within bounds" for eps in ("0.2", "0.5", "0.8")]


def record_calls(monkeypatch, name, real):
    """Wrap cli's `name` so that each call's (args, result) is recorded."""
    calls = []

    def recording(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    monkeypatch.setattr(cli, name, recording)
    return calls


def test_mixed_norm_gives_criterion_7_values(tmp_path, monkeypatch):
    calls = record_calls(monkeypatch, "interpolation_check", schatten.interpolation_check)
    assert cli.run_criterion(7).passed
    assert len(calls) == 12
    for (delta, p, truncation), (value, upper, _) in list(calls):  # the runs below record more calls
        out = tmp_path / f"{p}-{delta}"
        argv = ["mixed-norm", "--p", str(p), "--delta", str(delta), "--truncation", str(truncation)]
        assert main(["--outdir", str(out), *argv]) == 0
        assert csv_rows(out / "mixed_norm.csv") == [[delta, p, value, upper]]


def test_invariant_gap_writes_criterion_12_intervals(tmp_path, monkeypatch):
    calls = record_calls(monkeypatch, "certified_gaps", repsim.certified_gaps)
    assert cli.run_criterion(12).passed
    (((j_max,), (gaps, _)),) = calls
    assert run(tmp_path, "invariant-gap", "--jmax", str(j_max)) == 0
    want = [[j, lower, upper, 1.0 / 3.0] for j, (lower, upper, _) in enumerate(gaps, 1)]
    assert j_max == 6 and csv_rows(tmp_path / "invariant_gap.csv") == want


def _inline_pair(rng, alpha, eps):
    """The pair sampler criterion 10 typed out before zigzag.annulus_pair held it: the oracle."""
    pts = []
    for _k in range(2):
        ell = rng.uniform(alpha, (1 + eps) * alpha)
        top = rng.uniform(ell, min(2 * ell, (1 + eps) * alpha))
        p = LambdaPoint(top, ell - top, -ell)
        pts.append(p if rng.random() < 0.5 else p.reflect())
    return pts


def test_criterion_10_ledgers_match_the_inline_sampler(tmp_path, monkeypatch):
    """Criterion 10 is three zigzag runs of 20 alphas each, every run drawing its pairs afresh from
    seed 77: its 60 pairs, bounds and ledgers are the inline sampler's bit for bit, and each run's
    written ledgers are the ones the criterion checked."""
    calls = []

    def recording(*args, exact=zigzag.annulus_diameter_bound):
        calls.append((args, exact(*args)))
        return calls[-1][1]

    monkeypatch.setattr(cli, "annulus_diameter_bound", recording)
    assert cli.run_criterion(10).passed
    prof = zigzag.ExponentProfile(holder_s=0.5, growth_t=0.0, hoelder_C=4.0, growth_L=1.0)
    want = []
    for eps in (0.2, 0.5, 0.8):
        rng = np.random.default_rng(77)  # zigzag.ANNULUS_SEED, typed here so that a changed constant fails
        for alpha in np.linspace(1.0, 8.0, 20):
            args = (float(alpha), eps, prof, *_inline_pair(rng, float(alpha), eps))
            want.append((args, zigzag.annulus_diameter_bound(*args)))
    assert len(calls) == 60 and calls == want
    assert {len(ledger.segments) for _, (_, ledger) in calls} == {2, 3}
    written = []
    for eps in ("0.2", "0.5", "0.8"):
        assert run(tmp_path / eps, "zigzag", "--alpha-grid", "20", "--epsilon", eps) == 0
        written += json.loads((tmp_path / eps / "zigzag_ledgers.json").read_text())
    got = [(ledger["bound"], ledger["total"], [seg["cost_bound"] for seg in ledger["segments"]]) for ledger in written]
    assert got == [(bound, ledger.total, [seg.cost_bound for seg in ledger.segments]) for _, (bound, ledger) in want]


def test_zigzag_default_run_takes_both_routes(tmp_path):
    assert run(tmp_path, "zigzag") == 0
    ledgers = json.loads((tmp_path / "zigzag_ledgers.json").read_text())
    assert sorted({len(ledger["segments"]) for ledger in ledgers}) == [2, 3]
    assert json.loads((tmp_path / "zigzag_manifest.json").read_text())["seed"] == 77


def _swapped_gap(degree, exact=repsim.invariant_gap):
    lower, upper, witness = exact(degree)
    return upper, lower, witness


def _lopsided_segment(p, q, rule, prof, exact=zigzag._segment):
    """J slides at 3 times their cost, theta slides free: at alpha = 1 a J segment of the
    zigzag route passes its slide cap while every total stays far below its bound."""
    seg = exact(p, q, rule, prof)
    return dataclasses.replace(seg, cost_bound=3.0 * seg.cost_bound if rule == zigzag.J_ALPHA_SLIDE else 0.0)


def _edge_off_zero(gamma, alpha, exact=sl3.embedding2_solve):
    """delta2 off 0 at the tangent edge alpha = 7 gamma / 6 only, by a thousandth of its bound e^-gamma:
    every bound holds, and only the edge clause (delta2 = 0 there) fails."""
    cert = exact(gamma, alpha)
    return dataclasses.replace(cert, delta2=1e-3 * np.exp(-gamma)) if alpha == 7.0 * gamma / 6.0 else cert


def _frozen_chain(positions, delta, rng):
    """A chain step that leaves every point in place: the mean never contracts and its spread is 0."""
    return np.atleast_2d(np.asarray(positions, dtype=float))


def _flat_probe(delta, n_list):
    """Fourth-power partial sums that stop growing: every dyadic increment is 0."""
    return np.ones(np.shape(delta) + (len(n_list),))


def _probe_below_floor(delta, n_list):
    """Partial sums that grow steadily by A(delta)/3 = ln 2 / (pi^2 (1 - delta^2)) per dyadic window:
    max/min is 1, and every increment is below the floor A(delta)/2."""
    return np.arange(len(n_list)) * np.log(2.0) / (np.pi**2 * (1.0 - delta**2))


def _nudged_tail_constant(prof, exact=zigzag.cauchy_tail_constant):
    """C' 1e-9 too large: every ledger holds, and only the gap to the 2000-term covering sum fails."""
    return exact(prof) * (1 + 1e-9)


def _scaled_jump_cost(alpha, delta, prof, exact=zigzag.jump_cost):
    """Every slide jump at 1.4 times its cost: at epsilon = 0.2 a segment passes its slide cap."""
    return 1.4 * exact(alpha, delta, prof)


def _fit_below_theory(deltas, values, theory_exponent, exact=spectral.DecayFit.from_grid):
    """The least-squares fit with its exponent 0.1 below the theory exponent."""
    return dataclasses.replace(exact(deltas, values, theory_exponent), exponent=theory_exponent - 0.1)


def _scaled_tail(delta, p, truncation, exact=spectral.schatten_tail_estimate):
    """The tail estimate 1e-5 too large: the predicted window mass tail(N/2) - tail(N) is off by about 1e-5."""
    return exact(delta, p, truncation) * (1 + 1e-5)


def _turned_rotation_svd(m, exact=sl3._rotation_svd):
    """The rotation SVD with k1 turned by x_delta(0.999): a decomposition that no longer rebuilds g."""
    u, s, vt = exact(m)
    return u @ sl3.x_delta(0.999), s, vt


def _tripled_trapezoid_sums(n, exact=repsim._trapezoid_sums):
    """c(n) and its half-step sum tripled: c(n) stays below 4 e^(-n/2) up to n = 2 and the defect
    stays relative, so only c(0) = 1 fails."""
    return tuple(3.0 * value for value in exact(n))


@pytest.mark.parametrize(
    "module, name, fake, argv, criterion",
    [
        (spectral, "HOLDER_CONSTANT", 1.0, ["legendre-bounds", "--nmax", "200", "--grid", "101"], 1),
        (schatten, "mixed_norm_upper_bound", lambda delta, p: 0.0, ["mixed-norm"], 7),
        (repsim, "GAP_FLOOR", 0.9, ["invariant-gap", "--jmax", "2"], 12),
        (repsim, "invariant_gap", _swapped_gap, ["invariant-gap", "--jmax", "2"], 12),
        (zigzag, "_segment", _lopsided_segment, ["zigzag", "--alpha-grid", "2"], 10),
        (zigzag, "jump_cost", _scaled_jump_cost, ["zigzag", "--alpha-grid", "2", "--epsilon", "0.2"], 10),
        (zigzag, "cauchy_tail_constant", _nudged_tail_constant, ["zigzag", "--alpha-grid", "2"], 10),
        (repsim, "DECAY_BOUND_CONSTANT", 0.1, ["howe-moore", "--nmax", "2"], 11),
        (repsim, "_trapezoid_sums", _tripled_trapezoid_sums, ["howe-moore", "--nmax", "2"], 11),
        (sl3, "_rotation_svd", _turned_rotation_svd, ["kak", "--matrix", *"2 1 0 1 1 0 0 0 1".split()], 8),
        (cli, "embedding2_solve", _edge_off_zero, ["embedding2", "--gamma", "2", "--alpha-grid", "3"], 9),
        (sphere, "markov_steps", _frozen_chain, ["markov", "--steps", "3", "--replicas", "10"], 5),
        (cli, "divergence_probe_p4", _flat_probe, ["schatten-probe"], 3),
        (cli, "divergence_probe_p4", _probe_below_floor, ["schatten-probe"], 3),
        (spectral.DecayFit, "from_grid", _fit_below_theory, ["tdelta-norms"], 2),
        (spectral, "schatten_tail_estimate", _scaled_tail, ["tdelta-norms"], 2),
    ],
    ids=[
        "holder", "interpolation", "gap-floor", "gap-above-witness", "ledger-segment", "jump-cost-1.4", "tail-constant",
        "decay-bound", "tripled-coefficient", "kak-residual", "tangent-edge", "frozen-chain", "flat-probe",
        "probe-below-floor", "fit-below-theory", "tail-scaled",
    ],
)
def test_faked_fault_fails_both_front_ends(tmp_path, monkeypatch, module, name, fake, argv, criterion):
    monkeypatch.setattr(module, name, fake)
    assert not cli.run_criterion(criterion).passed
    assert run(tmp_path, *argv) == 1
    manifest_name = f"{argv[0].replace('-', '_')}_manifest.json"
    outputs = json.loads((tmp_path / manifest_name).read_text())["outputs"]
    assert outputs and sorted(p.name for p in tmp_path.iterdir()) == sorted([*outputs, manifest_name])


def test_check_all_subset(tmp_path):
    assert run(tmp_path, "check-all", "--only", "3,6") == 0


def test_check_all_degenerate_criterion_fails_and_the_rest_run(tmp_path, capsys, monkeypatch):
    def raise_error(*args, **kwargs):
        raise NumericalDegeneracyError("coefficient_leakage", "leak 0.5")

    monkeypatch.setattr(cli, "coefficient_decay", raise_error)
    assert run(tmp_path, "check-all", "--only", "6,11,12") == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" [")[0] for line in lines[:3]] == [
        "PASS criterion  6",
        "FAIL criterion 11",
        "PASS criterion 12",
    ]
    assert lines[1].endswith(": raised NumericalDegeneracyError: coefficient_leakage: leak 0.5")
    assert lines[-1] == "2/3 criteria passed"


@pytest.mark.parametrize("only", ["99", "0", "3,99"])
def test_check_all_unknown_criterion_exits_2(tmp_path, capsys, only):
    assert run(tmp_path, "check-all", "--only", only) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no criterion ran
    assert "1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12" in captured.err


@pytest.mark.parametrize("only", ["", "6,", "a"])
def test_check_all_malformed_only_exits_2(tmp_path, capsys, only):
    """Only an absent --only means every criterion; an empty or malformed list is a flag error that names it."""
    assert run(tmp_path, "check-all", "--only", only) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no criterion ran
    assert captured.err == f"invalid parameters: --only takes comma-separated criterion numbers, got {only!r}\n"


def test_kak_not_unimodular_exits_2(tmp_path, capsys):
    assert run(tmp_path, "kak", "--matrix", *"1 0 0 0 1 0 0 0 2".split()) == 2
    assert capsys.readouterr().err == "invalid parameters: determinant 2.0 too far from 1\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_kak_non_finite_entry_exits_2_naming_it(tmp_path, capsys, bad):
    # warnings are errors here: the determinant prints no RuntimeWarning before the refusal
    assert run(tmp_path, "kak", "--matrix", *f"1 0 0 0 {bad} 0 0 0 1".split()) == 2
    assert capsys.readouterr().err == f"invalid parameters: matrix entries must be finite: {bad} at (1, 1)\n"
    assert list(tmp_path.iterdir()) == []


def test_out_of_memory_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch):
    # running out of memory is not a failed certificate (exit 1); the fake raises before allocating anything
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "mixing_profile", exhausted)
    assert run(tmp_path, "markov", "--steps", "3") == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("out of memory: markov ")
    assert list(tmp_path.iterdir()) == []


def test_csv_floats_roundtrip(tmp_path):
    run(tmp_path, "markov", "--delta", "0.3", "--steps", "3", "--replicas", "50", "--seed", "1")
    lines = (tmp_path / "markov_trace.csv").read_text().splitlines()[2:]
    for line in lines:
        for tok in line.split(",")[1:]:
            assert float(tok) == float(repr(float(tok)))
