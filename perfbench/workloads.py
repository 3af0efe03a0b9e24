"""Seeded certificate workloads.

Each workload is a closed loop: one process runs a list of certificate jobs and
starts each job only when the previous one has returned.  One such list is a
*pass*.  A pass is generated from (seed, pass index).  Its shape is the same
for every seed: the job kinds, band limits, exponents, degrees and batch
sizes.  Only the continuous inputs are drawn: deltas, matrices, frames, start
points and cone points.  So a run's cost does not depend on its seed.  The
library receives only these generated inputs.  Every job checks its output
against a closed form or an exact invariant, never against stored bytes, so a
correct vectorized rewrite still passes.

Why these workloads, and which acceptance criteria their job kinds mirror:

sphere-averaging (criterion 4)
    Nearly all of its time is `sphere` harmonic evaluation.  The per-point
    harmonic matrix grows from 0.4 MB at B = 12 to 18.7 MB at B = 32, so
    B <= 16 fits a 2 MiB L2 and B >= 24 does not.  Band limits repeat across
    jobs, so a grid or basis cache has something to hit.  The operator,
    custom-frame and Markov kinds use `tangent_frames` in three different
    ways, so a ring-equivariant rewrite that helps the operator but costs the
    other two shows.
norm-certificates (criterion 7, the decay-fit half of criterion 2, criterion 1's table)
    `spectral`, `schatten` and the deep Legendre recurrence do the work here;
    `sphere` never runs.  The truncation-stability half of criterion 2 is not
    gated: it is known to fail, and tier-1 keeps it red.
cone-ledgers (criteria 8-11)
    Many small, interpreter-bound calls: bisection in `sl3`/`zigzag` and the
    scalar quadrature of `repsim.matrix_coefficient`, which regenerates its
    Gauss-Legendre nodes on every integrand call.  Degrees n = 1..6 repeat in
    every pass, as in criterion 11.

Which job class sets each latency metric (30 s runs), so a change can name
the metrics it should move and the workloads it should leave alone:

    workload            median job (job_p50_ms)   tail job (job_tail_ms)
    sphere-averaging    B = 16 frame average      B = 24 operator
    norm-certificates   Legendre table            mixed-norm power iteration
    cone-ledgers        embedding solve           matrix coefficient c(n)

The power sums of norm-certificates (one ~3 s job per pass) move wall_s only.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy import special

import bootstrap
import circleops
from circleops import legendre, repsim, schatten, sl3, spectral, sphere, zigzag

if Path(circleops.__file__).resolve().parent != bootstrap.SRC / "circleops":
    raise ImportError(f"circleops imported from {circleops.__file__}, not from {bootstrap.SRC}")


@dataclass(frozen=True)
class JobKind:
    """How to run one kind of certificate job and how to judge its output.

    `perturb` returns a wrong output that `check` must reject; the self-test
    uses it to show that every gate can fail.
    """

    name: str
    run: Callable[[dict], dict]
    check: Callable[[dict, dict], bool]
    perturb: Callable[[dict], dict]
    diagnose: Callable[[dict, dict], dict] | None = None


@dataclass(frozen=True)
class Job:
    kind: JobKind
    params: dict


def _scaled(key: str, factor: float):
    return lambda out: {**out, key: out[key] * factor}


def _degrees(band_limit: int) -> np.ndarray:
    return np.repeat(np.arange(band_limit + 1), 2 * np.arange(band_limit + 1) + 1)


def _is_rotation(k: np.ndarray) -> bool:
    return bool(
        np.linalg.norm(k.T @ k - np.eye(3), 2) <= 1e-10 and abs(np.linalg.det(k) - 1.0) <= 1e-10
    )


# ---------------------------------------------------------------------------
# sphere-averaging
# ---------------------------------------------------------------------------

# (operator jobs, custom-frame jobs) per pass for each band limit.  The eight
# B = 16 frame jobs hold the median job of a run, with 12 faster and 12
# slower jobs around them in every pass.  Two B = 32 jobs per pass keep the
# tenth-slowest job of a four-pass run among the B = 24 operators, which are
# short enough for the speed calibration to follow.
SPHERE_BANDS = {12: (3, 3), 16: (4, 8), 24: (3, 3), 32: (1, 1)}
MARKOV_JOBS, MARKOV_REPLICAS, MARKOV_STEPS = 6, 2000, 16


def _basis_ok(basis: np.ndarray, weights: np.ndarray) -> bool:
    """Y_00 = 1 and every column has unit norm, so a degenerate basis cannot pass."""
    return bool(
        np.abs(basis[:, 0] - 1.0).max() <= 1e-12 and np.abs(weights @ basis**2 - 1.0).max() <= 1e-10
    )


def _run_operator(p: dict) -> dict:
    grid = sphere.SphereGrid.build(p["band_limit"])
    return {
        "operator": sphere.circle_average_operator(grid, p["delta"]),
        "eigenvalues": legendre.legendre_table(p["band_limit"], p["delta"]),
        "basis": grid.basis,
        "weights": grid.weights,
    }


def _check_operator(p: dict, out: dict) -> bool:
    """Criterion 4: the averaged harmonics equal P_n(delta) Y_nm on the grid."""
    band = p["band_limit"]
    exact = special.eval_legendre(np.arange(band + 1), p["delta"])
    return bool(
        _basis_ok(out["basis"], out["weights"])
        and np.abs(out["eigenvalues"] - exact).max() <= 1e-12
        and np.abs(out["operator"] - out["basis"] * exact[_degrees(band)]).max() <= 1e-8
    )


def _run_frames(p: dict) -> dict:
    grid = sphere.SphereGrid.build(p["band_limit"])
    samples = grid.synthesize(p["coeffs"])
    u, v = sphere.tangent_frames(grid.nodes)
    c, s = np.cos(p["twist"])[:, None], np.sin(p["twist"])[:, None]
    average = sphere.circle_average(grid, samples, p["delta"], frames=(c * u + s * v, c * v - s * u))
    return {"average": average, "basis": grid.basis, "weights": grid.weights}


def _check_frames(p: dict, out: dict) -> bool:
    """The average over twisted frames equals the eigen-scaled synthesis."""
    band = p["band_limit"]
    exact = special.eval_legendre(np.arange(band + 1), p["delta"])
    expected = out["basis"] @ (p["coeffs"] * exact[_degrees(band)])
    return bool(
        _basis_ok(out["basis"], out["weights"]) and np.abs(out["average"] - expected).max() <= 1e-8
    )


def _run_markov(p: dict) -> dict:
    rng = np.random.default_rng(p["chain_seed"])
    path = [p["start"]]
    for _ in range(p["steps"]):
        path.append(sphere.markov_steps(path[-1], p["delta"], rng))
    return {"path": np.stack(path)}


def _check_markov(p: dict, out: dict) -> bool:
    """Every position is a unit vector; consecutive positions have inner product delta."""
    path = out["path"]
    unit = np.abs(np.linalg.norm(path, axis=2) - 1.0).max()
    inner = np.abs(np.sum(path[:-1] * path[1:], axis=2) - p["delta"]).max()
    return bool(path.shape == (p["steps"] + 1, *p["start"].shape) and unit <= 1e-12 and inner <= 1e-12)


def _diagnose_markov(p: dict, out: dict) -> dict:
    """Largest |mean <x_0, x_k> - delta^k| in Monte-Carlo sigmas, k >= 2; not a gate.

    Step 1 is left out: <x_0, x_1> = delta holds exactly, with no spread.
    """
    path = out["path"]
    proj = np.sum(path[0][None] * path[2:], axis=2)
    theory = p["delta"] ** np.arange(2, p["steps"] + 1)
    sigma = proj.std(axis=1, ddof=1) / np.sqrt(proj.shape[1])
    return {"sphere.markov_pull_max": float(np.max(np.abs(proj.mean(axis=1) - theory) / sigma))}


def _perturb_markov(out: dict) -> dict:
    path = out["path"].copy()
    path[1, 0] *= 1.0 + 1e-9
    return {"path": path}


OPERATOR = JobKind("operator", _run_operator, _check_operator, _scaled("operator", 1.0 + 1e-7))
FRAMES = JobKind("frames", _run_frames, _check_frames, _scaled("average", 1.0 + 1e-7))
MARKOV = JobKind("markov", _run_markov, _check_markov, _perturb_markov, _diagnose_markov)


def _sphere_pass(rng: np.random.Generator) -> list[Job]:
    jobs = []
    for band, (operators, frames) in SPHERE_BANDS.items():
        n_nodes = (band + 1) * (2 * band + 1)
        for _ in range(operators):
            jobs.append(Job(OPERATOR, {"band_limit": band, "delta": rng.uniform(-0.95, 0.95)}))
        for _ in range(frames):
            coeffs = rng.normal(size=(band + 1) ** 2) / (band + 1)
            coeffs[0] = 1.0  # mean one, so the average never vanishes
            jobs.append(
                Job(
                    FRAMES,
                    {
                        "band_limit": band,
                        "delta": rng.uniform(-0.95, 0.95),
                        "coeffs": coeffs,
                        "twist": rng.uniform(0.0, 2.0 * np.pi, n_nodes),
                    },
                )
            )
    for _ in range(MARKOV_JOBS):
        start = rng.normal(size=(MARKOV_REPLICAS, 3))
        start /= np.linalg.norm(start, axis=1, keepdims=True)
        jobs.append(
            Job(
                MARKOV,
                {
                    "delta": rng.uniform(-0.95, 0.95),
                    "start": start,
                    "steps": MARKOV_STEPS,
                    "chain_seed": int(rng.integers(2**63)),
                },
            )
        )
    return jobs


# ---------------------------------------------------------------------------
# norm-certificates
# ---------------------------------------------------------------------------

DPS_PS = (4.5, 5.0, 6.0, 8.0)
DPS_CHECKPOINTS = tuple(2**k for k in range(10, 19))
DPS_DELTAS = 10
MIXED_TRUNCATION, MIXED_INNER, MIXED_RESTARTS, MIXED_ITERS = 16, 4, 16, 200
TABLE_JOBS, TABLE_DEGREE, TABLE_POINTS, TABLE_SPOT_ROWS = 10, 2000, 1000, 8


def _run_power_sums(p: dict) -> dict:
    return {"sums": spectral.diff_power_sums(p["deltas"], DPS_PS, DPS_CHECKPOINTS)}


def _check_power_sums(p: dict, out: dict) -> bool:
    """Criterion 2's decay fit, plus every measured tail below the closed-form tail bound."""
    sums = out["sums"]
    if sums.shape != (len(DPS_PS), len(p["deltas"]), len(DPS_CHECKPOINTS)):
        return False
    logd = np.log(p["deltas"])
    for i, power in enumerate(DPS_PS):
        if not np.polyfit(logd, np.log(sums[i, :, -1]), 1)[0] >= 0.5 - 2.0 / power - 0.05:
            return False
        powers = sums[i] ** power
        tails = powers[:, -1:] - powers[:, :-1]  # from each checkpoint to the last
        for j, delta in enumerate(p["deltas"]):
            for k, checkpoint in enumerate(DPS_CHECKPOINTS[:-1]):
                if not tails[j, k] <= spectral.schatten_tail_bound(delta, power, checkpoint):
                    return False
    return True


def _perturb_power_sums(out: dict) -> dict:
    sums = out["sums"].copy()
    sums[..., -1] *= 1.01
    return {"sums": sums}


def _theta(power: float) -> float:
    return min(2.0 / power, 2.0 - 2.0 / power)


def _run_mixed(p: dict) -> dict:
    op = spectral.SpectralOperator(p["delta"], MIXED_TRUNCATION)
    diagonal = np.repeat(legendre.legendre_at_zero(MIXED_TRUNCATION) - op.eigenvalues(), op.multiplicities())
    space = schatten.MixedNormSpace(diagonal.size, MIXED_INNER, p["p"])
    result = schatten.mixed_norm_lower_bound(
        np.diag(diagonal), space, restarts=MIXED_RESTARTS, iters=MIXED_ITERS, seed=p["restart_seed"]
    )
    upper = schatten.interpolation_bound(4.0 * np.sqrt(p["delta"]), 2.0, _theta(p["p"]))
    return {"diagonal": diagonal, "value": result.value, "witness": result.witness, "upper": upper}


def _mixed_norm(x: np.ndarray, power: float) -> float:
    rows = np.sum(np.abs(x) ** power, axis=1) ** (1.0 / power)
    return float(np.sqrt(np.sum(rows * rows)))


def _check_mixed(p: dict, out: dict) -> bool:
    """Criterion 7: value <= interpolation bound, and the witness attains the value."""
    degrees = np.arange(MIXED_TRUNCATION + 1)
    exact = special.eval_legendre(degrees, 0.0) - special.eval_legendre(degrees, p["delta"])
    closed = 2.0 ** (1.0 - _theta(p["p"])) * (4.0 * np.sqrt(p["delta"])) ** _theta(p["p"])
    value, witness = out["value"], out["witness"]
    return bool(
        np.abs(out["diagonal"] - np.repeat(exact, 2 * degrees + 1)).max() <= 1e-12
        and abs(out["upper"] - closed) <= 1e-12 * closed
        and 0.0 < value <= out["upper"] + 1e-9
        and abs(_mixed_norm(witness, p["p"]) - 1.0) <= 1e-9
        and abs(_mixed_norm(out["diagonal"][:, None] * witness, p["p"]) - value) <= 1e-12 * value
    )


def _p_at_zero(max_degree: int) -> np.ndarray:
    """P_n(0) in closed form: (-1)^m Gamma(m + 1/2) / (sqrt(pi) m!) for n = 2m, 0 for odd n."""
    n = np.arange(max_degree + 1)
    m = n // 2
    even = (-1.0) ** m * np.exp(special.gammaln(m + 0.5) - special.gammaln(m + 1.0) - 0.5 * np.log(np.pi))
    return np.where(n % 2 == 0, even, 0.0)


def _run_table(p: dict) -> dict:
    return {"table": legendre.legendre_table(TABLE_DEGREE, p["x"])}


def _check_table(p: dict, out: dict) -> bool:
    """Criterion 1's bound |P_n(0) - P_n(x)| <= 4 sqrt|x|, plus sampled rows against scipy."""
    table, x, rows = out["table"], p["x"], p["spot_rows"]
    if table.shape != (TABLE_DEGREE + 1, x.size):
        return False
    defects = np.abs(table - _p_at_zero(TABLE_DEGREE)[:, None])
    spot = np.abs(table[rows] - special.eval_legendre(rows[:, None], x[None, :])).max()
    return bool(
        np.all(table[0] == 1.0)
        and np.all(defects <= legendre.HOLDER_CONSTANT * np.sqrt(np.abs(x))[None, :] + 1e-14)
        and spot <= 1e-10
    )


def _perturb_table(out: dict) -> dict:
    table = out["table"].copy()
    table[-1, 0] += 10.0
    return {"table": table}


POWER_SUMS = JobKind("power_sums", _run_power_sums, _check_power_sums, _perturb_power_sums)
MIXED = JobKind("mixed_norm", _run_mixed, _check_mixed, _scaled("value", 1.0 + 1e-9))
TABLE = JobKind("legendre_table", _run_table, _check_table, _perturb_table)


def _norm_pass(rng: np.random.Generator) -> list[Job]:
    # log-spaced deltas in (2^-11, 1/2], one per octave, jittered within it
    deltas = 2.0 ** -(np.arange(1, DPS_DELTAS + 1) + rng.uniform(0.0, 1.0, DPS_DELTAS))
    jobs = [Job(POWER_SUMS, {"deltas": deltas})]
    for power in (4.0, 6.0, 8.0, float(rng.choice([4.0, 6.0, 8.0]))):
        jobs.append(
            Job(
                MIXED,
                {"p": power, "delta": rng.uniform(0.02, 0.2), "restart_seed": int(rng.integers(2**63))},
            )
        )
    for _ in range(TABLE_JOBS):
        jobs.append(
            Job(
                TABLE,
                {
                    "x": np.sort(rng.uniform(-1.0, 1.0, TABLE_POINTS)),
                    "spot_rows": rng.choice(TABLE_DEGREE + 1, TABLE_SPOT_ROWS, replace=False),
                },
            )
        )
    return jobs


# ---------------------------------------------------------------------------
# cone-ledgers
# ---------------------------------------------------------------------------

# Fourteen KAK batches put the median job of a run in the middle of the
# embedding solves, among the interior ones that bisect both cases.
KAK_BATCHES = 14
# Matrices per KAK batch by singular-value pattern: generic Gaussian, a
# repeated top pair, a repeated bottom pair, and rotations (all three equal).
KAK_MIX = {"generic": 24, "top_pair": 3, "bottom_pair": 3, "rotation": 2}
EMBEDDING_JOBS, EMBEDDING_EDGE_JOBS = 10, 2
# Ledger endpoints per pass: signs of a2 for (a, b); like signs take the
# three-segment route, unlike signs the two-segment one.
LEDGER_SIDES = ((1, 1), (-1, -1), (1, -1), (-1, 1)) * 2
COEFFICIENT_DEGREES = (1, 2, 3, 4, 5, 6)
COEFFICIENT_NODES = (96, 192)

# Criterion 10's profile.
PROFILE = zigzag.ExponentProfile(holder_s=0.5, growth_t=0.0, hoelder_C=4.0, growth_L=1.0)
ROT90 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


def _random_rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1.0
    return q


def _unimodular(rng: np.random.Generator, pattern: str) -> np.ndarray:
    if pattern == "generic":
        while True:
            g = rng.normal(size=(3, 3))
            det = np.linalg.det(g)
            if abs(det) >= 0.05:
                break
        if det < 0:
            g[0] *= -1.0
        return g / abs(det) ** (1.0 / 3.0)
    s = rng.uniform(0.1, 1.5)
    exps = {"top_pair": [s, s, -2 * s], "bottom_pair": [2 * s, -s, -s], "rotation": [0.0, 0.0, 0.0]}
    return _random_rotation(rng) @ np.diag(np.exp(exps[pattern])) @ _random_rotation(rng)


def _run_kak(p: dict) -> dict:
    return {"decompositions": [sl3.kak(g) for g in p["matrices"]]}


def _check_kak(p: dict, out: dict) -> bool:
    """Criterion 8: both factors in SO(3), a cone point, residual <= 1e-9."""
    decs = out["decompositions"]
    if len(decs) != len(p["matrices"]):
        return False
    for g, dec in zip(p["matrices"], decs):
        a = dec.a.as_array()
        if not (_is_rotation(dec.k1) and _is_rotation(dec.k2)):
            return False
        if a[0] < a[1] - 1e-10 or a[1] < a[2] - 1e-10 or abs(a.sum()) > 1e-10:
            return False
        if np.linalg.norm(g - dec.k1 @ np.diag(np.exp(a)) @ dec.k2, 2) > 1e-9:
            return False
    return True


def _perturb_kak(out: dict) -> dict:
    first, *rest = out["decompositions"]
    return {"decompositions": [dataclasses.replace(first, k1=-first.k1), *rest]}


def _d_alpha(alpha: float) -> np.ndarray:
    return np.diag([np.exp(alpha), np.exp(-alpha / 2.0), np.exp(-alpha / 2.0)])


def _x_delta(delta: float) -> np.ndarray:
    s = np.sqrt(1.0 - delta * delta)
    return np.array([[delta, -s, 0.0], [s, delta, 0.0], [0.0, 0.0, 1.0]])


def _run_embedding(p: dict) -> dict:
    return {"certificate": sl3.embedding2_solve(p["gamma"], p["alpha"])}


def _check_embedding(p: dict, out: dict) -> bool:
    """Criterion 9: residuals recomputed from the solved deltas, delta and rotation bounds."""
    cert, gamma, alpha = out["certificate"], p["gamma"], p["alpha"]
    targets = (
        (cert.delta1, cert.k1, cert.k1p, np.diag([np.exp(gamma), 1.0, np.exp(-gamma)]), cert.residual1),
        (
            cert.delta2,
            cert.k2,
            cert.k2p,
            np.diag([np.exp(0.75 * gamma), np.exp(0.25 * gamma), np.exp(-gamma)]),
            cert.residual2,
        ),
    )
    for delta, k, kp, target, reported in targets:
        if not (0.0 <= delta <= np.exp(-gamma) and _is_rotation(k) and _is_rotation(kp)):
            return False
        m = _d_alpha(2.0 * gamma - alpha) @ _x_delta(delta) @ _d_alpha(alpha)
        residual = np.linalg.norm(m - k @ target @ kp, 2) / max(1.0, np.linalg.norm(m, 2))
        if residual > 1e-9 or reported > 1e-9:
            return False
    if any(np.linalg.norm(k - np.eye(3), 2) > 2.0 * np.exp(-gamma / 4.0) for k in (cert.k1, cert.k1p, cert.k2p)):
        return False
    if p["edge"] and (cert.delta2 != 0.0 or np.abs(cert.k2 - ROT90).max() > 1e-9):
        return False
    return True


def _perturb_embedding(out: dict) -> dict:
    cert = out["certificate"]
    return {"certificate": dataclasses.replace(cert, delta1=cert.delta1 + 1e-6)}


def _cone_point(rng: np.random.Generator, alpha: float, eps: float, side: int) -> sl3.LambdaPoint:
    """A point of the annulus, drawn as in criterion 10, with the sign of a2 chosen."""
    ell = rng.uniform(alpha, (1.0 + eps) * alpha)
    top = rng.uniform(ell, min(2.0 * ell, (1.0 + eps) * alpha))
    point = sl3.LambdaPoint(top, ell - top, -ell)  # a2 <= 0
    return point.reflect() if side > 0 else point


def _run_ledger(p: dict) -> dict:
    bound, ledger = zigzag.annulus_diameter_bound(p["alpha"], p["epsilon"], PROFILE, p["a"], p["b"])
    return {"bound": bound, "ledger": ledger}


def _check_ledger(p: dict, out: dict) -> bool:
    """Criterion 10: closed-form total cap, per-segment cap, and a chain from a to b."""
    gamma = PROFILE.holder_s * (1.0 - p["epsilon"]) - 2.0 * PROFILE.growth_t
    unit = PROFILE.hoelder_C * PROFILE.growth_L**2 * np.exp(-gamma * p["alpha"])
    bound, segments = out["bound"], out["ledger"].segments
    if abs(bound - 6.0 * unit) > 1e-12 * 6.0 * unit or len(segments) != p["segments"]:
        return False
    if not out["ledger"].total <= bound:
        return False
    if any(not 0.0 <= seg.cost_bound <= 2.0 * unit + 1e-12 for seg in segments):
        return False
    ends = [p["a"], *(point for seg in segments for point in (seg.start, seg.end)), p["b"]]
    return all(ends[i].distance(ends[i + 1]) <= 1e-9 for i in range(0, len(ends), 2))


def _perturb_ledger(out: dict) -> dict:
    first, *rest = out["ledger"].segments
    over = dataclasses.replace(first, cost_bound=10.0 * out["bound"])
    return {"bound": out["bound"], "ledger": zigzag.CostLedger([over, *rest])}


def _run_coefficient(p: dict) -> dict:
    coarse, fine = (repsim.matrix_coefficient(p["n"], inner_nodes=nodes) for nodes in COEFFICIENT_NODES)
    return {"coarse": coarse, "fine": fine}


def _check_coefficient(p: dict, out: dict) -> bool:
    """Criterion 11: 0 < c(n) < 1, c(n) <= 4 e^(-n/2), quadrature defect below 10 %."""
    n, coarse, fine = p["n"], out["coarse"], out["fine"]
    return bool(
        0.0 < fine < 1.0
        and fine <= repsim.DECAY_BOUND_CONSTANT * np.exp(-repsim.DECAY_BOUND_RATE * n)
        and abs(fine - coarse) <= 0.1 * fine
    )


KAK = JobKind("kak", _run_kak, _check_kak, _perturb_kak)
EMBEDDING = JobKind("embedding", _run_embedding, _check_embedding, _perturb_embedding)
LEDGER = JobKind("ledger", _run_ledger, _check_ledger, _perturb_ledger)
COEFFICIENT = JobKind("coefficient", _run_coefficient, _check_coefficient, _scaled("coarse", 1.2))


def _cone_pass(rng: np.random.Generator) -> list[Job]:
    jobs = []
    patterns = [name for name, count in KAK_MIX.items() for _ in range(count)]
    for _ in range(KAK_BATCHES):
        jobs.append(Job(KAK, {"matrices": np.array([_unimodular(rng, name) for name in patterns])}))
    for i in range(EMBEDDING_JOBS + EMBEDDING_EDGE_JOBS):
        gamma = rng.uniform(2.0, 16.0)
        edge = i >= EMBEDDING_JOBS
        alpha = 7.0 * gamma / 6.0 if edge else rng.uniform(gamma, 7.0 * gamma / 6.0)
        jobs.append(Job(EMBEDDING, {"gamma": gamma, "alpha": alpha, "edge": edge}))
    for side_a, side_b in LEDGER_SIDES:
        alpha, eps = rng.uniform(1.0, 8.0), rng.uniform(0.2, 0.8)
        a = _cone_point(rng, alpha, eps, side_a)
        b = _cone_point(rng, alpha, eps, side_b)
        segments = 3 if side_a == side_b else 2
        jobs.append(Job(LEDGER, {"alpha": alpha, "epsilon": eps, "a": a, "b": b, "segments": segments}))
    for n in COEFFICIENT_DEGREES:
        jobs.append(Job(COEFFICIENT, {"n": n}))
    return jobs


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    kinds: tuple[JobKind, ...]
    build_pass: Callable[[np.random.Generator], list[Job]]
    # Nominal length of one pass on the 2-core box the benchmark was defined
    # on.  It fixes how many passes a run makes for a given --seconds, so the
    # work in a run is the same on every commit.
    pass_seconds: float

    def generate(self, seed: int, index: int) -> list[Job]:
        """Pass `index` of the run seeded by `seed`, in seeded order."""
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
        jobs = self.build_pass(rng)
        return [jobs[i] for i in rng.permutation(len(jobs))]

    def passes(self, seconds: float) -> int:
        return max(1, round(seconds / self.pass_seconds))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sphere-averaging", (OPERATOR, FRAMES, MARKOV), _sphere_pass, 7.5),
        Workload("norm-certificates", (POWER_SUMS, MIXED, TABLE), _norm_pass, 7.5),
        Workload("cone-ledgers", (KAK, EMBEDDING, LEDGER, COEFFICIENT), _cone_pass, 15.0),
    )
}
