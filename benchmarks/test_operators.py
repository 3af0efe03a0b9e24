"""Operator-level timings with pytest-benchmark.

    PYTHONPATH=src python -m pytest benchmarks --benchmark-only

Each benchmark also checks its result, so a fast wrong answer fails.  The sphere rows
time the circle-average operator, the ring means behind it, the ring contraction of
circle_average and the Markov step, the last at a perfbench Markov job's shape and at one
step of criterion 5.  The sl3 rows time embedding2_solve at criterion 9's gammas and kak on
perfbench's four singular-value patterns.  The two legendre_table rows are row-loop passes: a
wide one (degree 2000 on 1000 abscissae) and a narrow one (65535 rows on 2 abscissae), whose
time is almost all numpy's per-call cost.
"""

import numpy as np
import pytest

from circleops import sl3, sphere
from circleops.repsim import DECAY_BOUND_CONSTANT, DECAY_BOUND_RATE, matrix_coefficient
from circleops.legendre import HOLDER_CONSTANT, legendre_at_zero, legendre_table
from circleops.schatten import MixedNormSpace, mixed_norm_lower_bound
from circleops.sl3 import LambdaPoint, solve_delta_for_top
from circleops.spectral import (
    completed_power_sums,
    diff_power_sums,
    op_norm_diff_certificates,
    schatten_tail_bound,
)
from circleops.sphere import (
    SphereGrid,
    circle_average,
    circle_average_operator,
    degree_of_column,
    markov_steps,
    real_sph_harm_matrix,
    tangent_frames,
)
from circleops.zigzag import ExponentProfile, annulus_diameter_bound

HILBERT = ExponentProfile(holder_s=0.5, growth_t=0.0, hoelder_C=4.0, growth_L=1.0)


def test_matrix_coefficient(benchmark):
    value = benchmark.pedantic(matrix_coefficient, args=(6,), rounds=50, warmup_rounds=1)
    assert 0.0 < value <= DECAY_BOUND_CONSTANT * np.exp(-DECAY_BOUND_RATE * 6)


@pytest.mark.parametrize("band", [12, 16, 24, 32])  # every band of the sphere-averaging operator jobs
def test_circle_average_operator(benchmark, band):
    grid = SphereGrid.build(band)
    averaged = benchmark.pedantic(circle_average_operator, args=(grid, 0.3), rounds=20, warmup_rounds=1)
    eigs = legendre_table(band, 0.3)[degree_of_column(band)]
    assert np.abs(averaged - grid.basis * eigs[None, :]).max() <= 1e-8


@pytest.mark.parametrize("band", [12, 16, 24, 32])
def test_ring_tables(benchmark, band):
    # the per-delta ring means behind both the operator and circle_average: one ring-order kernel call
    grid = SphereGrid.build(band)
    means, partner, c, s = benchmark.pedantic(sphere._ring_tables, args=(grid, 0.3), rounds=20, warmup_rounds=1)
    # at a ring's first node (c = 1, s = 0) the average of Y_n^m is P_n(0.3) Y_n^m there
    eigs = legendre_table(band, 0.3)[degree_of_column(band)]
    assert np.abs(means - grid.basis[:: len(c)] * eigs).max() <= 1e-8


@pytest.mark.parametrize("points", ["grid", "ring-table"])
@pytest.mark.parametrize("band", [12, 16, 24, 32])
def test_real_sph_harm_matrix(benchmark, band, points):
    # the kernel at the grid's (B+1)(2B+1) nodes (SphereGrid.build caches grid.basis) and at
    # (B+1)^2 points, the circle points one circle_average or operator call evaluates
    grid = SphereGrid.build(band)
    nodes = grid.nodes
    if points == "ring-table":
        nodes = np.random.default_rng(band).normal(size=((band + 1) ** 2, 3))
        nodes /= np.linalg.norm(nodes, axis=1, keepdims=True)
    basis = benchmark.pedantic(real_sph_harm_matrix, args=(nodes, band), rounds=20, warmup_rounds=1)
    assert np.abs(basis[:, 0] - 1.0).max() <= 1e-10
    # addition theorem: at every point the squares of degree n's 2n+1 harmonics sum to 2n+1
    degree_sums = np.add.reduceat(basis**2, np.arange(band + 1) ** 2, axis=1)
    assert np.abs(degree_sums / (2 * np.arange(band + 1) + 1) - 1.0).max() <= 1e-10
    if points == "grid":
        assert np.abs(grid.weights @ basis**2 - 1.0).max() <= 1e-10


@pytest.mark.parametrize("band", [12, 16, 24, 32])  # every band of the sphere-averaging frames jobs
def test_circle_average(benchmark, band):
    # the ring means contracted with the samples' coefficients; the twisted frames are passed and ignored
    grid = SphereGrid.build(band)
    rng = np.random.default_rng(band)
    coeffs = rng.normal(size=grid.n_coeff)
    u, v = tangent_frames(grid.nodes)
    twist = rng.uniform(0.0, 2.0 * np.pi, size=grid.nodes.shape[0])
    c, s = np.cos(twist)[:, None], np.sin(twist)[:, None]
    samples = grid.synthesize(coeffs)
    frames = (c * u + s * v, c * v - s * u)
    averaged = benchmark.pedantic(circle_average, args=(grid, samples, 0.3, frames), rounds=20, warmup_rounds=1)
    eigs = legendre_table(band, 0.3)[degree_of_column(band)]
    assert np.abs(averaged - grid.basis @ (coeffs * eigs)).max() <= 1e-8


def _markov_path(start, steps, delta, seed):
    rng = np.random.default_rng(seed)
    path = [start]
    for _ in range(steps):
        path.append(markov_steps(path[-1], delta, rng))
    return np.stack(path)


# a perfbench Markov job (2000 replicas x 16 steps) and one step of criterion 5 (10^5 replicas)
@pytest.mark.parametrize("replicas, steps", [(2000, 16), (10**5, 1)], ids=["perfbench-job", "criterion-5-step"])
def test_markov_steps(benchmark, replicas, steps):
    start = np.random.default_rng(replicas).normal(size=(replicas, 3))
    start /= np.linalg.norm(start, axis=1, keepdims=True)
    path = benchmark.pedantic(_markov_path, args=(start, steps, 0.6, 7), rounds=20, warmup_rounds=1)
    assert path.shape == (steps + 1, replicas, 3)
    assert np.abs(np.linalg.norm(path, axis=2) - 1.0).max() <= 1e-12
    assert np.abs(np.sum(path[:-1] * path[1:], axis=2) - 0.6).max() <= 1e-12


def test_mixed_norm_diagonal_exact(benchmark):
    # perfbench's mixed-norm shape: diagonal to degree 16, inner dimension 4, p = 6; solved without a search
    diagonal = np.repeat(legendre_at_zero(16) - legendre_table(16, 0.1), 2 * np.arange(17) + 1)
    T = np.diag(diagonal)
    space = MixedNormSpace(diagonal.size, 4, 6.0)
    result = benchmark.pedantic(mixed_norm_lower_bound, args=(T, space), rounds=200, warmup_rounds=1)
    top = np.abs(diagonal).max()  # the exact norm of a diagonal T tensor Id
    assert abs(result.value - top) <= 1e-15 * top
    assert space.norm(result.witness) == 1.0
    assert result.value == space.norm(T @ result.witness)


def test_completed_power_sums(benchmark):
    # the tdelta-norms default shape at its last checkpoint only: ten deltas, p = 8, N = 2^14 (the run adds 2^13)
    deltas, p, n = [2.0**-k for k in range(1, 11)], 8.0, 2**14
    windows, _, norms = benchmark.pedantic(completed_power_sums, args=(deltas, [p], [n]), rounds=5)
    partial = windows[0, :, 0] ** (1 / p)
    ceiling = (windows[0, :, 0] + [schatten_tail_bound(d, p, n) for d in deltas]) ** (1 / p)
    assert np.all((partial <= norms[0, :, 0]) & (norms[0, :, 0] <= ceiling))


def test_diff_power_sums(benchmark):
    # criterion 2's shape: a deep pass to 2^18, solved as one banded system per abscissa
    deltas, ps = [2.0**-k for k in range(1, 11)], np.array([4.5, 5.0, 6.0, 8.0])
    checkpoints = [2**17, 2**18]
    sums = benchmark.pedantic(diff_power_sums, args=(deltas, ps, checkpoints), rounds=5, warmup_rounds=1)
    window = sums[..., 1] ** ps[:, None] - sums[..., 0] ** ps[:, None]  # degrees 2^17 < n <= 2^18
    bounds = np.array([[schatten_tail_bound(d, p, checkpoints[0]) for d in deltas] for p in ps])
    assert np.all((0.0 < window) & (window <= bounds))


def test_legendre_table(benchmark):
    # a shallow pass, so the row loop: degree 2000 on 1000 abscissae
    xs = np.linspace(-1.0, 1.0, 1000)
    table = benchmark.pedantic(legendre_table, args=(2000, xs), rounds=20, warmup_rounds=1)
    assert table.shape == (2001, 1000) and np.all(table[:, -1] == 1.0)
    assert np.abs(table).max() <= 1.0 + 1e-12
    # numpy's Clenshaw sum carries its own error, 4e-12 at degree 2000
    for n, tol in ((7, 1e-14), (300, 1e-12), (2000, 1e-10)):
        want = np.polynomial.legendre.legval(xs, np.eye(n + 1)[n])
        assert np.abs(table[n] - want).max() <= tol


def test_legendre_table_narrow(benchmark):
    # the row loop at almost pure per-call cost: 65535 rows over 2 abscissae, one row short of
    # a banded pass; schatten_tail_estimate's exact heads near |delta| = 1 run at this shape
    table = benchmark.pedantic(legendre_table, args=(65534, [0.999, 0.0]), rounds=5, warmup_rounds=1)
    assert table.shape == (65535, 2) and np.abs(table).max() <= 1.0
    assert np.all(table[1::2, 1] == 0.0)  # P_n(0) at odd n


def test_op_norm_heads_deep_wide(benchmark):
    # legendre-bounds --nmax 70000 --grid 1000: deep, but 1001 abscissae with the zero
    # column are too wide for the banded solver, so the streaming pass runs the row loop
    deltas = np.linspace(-1.0, 1.0, 1000)
    heads, _ = benchmark.pedantic(op_norm_diff_certificates, args=(deltas, 70000), rounds=3)
    assert np.all(heads <= HOLDER_CONSTANT * np.sqrt(np.abs(deltas)) + 1e-14)
    assert heads[0] == heads[-1] == 1.5  # |P_2(+-1) - P_2(0)|


def test_solve_delta_for_top(benchmark):
    alpha, target = 3.0, 4.5
    delta = benchmark.pedantic(solve_delta_for_top, args=(alpha, target), rounds=30)
    assert abs(sl3.j_alpha(alpha, delta).a1 - target) <= 1e-9


@pytest.mark.parametrize("place", ["interior", "tangent-edge"])
@pytest.mark.parametrize("gamma", [2.0, 4.0, 8.0, 16.0])  # criterion 9's gammas
def test_embedding2_solve(benchmark, gamma, place):
    alpha = 7.0 * gamma / 6.0 if place == "tangent-edge" else 13.0 * gamma / 12.0
    cert = benchmark.pedantic(sl3.embedding2_solve, args=(gamma, alpha), rounds=200, warmup_rounds=1)
    assert sl3.embedding2_verdict(cert)[-1]
    assert (cert.delta2 == 0.0) == (place == "tangent-edge")


def _kak_matrix(pattern, rng):
    """A unimodular matrix with perfbench's KAK singular-value patterns: generic Gaussian, a
    repeated top pair, a repeated bottom pair, or a rotation."""
    if pattern == "generic":
        g = rng.normal(size=(3, 3))
        return g * np.sign(np.linalg.det(g)) / np.cbrt(abs(np.linalg.det(g)))
    s = rng.uniform(0.1, 1.5)
    exps = {"top_pair": [s, s, -2 * s], "bottom_pair": [2 * s, -s, -s], "rotation": [0.0, 0.0, 0.0]}[pattern]
    rotations = [np.linalg.qr(rng.normal(size=(3, 3)))[0] for _ in range(2)]
    k1, k2 = (q * np.sign(np.linalg.det(q)) for q in rotations)
    return k1 @ np.diag(np.exp(exps)) @ k2


@pytest.mark.parametrize("pattern", ["generic", "top_pair", "bottom_pair", "rotation"])
def test_kak(benchmark, pattern):
    g = _kak_matrix(pattern, np.random.default_rng(3))
    dec = benchmark.pedantic(sl3.kak, args=(g,), rounds=200, warmup_rounds=1)
    assert dec.verdict(g)[1]
    for k in (dec.k1, dec.k2):
        assert np.abs(k.T @ k - np.eye(3)).max() <= 1e-12 and abs(np.linalg.det(k) - 1.0) <= 1e-12


SLIDE_A = LambdaPoint(1.4, 0.7, -2.1)  # a2 > 0, slice level 2.1
SLIDE_B = LambdaPoint(2.0, 0.8, -2.8)  # a2 > 0, slice level 2.8


# every side pattern: the pairs with a on the reflected side take the mirrored routes
@pytest.mark.parametrize(
    "a, b, segments",
    [
        (SLIDE_A, SLIDE_B, 3),
        (SLIDE_A.reflect(), SLIDE_B.reflect(), 3),
        (SLIDE_A, SLIDE_B.reflect(), 2),
        (SLIDE_A.reflect(), SLIDE_B, 2),
    ],
    ids=["slide-slide", "reflected-reflected", "slide-reflected", "reflected-slide"],
)
def test_annulus_diameter_bound(benchmark, a, b, segments):
    bound, ledger = benchmark.pedantic(
        annulus_diameter_bound,
        args=(2.0, 0.5, HILBERT, a, b),
        rounds=30,
        warmup_rounds=1,
    )
    assert len(ledger.segments) == segments and ledger.total <= bound
