"""Unit tests for Legendre evaluation and the defect bounds."""

import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circleops import legendre
from circleops.legendre import (
    HOLDER_CONSTANT,
    _clamp_abscissa,
    _clamp_delta,
    _row_blocks,
    bernstein_envelope,
    legendre_at_zero,
    legendre_table,
)
from circleops.sl3 import x_delta
from circleops.spectral import (
    SpectralOperator,
    divergence_probe_p4,
    schatten_tail_estimate,
)
from circleops.sphere import SphereGrid, circle_average_operator, markov_steps


def test_p0_is_one_everywhere():
    assert legendre_table(0, 0.37)[0] == 1.0
    assert np.all(legendre_table(0, np.linspace(-1, 1, 11))[0] == 1.0)


def test_normalization_at_one():
    for n in (0, 1, 2, 17, 100, 999):
        assert legendre_table(n, 1.0)[n] == pytest.approx(1.0, abs=0.0)


def test_p1_is_identity():
    assert legendre_table(1, 0.25)[1] == 0.25


def test_p2_at_zero():
    # recurrence by hand: P_2 = (3x^2 - 1)/2
    assert legendre_table(2, 0.0)[2] == -0.5


def test_against_numpy_legval():
    xs = np.linspace(-1.0, 1.0, 57)
    for n in (1, 2, 3, 7, 20, 50, 131):
        coeffs = np.zeros(n + 1)
        coeffs[n] = 1.0
        expected = np.polynomial.legendre.legval(xs, coeffs)
        np.testing.assert_allclose(legendre_table(n, xs)[n], expected, rtol=1e-12, atol=1e-14)


def test_high_degree_against_mpmath():
    with mpmath.workdps(30):
        for n, x in ((10_000, 0.37), (10_000, -0.83), (4_321, 0.999)):
            exact = float(mpmath.legendre(n, x))
            got = legendre_table(n, x)[n]
            assert abs(got - exact) <= 1e-12 * max(abs(exact), 1e-300) + 1e-15


def test_table_matches_single_evaluations():
    xs = np.array([-0.9, -0.2, 0.0, 0.55, 1.0])
    table = legendre_table(25, xs)
    assert table.shape == (26, 5)
    assert np.all(table[0] == 1.0)
    assert np.all(np.abs(table) <= 1.0 + 1e-12)
    for n in (3, 11, 25):
        np.testing.assert_allclose(table[n], legendre_table(n, xs)[n], rtol=1e-13)


def test_blocks_continue_the_recurrence():
    # each block starts from the last two rows of the one before, so any block
    # size reproduces the one-block table bit for bit
    xs = np.linspace(-1.0, 1.0, 9)
    blocks = list(_row_blocks(100, xs, block_rows=7))
    assert [len(b) for b in blocks] == [7] * 14 + [3]
    assert np.array_equal(np.concatenate(blocks), legendre_table(100, xs))
    # one abscissa gives default blocks of 2^16 rows: degree 70000 is in the second
    *_, last = _row_blocks(70000, np.array([0.3]))
    assert last[-1, 0] == legendre_table(70000, 0.3)[-1]


def _plain_recurrence(max_degree, x):
    """P_0 .. P_N by the plain expression ((2n-1) x P_(n-1) - (n-1) P_(n-2)) / n, one row at a time."""
    table = np.empty((max_degree + 1, x.size))
    older, last = np.zeros(x.size), np.ones(x.size)
    table[0] = last
    for n in range(1, max_degree + 1):
        older, last = last, ((2 * n - 1) * x * last - (n - 1) * older) / n
        table[n] = last
    return table


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


# signed zeros, the ends, and the overshoots that clamp to them
EDGE_ABSCISSAE = [-0.0, 0.0, 1.0, -1.0, 1.0 + 1e-12, -(1.0 + 1e-12)]


@pytest.mark.parametrize("width", [1, 11, 1000, 1001])
def test_row_loop_bits_match_the_plain_recurrence(width):
    # the row loop works in place but keeps the plain expression's operations and order,
    # so its bits are the expression's, signs of zero included
    xs = np.append(EDGE_ABSCISSAE, np.random.default_rng(width).uniform(-1.0, 1.0, width))
    clamped = np.clip(xs, -1.0, 1.0)
    want = _plain_recurrence(2000, clamped)
    assert _same_bits(legendre_table(2000, xs), want)
    assert _same_bits(np.concatenate(list(_row_blocks(2000, clamped, block_rows=7))), want)


class _RecordingNumpy:
    """numpy, except that multiply, subtract and divide record the types of their operands."""

    def __init__(self, names):
        self.calls = {name: [] for name in names}

    def __getattr__(self, name):
        exact = getattr(np, name)
        if name not in self.calls:
            return exact

        def call(*args, **kwargs):
            self.calls[name].append([type(arg) for arg in args])
            return exact(*args, **kwargs)

        return call


def test_row_loop_passes_no_python_or_numpy_scalar_to_its_ufuncs(monkeypatch):
    # a Python float or numpy scalar operand costs numpy a conversion on every call; the loop's
    # scalars are reused 0-d arrays, and its five calls per row all go through these names
    xs = np.linspace(-1.0, 1.0, 9)
    want = legendre_table(50, xs)
    recording = _RecordingNumpy(["multiply", "subtract", "divide"])
    monkeypatch.setattr(legendre, "np", recording)
    got = np.concatenate(list(_row_blocks(50, xs, block_rows=7)))
    assert _same_bits(got, want)
    # degrees 1..50 come from the loop (P_0 is set, not computed)
    assert {name: len(calls) for name, calls in recording.calls.items()} == {
        "multiply": 3 * 50,
        "subtract": 50,
        "divide": 50,
    }
    operand_types = {t for calls in recording.calls.values() for types in calls for t in types}
    assert operand_types == {np.ndarray}


@pytest.mark.parametrize("degree", [True, False, 2.0, np.float64(3.0), -1, np.int64(-2), "3", None])
def test_degree_must_be_an_integer_at_least_zero(degree):
    # the package's count rule: a bool is not a degree, a float is not one either
    with pytest.raises(ValueError, match=r"degree must be an integer >= 0"):
        legendre_table(degree, 0.3)
    with pytest.raises(ValueError, match=r"degree must be an integer >= 0"):
        next(_row_blocks(degree, np.array([0.3])))


def test_numpy_integer_degrees_are_degrees():
    assert _same_bits(legendre_table(np.int64(7), [0.3, -0.0]), legendre_table(7, [0.3, -0.0]))
    assert _same_bits(legendre_at_zero(np.uint8(5)), legendre_at_zero(5))


def test_nd_abscissae_keep_their_shape():
    x = np.array([[-0.9, 0.25], [0.6, 1.0]])
    flat = legendre_table(3, x.ravel())
    assert np.array_equal(legendre_table(3, x), flat.reshape(4, 2, 2))
    assert np.array_equal(legendre_table(3, x)[3], flat[-1].reshape(2, 2))
    assert legendre_table(3, x[:1, :1]).shape == (4, 1, 1)


# Deep and narrow passes (more than _BLOCK_VALUES rows, at most _BANDED_WIDTH
# abscissae) are solved as banded systems; these tests hold them to a 200-bit
# recurrence and to the row loop.
DEEP = 70_000
DEEP_POINTS = np.array([0.3, -0.83, 0.999])


@pytest.fixture(scope="module")
def deep_reference():
    """P_n at DEEP_POINTS for n <= DEEP by a 200-bit fixed-point recurrence in Python integers.

    mpmath.legendre does not converge at these degrees, so the reference is
    the recurrence itself, carried with 200 fractional bits (each step rounds
    by < 2^-200, far below a double's unit in the last place).
    """
    scale = 1 << 200
    table = np.empty((DEEP + 1, DEEP_POINTS.size))
    for i, x in enumerate(DEEP_POINTS.tolist()):
        num, den = x.as_integer_ratio()
        older, last = 0, scale
        table[0, i] = 1.0
        for n in range(1, DEEP + 1):
            older, last = last, ((2 * n - 1) * num * last // den - (n - 1) * older) // n
            table[n, i] = last / scale
    return table


def test_deep_pass_against_200_bit_recurrence(deep_reference, monkeypatch):
    banded = np.abs(legendre_table(DEEP, DEEP_POINTS) - deep_reference).max(axis=0)
    monkeypatch.setattr(legendre, "_BLOCK_VALUES", DEEP + 1)  # the depth test now picks the row loop
    looped = np.abs(legendre_table(DEEP, DEEP_POINTS) - deep_reference).max(axis=0)
    # both are rounding-sized; the banded error is no larger than the loop's up to one
    # epsilon (at x = 0.3 they are 1.9e-16 and 1.7e-16; at 0.999, 8.5e-15 and 1.6e-14)
    assert np.all(banded <= 1e-13)
    assert np.all(banded <= looped + np.finfo(float).eps)


def test_deep_columns_keep_the_bits_of_the_strided_solve():
    """The banded solver runs down each abscissa's contiguous column (incx=1).  The oracle is the
    same dtbsv striding through a row-major (rows, width) buffer (incx=width, offx=i), in one block.

    The values' bits do not depend on the layout, but sums over a deep pass do, since BLAS reads
    the columns in another order: spectral._power_windows' masses may differ between the two
    layouts by up to 1e-14 relative (4.2e-15 over criterion 2's ten deltas at 2^18, where the
    contiguous columns are the closer to math.fsum: 2.1e-15 against 4.9e-15).
    """
    from scipy.linalg.blas import dtbsv

    width = DEEP_POINTS.size
    degrees = np.arange(-2, DEEP + 1)
    band = np.empty((3, degrees.size), order="F")
    band[0] = np.maximum(degrees, 1)
    band[0, :2] = 1.0
    band[2] = degrees + 1
    coupling = -(2.0 * degrees + 1.0)
    coupling[0] = 0.0
    flat = np.zeros(degrees.size * width)
    flat[2 * width : 3 * width] = 1.0  # P_0 = 1: the right-hand side e_0 of every abscissa
    for i, x in enumerate(DEEP_POINTS.tolist()):
        np.multiply(coupling, x, out=band[1])
        flat = dtbsv(2, band, flat, incx=width, offx=i, lower=1)
    want = flat.reshape(-1, width)[2:]
    assert np.array_equal(legendre_table(DEEP, DEEP_POINTS), want)
    assert np.array_equal(np.concatenate(list(_row_blocks(DEEP, DEEP_POINTS))), want)


def test_deep_pass_is_exact_at_integer_points():
    x = np.array([1.0, -1.0, 0.0])
    table = np.concatenate(list(_row_blocks(DEEP, x)))  # default blocks: 21845 rows each
    n = np.arange(DEEP + 1)
    assert np.all(table[:, 0] == 1.0)
    assert np.array_equal(table[:, 1], np.where(n % 2, -1.0, 1.0))
    assert np.all(table[1::2, 2] == 0.0)


def test_deep_pass_bits_do_not_depend_on_blocks_or_neighbours():
    one_block = legendre_table(DEEP, DEEP_POINTS)
    for block_rows in (7, 7777):
        blocks = list(_row_blocks(DEEP, DEEP_POINTS, block_rows))
        assert np.array_equal(np.concatenate(blocks), one_block)
    xs = np.linspace(-0.95, 0.95, 11)
    among = legendre_table(DEEP, xs)
    for k, x in enumerate(xs):
        assert np.array_equal(among[:, k], legendre_table(DEEP, x))


def test_two_sides_of_the_depth_test_agree(deep_reference):
    # degree 2^16 - 1 is the deepest row-loop pass, 2^16 the shallowest banded one
    edge = legendre._BLOCK_VALUES
    shallow, deep = legendre_table(edge - 1, DEEP_POINTS), legendre_table(edge, DEEP_POINTS)
    looped_error = np.abs(shallow - deep_reference[:edge]).max(axis=0)
    assert np.all(np.abs(deep[:edge] - shallow).max(axis=0) <= looped_error)


EDGE_ROWS, EDGE_WIDTH = legendre._BLOCK_VALUES, legendre._BANDED_WIDTH


@pytest.mark.parametrize(
    "rows, width, solver",
    [
        (EDGE_ROWS, 3, "_loop_rows"),
        (EDGE_ROWS + 1, 3, "_banded_rows"),
        (EDGE_ROWS + 1, EDGE_WIDTH, "_banded_rows"),
        (EDGE_ROWS + 1, EDGE_WIDTH + 1, "_loop_rows"),
        (EDGE_ROWS, EDGE_WIDTH + 1, "_loop_rows"),
    ],
)
def test_solver_follows_depth_and_width(monkeypatch, rows, width, solver):
    used = []
    for name in ("_loop_rows", "_banded_rows"):
        def spy(*args, name=name, solve=getattr(legendre, name)):
            used.append(name)
            solve(*args)
        monkeypatch.setattr(legendre, name, spy)
    next(_row_blocks(rows - 1, np.linspace(-1.0, 1.0, width)))  # the first block only
    assert used == [solver]


def test_two_sides_of_the_width_test_agree(deep_reference):
    # DEEP_POINTS among EDGE_WIDTH abscissae take the banded solver, among one more the row loop
    def deep_columns(width):
        xs = np.concatenate([DEEP_POINTS, np.linspace(-0.9, 0.9, width - DEEP_POINTS.size)])
        return np.concatenate([rows[:, : DEEP_POINTS.size] for rows in _row_blocks(DEEP, xs)])

    banded, looped = deep_columns(EDGE_WIDTH), deep_columns(EDGE_WIDTH + 1)
    assert np.array_equal(banded, legendre_table(DEEP, DEEP_POINTS))
    looped_error = np.abs(looped - deep_reference).max(axis=0)
    assert np.all(np.abs(banded - looped).max(axis=0) <= looped_error)


def test_at_zero_values():
    z = legendre_at_zero(8)
    np.testing.assert_allclose(
        z, [1.0, 0.0, -0.5, 0.0, 0.375, 0.0, -0.3125, 0.0, 0.2734375], atol=1e-15
    )


def test_domain_error_and_clamp():
    with pytest.raises(ValueError):
        legendre_table(3, 1.1)
    # rounding overshoot within 1e-12 is clamped, not rejected
    assert legendre_table(3, 1.0 + 5e-13)[3] == pytest.approx(1.0, abs=1e-12)


def test_holder_defect_examples():
    def defect(n, x):  # P_n(x) - P_n(0)
        return legendre_table(n, x)[n] - legendre_at_zero(n)[n]

    for n in (0, 1, 5, 42):
        assert defect(n, 0.0) == 0.0
    assert abs(defect(1, 0.09)) == pytest.approx(0.09, abs=1e-15)
    assert 0.09 <= HOLDER_CONSTANT * 0.3
    assert abs(defect(40, 0.2)) <= HOLDER_CONSTANT * np.sqrt(0.2)


def test_holder_bound_on_grid():
    deltas = np.linspace(-1.0, 1.0, 201)
    table = legendre_table(400, deltas)
    zeros = legendre_at_zero(400)
    defects = np.abs(table - zeros[:, None])
    assert np.all(defects <= HOLDER_CONSTANT * np.sqrt(np.abs(deltas))[None, :] + 1e-14)


def test_bonnet_recurrence_residual():
    xs = np.linspace(-1.0, 1.0, 101)
    table = legendre_table(300, xs)
    for n in range(1, 300):
        resid = (n + 1) * table[n + 1] - (2 * n + 1) * xs * table[n] + n * table[n - 1]
        assert np.abs(resid).max() <= 1e-10


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=0, max_value=500), x=st.floats(min_value=0.0, max_value=1.0))
def test_parity(n, x):
    assert legendre_table(n, -x)[n] == pytest.approx(
        (-1.0) ** n * legendre_table(n, x)[n], abs=1e-12
    )


def test_bernstein_envelope_dominates():
    thetas = np.linspace(0.011, np.pi - 0.011, 300)
    xs = np.cos(thetas)
    for n in (1, 2, 5, 17, 50, 337):
        vals = np.abs(legendre_table(n, xs)[n])
        env = bernstein_envelope(n, xs)
        assert np.all(vals <= env + 1e-14)


def test_bernstein_envelope_rejects_degree_zero():
    with pytest.raises(ValueError):
        bernstein_envelope(0, 0.5)


# Every public entry point that takes a delta in [-1, 1] (one at a time);
# legendre decides the range for all of them.
_GRID = SphereGrid.build(2)
DELTA_ENTRY_POINTS = {
    "_clamp_delta": _clamp_delta,
    "x_delta": x_delta,
    "circle_average_operator": lambda d: circle_average_operator(_GRID, d),
    "markov_steps": lambda d: markov_steps(np.array([[0.0, 0.0, 1.0]]), d, np.random.default_rng(0)),
    "SpectralOperator": lambda d: SpectralOperator(d, 4),
    "schatten_tail_estimate": lambda d: schatten_tail_estimate(d, 5.0, 8),
    "legendre_table": lambda d: legendre_table(4, d),
    "legendre_table[array]": lambda d: legendre_table(4, np.array([0.5, d])),
}
RANGE_EDGE = 1.0 + 1e-12  # largest accepted |delta|; it is clipped to 1


@pytest.mark.parametrize("entry", [*DELTA_ENTRY_POINTS, "divergence_probe_p4"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.1])
def test_delta_entry_points_reject_nan_and_out_of_range(entry, bad):
    call = DELTA_ENTRY_POINTS.get(entry, lambda d: divergence_probe_p4(d, [4, 8]))
    with pytest.raises(ValueError):
        call(bad)


@settings(max_examples=120, deadline=None)
@given(
    entry=st.sampled_from(sorted(DELTA_ENTRY_POINTS)),
    sign=st.sampled_from([-1.0, 1.0]),
    size=st.one_of(
        st.sampled_from([RANGE_EDGE, np.nextafter(RANGE_EDGE, 2.0), 1.0, np.nextafter(1.0, 2.0)]),
        st.floats(min_value=1.0 - 1e-11, max_value=1.0 + 1e-11),
    ),
)
def test_delta_range_edge(entry, sign, size):
    """|delta| = 1 + 1e-12 is accepted and the next float above it is rejected, at every entry point."""
    call = DELTA_ENTRY_POINTS[entry]
    if size <= RANGE_EDGE:
        call(sign * size)
    else:
        with pytest.raises(ValueError):
            call(sign * size)


def test_clamp_delta_clips_to_the_interval():
    assert _clamp_delta(RANGE_EDGE) == 1.0 and _clamp_delta(-RANGE_EDGE) == -1.0
    assert _clamp_delta(-0.25) == -0.25


@pytest.mark.parametrize(
    "delta",
    [sign * (1.0 + off) for sign in (1.0, -1.0) for off in (0.0, 1e-12, -1e-12, 2e-12, -2e-12)]
    + [0.0, -0.0, np.float64(-0.0), -0.25, 1, np.nan, np.inf, -np.inf],
)
def test_clamp_delta_is_clamp_abscissa_of_one_float(delta):
    """The scalar path returns _clamp_abscissa's float, bit for bit (-0.0 kept), or raises its error."""
    try:
        want = float(_clamp_abscissa(delta))
    except ValueError as err:
        with pytest.raises(ValueError, match=re.escape(str(err))):
            _clamp_delta(delta)
    else:
        got = _clamp_delta(delta)
        assert type(got) is float and np.float64(got).tobytes() == np.float64(want).tobytes()
