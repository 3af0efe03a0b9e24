"""Unit tests for Legendre evaluation and the defect bounds."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circleops.legendre import (
    HOLDER_CONSTANT,
    _row_blocks,
    bernstein_envelope,
    gauss_rule,
    holder_defect,
    legendre_at_zero,
    legendre_defect,
    legendre_eval,
    legendre_table,
)


def test_p0_is_one_everywhere():
    assert legendre_eval(0, 0.37) == 1.0
    assert np.all(legendre_eval(0, np.linspace(-1, 1, 11)) == 1.0)


def test_normalization_at_one():
    for n in (0, 1, 2, 17, 100, 999):
        assert legendre_eval(n, 1.0) == pytest.approx(1.0, abs=0.0)


def test_p1_is_identity():
    assert legendre_eval(1, 0.25) == 0.25


def test_p2_at_zero():
    # recurrence by hand: P_2 = (3x^2 - 1)/2
    assert legendre_eval(2, 0.0) == -0.5


def test_against_numpy_legval():
    xs = np.linspace(-1.0, 1.0, 57)
    for n in (1, 2, 3, 7, 20, 50, 131):
        coeffs = np.zeros(n + 1)
        coeffs[n] = 1.0
        expected = np.polynomial.legendre.legval(xs, coeffs)
        np.testing.assert_allclose(legendre_eval(n, xs), expected, rtol=1e-12, atol=1e-14)


def test_high_degree_against_mpmath():
    with mpmath.workdps(30):
        for n, x in ((10_000, 0.37), (10_000, -0.83), (4_321, 0.999)):
            exact = float(mpmath.legendre(n, x))
            got = legendre_eval(n, x)
            assert abs(got - exact) <= 1e-12 * max(abs(exact), 1e-300) + 1e-15


def test_table_matches_single_evaluations():
    xs = np.array([-0.9, -0.2, 0.0, 0.55, 1.0])
    table = legendre_table(25, xs)
    assert table.shape == (26, 5)
    assert np.all(table[0] == 1.0)
    assert np.all(np.abs(table) <= 1.0 + 1e-12)
    for n in (3, 11, 25):
        np.testing.assert_allclose(table[n], legendre_eval(n, xs), rtol=1e-13)


def test_blocks_continue_the_recurrence():
    # each block starts from the last two rows of the one before, so any block
    # size reproduces the one-block table bit for bit
    xs = np.linspace(-1.0, 1.0, 9)
    blocks = list(_row_blocks(100, xs, block_rows=7))
    assert [len(b) for b in blocks] == [7] * 14 + [3]
    assert np.array_equal(np.concatenate(blocks), legendre_table(100, xs))
    # one abscissa gives default blocks of 2^16 rows: degree 70000 is in the second
    assert legendre_eval(70000, 0.3) == legendre_table(70000, 0.3)[-1]


def test_defect_is_table_minus_zero_column():
    xs = np.linspace(-1.0, 1.0, 11)
    want = legendre_table(300, xs) - legendre_at_zero(300)[:, None]
    assert np.array_equal(legendre_defect(300, xs), want)
    assert np.array_equal(legendre_defect(300, xs[7]), want[:, 7])


def test_at_zero_values():
    z = legendre_at_zero(8)
    np.testing.assert_allclose(
        z, [1.0, 0.0, -0.5, 0.0, 0.375, 0.0, -0.3125, 0.0, 0.2734375], atol=1e-15
    )


def test_domain_error_and_clamp():
    with pytest.raises(ValueError):
        legendre_eval(3, 1.1)
    # rounding overshoot within 1e-12 is clamped, not rejected
    assert legendre_eval(3, 1.0 + 5e-13) == pytest.approx(1.0, abs=1e-12)


def test_holder_defect_examples():
    for n in (0, 1, 5, 42):
        assert holder_defect(n, 0.0) == 0.0
    assert holder_defect(1, 0.09) == pytest.approx(0.09, abs=1e-15)
    assert 0.09 <= HOLDER_CONSTANT * 0.3
    v = holder_defect(40, 0.2)
    assert v <= HOLDER_CONSTANT * np.sqrt(0.2)


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
    assert legendre_eval(n, -x) == pytest.approx(
        (-1.0) ** n * legendre_eval(n, x), abs=1e-12
    )


def test_bernstein_envelope_dominates():
    thetas = np.linspace(0.011, np.pi - 0.011, 300)
    xs = np.cos(thetas)
    for n in (1, 2, 5, 17, 50, 337):
        vals = np.abs(legendre_eval(n, xs))
        env = bernstein_envelope(n, xs)
        assert np.all(vals <= env + 1e-14)


def test_bernstein_envelope_rejects_degree_zero():
    with pytest.raises(ValueError):
        bernstein_envelope(0, 0.5)


@pytest.mark.parametrize("n", [16, 33, 96, 192])
def test_gauss_rule_is_leggauss_bit_for_bit(n):
    nodes, weights = gauss_rule(n)
    want_nodes, want_weights = np.polynomial.legendre.leggauss(n)
    assert nodes.tobytes() == want_nodes.tobytes()
    assert weights.tobytes() == want_weights.tobytes()
    assert gauss_rule(n)[0] is nodes  # computed once, shared afterwards


def test_gauss_rule_arrays_are_read_only():
    for array in gauss_rule(33):
        with pytest.raises(ValueError):
            array[0] = 0.0
