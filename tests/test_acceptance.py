"""Acceptance suite: one test per exit criterion, at the stated tolerances.

Criterion 2's stabilization clause is out of reach of raw truncations (the
p-th power tails decay like N^(2 - p/2), so the raw doubling change at
N = 2^18 is ~1e-2 for p = 4.5); it is asserted at the stated 1e-6 on the
norms completed by spectral.schatten_tail_estimate, with the raw changes in
the report.  There it checks the completion's consistency; the binding check
is the estimate's mass over 2^17 < n <= 2^18 against the recurrence's.
"""

import itertools

import numpy as np
import pytest

from circleops import acceptance
from circleops.acceptance import ALL_CRITERIA
from circleops.schatten import MixedNormSpace, mixed_norm_lower_bound
from circleops.spectral import difference_diagonal


@pytest.mark.parametrize("number", sorted(ALL_CRITERIA))
def test_criterion(number):
    result = ALL_CRITERIA[number]()
    print(result.line())
    assert result.number == number
    assert result.passed, result.line()


@pytest.mark.parametrize(
    "number, seconds, passed",
    [(1, 11.0, False), (1, 9.0, True), (1, 10.0, False), (6, 1e6, True)],
)
def test_wall_clock_gate(monkeypatch, number, seconds, passed):
    """Criterion 1 is gated at 10 s; criterion 6 has no gate however long it takes."""
    clock = itertools.chain([0.0], itertools.repeat(seconds))
    monkeypatch.setattr(acceptance.time, "perf_counter", lambda: next(clock))
    result = ALL_CRITERIA[number]()
    assert result.elapsed == seconds
    assert result.passed == passed, result.line()


@pytest.mark.parametrize("p", [4.0, 6.0, 8.0, np.inf])
def test_criterion_7_witness_attains_the_diagonal_norm(p):
    """Criterion 7's witness e_i (x) e_1 is a unit vector whose image has norm max |t_i|."""
    diag = difference_diagonal(0.1, 16)
    space = MixedNormSpace(diag.size, 4, p)
    witness, value = acceptance._diagonal_witness(diag, space)
    assert space.norm(witness) == 1.0
    assert value == pytest.approx(np.abs(diag).max(), rel=1e-15)
    # the alternating-duality search can only approach the exact norm from below
    assert mixed_norm_lower_bound(np.diag(diag), space, restarts=4, iters=50).value <= value * (1 + 1e-12)
