"""Operator-level timings with pytest-benchmark.

    PYTHONPATH=src python -m pytest benchmarks --benchmark-only

Each benchmark also checks its result, so a fast wrong answer fails.  The slide
solves start from an empty monotonicity cache in every round: that is the cost
a new slide level pays.
"""

import numpy as np

from circleops import sl3
from circleops.repsim import DECAY_BOUND_CONSTANT, DECAY_BOUND_RATE, matrix_coefficient
from circleops.sl3 import LambdaPoint, solve_delta_for_top
from circleops.zigzag import ExponentProfile, annulus_diameter_bound

HILBERT = ExponentProfile(holder_s=0.5, growth_t=0.0, hoelder_C=4.0, growth_L=1.0)


def test_matrix_coefficient(benchmark):
    value = benchmark(matrix_coefficient, 6)
    assert 0.0 < value <= DECAY_BOUND_CONSTANT * np.exp(-DECAY_BOUND_RATE * 6)


def test_solve_delta_for_top(benchmark):
    alpha, target = 3.0, 4.5
    delta = benchmark.pedantic(
        solve_delta_for_top, args=(alpha, target), setup=sl3._check_monotone.cache_clear, rounds=30
    )
    assert abs(sl3.j_alpha(alpha, delta).a1 - target) <= 1e-9


def test_annulus_diameter_bound_three_segments(benchmark):
    a = LambdaPoint(1.4, 0.7, -2.1)  # a2 > 0, slice level 2.1
    b = LambdaPoint(2.0, 0.8, -2.8)  # a2 > 0, slice level 2.8
    bound, ledger = benchmark.pedantic(
        annulus_diameter_bound,
        args=(2.0, 0.5, HILBERT, a, b),
        setup=sl3._check_monotone.cache_clear,
        rounds=30,
    )
    assert len(ledger.segments) == 3 and ledger.total <= bound
