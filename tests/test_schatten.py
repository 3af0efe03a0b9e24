"""Tests for dyadic sums and mixed norms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from circleops.legendre import legendre_at_zero, legendre_table
from circleops.schatten import (
    MixedNormSpace,
    SingularProfile,
    dyadic_sum,
    interpolation_bound,
    mixed_norm_lower_bound,
    mixed_norm_upper_bound,
)
from circleops.spectral import difference_diagonal


def diagonal_difference_operator(delta: float, max_degree: int) -> np.ndarray:
    """Degree-truncated diagonal model of the averaging difference, with
    eigenvalues repeated by multiplicity 2n+1."""
    diffs = legendre_at_zero(max_degree) - legendre_table(max_degree, delta)
    return np.diag(np.repeat(diffs, 2 * np.arange(max_degree + 1) + 1))


def reference_norm(x: np.ndarray, p: float) -> float:
    """The mixed norm from numpy's row norms."""
    rows = np.abs(x).max(axis=1) if np.isinf(p) else np.linalg.norm(x, ord=p, axis=1)
    return float(np.linalg.norm(rows))


def reference_norming_dual(y: np.ndarray, p: float) -> np.ndarray:
    """The duality map written out branch by branch."""
    if np.isinf(p):
        mx = np.abs(y).max(axis=1, keepdims=True)
        hits = (np.abs(y) == mx) & (mx > 0)
        counts = np.maximum(hits.sum(axis=1, keepdims=True), 1)
        u = np.where(hits, np.sign(y), 0.0) / counts
        rows = mx[:, 0]
    elif p == 1.0:
        u = np.sign(y)
        rows = np.abs(y).sum(axis=1)
    else:
        rows = np.linalg.norm(y, ord=p, axis=1)
        scale = np.where(rows > 0, rows, 1.0) ** (p - 1.0)
        u = np.sign(y) * np.abs(y) ** (p - 1.0) / scale[:, None]
        u[rows == 0] = 0.0
    outer = np.linalg.norm(rows)
    if outer == 0:
        return np.zeros_like(y)
    return u * (rows / outer)[:, None]


def zero_rows_operator() -> np.ndarray:
    T = np.random.default_rng(3).normal(size=(9, 9))
    T[[1, 4, 5]] = 0.0
    return T


def one_off_diagonal_operator() -> np.ndarray:
    # one coupling entry is enough to leave the exact diagonal answer
    T = np.diag(np.linspace(-0.6, 0.9, 9))
    T[2, 7] = 0.8
    return T


# operators that are not diagonal, so mixed_norm_lower_bound refuses them
NON_DIAGONAL_OPERATORS = {
    "dense": lambda: np.random.default_rng(3).normal(size=(9, 9)),
    "one-off-diagonal": one_off_diagonal_operator,
    "zero-rows": zero_rows_operator,
}

# diagonals solved exactly; the first has a zero entry, the last two a negative or tied maximum |t_i|
EXACT_DIAGONALS = {
    "criterion-7": lambda: difference_diagonal(0.1, 16),
    "one-by-one": lambda: np.array([-0.7]),
    "zero": lambda: np.zeros(9),
    "negative-max": lambda: np.array([0.2, -0.9, 0.0, 0.4]),
    "tied-max": lambda: np.array([0.3, -0.5, 0.5, 0.1, -0.5]),
}

nonincreasing_profiles = st.lists(
    st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=600
).map(lambda vals: SingularProfile(np.sort(np.asarray(vals))[::-1]))


class TestDyadic:
    def test_single_value(self):
        assert dyadic_sum(SingularProfile(np.array([1.0])), r=2.0) == 1.0 <= 2.0

    def test_harmonic_profile_closed_form(self):
        n = 2**10
        prof = SingularProfile(1.0 / np.arange(1, n + 1))
        # alpha_k = 2^-k so the weighted sum telescopes to sum 2^-k < 2
        expected = sum(2.0**k * (2.0**-k) ** 2 for k in range(11))
        assert dyadic_sum(prof, r=2.0) == pytest.approx(expected, rel=1e-12)
        assert dyadic_sum(prof, r=2.0) <= 2.0 * prof.schatten_norm(2.0) ** 2

    @settings(max_examples=100, deadline=None)
    @given(prof=nonincreasing_profiles, r=st.sampled_from([1.2, 1.5, 2.0, 3.0, 5.0]))
    def test_decomposition_invariants(self, prof, r):
        # block k: alpha_k = lambda_(2^k) times u_k on positions 2^k .. 2^(k+1) - 1 (1-indexed)
        n = prof.values.size
        blocks = [(2**k - 1, min(2 ** (k + 1) - 1, n)) for k in range(n.bit_length())]
        alphas = np.array([prof.values[lo] for lo, _ in blocks])
        for k, (lo, hi) in enumerate(blocks):
            assert hi - lo <= 2**k
            assert prof.values[lo:hi].max() <= alphas[k]  # ||u_k|| <= 1
        # the blocks tile the profile: concatenated alpha_k u_k diagonals give it back exactly
        np.testing.assert_array_equal(np.concatenate([prof.values[lo:hi] for lo, hi in blocks]), prof.values)
        weighted = float(np.sum(2.0 ** np.arange(len(blocks)) * alphas**r))
        assert dyadic_sum(prof, r) == weighted <= 2.0 * prof.schatten_norm(r) ** r + 1e-9

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            SingularProfile(np.array([1.0, 2.0]))

    def test_schatten_norm_at_infinity_is_the_largest_value(self):
        assert SingularProfile([3.0, 2.0, 1.0]).schatten_norm(np.inf) == 3.0

    @pytest.mark.parametrize("r", [0.0, -1.0, np.nan])
    def test_schatten_norm_rejects_nonpositive_exponent(self, r):
        # 1/r is undefined at r = 0, and r < 0 gives no norm
        with pytest.raises(ValueError, match="r must be > 0"):
            SingularProfile([3.0, 2.0, 1.0]).schatten_norm(r)

    def test_dyadic_sum_rejects_infinite_exponent(self):
        # lambda^r is 0 or inf at r = inf, so the sum bounds no S^r norm
        with pytest.raises(ValueError, match=r"r must lie in \[1, inf\)"):
            dyadic_sum(SingularProfile([3.0, 2.0, 1.0]), np.inf)


class TestMixedNorm:
    def test_norming_dual_pairs_to_norm(self):
        rng = np.random.default_rng(5)
        for p, q in ((1.0, np.inf), (4.0 / 3.0, 4.0), (2.0, 2.0), (3.0, 1.5), (np.inf, 1.0)):
            space = MixedNormSpace(6, 4, p)
            y = rng.normal(size=(6, 4))
            z = space.norming_dual(y)
            assert np.sum(z * y) == pytest.approx(space.norm(y), rel=1e-12)
            assert MixedNormSpace(6, 4, q).norm(z) == pytest.approx(1.0, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        exponents=st.sampled_from([(1.0, np.inf), (np.inf, 1.0)]),
        y=hnp.arrays(float, (5, 3), elements=st.integers(-2, 2).map(float)),
        perm=st.permutations(range(3)),
    )
    def test_norming_dual_at_ties(self, exponents, y, perm):
        # small integers tie often: the dual vector must still pair to the norm
        # with dual norm 1 (0 for zero input), and split equally over tied
        # coordinates, so that it commutes with permuting them
        p, q = exponents
        space = MixedNormSpace(5, 3, p)
        z = space.norming_dual(y)
        norm = space.norm(y)
        assert np.sum(z * y) == pytest.approx(norm, rel=1e-12, abs=0.0)
        assert MixedNormSpace(5, 3, q).norm(z) == pytest.approx(1.0 if norm > 0 else 0.0, rel=1e-12)
        np.testing.assert_array_equal(space.norming_dual(y[..., perm]), z[..., perm])
        assert norm == pytest.approx(reference_norm(y, p), rel=1e-12, abs=0.0)
        np.testing.assert_allclose(z, reference_norming_dual(y, p), rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("p", [1.0, 4.0 / 3.0, 2.0, 3.0, 6.0, np.inf])
    def test_norm_and_norming_dual_match_reference(self, p):
        # every branch of _duality, with zero rows and an all-zero input among the arrays
        space = MixedNormSpace(9, 3, p)
        y = zero_rows_operator()[:, :3]
        for x in (y, np.zeros_like(y), y[::-1] * 3.0):
            assert space.norm(x) == pytest.approx(reference_norm(x, p), rel=1e-12, abs=0.0)
            np.testing.assert_allclose(space.norming_dual(x), reference_norming_dual(x, p), rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("p", [1.0, 4.0 / 3.0, 2.0, 3.0, 6.0, np.inf])
    @pytest.mark.parametrize("c", [1e-300, 1e-150, 1e150, 1e300])
    def test_norm_is_homogeneous_at_extreme_scales(self, c, p):
        # entries of size 1e-150 used to underflow in the powers |y|^p, and of size 1e-200
        # in the outer sum of squares; the dual vector does not depend on the scale
        space = MixedNormSpace(9, 3, p)
        y = zero_rows_operator()[:, :3]
        assert space.norm(c * y) == pytest.approx(c * space.norm(y), rel=1e-15, abs=0.0)
        np.testing.assert_allclose(space.norming_dual(c * y), space.norming_dual(y), rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("p", [1.0, 4.0 / 3.0, 2.0, 3.0, 6.0, np.inf])
    @pytest.mark.parametrize("diagonal", sorted(EXACT_DIAGONALS))
    def test_row_scaling_matches_dense_product_exactly(self, diagonal, p):
        # the value is read off the row scaling t[:, None] * witness
        t = EXACT_DIAGONALS[diagonal]()
        T = np.diag(t)
        space = MixedNormSpace(t.size, 3, p)
        got = mixed_norm_lower_bound(T, space)
        assert space.norm(T @ got.witness) == got.value
        assert space.norm(got.witness) == (1.0 if t.any() else 0.0)

    @pytest.mark.parametrize("p", [1.0, 4.0 / 3.0, 2.0, 3.0, 6.0, np.inf])
    @pytest.mark.parametrize("diagonal", sorted(EXACT_DIAGONALS))
    def test_diagonal_is_solved_exactly(self, diagonal, p):
        t = EXACT_DIAGONALS[diagonal]()
        T = np.diag(t)
        space = MixedNormSpace(t.size, 3, p)
        got = mixed_norm_lower_bound(T, space)
        top = np.abs(t).max()
        assert abs(got.value - top) <= 1e-15 * top
        if top == 0.0:
            assert not got.witness.any()
            return
        # e_i tensor e_1 at the first maximiser of |t_i|
        expected = np.zeros_like(got.witness)
        expected[np.argmax(np.abs(t)), 0] = 1.0
        np.testing.assert_array_equal(got.witness, expected)

    @pytest.mark.parametrize("restarts, iters", [(0, 10), (-3, 10), (2, -1)])
    def test_rejects_bad_restarts_and_iters(self, restarts, iters):
        with pytest.raises(ValueError):
            mixed_norm_lower_bound(np.eye(3), MixedNormSpace(3, 2, 3.0), restarts=restarts, iters=iters)

    def test_nonfinite_diagonal_operator_raises(self):
        with pytest.raises(ValueError, match="finite"):
            mixed_norm_lower_bound(np.diag([0.5, np.nan, 0.25]), MixedNormSpace(3, 3, 3.0))

    def test_nonfinite_dense_operator_raises(self):
        # finiteness is checked before the diagonal test, so the message names the NaN
        T = np.random.default_rng(4).normal(size=(4, 4))
        T[1, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            mixed_norm_lower_bound(T, MixedNormSpace(4, 3, 3.0))

    @pytest.mark.parametrize("operator", sorted(NON_DIAGONAL_OPERATORS))
    def test_non_diagonal_operator_raises(self, operator):
        T = NON_DIAGONAL_OPERATORS[operator]()
        with pytest.raises(ValueError, match="search for a general T was retired"):
            mixed_norm_lower_bound(T, MixedNormSpace(T.shape[0], 3, 3.0))

    @pytest.mark.parametrize("p", [2.0, 5.0])
    def test_signed_permutation_invariance(self, p):
        # P D P^T for a signed permutation P is diagonal with the entries of D permuted and signed
        rng = np.random.default_rng(21)
        t = rng.normal(size=7)
        P = np.eye(7)[rng.permutation(7)] * rng.choice([-1.0, 1.0], size=7)
        space = MixedNormSpace(7, 3, p)
        a = mixed_norm_lower_bound(np.diag(t), space).value
        b = mixed_norm_lower_bound(P @ np.diag(t) @ P.T, space).value
        assert a == b == np.abs(t).max()

    def test_identity(self):
        res = mixed_norm_lower_bound(np.eye(9), MixedNormSpace(9, 3, 4.0), restarts=4, iters=50)
        assert res.value == pytest.approx(1.0, rel=1e-12)

    def test_zero_operator(self):
        res = mixed_norm_lower_bound(np.zeros((5, 5)), MixedNormSpace(5, 2, 3.0), restarts=2, iters=10)
        assert res.value == 0.0

    def test_combined_bound_dominates_lower_bound(self):
        # the interpolation upper bound, which combines the regular norm 2 with
        # the Hoelder bound on l2, sits above every witnessed lower bound for
        # the diagonal difference instances
        for p in (4.0, 6.0, 8.0):
            for delta in (0.05, 0.2):
                T = diagonal_difference_operator(delta, 12)
                upper = mixed_norm_upper_bound(delta, p)
                res = mixed_norm_lower_bound(
                    T, MixedNormSpace(T.shape[0], 4, p), restarts=8, iters=80, seed=1
                )
                assert res.value <= upper + 1e-12

    def test_diagonal_difference_respects_interpolation_bound(self):
        delta, p = 0.1, 4.0
        T = diagonal_difference_operator(delta, 16)
        space = MixedNormSpace(T.shape[0], 4, p)
        theta = min(2.0 / p, 2.0 - 2.0 / p)
        upper = interpolation_bound(4.0 * np.sqrt(delta), 2.0, theta)
        res = mixed_norm_lower_bound(T, space, restarts=8, iters=100, seed=2)
        assert res.value <= upper + 1e-9
        # for a diagonal operator the mixed norm is the sup defect, returned exactly
        assert res.value == pytest.approx(np.abs(np.diag(T)).max(), rel=1e-15)


class TestInterpolationBound:
    @pytest.mark.parametrize("p", [0.0, 0.5])
    def test_upper_bound_needs_p_at_least_one(self, p):
        # below p = 1, l^p is no Banach space and theta leaves [0, 1]; at p = 0, 2/p divides by zero
        with pytest.raises(ValueError, match="inner exponent must be >= 1"):
            mixed_norm_upper_bound(0.1, p)

    def test_endpoints(self):
        assert interpolation_bound(7.0, 2.0, 1.0) == 7.0
        assert interpolation_bound(7.0, 2.0, 0.0) == 2.0

    def test_concluding_display(self):
        # 2^(1-2/p) (4 sqrt(delta))^(2/p) for p = 4, delta = 0.04
        val = interpolation_bound(4.0 * np.sqrt(0.04), 2.0, 0.5)
        assert val == pytest.approx(np.sqrt(2.0) * np.sqrt(0.8), rel=1e-12)

    def test_dominates_hilbert_norm_when_small(self):
        for delta in (0.01, 0.1, 0.2):
            for p in (4.0, 6.0, 8.0):
                theta = min(2.0 / p, 2.0 - 2.0 / p)
                v = 4.0 * np.sqrt(delta)
                assert interpolation_bound(v, 2.0, theta) >= min(v, 2.0) - 1e-12

    def test_rejects_bad_theta(self):
        with pytest.raises(ValueError):
            interpolation_bound(1.0, 1.0, 1.5)


@pytest.mark.parametrize(
    "build",
    [
        lambda: SingularProfile([np.nan, 1.0]),
        lambda: SingularProfile([1.0, np.nan]),
        lambda: dyadic_sum(SingularProfile([1.0, 0.5]), np.nan),
        lambda: MixedNormSpace(3, 2, np.nan),
        lambda: interpolation_bound(np.nan, 2.0, 0.5),
        lambda: mixed_norm_upper_bound(np.nan, 4.0),
    ],
    ids=[
        "profile-head", "profile-tail", "dyadic-exponent", "inner-exponent", "interpolation-norm", "upper-delta",
    ],
)
def test_nan_fails_the_range_checks(build):
    # every comparison with NaN is false, so each check is written "not x >= bound"
    with pytest.raises(ValueError):
        build()
