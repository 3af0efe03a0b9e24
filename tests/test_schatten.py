"""Tests for dyadic sums and mixed-norm estimates."""

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
    """The mixed norm as the per-restart loop computed it, one (n, m) array at a time."""
    rows = np.abs(x).max(axis=1) if np.isinf(p) else np.linalg.norm(x, ord=p, axis=1)
    return float(np.linalg.norm(rows))


def reference_norming_dual(y: np.ndarray, p: float) -> np.ndarray:
    """The duality map as the per-restart loop computed it, one (n, m) array at a time."""
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


def reference_lower_bound(T, space, restarts, iters, seed):
    """One restart at a time, as the estimator ran before its restarts were batched.

    Returns (value, witness, history) of the first best restart, and every
    restart's final value.
    """
    p, q = space.inner_exponent, space.dual().inner_exponent
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    best = (0.0, np.zeros((space.outer_dim, space.inner_dim)), np.zeros(0))
    finals = []
    for _ in range(restarts):
        x = rng.normal(size=(space.outer_dim, space.inner_dim))
        x /= reference_norm(x, p)
        history = []
        for _it in range(iters):
            y = T @ x
            history.append(reference_norm(y, p))
            if history[-1] == 0.0:
                break
            w = T.T @ reference_norming_dual(y, p)
            if reference_norm(w, q) == 0.0:
                break
            x = reference_norming_dual(w, q)
        history.append(reference_norm(T @ x, p))
        finals.append(history[-1])
        if history[-1] > best[0]:
            best = (history[-1], x, np.asarray(history))
    return best, np.asarray(finals)


def zero_rows_operator() -> np.ndarray:
    T = np.random.default_rng(3).normal(size=(9, 9))
    T[[1, 4, 5]] = 0.0
    return T


def one_off_diagonal_operator() -> np.ndarray:
    # one coupling entry makes T non-diagonal, so the estimator must search with the dense product
    T = np.diag(np.linspace(-0.6, 0.9, 9))
    T[2, 7] = 0.8
    return T


# operators that take the search: a diagonal T is solved exactly, so one
# off-diagonal entry must be enough to leave that branch
REFERENCE_OPERATORS = {
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


class TestMixedNorm:
    def test_norming_dual_pairs_to_norm(self):
        rng = np.random.default_rng(5)
        for p in (1.0, 4.0 / 3.0, 2.0, 3.0, np.inf):
            space = MixedNormSpace(6, 4, p)
            y = rng.normal(size=(6, 4))
            z = space.norming_dual(y)
            assert np.sum(z * y) == pytest.approx(space.norm(y), rel=1e-12)
            assert space.dual().norm(z) == pytest.approx(1.0, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        p=st.sampled_from([1.0, np.inf]),
        y=hnp.arrays(
            float,
            st.sampled_from([(5, 3), (4, 5, 3)]),
            elements=st.integers(-2, 2).map(float),
        ),
        perm=st.permutations(range(3)),
    )
    def test_norming_dual_at_ties(self, p, y, perm):
        # small integers tie often: the dual vector must still pair to the norm
        # with dual norm 1 (0 for zero input), for one array and for a batch,
        # and split equally over tied coordinates, so that it commutes with
        # permuting them
        space = MixedNormSpace(5, 3, p)
        z = space.norming_dual(y)
        norms = np.atleast_1d(space.norm(y))
        pairing = np.atleast_1d(np.sum(z * y, axis=(-2, -1)))
        np.testing.assert_allclose(pairing, norms, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(np.atleast_1d(space.dual().norm(z)), np.where(norms > 0, 1.0, 0.0), rtol=1e-12)
        np.testing.assert_array_equal(space.norming_dual(y[..., perm]), z[..., perm])
        for k, one in enumerate(y.reshape(-1, 5, 3)):
            assert norms[k] == pytest.approx(reference_norm(one, p), rel=1e-12, abs=0.0)
            np.testing.assert_allclose(z.reshape(-1, 5, 3)[k], reference_norming_dual(one, p), rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("p", [1.0, 4.0 / 3.0, 2.0, 3.0, 6.0, np.inf])
    @pytest.mark.parametrize("operator", sorted(REFERENCE_OPERATORS))
    def test_batch_matches_per_restart_reference(self, operator, p):
        T = REFERENCE_OPERATORS[operator]()
        space = MixedNormSpace(T.shape[0], 3, p)
        got = mixed_norm_lower_bound(T, space, restarts=6, iters=8, seed=2)
        (value, witness, history), finals = reference_lower_bound(T, space, restarts=6, iters=8, seed=2)
        # eight sweeps leave the restarts apart, so the best one is not a rounding tie
        top = np.sort(finals)[::-1]
        assert top[0] - top[1] > 1e-12 * top[0] or top[0] == 0.0
        assert got.history.shape == history.shape
        np.testing.assert_allclose(got.value, value, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(got.history, history, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(got.witness, witness, rtol=1e-12, atol=1e-15)
        if value > 0.0:
            assert space.norm(got.witness) == pytest.approx(1.0, rel=1e-12)
            assert space.norm(T @ got.witness) == pytest.approx(got.value, rel=1e-12)

    @pytest.mark.parametrize("p", [1.0, 4.0 / 3.0, 2.0, 3.0, 6.0, np.inf])
    @pytest.mark.parametrize("diagonal", sorted(EXACT_DIAGONALS))
    def test_row_scaling_matches_dense_product_exactly(self, diagonal, p):
        # the exact branch reads its value off the row scaling t[:, None] * witness
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
        (searched, _, _), _ = reference_lower_bound(T, space, restarts=4, iters=50, seed=2)
        assert searched <= got.value * (1 + 1e-12)  # rounding aside, the search only approaches the norm
        if top == 0.0:
            assert not got.witness.any() and got.history.size == 0
            return
        np.testing.assert_array_equal(got.history, [got.value])
        # e_i tensor e_1 at the first maximiser of |t_i|
        expected = np.zeros_like(got.witness)
        expected[np.argmax(np.abs(t)), 0] = 1.0
        np.testing.assert_array_equal(got.witness, expected)

    @pytest.mark.parametrize("restarts, iters", [(0, 10), (-3, 10), (2, -1)])
    def test_rejects_bad_restarts_and_iters(self, restarts, iters):
        with pytest.raises(ValueError):
            mixed_norm_lower_bound(np.eye(3), MixedNormSpace(3, 2, 3.0), restarts=restarts, iters=iters)

    def test_nonfinite_dense_operator_raises(self):
        # every Rayleigh value would be NaN, which the search read as the zero operator
        T = np.random.default_rng(4).normal(size=(4, 4))
        T[1, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            mixed_norm_lower_bound(T, MixedNormSpace(4, 3, 3.0))

    def test_nonfinite_diagonal_operator_raises(self):
        with pytest.raises(ValueError, match="finite"):
            mixed_norm_lower_bound(np.diag([0.5, np.nan, 0.25]), MixedNormSpace(3, 3, 3.0))

    def test_hilbert_case_recovers_sigma_max(self):
        rng = np.random.default_rng(7)
        T = rng.normal(size=(12, 12))
        smax = np.linalg.svd(T, compute_uv=False)[0]
        res = mixed_norm_lower_bound(T, MixedNormSpace(12, 5, 2.0), restarts=8, iters=500, seed=1)
        assert abs(res.value - smax) <= 1e-8

    def test_identity(self):
        res = mixed_norm_lower_bound(np.eye(9), MixedNormSpace(9, 3, 4.0), restarts=4, iters=50)
        assert res.value == pytest.approx(1.0, rel=1e-12)

    def test_zero_operator(self):
        res = mixed_norm_lower_bound(np.zeros((5, 5)), MixedNormSpace(5, 2, 3.0), restarts=2, iters=10)
        assert res.value == 0.0

    def test_rayleigh_history_nondecreasing(self):
        rng = np.random.default_rng(9)
        T = rng.normal(size=(10, 10))
        res = mixed_norm_lower_bound(T, MixedNormSpace(10, 4, 3.0), restarts=1, iters=60, seed=3)
        assert np.all(np.diff(res.history) >= -1e-11)

    def test_witness_attains_value(self):
        rng = np.random.default_rng(13)
        T = rng.normal(size=(8, 8))
        space = MixedNormSpace(8, 3, 5.0)
        res = mixed_norm_lower_bound(T, space, restarts=4, iters=80, seed=4)
        assert space.norm(res.witness) == pytest.approx(1.0, rel=1e-12)
        assert space.norm(T @ res.witness) == pytest.approx(res.value, rel=1e-12)

    def test_signed_permutation_invariance_at_p2(self):
        rng = np.random.default_rng(21)
        T = rng.normal(size=(7, 7))
        perm = np.eye(7)[rng.permutation(7)] * rng.choice([-1.0, 1.0], size=7)
        perm2 = np.eye(7)[rng.permutation(7)] * rng.choice([-1.0, 1.0], size=7)
        space = MixedNormSpace(7, 3, 2.0)
        a = mixed_norm_lower_bound(T, space, restarts=6, iters=400, seed=5).value
        b = mixed_norm_lower_bound(perm @ T @ perm2, space, restarts=6, iters=400, seed=6).value
        assert a == pytest.approx(b, rel=1e-9)

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
