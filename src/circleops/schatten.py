"""Finite-dimensional Schatten / mixed-norm machinery.

Two ingredients: the weighted sum of a singular-value profile's dyadic
decomposition into bounded blocks of rank 2^k, and norms of T tensor Id on
l2(l^p).  For a diagonal T that norm is exactly max |t_i|, attained by an
explicit witness vector; the upper bounds it is compared against come from
the interpolation inequality.  A general T is refused: its exact mixed norm
is NP-hard.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .legendre import HOLDER_CONSTANT
from .spectral import op_norm_diff_certificates

__all__ = [
    "SingularProfile",
    "dyadic_sum",
    "MixedNormSpace",
    "MixedNormLowerBound",
    "mixed_norm_lower_bound",
    "interpolation_bound",
    "mixed_norm_upper_bound",
    "interpolation_check",
]


@dataclass(frozen=True)
class SingularProfile:
    """Nonincreasing, nonnegative singular values lambda_1 >= lambda_2 >= ..."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("profile must be a nonempty 1-d array")
        if not np.all(vals >= 0):  # NaN fails this check and the next
            raise ValueError("singular values must be nonnegative")
        if not np.all(np.diff(vals) <= 1e-12):
            raise ValueError("singular values must be nonincreasing")
        object.__setattr__(self, "values", vals)

    def schatten_norm(self, r: float) -> float:
        """(sum_i lambda_i^r)^(1/r), and the largest singular value at r = inf; r must be > 0."""
        if not r > 0:  # NaN fails too
            raise ValueError("r must be > 0")
        if np.isinf(r):
            return float(self.values[0])
        return float(np.sum(self.values**r) ** (1.0 / r))


def dyadic_sum(profile: SingularProfile, r: float) -> float:
    """sum_k 2^k lambda_(2^k)^r over 2^k <= n: the weighted sum of the dyadic decomposition.

    T = sum_k alpha_k u_k with alpha_k = lambda_(2^k) (1-indexed) and u_k the
    part of T on positions 2^k .. 2^(k+1) - 1 divided by alpha_k (zero when
    alpha_k is), so rank(u_k) <= 2^k and ||u_k|| <= 1; the sum is at most
    2 ||T||_{S^r}^r.
    """
    if not 1 <= r < np.inf:  # NaN fails too
        raise ValueError("r must lie in [1, inf)")
    ks = np.arange(profile.values.size.bit_length())
    return float(np.sum(2.0**ks * np.abs(profile.values[2**ks - 1]) ** float(r)))


# ---------------------------------------------------------------------------
# Mixed norms l2(l^p) and the exact norm of a diagonal T tensor Id.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MixedNormSpace:
    """l2 over the outer index of l^p over the inner index, on (n x m) arrays."""

    outer_dim: int
    inner_dim: int
    inner_exponent: float

    def __post_init__(self):
        if self.outer_dim < 1 or self.inner_dim < 1:
            raise ValueError("dimensions must be >= 1")
        if not self.inner_exponent >= 1:  # NaN fails too
            raise ValueError("inner exponent must be >= 1")

    def _duality(self, y: np.ndarray) -> tuple[float, np.ndarray]:
        """Mixed norm of y and the unit dual vector pairing to it, from one set of row norms.

        Coordinate-wise duality mapping of l^p rows; at p = inf the
        subgradient is split equally over the maximal coordinates, at p = 1
        it is the sign vector.  Deterministic; zero input maps to zero.  The
        norm is homogeneous and the dual vector does not depend on the scale,
        so |y| is divided by its largest entry before the powers, which then
        neither underflow nor overflow, and the norm is multiplied back.
        """
        y = y.reshape(self.outer_dim, self.inner_dim)
        p = self.inner_exponent
        a = np.abs(y)
        scale = a.max()
        scale = scale if 0.0 < scale < np.inf else 1.0  # zero or non-finite input: nothing to rescale
        a = a / scale
        ones = np.ones(self.inner_dim)
        if np.isinf(p):
            rows = a.max(axis=1)
            hits = (a == rows[:, None]) & (a > 0)
            u = np.where(hits, np.sign(y), 0.0)
            weight = rows / np.maximum(hits.sum(axis=1), 1)
        elif p == 1.0:
            rows = a @ ones
            u, weight = np.sign(y), rows
        else:
            u = a ** (p - 1.0)
            sums = (u * a) @ ones  # |y|^p as |y|^(p-1) |y|
            rows = sums ** (1.0 / p)
            u = np.copysign(u, y)
            # rows / rows^(p-1), with rows^(p-1) = sums / rows
            weight = np.divide(rows * rows, sums, out=np.zeros_like(sums), where=sums > 0)
        norm = float(np.sqrt(np.sum(rows * rows)))
        return scale * norm, u * (weight * (1.0 / norm if norm > 0 else 0.0))[:, None]

    def norm(self, x: np.ndarray) -> float:
        """The mixed norm of an (n x m) array."""
        return self._duality(x)[0]

    def norming_dual(self, y: np.ndarray) -> np.ndarray:
        """Unit vector of the dual space pairing to norm(y) against y (see `_duality`)."""
        return self._duality(y)[1]


@dataclass
class MixedNormLowerBound:
    """Certified lower bound: value = norm(T x witness) with a unit witness."""

    value: float
    witness: np.ndarray


def mixed_norm_lower_bound(
    T: np.ndarray,
    space: MixedNormSpace,
    restarts: int = 32,
    iters: int = 200,
    seed: int = 0,
) -> MixedNormLowerBound:
    """The norm of a diagonal T tensor Id on l2(l^p), attained by a witness.

    A diagonal T (every off-diagonal entry zero) has norm exactly max |t_i|,
    attained at e_i tensor e_1 for the first maximiser i: that witness is
    returned with value norm(T x witness).  A zero T gives value 0 and a zero
    witness.  Any other T raises ValueError: its exact mixed norm is NP-hard,
    and no criterion or subcommand needs a lower bound for it.  restarts and
    iters are only range-checked and seed is unused; perfbench's mixed-norm
    jobs pass all three.  A non-finite T raises ValueError.
    """
    T = np.asarray(T, dtype=float)
    n = space.outer_dim
    if T.shape != (n, n):
        raise ValueError("operator must be square of size outer_dim")
    if not np.isfinite(T).all():
        raise ValueError("operator must be finite")
    if restarts < 1 or iters < 0:
        raise ValueError("need restarts >= 1 and iters >= 0")
    diagonal = np.diagonal(T)
    if np.count_nonzero(T) != np.count_nonzero(diagonal):
        raise ValueError("operator must be diagonal: the search for a general T was retired")
    witness = np.zeros((n, space.inner_dim))
    if not diagonal.any():
        return MixedNormLowerBound(0.0, witness)
    witness[np.argmax(np.abs(diagonal)), 0] = 1.0
    return MixedNormLowerBound(space.norm(diagonal[:, None] * witness), witness)


def interpolation_bound(op_norm_l2: float, regular_norm: float, theta: float) -> float:
    """Two-sided interpolation bound regular_norm^(1-theta) * op_norm_l2^theta."""
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must lie in [0, 1]")
    if not (op_norm_l2 >= 0 and regular_norm >= 0):  # NaN fails too
        raise ValueError("norms must be nonnegative")
    return regular_norm ** (1.0 - theta) * op_norm_l2**theta


def mixed_norm_upper_bound(delta: float, p: float) -> float:
    """Upper bound 2^(1-theta) (4 sqrt|delta|)^theta for ||(T_0 - T_delta) tensor Id|| on l2(l^p).

    Interpolates the regular norm 2 against the Hoelder bound 4 sqrt|delta| on
    l2, with theta = min(2/p, 2 - 2/p); p must be >= 1.
    """
    if not p >= 1:  # NaN fails too
        raise ValueError("inner exponent must be >= 1")
    theta = min(2.0 / p, 2.0 - 2.0 / p)
    return interpolation_bound(HOLDER_CONSTANT * np.sqrt(abs(delta)), 2.0, theta)


def interpolation_check(delta: float, p: float, truncation: int) -> tuple[float, float, bool]:
    """(value, upper, held): value is op_norm_diff_certificates' head max_{n<=N} |d_n|, d_n = P_n(0) - P_n(delta);
    upper is mixed_norm_upper_bound(delta, p); held is value <= upper + 1e-9 (NaN fails).  The value is exactly
    ||D (x) Id_X|| for the diagonal D = T_0 - T_delta and every Banach X, l^p among them: ||sum_n d_n e_n (x) x_n||^2
    = sum_n d_n^2 ||x_n||^2 <= max_n d_n^2 sum_n ||x_n||^2, with equality at e_n (x) x for a maximising n and unit x."""
    value, upper = float(op_norm_diff_certificates([delta], truncation)[0][0]), mixed_norm_upper_bound(delta, p)
    return value, upper, bool(value <= upper + 1e-9)
