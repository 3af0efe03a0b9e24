"""Exact 3x3 geometry of the special linear group: KAK, length, embeddings.

The KAK decomposition is an SVD with both orthogonal factors sign-corrected
into the rotation group; the Weyl-cone point (a1 >= a2 >= a3, sum 0) of the
log singular values identifies the double coset.  The embedding solver works
on the 2x2 block that the one-parameter rotation family leaves invariant:
its determinant is fixed, so matching the top singular value by bisection
pins the whole certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalDegeneracyError

__all__ = [
    "LambdaPoint",
    "KAKDecomposition",
    "Embedding2Certificate",
    "x_delta",
    "d_alpha",
    "in_special_linear",
    "in_rotation_group",
    "length",
    "kak",
    "j_alpha",
    "solve_delta_for_top",
    "embedding2_solve",
]

_CONE_TOL = 1e-10


def x_delta(delta: float) -> np.ndarray:
    """Rotation of the (1,2)-plane with (1,1) entry delta; double-coset representative."""
    if abs(delta) > 1.0 + 1e-12:
        raise ValueError("delta must lie in [-1, 1]")
    d = float(np.clip(delta, -1.0, 1.0))
    s = np.sqrt(max(0.0, 1.0 - d * d))
    return np.array([[d, -s, 0.0], [s, d, 0.0], [0.0, 0.0, 1.0]])


def d_alpha(alpha: float) -> np.ndarray:
    """diag(e^alpha, e^(-alpha/2), e^(-alpha/2)); commutes with rotations about e1."""
    return np.diag([np.exp(alpha), np.exp(-alpha / 2.0), np.exp(-alpha / 2.0)])


def in_special_linear(g: np.ndarray, tol: float = 1e-10) -> bool:
    return abs(np.linalg.det(g) - 1.0) <= tol


def in_rotation_group(k: np.ndarray, tol: float = 1e-10) -> bool:
    return (
        np.linalg.norm(k.T @ k - np.eye(3), 2) <= tol
        and abs(np.linalg.det(k) - 1.0) <= tol
    )


@dataclass(frozen=True)
class LambdaPoint:
    """Point of the Weyl cone: a1 >= a2 >= a3 within 1e-10, a1 + a2 + a3 = 0."""

    a1: float
    a2: float
    a3: float

    def __post_init__(self):
        if self.a1 < self.a2 - _CONE_TOL or self.a2 < self.a3 - _CONE_TOL:
            raise ValueError(f"cone ordering violated: {(self.a1, self.a2, self.a3)}")
        if abs(self.a1 + self.a2 + self.a3) > _CONE_TOL:
            raise ValueError(f"coordinates must sum to 0: {(self.a1, self.a2, self.a3)}")

    def as_array(self) -> np.ndarray:
        return np.array([self.a1, self.a2, self.a3])

    def ell(self) -> float:
        """Length of the double coset: max(a1, -a3)."""
        return max(self.a1, -self.a3)

    def reflect(self) -> "LambdaPoint":
        """The symmetry (a1, a2, a3) -> (-a3, -a2, -a1) induced by g -> (g^-1)^T."""
        return LambdaPoint(-self.a3, -self.a2, -self.a1)

    def distance(self, other: "LambdaPoint") -> float:
        return float(np.linalg.norm(self.as_array() - other.as_array()))


@dataclass(frozen=True)
class KAKDecomposition:
    """g = k1 diag(e^a1, e^a2, e^a3) k2 with k1, k2 rotations."""

    k1: np.ndarray
    a: LambdaPoint
    k2: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return self.k1 @ np.diag(np.exp(self.a.as_array())) @ self.k2

    def residual(self, g: np.ndarray) -> float:
        return float(np.linalg.norm(g - self.reconstruct(), 2))


def _checked_svd(g: np.ndarray):
    g = np.asarray(g, dtype=float)
    if g.shape != (3, 3):
        raise ValueError("expected a 3x3 matrix")
    if not in_special_linear(g, tol=1e-8):
        raise ValueError(f"determinant {np.linalg.det(g)} too far from 1")
    u, s, vt = np.linalg.svd(g)
    if s[-1] < 1e-14:
        raise NumericalDegeneracyError(
            "kak_singularity", f"smallest singular value {s[-1]} below 1e-14"
        )
    return u, s, vt


def length(g: np.ndarray) -> float:
    """Bi-invariant length max(log ||g||, log ||g^-1||) = max(a1, -a3)."""
    _, s, _ = _checked_svd(g)
    return float(max(np.log(s[0]), -np.log(s[-1])))


def kak(g: np.ndarray) -> KAKDecomposition:
    """SVD-based decomposition with both orthogonal factors in the rotation group.

    det g = 1 forces det(U) = det(V^T), so when both are -1 a simultaneous
    sign flip of the last singular pair repairs them without changing the
    product.
    """
    u, s, vt = _checked_svd(g)
    if np.linalg.det(u) < 0:
        u = u.copy()
        vt = vt.copy()
        u[:, 2] *= -1.0
        vt[2, :] *= -1.0
    logs = np.log(s)
    logs -= logs.sum() / 3.0  # exact unimodularity for the reported exponents
    a = LambdaPoint(*logs)
    return KAKDecomposition(k1=u, a=a, k2=vt)


def j_alpha(alpha: float, delta: float) -> LambdaPoint:
    """Cone point of D_alpha x_delta D_alpha; even in delta, a3 = -alpha."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    da = d_alpha(alpha)
    return kak(da @ x_delta(delta) @ da).a


def _bisect(below) -> float:
    """Bisect [0, 1] for the edge of below(delta); stops when the midpoint hits an endpoint."""
    lo, hi = 0.0, 1.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if below(mid) else (lo, mid)
    return mid


def _top_exponent(alpha: float, delta: float) -> float:
    return float(np.log(_top_singular(alpha, alpha, delta)))


def solve_delta_for_top(alpha: float, target_a1: float, grid: int = 64) -> float:
    """Bisection for the delta with j_alpha(alpha, delta).a1 = target_a1.

    The top exponent grows from alpha/2 (delta = 0) to 2 alpha (delta = 1);
    monotonicity is verified on a coarse grid before bisecting and any
    violation aborts.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if not alpha / 2.0 - 1e-12 <= target_a1 <= 2.0 * alpha + 1e-12:
        raise ValueError("target outside the attainable range [alpha/2, 2 alpha]")
    samples = np.array([_top_exponent(alpha, d) for d in np.linspace(0.0, 1.0, grid)])
    if np.any(np.diff(samples) < -1e-12):
        raise NumericalDegeneracyError(
            "jalpha_monotonicity", "top singular exponent not nondecreasing in delta"
        )
    if _top_exponent(alpha, 0.0) >= target_a1:
        return 0.0
    return _bisect(lambda delta: _top_exponent(alpha, delta) < target_a1)


# ---------------------------------------------------------------------------
# Embedding certificates for the two-sided conjugation family.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Embedding2Certificate:
    """Solved data for D_(2g-a) x_delta D_a = k diag k' with rotation factors.

    Case 1 targets diag(e^g, 1, e^-g), case 2 targets
    diag(e^(3g/4), e^(g/4), e^-g).  Residuals are relative spectral norms
    ||M - k diag k'|| / max(1, ||M||); the bounds delta_i <= e^-gamma and
    ||k - 1|| <= 2 e^(-gamma/4) are checked by the test suite.
    """

    gamma: float
    alpha: float
    delta1: float
    delta2: float
    k1: np.ndarray
    k1p: np.ndarray
    k2: np.ndarray
    k2p: np.ndarray
    residual1: float
    residual2: float

    def diag1(self) -> np.ndarray:
        return _case_diagonals(self.gamma)[0]

    def diag2(self) -> np.ndarray:
        return _case_diagonals(self.gamma)[1]


def _case_diagonals(gamma: float):
    """Targets of case 1 and case 2; each case matches its top entry."""
    return (
        np.diag([np.exp(gamma), 1.0, np.exp(-gamma)]),
        np.diag([np.exp(0.75 * gamma), np.exp(0.25 * gamma), np.exp(-gamma)]),
    )


def _pair_matrix(gamma: float, alpha: float, delta: float) -> np.ndarray:
    return d_alpha(2.0 * gamma - alpha) @ x_delta(delta) @ d_alpha(alpha)


def _top_singular(gamma: float, alpha: float, delta: float) -> float:
    return float(np.linalg.svd(_pair_matrix(gamma, alpha, delta)[:2, :2], compute_uv=False)[0])


def _rotation_svd_2x2(b: np.ndarray):
    """SVD of a positive-determinant 2x2 with both factors rotations.

    Sign convention: the right factor has nonnegative (1,1) entry (flip both
    factors together otherwise).
    """
    u, s, vt = np.linalg.svd(b)
    if np.linalg.det(u) < 0:
        u = u.copy()
        vt = vt.copy()
        u[:, 1] *= -1.0
        vt[1, :] *= -1.0
    if vt[0, 0] < 0:
        u = -u
        vt = -vt
    return u, s, vt


def _embed_rotation(r2: np.ndarray) -> np.ndarray:
    out = np.eye(3)
    out[:2, :2] = r2
    return out


def _solve_case(gamma: float, alpha: float, diag: np.ndarray):
    """(delta, k, k', relative residual) for the case with this target diagonal."""
    target_top = diag[0, 0]
    # relative slack: at the tangent edge alpha = 7 gamma / 6 the top singular
    # value meets the target quadratically, so exact comparison is fp-noise
    if _top_singular(gamma, alpha, 0.0) >= target_top * (1.0 - 1e-13):
        delta = 0.0
    else:
        if _top_singular(gamma, alpha, 1.0) < target_top:
            raise NumericalDegeneracyError(
                "embedding_bisection", "target singular value outside attainable range"
            )
        delta = _bisect(lambda d: _top_singular(gamma, alpha, d) < target_top)
    m = _pair_matrix(gamma, alpha, delta)
    u, _, vt = _rotation_svd_2x2(m[:2, :2])
    k, kp = _embed_rotation(u), _embed_rotation(vt)
    residual = np.linalg.norm(m - k @ diag @ kp, 2) / max(1.0, np.linalg.norm(m, 2))
    return delta, k, kp, residual


def embedding2_solve(gamma: float, alpha: float) -> Embedding2Certificate:
    """Solve both embedding cases for gamma >= 0.5, alpha in [gamma, 7 gamma/6]."""
    if gamma < 0.5:
        raise ValueError("gamma must be >= 0.5 (degenerate regime excluded)")
    if not gamma - 1e-12 <= alpha <= 7.0 * gamma / 6.0 + 1e-12:
        raise ValueError("alpha must lie in [gamma, 7 gamma / 6]")
    (d1, k1, k1p, res1), (d2, k2, k2p, res2) = (
        _solve_case(gamma, alpha, diag) for diag in _case_diagonals(gamma)
    )
    return Embedding2Certificate(
        gamma=float(gamma),
        alpha=float(alpha),
        delta1=float(d1),
        delta2=float(d2),
        k1=k1,
        k1p=k1p,
        k2=k2,
        k2p=k2p,
        residual1=float(res1),
        residual2=float(res2),
    )
