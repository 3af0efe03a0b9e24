"""Exact 3x3 geometry of the special linear group: KAK, slide family, embeddings.

The KAK decomposition is an SVD with both orthogonal factors sign-corrected
into the rotation group; the Weyl-cone point (a1 >= a2 >= a3, sum 0) of the
log singular values identifies the double coset.

The slide D_a x_d D_a and the embedding D_b x_d D_a (b = 2g - a) act on the
(1,2)-block [[a11 d, -a12 s], [a21 s, a22 d]], s = sqrt(1 - d^2), with
a11 = e^(2g), a12 = e^(b - a/2), a21 = e^(a - b/2), a22 = e^(-g).  Its
determinant e^g is fixed and its squared Frobenius norm is F0 + d^2 (F1 - F0),
F1 - F0 = e^(-a-b)(e^(3a)-1)(e^(3b)-1) > 0, so the top singular value t grows
with d and gives d^2 = (t^2 - a12^2)(t^2 - a21^2) / (t^2 (F1 - F0)) exactly.
A non-finite log(F1 - F0) raises NumericalDegeneracyError("block_frobenius_gap");
an embedding target needing d > 1 beyond rounding raises ("embedding_range").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalDegeneracyError
from .legendre import _clamp_delta

__all__ = [
    "LambdaPoint",
    "KAKDecomposition",
    "Embedding2Certificate",
    "x_delta",
    "d_alpha",
    "kak",
    "j_alpha",
    "solve_delta_for_top",
    "embedding2_solve",
    "embedding2_verdict",
]

_CONE_TOL = 1e-10


def x_delta(delta: float) -> np.ndarray:
    """Rotation of the (1,2)-plane with (1,1) entry delta; double-coset representative."""
    d = _clamp_delta(delta)
    s = np.sqrt(max(0.0, 1.0 - d * d))
    return np.array([[d, -s, 0.0], [s, d, 0.0], [0.0, 0.0, 1.0]])


def d_alpha(alpha: float) -> np.ndarray:
    """diag(e^alpha, e^(-alpha/2), e^(-alpha/2)); commutes with rotations about e1."""
    return np.diag([np.exp(alpha), np.exp(-alpha / 2.0), np.exp(-alpha / 2.0)])


@dataclass(frozen=True)
class LambdaPoint:
    """Point of the Weyl cone: a1 >= a2 >= a3 within 1e-10, a1 + a2 + a3 = 0 within 1e-10 max(1, |a1|, |a3|)."""

    a1: float
    a2: float
    a3: float

    def __post_init__(self):
        if self.a1 < self.a2 - _CONE_TOL or self.a2 < self.a3 - _CONE_TOL:
            raise ValueError(f"cone ordering violated: {(self.a1, self.a2, self.a3)}")
        if not abs(self.a1 + self.a2 + self.a3) <= _CONE_TOL * max(1.0, abs(self.a1), abs(self.a3)):  # NaN fails
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

    def residual(self, g: np.ndarray) -> float:
        """Spectral norm of g - k1 diag(e^a) k2."""
        return float(np.linalg.norm(g - self.k1 @ np.diag(np.exp(self.a.as_array())) @ self.k2, 2))


def _rotation_svd(m: np.ndarray):
    """SVD of a positive-determinant matrix with both factors rotations.

    det m > 0 forces det(U) = det(V^T), so when both are -1 a simultaneous
    sign flip of the last singular pair repairs them without changing the
    product.
    """
    u, s, vt = np.linalg.svd(m)
    if np.linalg.det(u) < 0:
        u[:, -1] *= -1.0
        vt[-1, :] *= -1.0
    return u, s, vt


def kak(g: np.ndarray) -> KAKDecomposition:
    """SVD-based decomposition with both orthogonal factors in the rotation group.

    g must be 3x3 with det g = 1 within 1e-8; a singular value below 1e-14 is a degeneracy.
    """
    g = np.asarray(g, dtype=float)
    if g.shape != (3, 3):
        raise ValueError("expected a 3x3 matrix")
    if not abs(np.linalg.det(g) - 1.0) <= 1e-8:
        raise ValueError(f"determinant {np.linalg.det(g)} too far from 1")
    u, s, vt = _rotation_svd(g)
    if s[-1] < 1e-14:
        raise NumericalDegeneracyError(
            "kak_singularity", f"smallest singular value {s[-1]} below 1e-14"
        )
    logs = np.log(s)
    logs -= logs.sum() / 3.0  # exact unimodularity for the reported exponents
    a = LambdaPoint(*logs)
    return KAKDecomposition(k1=u, a=a, k2=vt)


def j_alpha(alpha: float, delta: float) -> LambdaPoint:
    """Cone point of D_alpha x_delta D_alpha; even in delta, a3 = -alpha."""
    if not 0.0 <= alpha < np.inf:  # NaN fails too
        raise ValueError("alpha must be nonnegative and finite")
    da = d_alpha(alpha)
    return kak(da @ x_delta(delta) @ da).a


def _solve_delta(gamma: float, alpha: float, log_top: float, slack: float) -> float:
    """d giving the block top singular value t = e^log_top (module docstring).

    0.0 when the top at d = 0, max(a12, a21), already reaches t (1 - slack);
    otherwise every factor is positive and is summed in log space, each
    t^2 - a^2 as t^2 (-expm1(2 (log a - log t))), so nothing overflows or
    underflows at small or large a.  The result can exceed 1 by rounding.
    """
    b = 2.0 * gamma - alpha
    l12, l21 = b - alpha / 2.0, alpha - b / 2.0
    if max(l12, l21) >= log_top + np.log1p(-slack):
        return 0.0
    # log(F1 - F0) = 2(a + b) + excess; not finite when a or b <= 0 (gap <= 0)
    excess = np.log(-np.expm1(-3.0 * alpha)) + np.log(-np.expm1(-3.0 * b))
    if not np.isfinite(2.0 * (alpha + b) + excess):
        raise NumericalDegeneracyError(
            "block_frobenius_gap", f"log(F1 - F0) not finite at a = {alpha}, b = {b}"
        )
    # log(t^2 / (F1 - F0)) plus the logs of the two positive factors 1 - a^2 / t^2
    log_d2 = 2.0 * (log_top - 2.0 * gamma) - excess
    log_d2 += np.log(-np.expm1(2.0 * (l12 - log_top))) + np.log(-np.expm1(2.0 * (l21 - log_top)))
    return float(np.exp(0.5 * log_d2))


def solve_delta_for_top(alpha: float, target_a1: float) -> float:
    """The delta in [0, 1] with j_alpha(alpha, delta).a1 = target_a1, in closed form.

    The case g = a of the block in the module docstring: delta = 0 when
    target_a1 <= alpha/2 (no slack, so the zigzag cost 4 delta^(1/2) is never
    understated), otherwise delta = (e^r - e^(alpha - r)) / (e^(2 alpha) - e^(-alpha))
    at r = target_a1, evaluated in log space.  A non-finite log(F1 - F0)
    raises NumericalDegeneracyError.
    """
    if not 0.0 < alpha < np.inf:  # NaN fails too
        raise ValueError("alpha must be positive and finite")
    if not alpha / 2.0 - 1e-12 <= target_a1 <= 2.0 * alpha + 1e-12:
        raise ValueError("target outside the attainable range [alpha/2, 2 alpha]")
    return min(1.0, _solve_delta(alpha, alpha, target_a1, 0.0))


# ---------------------------------------------------------------------------
# Embedding certificates for the two-sided conjugation family.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Embedding2Certificate:
    """Solved data for D_(2g-a) x_delta D_a = k diag k' with rotation factors.

    Case 1 targets diag(e^g, 1, e^-g), case 2 targets
    diag(e^(3g/4), e^(g/4), e^-g).  Residuals are relative spectral norms
    ||M - k diag k'|| / max(1, ||M||).  embedding2_verdict checks them against
    1e-9, and checks the bounds delta_i <= e^-gamma and ||k - 1|| <= 2 e^(-gamma/4).
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


def _case_diagonals(gamma: float):
    """Targets of case 1 and case 2; each case matches its top entry."""
    return (
        np.diag([np.exp(gamma), 1.0, np.exp(-gamma)]),
        np.diag([np.exp(0.75 * gamma), np.exp(0.25 * gamma), np.exp(-gamma)]),
    )


def _pair_matrix(gamma: float, alpha: float, delta: float) -> np.ndarray:
    return d_alpha(2.0 * gamma - alpha) @ x_delta(delta) @ d_alpha(alpha)


def _rotation_svd_2x2(b: np.ndarray):
    """SVD of a positive-determinant 2x2 with both factors rotations.

    Sign convention: the right factor has nonnegative (1,1) entry (flip both
    factors together otherwise).
    """
    u, s, vt = _rotation_svd(b)
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
    # relative slack: at the tangent edge alpha = 7 gamma / 6 the top singular
    # value at delta = 0 meets the target quadratically, so exact comparison is fp-noise
    delta = _solve_delta(gamma, alpha, float(np.log(diag[0, 0])), 1e-13)
    if delta > 1.0 + 1e-12:
        raise NumericalDegeneracyError(
            "embedding_range", f"target singular value needs delta = {delta} > 1"
        )
    delta = min(1.0, delta)
    m = _pair_matrix(gamma, alpha, delta)
    u, _, vt = _rotation_svd_2x2(m[:2, :2])
    k, kp = _embed_rotation(u), _embed_rotation(vt)
    residual = np.linalg.norm(m - k @ diag @ kp, 2) / max(1.0, np.linalg.norm(m, 2))
    return delta, k, kp, residual


def embedding2_verdict(cert: Embedding2Certificate) -> tuple[float, float, bool]:
    """(e^-gamma, 2 e^(-gamma/4), held): held when both residuals are <= 1e-9 and delta1,
    delta2 and ||k - 1||_2 for k1, k1p, k2p are within the two bounds.  Kept apart from
    embedding2_solve, so that timing the solve times it alone."""
    delta_bound = float(np.exp(-cert.gamma))
    rotation_bound = float(2.0 * np.exp(-cert.gamma / 4.0))
    held = cert.residual1 <= 1e-9 and cert.residual2 <= 1e-9  # a NaN residual fails
    held = held and max(cert.delta1, cert.delta2) <= delta_bound and all(
        np.linalg.norm(k - np.eye(3), 2) <= rotation_bound for k in (cert.k1, cert.k1p, cert.k2p)
    )
    return delta_bound, rotation_bound, bool(held)


def embedding2_solve(gamma: float, alpha: float) -> Embedding2Certificate:
    """Solve both embedding cases for gamma in [0.5, 600], alpha in [gamma, 7 gamma/6]."""
    if not 0.5 <= gamma <= 600.0:  # NaN fails too; e^alpha overflows past alpha = 7 * 608.4 / 6
        raise ValueError(f"gamma must be finite and lie in [0.5, 600] (degenerate regime excluded): gamma = {gamma}")
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
