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

embedding2_solve runs its two cases as one (2, 3, 3) stack: one np.exp call for
every exponential and the scalar delta solve per case, then one stacked product
for the pair matrices, one SVD call for their (1,2)-blocks and one for the
residuals' spectral norms.  The bits are those of solving the cases one by one:
numpy's gufuncs run each matrix of a stack through the same LAPACK or matmul
kernel, a norm is the max of the same singular values, and the sign fixes
multiply by exact +-1.
"""

from __future__ import annotations

import math
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
_SINGULAR_TOL = 1e-14
_LOG_MAX = math.log(np.finfo(float).max)  # 709.78...: np.exp overflows past it
_QUARTER_TURN = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


def x_delta(delta: float) -> np.ndarray:
    """Rotation of the (1,2)-plane with (1,1) entry delta; double-coset representative."""
    d = _clamp_delta(delta)
    s = np.sqrt(max(0.0, 1.0 - d * d))
    return np.array([[d, -s, 0.0], [s, d, 0.0], [0.0, 0.0, 1.0]])


def d_alpha(alpha: float) -> np.ndarray:
    """diag(e^alpha, e^(-alpha/2), e^(-alpha/2)); commutes with rotations about e1."""
    if not -2.0 * _LOG_MAX <= alpha <= _LOG_MAX:  # both exponentials finite; NaN fails too
        raise ValueError(f"d_alpha needs e^alpha and e^(-alpha/2) finite: alpha = {alpha}")
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
        return float(_spectral_norms(g - self.k1 @ np.diag(np.exp(self.a.as_array())) @ self.k2))

    def verdict(self, g: np.ndarray) -> tuple[float, bool]:
        """(residual, held): criterion 8's and circleops kak's rule, residual <= 1e-9 (NaN fails)."""
        residual = self.residual(g)
        return residual, residual <= 1e-9


def _spectral_norms(stack: np.ndarray) -> np.ndarray:
    """||.||_2 of each matrix of a stack from one SVD call: np.linalg.norm(., 2)'s bits, as it takes the same max."""
    return np.linalg.svd(stack, compute_uv=False).max(axis=-1)


def _det3(m: np.ndarray) -> float:
    """Determinant of a 3x3 by cofactor expansion along the first row, in Python floats."""
    (a, b, c), (d, e, f), (g, h, i) = m.tolist()
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _rotation_svd(m: np.ndarray):
    """SVD of a positive-determinant 3x3 with both factors rotations.

    det m > 0 forces det(U) = det(V^T), so when both are -1 a simultaneous
    sign flip of the last singular pair repairs them without changing the
    product.  |det U| = 1 to rounding, so the triple product of U's rows
    decides its sign; U ends a rotation whatever the sign of det m.
    """
    u, s, vt = np.linalg.svd(m)
    if _det3(u) < 0:
        u[:, -1] *= -1.0
        vt[-1, :] *= -1.0
    return u, s, vt


def kak(g: np.ndarray) -> KAKDecomposition:
    """SVD-based decomposition with both orthogonal factors in the rotation group.

    g must be 3x3 with det g = 1 within 1e-8; a singular value below 1e-14 is a degeneracy.
    Bookkeeping around the one SVD is in floats: det g = s1 s2 s3 det V^T errs by about eps s1^2 s2, as LU does
    (a cofactor expansion: eps s1^3); the exponents keep numpy's bits, as its 3-element sum adds in this order.
    """
    g = np.asarray(g, dtype=float)
    if g.shape != (3, 3):
        raise ValueError("expected a 3x3 matrix")
    try:
        u, s, vt = _rotation_svd(g)
        det = math.copysign(math.prod(s.tolist()), _det3(vt))
    except np.linalg.LinAlgError:  # LAPACK's answer to a NaN entry
        det = math.nan
    if not abs(det - 1.0) <= 1e-8:
        bad = ", ".join(f"{g[i, j]} at ({i}, {j})" for i, j in np.argwhere(~np.isfinite(g)))
        raise ValueError(f"matrix entries must be finite: {bad}" if bad else f"determinant {det} too far from 1")
    if s[-1] < _SINGULAR_TOL:
        raise NumericalDegeneracyError("kak_singularity", f"smallest singular value {s[-1]} below {_SINGULAR_TOL}")
    l1, l2, l3 = np.log(s).tolist()
    mean = (l1 + l2 + l3) / 3.0  # exact unimodularity for the reported exponents
    return KAKDecomposition(k1=u, a=LambdaPoint(l1 - mean, l2 - mean, l3 - mean), k2=vt)


def j_alpha(alpha: float, delta: float) -> LambdaPoint:
    """Cone point of D_alpha x_delta D_alpha; even in delta, a3 = -alpha."""
    if not 0.0 <= alpha < np.inf:  # NaN fails too
        raise ValueError("alpha must be nonnegative and finite")
    if (bottom := math.exp(-alpha)) < _SINGULAR_TOL:  # kak's degeneracy, before D_alpha can overflow
        raise NumericalDegeneracyError("kak_singularity", f"smallest singular value e^-alpha = {bottom} below {_SINGULAR_TOL}")
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


def _solve_cases(gamma: float, alpha: float, targets: np.ndarray, pair: np.ndarray):
    """(deltas, rotations, residuals) of D_b x_delta D_a = k diag(t) k' for each row t of targets.

    pair holds the diagonals of D_b and D_a.  rotations[0] stacks the k and
    rotations[1] the k'; each residual is ||M - k diag k'|| / max(1, ||M||).
    """
    deltas = []
    # relative slack: at the tangent edge alpha = 7 gamma / 6 the top singular
    # value at delta = 0 meets the target quadratically, so exact comparison is fp-noise
    for log_top in np.log(targets[:, 0]).tolist():
        delta = _solve_delta(gamma, alpha, log_top, 1e-13)
        if delta > 1.0 + 1e-12:
            raise NumericalDegeneracyError("embedding_range", f"target singular value needs delta = {delta} > 1")
        deltas.append(min(1.0, delta))
    n = len(deltas)
    diags = np.zeros((n + 2, 9))  # diag(t) per case, then D_b and D_a
    diags[:, ::4] = np.concatenate((targets, pair))
    diags = diags.reshape(n + 2, 3, 3)
    m = diags[n] @ np.array([x_delta(delta) for delta in deltas]) @ diags[n + 1]
    # Both factors rotations: the last singular pair flips with u when det u < 0 (det vt
    # follows, as det > 0), then the whole pair flips when vt[0, 0] < 0.  Each sign is exact.
    u, _, vt = np.linalg.svd(m[:, :2, :2])
    signs = np.empty((n, 2))
    signs[:, 0] = np.where(vt[:, 0, 0] < 0, -1.0, 1.0)
    signs[:, 1] = np.where(u[:, 0, 0] * u[:, 1, 1] - u[:, 0, 1] * u[:, 1, 0] < 0, -signs[:, 0], signs[:, 0])
    rotations = np.zeros((2, n, 3, 3))
    rotations[..., 2, 2] = 1.0
    rotations[0, :, :2, :2], rotations[1, :, :2, :2] = u * signs[:, None, :], vt * signs[:, :, None]
    norms = _spectral_norms(np.concatenate((m - rotations[0] @ diags[:n] @ rotations[1], m)))
    return deltas, rotations, norms[:n] / np.fmax(1.0, norms[n:])


def embedding2_verdict(cert: Embedding2Certificate) -> tuple[float, float, float, bool]:
    """(e^-gamma, 2 e^(-gamma/4), edge error, held): held when both residuals are <= 1e-9, delta1,
    delta2 and ||k - 1||_2 for k1, k1p, k2p are within the two bounds, and at the tangent edge
    alpha = 7 gamma / 6 delta2 = 0 and k2 is the quarter turn to 1e-9 in every entry (the edge
    error; 0 off the edge).  Kept apart from embedding2_solve, so that timing the solve times it alone."""
    delta_bound = float(np.exp(-cert.gamma))
    rotation_bound = float(2.0 * np.exp(-cert.gamma / 4.0))
    edge = cert.alpha == 7.0 * cert.gamma / 6.0
    edge_error = float(np.abs(cert.k2 - _QUARTER_TURN).max()) if edge else 0.0
    held = cert.residual1 <= 1e-9 and cert.residual2 <= 1e-9  # a NaN residual fails
    held = held and max(cert.delta1, cert.delta2) <= delta_bound
    held = held and bool(np.all(_spectral_norms(np.stack((cert.k1, cert.k1p, cert.k2p)) - np.eye(3)) <= rotation_bound))
    held = held and (not edge or (cert.delta2 == 0.0 and edge_error <= 1e-9))
    return delta_bound, rotation_bound, edge_error, bool(held)


def embedding2_solve(gamma: float, alpha: float) -> Embedding2Certificate:
    """Solve both embedding cases for gamma in [0.5, 600], alpha in [gamma, 7 gamma/6].

    One stacked pass (module docstring): one np.exp call, a scalar _solve_delta per
    case, one SVD call for both blocks and one for all four spectral norms.
    """
    if not 0.5 <= gamma <= 600.0:  # NaN fails too; e^alpha overflows past alpha = 7 * 608.4 / 6
        raise ValueError(f"gamma must be finite and lie in [0.5, 600] (degenerate regime excluded): gamma = {gamma}")
    if not gamma - 1e-12 <= alpha <= 7.0 * gamma / 6.0 + 1e-12:
        raise ValueError("alpha must lie in [gamma, 7 gamma / 6]")
    b = 2.0 * gamma - alpha
    e = np.exp([gamma, 0.75 * gamma, 0.25 * gamma, -gamma, b, -b / 2.0, alpha, -alpha / 2.0]).tolist()
    # case 1 targets diag(e^g, 1, e^-g), case 2 diag(e^(3g/4), e^(g/4), e^-g); each matches its top entry
    targets = np.array([[e[0], 1.0, e[3]], [e[1], e[2], e[3]]])
    pair = np.array([[e[4], e[5], e[5]], [e[6], e[7], e[7]]])
    (d1, d2), ((k1, k2), (k1p, k2p)), (res1, res2) = _solve_cases(gamma, alpha, targets, pair)
    return Embedding2Certificate(
        gamma=float(gamma), alpha=float(alpha), delta1=d1, delta2=d2, k1=k1, k1p=k1p, k2=k2, k2p=k2p,
        residual1=float(res1), residual2=float(res2),
    )
