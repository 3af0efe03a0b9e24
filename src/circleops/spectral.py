"""Spectral model of the circle-averaging operators on L2 of the sphere.

The operator averaging f over the circle at inner product delta from each
point is diagonal in spherical harmonics: eigenvalue P_n(delta) on the
degree-n space, multiplicity 2n+1.  Everything here works on that diagonal
model: operator norms of differences, Schatten p-norms, decay fits in delta,
and the fourth-power divergence probe at the boundary exponent p = 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import zeta

from .legendre import (
    _clamp_delta,
    _defect_blocks,
    _row_blocks,
    bernstein_envelope,
    gauss_rule,
    legendre_defect,
    legendre_table,
)

__all__ = [
    "SpectralOperator",
    "OpNormCertificate",
    "DecayFit",
    "op_norm_diff",
    "op_norm_diff_certificate",
    "schatten_norm_diff",
    "schatten_tail_bound",
    "schatten_tail_estimate",
    "difference_diagonal",
    "diff_power_windows",
    "diff_power_sums",
    "stabilized_norm",
    "fit_decay",
    "divergence_probe_p4",
]

# Difference of two averaging operators of norm one; a-priori certified bound.
_APRIORI_BOUND = 2.0

# Completion of the Schatten tails (schatten_tail_estimate).
_TAIL_MODES = 100  # Fourier modes 0..K kept of each phase function
_TAIL_FFT = 512  # samples of each phase function
# |alpha| below this is an exact resonance: at delta = +-1/2 the rounding of
# arccos and of 4 k theta leaves |alpha| <= 1.3e-13 for k <= 100.
_RESONANCE_TOL = 1e-12
_TAIL_START = 256  # expansion used from n >= 256 and n sin(theta) >= 256 on
_TAIL_HEAD_CAP = 2**16  # most degrees summed exactly before the expansion takes over
_RAY_STEP = 0.2  # Abel-Plana ray integral: trapezoidal step, error ~ e^(-pi^2 / step)
_PLANA_NODES, _PLANA_WEIGHTS = gauss_rule(16)  # per unit panel


@dataclass(frozen=True)
class SpectralOperator:
    """Diagonal model: eigenvalue P_n(delta) with multiplicity 2n+1, n <= truncation."""

    delta: float
    truncation: int

    def __post_init__(self):
        _clamp_delta(self.delta)
        if self.truncation < 0:
            raise ValueError("truncation must be nonnegative")

    def eigenvalues(self) -> np.ndarray:
        return legendre_table(self.truncation, self.delta)

    def eigenvalue(self, n: int) -> float:
        if not 0 <= n <= self.truncation:
            raise ValueError("degree outside truncation")
        return float(self.eigenvalues()[n])

    def multiplicities(self) -> np.ndarray:
        return 2 * np.arange(self.truncation + 1) + 1

    def multiplicity(self, n: int) -> int:
        if not 0 <= n <= self.truncation:
            raise ValueError("degree outside truncation")
        return 2 * n + 1


@dataclass(frozen=True)
class OpNormCertificate:
    """Certified sup-norm value for the eigenvalue defects of a difference.

    head is the exact sup over degrees <= truncation; tail_bound dominates the
    sup over all higher degrees (Bernstein envelope, capped at the a-priori
    bound 2).  value = max(head, tail_bound), so the true operator norm of the
    difference is <= value, with equality whenever the head dominates.
    """

    head: float
    tail_bound: float

    @property
    def head_dominates(self) -> bool:
        return self.head >= self.tail_bound

    @property
    def value(self) -> float:
        return max(self.head, self.tail_bound)


def _difference_tail_bound(delta: float, truncation: int, zero_part: float) -> float:
    """Bound on sup_{n>N} |P_n(0) - P_n(delta)|, N = truncation; zero_part is sup_{n>N} |P_n(0)|."""
    if delta == 0.0:
        return 0.0
    if 1.0 - delta * delta < 1e-12:
        delta_part = 1.0
    else:
        delta_part = float(bernstein_envelope(truncation + 1, delta))
    return min(zero_part + delta_part, _APRIORI_BOUND)


def _op_norm_certificates(deltas, truncation: int) -> list[OpNormCertificate]:
    """op_norm_diff_certificate at every delta of a grid, all from one blocked defect pass."""
    if truncation < 2:
        raise ValueError("truncation must be >= 2")
    # One pass to the first even degree m past N checks the deltas, gives the heads and |P_m(0)|.
    m = truncation + 1 if truncation % 2 else truncation + 2
    deltas = np.atleast_1d(np.asarray(deltas, dtype=float))
    heads, first = 0.0, 0  # first: degree of the block's first row
    for defects, zeros in _defect_blocks(m, deltas):
        head_rows = np.abs(defects[: max(truncation + 1 - first, 0)])
        heads, first = np.maximum(heads, head_rows.max(axis=0, initial=0.0)), first + len(defects)
    return [
        OpNormCertificate(float(head), _difference_tail_bound(d, truncation, abs(zeros[-1])))
        for head, d in zip(heads, np.clip(deltas, -1, 1).tolist())
    ]


def op_norm_diff_certificate(delta: float, truncation: int) -> OpNormCertificate:
    """Head sup and tail envelope for the eigenvalue defects |P_n(0) - P_n(delta)|."""
    return _op_norm_certificates([delta], truncation)[0]


def op_norm_diff(delta: float, truncation: int) -> float:
    """Certified operator norm of the averaging-operator difference at delta.

    Guaranteed <= 4 sqrt(|delta|) (and <= 2 always).
    """
    return op_norm_diff_certificate(delta, truncation).value


def difference_diagonal(delta: float, max_degree: int) -> np.ndarray:
    """Diagonal of T_0 - T_delta on degrees <= max_degree: P_n(0) - P_n(delta), 2n+1 times each."""
    return np.repeat(-legendre_defect(max_degree, delta), 2 * np.arange(max_degree + 1) + 1)


def _power_windows(blocks, ps, checkpoints) -> np.ndarray:
    """Sums of (2n+1)|v_n|^p over each window c_(k-1) < n <= c_k (c_(-1) = -1), each from zero.

    blocks yields the rows v_0 .. v_(c_last); shape (len(ps), columns, len(checkpoints)).
    """
    ends, out, first, window = list(checkpoints), [], 0, 0.0  # first: degree of rows[0]
    for rows in blocks:
        n = np.arange(first, first + len(rows))
        terms = (2 * n + 1)[:, None] * np.abs(rows) ** ps[:, None, None]
        lo = 0
        while ends and ends[0] < first + len(rows):
            hi = ends.pop(0) + 1 - first
            out.append(window + terms[:, lo:hi].sum(axis=1))
            window, lo = 0.0, hi
        window = window + terms[:, lo:].sum(axis=1)
        first += len(rows)
    return np.stack(out, axis=-1)


def diff_power_windows(deltas, ps, checkpoints) -> np.ndarray:
    """Window masses sum_{c_(k-1) < n <= c_k} (2n+1) |P_n(d) - P_n(0)|^p, c_(-1) = 0.

    One recurrence pass in blocks of rows, vectorized over the delta grid.  Each
    window is summed on its own: a difference of cumulative sums would lose the
    digits of a small window at large p.  Shape (len(ps), len(deltas),
    len(checkpoints)), checkpoints sorted ascending.
    """
    deltas = np.atleast_1d(np.asarray(deltas, dtype=float))
    ps = np.atleast_1d(np.asarray(ps, dtype=float))
    checkpoints = sorted(int(c) for c in checkpoints)
    if checkpoints[0] < 1:
        raise ValueError("checkpoints must be >= 1")
    if np.any(ps <= 0):
        raise ValueError("p must be positive")
    # the n = 0 term vanishes: both eigenvalues are 1
    blocks = (defects for defects, _ in _defect_blocks(checkpoints[-1], deltas))
    return _power_windows(blocks, ps, checkpoints)


def diff_power_sums(deltas, ps, checkpoints) -> np.ndarray:
    """Schatten partial sums (sum (2n+1) |P_n(d) - P_n(0)|^p)^(1/p) at given truncations.

    Running totals of diff_power_windows, in its shape.  These are raw
    truncations; schatten_tail_estimate completes them.
    """
    ps = np.atleast_1d(np.asarray(ps, dtype=float))
    sums = np.cumsum(diff_power_windows(deltas, ps, checkpoints), axis=-1)
    return sums ** (1.0 / ps[:, None, None])


def schatten_norm_diff(delta: float, p: float, truncation: int) -> float:
    """(sum_{n<=N} (2n+1) |P_n(delta) - P_n(0)|^p)^(1/p); p = inf gives op_norm_diff."""
    if truncation < 2:
        raise ValueError("truncation must be >= 2")
    if np.isinf(p):
        return op_norm_diff(delta, truncation)
    return float(diff_power_sums([delta], [p], [truncation])[0, 0, 0])


def schatten_tail_bound(delta: float, p: float, truncation: int) -> float:
    """Closed-form bound on the p-th power tail sum_{n>N} (2n+1)|P_n(d)-P_n(0)|^p.

    Valid for p > 4 via the Bernstein envelope: terms are <= 3 amp^p n^(1-p/2).
    """
    if p <= 4:
        raise ValueError("tail bound requires p > 4")
    if delta == 0.0:
        return 0.0
    sin_theta = np.sqrt(max(0.0, 1.0 - delta * delta))
    if sin_theta < 1e-12:
        return math.inf  # |delta| = 1: the terms (2n+1)|1 - P_n(0)|^p grow like 2n+1
    amp = np.sqrt(2.0 / np.pi) * (1.0 + sin_theta**-0.5)
    return 3.0 * amp**p * truncation ** (2.0 - p / 2.0) / (p / 2.0 - 2.0)


def _lerch_abel_plana(alpha, coefs, sigmas, a: float) -> np.ndarray:
    """sum_{m>=0} e^(i alpha m) sum_i c_i (m + a)^-sigma_i by the Abel-Plana formula.

    sum f(m) = f(0)/2 + int_0^inf f + i int_0^inf (f(iy) - f(-iy)) / (e^(2 pi y) - 1) dy,
    exact for 0 < |alpha| <= pi and used for every mode off resonance; it agrees
    with the Lerch transcendent to 3e-13 for |alpha| a from 1e-11 to 1e5.
    coefs has shape (len(sigmas), len(alpha)).
    The first integral runs along the imaginary ray on which e^(i alpha x)
    decays, by the trapezoidal rule in x = log(v) (the integrand is analytic
    for |Im x| < pi/2); the second by unit Gauss-Legendre panels on [0, 12]
    (poles at y = +-i, decay >= e^(-pi y); a >= 64 keeps the branch points of
    (a +- iy)^-sigma far from the real axis).
    """
    sigmas = np.asarray(sigmas, dtype=float)[:, None]
    scaled = coefs * a**-sigmas  # c_i a^-sigma_i
    ray = np.where(alpha >= 0, 1j, -1j)
    decay = np.abs(alpha) * a
    # int_0^inf f = a int_0^inf ray e^(-|alpha| a v) g(ray a v) dv, v = e^x; the powers
    # (1 + ray v)^-sigma are shared by all modes, conjugated on the lower ray.
    v = np.exp(np.arange(-40.0, np.log(40.0 / decay.min()) + _RAY_STEP, _RAY_STEP))
    upper = (1.0 + 1j * v) ** -sigmas @ (np.exp(-np.outer(v, decay)) * v[:, None])
    line = a * ray * _RAY_STEP * (scaled * np.where(alpha >= 0, upper, upper.conj())).sum(axis=0)
    y = (np.arange(12)[:, None] + (_PLANA_NODES + 1) / 2).ravel()
    w = np.tile(_PLANA_WEIGHTS / 2, 12)
    g = ((1.0 + 1j * y / a) ** -sigmas).T  # (y, sigmas); conjugate at -iy
    up = np.exp(-np.outer(y, 2 * np.pi + alpha)) * (g @ scaled)
    down = np.exp(-np.outer(y, 2 * np.pi - alpha)) * (g.conj() @ scaled)
    plana = w @ (1j * (up - down) / -np.expm1(-2 * np.pi * y)[:, None])
    return scaled.sum(axis=0) / 2 + line + plana


def schatten_tail_estimate(delta: float, p: float, truncation: int) -> float:
    """Asymptotic value of the p-th power tail sum_{n>N} (2n+1)|P_n(d)-P_n(0)|^p.

    This is an estimate, not a bound: schatten_tail_bound dominates the tail,
    this approximates it.  (diff_power_sums(...)**p + estimate)**(1/p) is the
    completed Schatten p-norm of the averaging difference.

    Both eigenvalues come from the two-term Stieltjes expansion (Szego,
    Orthogonal Polynomials, 8.21.14): with theta = arccos(delta),
    s = sin(theta), nu = n + 1/2 and R_n = sqrt(2/pi) Gamma(n+1)/Gamma(n+3/2),
    P_n(delta) - P_n(0) = R_n (A_n + B_n / (4 (2n+3))) + O(n^-5/2), where
    A_n = s^-1/2 cos(nu theta - pi/4) - cos(n pi/2) and B_n is the next term
    in the same phase.  |.|^p is linearised in the correction.  Within each
    class n = j mod 4 both terms are 2 pi-periodic functions of the phase
    nu theta - pi/4; their Fourier modes k (by FFT) turn the tail into Lerch
    sums sum_m z^m (m + b)^-sigma with z = e^(4 i k theta), which are summed
    in closed form: by the Hurwitz zeta function at a resonance (z = 1) and
    by the Abel-Plana formula otherwise.  The only resonant deltas in (-1, 1)
    other than 0 are +-1/2, at modes 3 | k (cos theta is rational at a
    rational multiple of pi only for 0, +-1/2, +-1); their phases are exact up
    to the rounding of arccos, so |alpha| < 1e-12 counts as z = 1.  Every
    other delta, however close to +-1/2, takes the Abel-Plana path.

    The Stieltjes series converges for |delta| < sqrt(3)/2; beyond that the
    estimate is asymptotic in 1/(n sin theta).  Degrees n < 256 or with
    n sin theta < 256 are therefore summed exactly, up to n = 2^16; only
    for |delta| > 1 - 7.6e-6, where 2^16 sin theta < 256, does the expansion
    start early and lose accuracy.  At |delta| = 1 the tail diverges and inf
    is returned.
    """
    if p <= 4:
        raise ValueError("tail estimate requires p > 4")
    delta = _clamp_delta(delta)
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    if delta == 0.0:
        return 0.0
    if abs(delta) == 1.0:
        return math.inf
    theta = math.acos(delta)
    s = math.sin(theta)
    # Degrees where the expansion is poor are summed exactly from the recurrence.
    last = max(truncation, min(max(_TAIL_START, math.ceil(_TAIL_START / s)), _TAIL_HEAD_CAP))
    head = 0.0
    if last > truncation:
        head = float(diff_power_windows([delta], [p], [truncation, last])[0, 0, 1])

    # Phase functions of the leading term and of the linearised correction.
    phase = 2 * np.pi * np.arange(_TAIL_FFT) / _TAIL_FFT
    cos_zero = np.array([1.0, 0.0, -1.0, 0.0])[:, None]  # cos(n pi/2), n = j mod 4
    lead = np.cos(phase) / math.sqrt(s) - cos_zero
    corr = np.sin(phase + theta) / s**1.5 - cos_zero
    modes = np.fft.rfft(
        np.stack([np.abs(lead) ** p, p * np.abs(lead) ** (p - 2) * lead * corr]), axis=2
    )[:, :, : _TAIL_MODES + 1] / _TAIL_FFT
    lead_modes, corr_modes = modes

    # (2n+1) R_n^p = (2/pi)^(p/2) (2u^(1-p/2) - u^(-p/2)/2) (1 + O(u^-2)), u = n + 3/4,
    # and (2n+1) R_n^p / (4(2n+3)) = (2/pi)^(p/2) (u^(-p/2) - u^(-1-p/2)) / 4 + ...
    sigmas = np.array([p / 2 - 1, p / 2, p / 2 + 1])
    coefs = np.stack(
        [2 * lead_modes, corr_modes / 4 - lead_modes / 2, -corr_modes / 4]
    ) * 4.0 ** -sigmas[:, None, None]  # u^-sigma = 4^-sigma (m + b_j)^-sigma

    k = np.arange(_TAIL_MODES + 1)
    alpha = np.remainder(4 * k * theta + np.pi, 2 * np.pi) - np.pi
    resonant = np.abs(alpha) < _RESONANCE_TOL
    # Modes k and -k are complex conjugates: count k > 0 twice, keep real parts.
    weight = np.where(k == 0, 1.0, 2.0)
    total = 0.0
    for j in range(4):
        m0 = (last - j) // 4 + 1  # first n = 4 m + j beyond the exact head
        a = m0 + (j + 0.75) / 4
        start = ((4 * m0 + j + 0.5) * theta - np.pi / 4) % (2 * np.pi)
        c = coefs[:, j, :]
        terms = np.empty(k.size, dtype=complex)
        terms[resonant] = zeta(sigmas, a) @ c[:, resonant]
        terms[~resonant] = _lerch_abel_plana(alpha[~resonant], c[:, ~resonant], sigmas, a)
        total += float(np.sum(weight * (np.exp(1j * k * start) * terms).real))
    return head + (2.0 / np.pi) ** (p / 2) * total


def stabilized_norm(
    delta: float,
    p: float,
    n_start: int = 1024,
    n_max: int = 2**18,
    rtol: float = 1e-6,
):
    """Schatten norm under truncation doubling from n_start up to n_max.

    Returns (value_at_final_N, relative_changes, converged) where
    relative_changes[k] compares the values at successive doublings and
    converged means the last change dropped below rtol before n_max.
    """
    checkpoints = []
    n = n_start
    while n <= n_max:
        checkpoints.append(n)
        n *= 2
    vals = diff_power_sums([delta], [p], checkpoints)[0, 0, :]
    rel = np.abs(np.diff(vals)) / vals[1:]
    converged = bool(rel.size and rel[-1] < rtol)
    return float(vals[-1]), rel, converged


@dataclass
class DecayFit:
    """Least-squares fit of log(norm) against log(delta).

    envelope_constant is the smallest C making value <= C * delta^theory_exponent
    hold across the grid (theory_exponent = 1/2 - 2/p, or 1/2 at p = inf).
    """

    exponent: float
    constant: float
    grid: list = field(default_factory=list)
    residual: float = 0.0
    theory_exponent: float = 0.0
    envelope_constant: float = 0.0


def fit_decay(p: float, delta_grid, n_max: int = 2**18) -> DecayFit:
    """Fit the delta-decay of the Schatten (or sup) norm of the difference."""
    deltas = np.asarray(sorted(set(float(d) for d in delta_grid)))
    if deltas.size < 3:
        raise ValueError("need at least 3 distinct deltas to fit")
    if np.any(deltas <= 0) or np.any(deltas > 0.5):
        raise ValueError("delta grid must lie in (0, 1/2]")
    if np.isinf(p):
        vals = np.array([cert.value for cert in _op_norm_certificates(deltas, n_max)])
        theory = 0.5
    else:
        vals = diff_power_sums(deltas, [p], [n_max])[0, :, 0]
        theory = 0.5 - 2.0 / p
    logd, logv = np.log(deltas), np.log(vals)
    slope, intercept = np.polyfit(logd, logv, 1)
    resid = float(np.max(np.abs(logv - (slope * logd + intercept))))
    env = float(np.max(np.exp(logv - theory * logd)))
    return DecayFit(
        exponent=float(slope),
        constant=float(np.exp(intercept)),
        grid=list(zip(deltas.tolist(), vals.tolist())),
        residual=resid,
        theory_exponent=theory,
        envelope_constant=env,
    )


def divergence_probe_p4(delta, n_list) -> np.ndarray:
    """Partial sums sum_{n<=N} (2n+1) P_n(delta)^4 at each N in n_list.

    At p = 4 these grow logarithmically for |delta| < 1; this probe records
    the growth, it does not assert divergence.  A 1-D array of deltas shares
    one recurrence pass and gives shape (len(delta), len(n_list)).
    """
    deltas = np.asarray(delta, dtype=float)
    if not np.all(np.abs(deltas) < 1.0):
        raise ValueError("probe requires |delta| < 1")
    checkpoints = sorted(int(n) for n in n_list)
    if checkpoints[0] < 0:
        raise ValueError("degrees must be nonnegative")
    blocks = _row_blocks(checkpoints[-1], np.atleast_1d(deltas))
    sums = np.cumsum(_power_windows(blocks, np.array([4.0]), checkpoints)[0], axis=-1)
    return sums.reshape(deltas.shape + sums.shape[-1:])
