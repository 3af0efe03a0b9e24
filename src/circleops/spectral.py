"""Spectral model of the circle-averaging operators on L2 of the sphere.

The operator averaging f over the circle at inner product delta from each
point is diagonal in spherical harmonics: eigenvalue P_n(delta) on the
degree-n space, multiplicity 2n+1.  Everything here works on that diagonal
model: operator norms of differences, Schatten p-norms, decay fits in delta,
and the fourth-power divergence probe at the boundary exponent p = 4.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .legendre import (
    HOLDER_CONSTANT,
    _clamp_delta,
    _defect_blocks,
    _require_count,
    _row_blocks,
    bernstein_envelope,
    legendre_table,
)

__all__ = [
    "SpectralOperator",
    "DecayFit",
    "op_norm_diff_certificates",
    "holder_check",
    "schatten_tail_bound",
    "schatten_tail_estimate",
    "diff_power_windows",
    "diff_power_sums",
    "completed_power_sums",
    "SchattenDecay",
    "schatten_decay",
    "divergence_probe_p4",
    "probe_growth",
]

# Difference of two averaging operators of norm one; a-priori certified bound.
_APRIORI_BOUND = 2.0
# The finite-p entry points refuse p = inf and name its path.
_SUP_NORM_PATH = "the sup norm (p = inf) is op_norm_diff_certificates or schatten_decay([inf], ...)"

# Completion of the Schatten tails (schatten_tail_estimate).
_TAIL_MODES = 100  # Fourier modes 0..K kept of each phase function
_TAIL_FFT = 512  # samples of each phase function
# |alpha| below this is an exact resonance: at delta = +-1/2 the rounding of
# arccos and of 4 k theta leaves |alpha| <= 1.3e-13 for k <= 100.
_RESONANCE_TOL = 1e-12
_TAIL_START = 256  # expansion used from n >= 256 and n sin(theta) >= 256 on
_TAIL_HEAD_CAP = 2**16  # most degrees summed exactly before the expansion takes over
_RAY_STEP = 0.2  # Abel-Plana ray integral: trapezoidal step, error ~ e^(-pi^2 / step)


@functools.cache
def _plana_panel() -> tuple[np.ndarray, np.ndarray]:
    """The 16-point Gauss-Legendre nodes and weights of one unit panel, built on first use so
    that importing the CLI loads no numpy.polynomial."""
    return np.polynomial.legendre.leggauss(16)


@dataclass(frozen=True)
class SpectralOperator:
    """Diagonal model: eigenvalue P_n(delta) with multiplicity 2n+1, n <= truncation."""

    delta: float
    truncation: int

    def __post_init__(self):
        _clamp_delta(self.delta)
        _require_count(self.truncation, "truncation", 0)

    def eigenvalues(self) -> np.ndarray:
        return legendre_table(self.truncation, self.delta)

    def multiplicities(self) -> np.ndarray:
        return 2 * np.arange(self.truncation + 1) + 1


def op_norm_diff_certificates(deltas, truncation: int) -> tuple[np.ndarray, np.ndarray]:
    """Certified operator norms of T_0 - T_delta as arrays (heads, tails), one streaming defect pass.

    heads: the exact sup_{n<=N} |P_n(delta) - P_n(0)| (<= 4 sqrt|delta|), the package's one
    computation of it.  tails: a bound on the sup over n > N (Bernstein envelope, capped at the
    a-priori bound 2).  The norm is <= max(heads, tails), with equality where the head dominates.
    """
    _require_count(truncation, "truncation", 0)
    # One pass to the first even degree m past N checks the deltas, gives the heads and
    # |P_m(0)|, which bounds |P_n(0)| for every n > N.
    m = truncation + 1 if truncation % 2 else truncation + 2
    deltas = np.atleast_1d(np.asarray(deltas, dtype=float))
    heads, first = 0.0, 0  # first: degree of the block's first row
    for defects, zeros in _defect_blocks(m, deltas):
        head_rows = np.abs(defects[: max(truncation + 1 - first, 0)])
        heads, first = np.maximum(heads, head_rows.max(axis=0, initial=0.0)), first + len(defects)
    # sup_{n>N} |P_n(delta)| <= Bernstein's envelope at N + 1, or 1 at |delta| = 1
    d = np.clip(deltas, -1, 1)
    envelope = np.where(1.0 - d * d < 1e-12, 1.0, bernstein_envelope(truncation + 1, d))
    tails = np.where(d == 0.0, 0.0, np.minimum(abs(zeros[-1]) + envelope, _APRIORI_BOUND))
    return heads, tails


def holder_check(deltas, truncation: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(heads, bounds, violating): op_norm_diff_certificates' heads, the Hoelder bounds
    HOLDER_CONSTANT sqrt|delta|, and whether each head exceeds its bound by more than 1e-14."""
    heads, _ = op_norm_diff_certificates(deltas, truncation)
    bounds = HOLDER_CONSTANT * np.sqrt(np.abs(deltas))
    return heads, bounds, heads > bounds + 1e-14


def _checkpoints(values, name: str, least: int) -> list[int]:
    """values sorted ascending, each checked by the count rule; ValueError if there are none."""
    if not (checked := sorted(_require_count(value, name, least) for value in values)):
        raise ValueError(f"need at least one {name}")
    return checked


def _power_windows(blocks, ps, checkpoints) -> np.ndarray:
    """Sums of (2n+1)|v_n|^p over each window c_(k-1) < n <= c_k (c_(-1) = -1), each from zero.

    blocks yields the rows v_0 .. v_(c_last); shape (len(ps), columns, len(checkpoints)).
    Each block takes |v_n| once and |v_n|^p once per exponent; a window's mass
    is then one dot product weights[lo:hi] @ powers[lo:hi] per exponent, with
    the weights 2n+1 folded in.  BLAS adds the terms in its own order, which
    moves a mass by at most about 1e-14 relative from a plain running sum.
    That order follows the block's layout (a banded block sums each column
    contiguously) and a column's position among the others, so a delta's mass
    depends on which other deltas share the run: against criterion 2's ten
    deltas, sub-grids and the reversed grid move it by up to 1.4e-14 relative
    at 2^14 (row loop) and 2.9e-15 at 2^18 (banded).
    """
    ends, out, first, window = list(checkpoints), [], 0, 0.0  # first: degree of rows[0]
    for rows in blocks:
        weights = 2.0 * np.arange(first, first + len(rows)) + 1.0
        magnitudes = np.abs(rows)
        powers = [magnitudes**p for p in ps]

        def mass(lo, hi):
            return np.array([weights[lo:hi] @ power[lo:hi] for power in powers])

        lo = 0
        while ends and ends[0] < first + len(rows):
            hi = ends.pop(0) + 1 - first
            out.append(window + mass(lo, hi))
            window, lo = 0.0, hi
        window = window + mass(lo, len(rows))
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
    checkpoints = _checkpoints(checkpoints, "checkpoint", 1)
    if not np.all((ps > 0) & (ps < math.inf)):  # NaN fails too
        raise ValueError(f"p must be positive and finite: {_SUP_NORM_PATH}")
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


def schatten_tail_bound(delta: float, p: float, truncation: int) -> float:
    """Closed-form bound on the p-th power tail sum_{n>N} (2n+1)|P_n(d)-P_n(0)|^p.

    Valid for p > 4 and N >= 1 via the Bernstein envelope: terms are <= 3 amp^p n^(1-p/2).  Infinite
    at |delta| = 1, where they grow like 2n+1; NaN or |delta| > 1 + 1e-12 raises ValueError.
    """
    if not 4 < p < math.inf:  # NaN fails too
        raise ValueError(f"tail bound requires finite p > 4: {_SUP_NORM_PATH}")
    _require_count(truncation, "truncation", 1)
    if delta == 0.0:
        return 0.0
    amp = bernstein_envelope(1, delta) + bernstein_envelope(1, 0.0)  # sqrt(2/pi) (sin^-1/2 + 1)
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
    upper = _complex_by_real((1.0 + 1j * v) ** -sigmas, np.exp(-np.outer(v, decay)) * v[:, None])
    line = a * ray * _RAY_STEP * (scaled * np.where(alpha >= 0, upper, upper.conj())).sum(axis=0)
    # i int (f(iy) - f(-iy)) / (e^(2 pi y) - 1) dy, summed over y per power before the modes mix
    nodes, weights = _plana_panel()
    y = (np.arange(12)[:, None] + (nodes + 1) / 2).ravel()
    w = 1j * np.tile(weights / 2, 12) / -np.expm1(-2 * np.pi * y)
    g = (1.0 + 1j * y / a) ** -sigmas  # (sigmas, y); conjugate at -iy
    plana = scaled * (
        _complex_by_real(w * g, np.exp(-np.outer(y, 2 * np.pi + alpha)))
        - _complex_by_real(w * g.conj(), np.exp(-np.outer(y, 2 * np.pi - alpha)))
    )
    return scaled.sum(axis=0) / 2 + line + plana.sum(axis=0)


def _complex_by_real(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for complex a and real b, as one real einsum over the parts of a.

    einsum's own loops keep these small products out of BLAS, whose threaded
    zgemm kept a second core spinning over hundreds of them per criterion 2 run.
    """
    parts = np.einsum("iv,vk->ik", np.concatenate([a.real, a.imag]), b)
    return parts[: len(a)] + 1j * parts[len(a) :]


def schatten_tail_estimate(delta: float, p: float, truncation: int) -> float:
    """Asymptotic value of the p-th power tail sum_{n>N} (2n+1)|P_n(d)-P_n(0)|^p.

    This is an estimate, not a bound: schatten_tail_bound dominates the tail,
    this approximates it.  completed_power_sums adds it to the partial sums
    to give the completed Schatten p-norm of the averaging difference.

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
    from scipy.special import zeta  # imported on first use, so the CLI's import loads no scipy.special

    if not 4 < p < math.inf:  # NaN fails too
        raise ValueError(f"tail estimate requires finite p > 4: {_SUP_NORM_PATH}")
    delta = _clamp_delta(delta)
    _require_count(truncation, "truncation", 1)
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


def completed_power_sums(deltas, ps, checkpoints):
    """(windows, tails, norms) in diff_power_windows' shape: its window masses, the tail estimates
    tails[i, j, k] = schatten_tail_estimate(deltas[j], ps[i], checkpoints[k]), and the completed
    Schatten p-norms (cumsum(windows) + tails)^(1/p) of the averaging difference; every p > 4.

    The windows take one recurrence pass; a tail estimate at N < min(max(256, ceil(256 / sin theta)),
    2^16) sums its exact head past N in a diff_power_windows pass of its own, from degree 0.
    """
    deltas = np.atleast_1d(np.asarray(deltas, dtype=float))
    ps = np.atleast_1d(np.asarray(ps, dtype=float))
    checkpoints = _checkpoints(checkpoints, "checkpoint", 1)
    windows = diff_power_windows(deltas, ps, checkpoints)
    tails = np.array([[[schatten_tail_estimate(d, p, n) for n in checkpoints] for d in deltas] for p in ps])
    norms = (np.cumsum(windows, axis=-1) + tails) ** (1.0 / ps[:, None, None])
    return windows, tails, norms


@dataclass
class DecayFit:
    """Least-squares fit of log(norm) against log(delta).

    envelope_constant is the smallest C making value <= C * delta^theory_exponent
    hold across the grid (theory_exponent = 1/2 - 2/p, or 1/2 at p = inf).
    """

    exponent: float
    constant: float
    grid: list
    residual: float
    theory_exponent: float
    envelope_constant: float

    @classmethod
    def from_grid(cls, deltas, values, theory_exponent: float) -> DecayFit:
        """Fit log(values) against log(deltas) by least squares."""
        logd, logv = np.log(deltas), np.log(values)
        slope, intercept = np.polyfit(logd, logv, 1)
        return cls(
            exponent=float(slope),
            constant=float(np.exp(intercept)),
            grid=list(zip(np.asarray(deltas).tolist(), np.asarray(values).tolist())),
            residual=float(np.max(np.abs(logv - (slope * logd + intercept)))),
            theory_exponent=theory_exponent,
            envelope_constant=float(np.max(np.exp(logv - theory_exponent * logd))),
        )

    def meets_theory(self) -> bool:
        """Fitted exponent >= theory_exponent - 0.05 (NaN fails)."""
        return bool(self.exponent >= self.theory_exponent - 0.05)


@dataclass(frozen=True)
class SchattenDecay:
    """Criterion 2's claim at one p: the fit of the completed norms c at N, and its clause values.

    Each value is the max (the bracket: all) over the delta grid; NaN fails each clause.  c(N/2) and
    c(N) differ only by the tail estimate's error over N/2 < n <= N, so the doubling clause
    |c(N) - c(N/2)| / c(N) < 1e-6 checks consistency only (raw_change: the raw truncations').  The window
    clause binds: the estimate's mass there, tail(N/2) - tail(N), matches the recurrence's to 1e-6
    relative.  The estimate is no bound, so partial <= c(N) <= (partial^p + schatten_tail_bound)^(1/p)
    must hold, and fit.meets_theory().  At p = inf (certified sup norms) only meets_theory applies.
    """

    p: float
    fit: DecayFit
    doubling_change: float | None = None
    raw_change: float | None = None
    window_error: float | None = None
    bracket: bool | None = None

    def held(self) -> bool:
        clauses = () if self.p == math.inf else (self.doubling_change < 1e-6, self.window_error <= 1e-6, self.bracket)
        return all(clauses) and self.fit.meets_theory()

    def record(self) -> dict:
        """p, the fit's fields and the clause values in one flat dict."""
        fields = asdict(self)
        return {**fields.pop("fit"), **fields}


def schatten_decay(ps, delta_grid, n_max: int = 2**18) -> list[SchattenDecay]:
    """One SchattenDecay per p: finite p share one completed_power_sums call at n_max // 2 and n_max.

    p = inf fits the certified sup norms at n_max, so it cannot share a list with finite p.  For
    p <= 4 the norm is infinite: ValueError before any recurrence runs, as for n_max below 2.
    """
    ps = [float(p) for p in ps]
    if not all(p > 4 for p in ps):  # NaN fails too
        raise ValueError("the Schatten p-norm of the difference is infinite for p <= 4")
    if math.inf in ps and len(ps) > 1:
        raise ValueError("p = inf takes the certified sup norms, which cannot share a run with finite p")
    _require_count(n_max, "n_max", 2)  # so that n_max // 2 is a checkpoint
    deltas = np.asarray(sorted(set(float(d) for d in delta_grid)))
    if deltas.size < 3 or not np.all((deltas > 0) & (deltas <= 0.5)):  # NaN fails too
        raise ValueError("the fit needs at least 3 distinct deltas, each in (0, 1/2]")
    if ps == [math.inf]:
        sup_norms = np.maximum(*op_norm_diff_certificates(deltas, n_max))
        return [SchattenDecay(math.inf, DecayFit.from_grid(deltas, sup_norms, 0.5))]
    roots = 1.0 / np.array(ps)[:, None]
    windows, tails, completed = completed_power_sums(deltas, ps, [n_max // 2, n_max])
    sums = np.cumsum(windows, axis=-1)
    partial = sums ** roots[..., None]
    doubling, raw = (np.abs(norms[..., 1] - norms[..., 0]) / norms[..., 1] for norms in (completed, partial))
    window_error = np.abs(tails[..., 0] - tails[..., 1] - windows[..., 1]) / windows[..., 1]
    bounds = np.array([[schatten_tail_bound(d, p, n_max) for d in deltas] for p in ps])
    bracket = (partial[..., 1] <= completed[..., 1]) & (completed[..., 1] <= (sums[..., 1] + bounds) ** roots)
    return [
        SchattenDecay(p, DecayFit.from_grid(deltas, completed[i, :, 1], 0.5 - 2.0 / p), float(doubling[i].max()),
                      float(raw[i].max()), float(window_error[i].max()), bool(bracket[i].all()))
        for i, p in enumerate(ps)
    ]


def divergence_probe_p4(delta, n_list) -> np.ndarray:
    """Partial sums sum_{n<=N} (2n+1) P_n(delta)^4 at each N in n_list.

    At p = 4 these grow logarithmically for |delta| < 1; this probe records
    the growth, it does not assert divergence.  An array of deltas shares one
    recurrence pass and gives shape delta.shape + (len(n_list),).
    """
    deltas = np.asarray(delta, dtype=float)
    if not np.all(np.abs(deltas) < 1.0):
        raise ValueError("probe requires |delta| < 1")
    checkpoints = _checkpoints(n_list, "degree", 0)
    blocks = _row_blocks(checkpoints[-1], deltas.ravel())
    sums = np.cumsum(_power_windows(blocks, np.array([4.0]), checkpoints)[0], axis=-1)
    return sums.reshape(deltas.shape + sums.shape[-1:])


def probe_growth(delta: float, sums) -> tuple[np.ndarray, bool]:
    """The increments of divergence_probe_p4's partial sums at delta, and whether they grow steadily:
    every increment at least A(delta)/2 and max/min < 1.5 (NaN fails).

    A(delta) = 3 ln 2 / (pi^2 (1 - delta^2)) is the limit of each dyadic increment: by Szego's
    asymptotics (Orthogonal Polynomials, 8.21) (2n+1) P_n(cos theta)^4 is about
    8 cos^4(.) / (pi^2 n sin^2 theta), and cos^4 averages 3/8.  At the checkpoints 2^10..2^16 the
    increment / A(delta) was measured in [0.947, 1.024] for delta from 0.01 to 0.9999, in
    [1.331, 1.334] at the resonant delta = 0, and down to 0.717 at delta = 0.99999.
    """
    inc = np.diff(sums)
    limit = 3.0 * math.log(2.0) / (math.pi**2 * (1.0 - delta**2))
    return inc, bool(np.all(inc >= limit / 2.0) and inc.max() / inc.min() < 1.5)
