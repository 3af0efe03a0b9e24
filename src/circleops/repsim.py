"""Small-scale unitary action of the special linear group on L2 of the sphere.

The action is the projective one twisted by the half-density cocycle,
(pi(g) f)(x) = ||g^-1 x||^(-3/2) f(g^-1 x / ||g^-1 x||), which is unitary for
the normalized surface measure.

The bi-rotation average is the projection onto the constants (each degree
n >= 1 harmonic space is an irreducible, nontrivial rotation representation),
so P_K pi(g) P_K keeps one entry, <pi(g) 1, 1>: at diag(e^n, 1, e^-n) the
matrix coefficient c(n) of the unit constant function.  c(n) is reduced
exactly, through a closed-form colatitude integral, to a longitude integral
(the tensor grid cannot resolve the integrand's e^(-2n) ridge for larger n)
and taken by one fixed trapezoid rule in s, tan(phi) = e^-n sinh(s): there the
integrand is even, analytic and decays like e^(|n| - s), so the rule converges
geometrically.  The grid oracles live in tests/test_repsim.py: grid_coefficient
takes <pi(a_n) 1, 1> by the grid's quadrature at small n, and rotation_block
gives the rotation action on one degree for the invariant-gap checks.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalDegeneracyError
from .legendre import legendre_table
# nothing here calls real_sph_harm_matrix: the import stays because perfbench's selftest and the
# frozen-benchmark guard in tests/test_exports.py read it from this module
from .sphere import SphereGrid, real_sph_harm_matrix

__all__ = [
    "build_grid",
    "matrix_coefficient",
    "coefficient_decay",
    "invariant_gap",
    "certified_gaps",
    "GAP_FLOOR",
    "DECAY_BOUND_CONSTANT",
    "DECAY_BOUND_RATE",
]

# One-sided decay check: c(n) <= 4 e^(-n/2) (absorbed constants, Hilbert exponents).
DECAY_BOUND_CONSTANT = 4.0
DECAY_BOUND_RATE = 0.5
GAP_FLOOR = 1.0 / 3.0  # the certified lower end of the invariant gap at every degree


def build_grid(band_limit: int) -> SphereGrid:
    """Sampling grid of invariant_gap: the product rule of band_limit, oversampled twice."""
    return SphereGrid.build(band_limit, oversample=2)


# ---------------------------------------------------------------------------
# Matrix coefficient of the constant function at diag(e^n, 1, e^-n).
# ---------------------------------------------------------------------------


# Steps and cutoff of the trapezoid rule in matrix_coefficient: the integrand
# decays like e^(|n| - s), so the tail beyond s = |n| + 40 is below e^-40.
_TRAPEZOID_STEPS = 256
_TRAPEZOID_CUTOFF = 40.0
# Largest |n| that matrix_coefficient accepts (see its docstring).
_N_MAX = float(np.log(np.finfo(float).max) / 4.0)


def _trapezoid_sums(n: float) -> tuple[float, float]:
    """c(n) by the _TRAPEZOID_STEPS-step rule in s and by the half-step rule on its even nodes."""
    n = abs(n)
    if not n <= _N_MAX:  # NaN and inf fail too
        raise ValueError(f"n must be finite with |n| <= log(DBL_MAX) / 4 = {_N_MAX:.4f}")
    if n == 0:
        return 1.0, 1.0
    from scipy.special import hyp2f1  # imported on first use, so the CLI's import loads no scipy.special
    a = np.exp(-n)
    s, h = np.linspace(0.0, n + _TRAPEZOID_CUTOFF, _TRAPEZOID_STEPS + 1, retstep=True)
    cosh = np.cosh(s)
    stretch = 1.0 + (a * np.sinh(s)) ** 2
    c = (a * cosh) ** 2 / stretch
    d = np.exp(2.0 * n) - c
    integrand = 2.0 * c**-0.75 * hyp2f1(0.5, 0.75, 1.5, -d / c) * a * cosh / stretch
    integrand[0] *= 0.5
    return float(h * np.sum(integrand) / np.pi), float(2.0 * h * np.sum(integrand[::2]) / np.pi)


def matrix_coefficient(n: float, inner_nodes: int = 192) -> float:
    """c(n) = integral over the sphere of (e^-2n x1^2 + x2^2 + e^2n x3^2)^(-3/4).

    c is even in n (a permutation in K conjugates diag(e^-n, 1, e^n) to
    diag(e^n, 1, e^-n)), so it is evaluated at |n|.  |n| must not exceed
    _N_MAX = log(DBL_MAX) / 4 ~ 177.4457, where d / c = e^(4n) - 1 at s = 0
    overflows; a larger or non-finite n raises ValueError.  For fixed longitude
    phi the colatitude integral is 2 c^(-1/4) d^(-1/2) F(sqrt(d/c)) =
    2 c^(-3/4) 2F1(1/2, 3/4; 3/2; -d/c) (scipy.special.hyp2f1), with
    c = e^-2n cos^2 + sin^2, d = e^2n - c and F(z) = int_0^z (1+u^2)^(-3/4) du
    = z 2F1(1/2, 3/4; 3/2; -z^2).  The longitude integral is taken in s,
    tan(phi) = e^-n sinh(s), where c = e^-2n cosh^2 s / (1 + e^-2n sinh^2 s) and
    dphi = e^-n cosh s / (1 + e^-2n sinh^2 s) ds: the integrand is even and
    analytic in s and decays like e^(|n| - s), so the trapezoid rule on
    [0, |n| + _TRAPEZOID_CUTOFF] with _TRAPEZOID_STEPS steps (half weight at
    s = 0) converges geometrically.  inner_nodes is accepted and unused; it
    stays until the benchmark's coefficient jobs stop passing it.
    """
    return _trapezoid_sums(n)[0]


_LEAKAGE_FRACTION = 0.1  # largest relative quadrature defect coefficient_decay accepts


def coefficient_decay(n_max: int) -> tuple[np.ndarray, bool]:
    """(rows, held): rows (n, c_n, bound, quadrature_defect) for n = 0..n_max, and
    whether c(0) = <1, 1> = 1 exactly, c is positive, strictly decreasing and
    c(n) <= 4 e^(-n/2) for n >= 1.  c(0) is the closed form of _trapezoid_sums, so a
    fault that scales every c(n) up fails it even where the decay bound still holds.

    The integrand is evaluated once per degree.  The quadrature defect is the
    relative change of c(n) when the _TRAPEZOID_STEPS-step sum drops every other
    node (the half-step rule on the same values): an upper estimate of the rule's
    error, not a bound.  The run aborts if it exceeds _LEAKAGE_FRACTION.  n_max
    stops at 36, the range measured: there the defect reads at most 4.7e-8, and
    c(n) is within 3.9e-15 relative of both the 1024-step rule and an adaptive
    longitude rule over a 40-digit inner integral.
    """
    if not 0 <= n_max <= 36:
        raise ValueError("n_max must lie in [0, 36], the range where the quadrature was measured")
    rows = np.empty((n_max + 1, 4))
    for n in range(n_max + 1):
        fine, coarse = _trapezoid_sums(n)
        defect = abs(fine - coarse)
        if not defect <= _LEAKAGE_FRACTION * fine:  # NaN fails too
            raise NumericalDegeneracyError("coefficient_leakage", f"quadrature defect {defect} vs c({n}) = {fine}")
        rows[n] = (n, fine, DECAY_BOUND_CONSTANT * np.exp(-DECAY_BOUND_RATE * n), defect / fine)
    values = rows[:, 1]
    decays = np.all(values > 0) and np.all(np.diff(values) < 0) and np.all(values[1:] <= rows[1:, 2])
    held = values[0] == 1.0 and decays
    return rows, bool(held)


# ---------------------------------------------------------------------------
# Invariant gap for the two perpendicular circle subgroups.
# ---------------------------------------------------------------------------


def invariant_gap(degree: int):
    """Exact interval for the minimum over unit vectors of the summed invariant defects.

    The minimum of ||a - P a|| + ||a - Q a|| over the unit sphere of the
    degree-j harmonics, where P and Q average over the rotations about e1
    and e3.  Returns (lower, witness_defect, witness) with
    lower <= minimum <= witness_defect.

    Proof: each circle subgroup fixes exactly one line of the degree-j space,
    its zonal harmonic, so P and Q are rank one.  Q's range is u, the m = 0
    basis vector (a rotation about e3 only turns the order-m pairs, so Q is
    exactly the m = 0 mask).  P's range is w = R u for the quarter turn R
    about e2, which takes e3 to e1.  As u(x) = sqrt(2j+1) P_j(x3) in this
    basis's normalization, R u(x) = u(R^-1 x) = sqrt(2j+1) P_j(x1), the zonal
    harmonic about e1, and w is its grid projection onto the degree-j
    columns.  For unit a the angles from a to the two lines add up to at
    least the angle between them; sin is subadditive on [0, pi] and
    increasing on [0, pi/2], so the defect sum is at least sqrt(1 - c^2),
    c = <u, w> / ||w||, and a = u attains it.  The addition theorem gives
    c = P_j(0), so the closed form is sqrt(1 - P_j(0)^2).

    The allowance A = | ||w|| - 1 | + G covers the rounding of the computed w:
    R u is a unit vector, so ||w|| - 1 is rounding, and G is
    how far the grid's discrete inner product is from the exact one on the
    degree-j columns that form w (a diagonal block of the full Gram matrix's
    defect from the identity, so never larger).  As |P_j(0)| <= 1/2
    for j >= 1, c -> sqrt(1 - c^2) has slope at most 1/sqrt(3) there, so an
    error of A in c moves the gap by less than A.  lower = sqrt(1 - c^2) - A;
    the upper end is the measured defect ||u - c w / ||w|| || of the witness
    u, plus A.  The certified claim is lower >= 1/3.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    grid = build_grid(degree)
    block = grid.basis[:, degree * degree : (degree + 1) ** 2]
    zonal = np.sqrt(2 * degree + 1) * legendre_table(degree, grid.nodes[:, 0])[degree]
    w = block.T @ (grid.weights * zonal)
    norm = float(np.linalg.norm(w))
    c = w[0] / norm
    gram = (block * grid.weights[:, None]).T @ block
    allowance = abs(norm - 1.0) + float(np.abs(gram - np.eye(2 * degree + 1)).max())
    witness = np.zeros(2 * degree + 1)
    witness[0] = 1.0
    lower = float(np.sqrt(1.0 - c * c)) - allowance
    upper = float(np.linalg.norm(witness - c * w / norm)) + allowance
    return lower, upper, witness


def certified_gaps(j_max: int):
    """(gaps, held): invariant_gap(j) for j = 1..j_max, and whether every gap has
    GAP_FLOOR <= lower <= witness_defect and a witness of norm 1 within 1e-9; j_max >= 1,
    since an empty run certifies nothing."""
    if j_max < 1:
        raise ValueError("j_max must be >= 1")
    gaps = [invariant_gap(degree) for degree in range(1, j_max + 1)]
    held = all(GAP_FLOOR <= lo <= up and abs(np.linalg.norm(vec) - 1.0) < 1e-9 for lo, up, vec in gaps)
    return gaps, held
