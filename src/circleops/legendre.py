"""Legendre polynomial evaluation and the pointwise defect bounds built on it.

Everything downstream (operator norms, Schatten sums, quadrature eigenvalue
checks) reduces to values of P_n on [-1, 1], normalized by P_n(1) = 1, so the
evaluation here is deliberately plain: the forward three-term recurrence in
double precision, which is stable on the interval.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "legendre_eval",
    "legendre_table",
    "legendre_at_zero",
    "legendre_defect",
    "holder_defect",
    "bernstein_envelope",
    "HOLDER_CONSTANT",
]

# |P_n(0) - P_n(d)| <= HOLDER_CONSTANT * sqrt(|d|) for all n and d in [-1, 1].
HOLDER_CONSTANT = 4.0

_ABSCISSA_SLACK = 1e-12
_BLOCK_VALUES = 2**16  # values in one block of a deep recurrence pass: keeps memory flat


def _clamp_abscissa(x):
    """Clip abscissae to [-1, 1], allowing <= 1e-12 of rounding overshoot."""
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > 1.0 + _ABSCISSA_SLACK):
        bad = float(np.max(np.abs(x)))
        raise ValueError(f"abscissa out of [-1, 1]: |x| = {bad}")
    return np.clip(x, -1.0, 1.0)


def _row_blocks(max_degree: int, x: np.ndarray, block_rows: int | None = None):
    """Yield P_n(x), n = 0..max_degree, for 1-D clamped x in consecutive blocks of rows.

    The package's one copy of the recurrence n P_n = (2n-1) x P_(n-1) - (n-1) P_(n-2);
    each block continues from the last two rows of the one before.
    """
    if max_degree < 0:
        raise ValueError("degree must be nonnegative")
    block_rows = block_rows or max(1, _BLOCK_VALUES // max(x.size, 1))
    older = last = 0.0  # P_(-2), P_(-1): with P_(-1) = 0 the recurrence gives P_1 = x exactly
    for start in range(0, max_degree + 1, block_rows):
        block = np.empty((min(block_rows, max_degree + 1 - start), x.size))
        for n, row in enumerate(block, start):
            row[:] = ((2 * n - 1) * x * last - (n - 1) * older) / n if n else 1.0
            older, last = last, row
        yield block


def _defect_blocks(max_degree: int, x, block_rows: int | None = None):
    """Yield blocks of (P_n(x) - P_n(0), P_n(0)) from one pass with 0.0 as an extra abscissa."""
    xs = np.append(_clamp_abscissa(x), 0.0)
    for rows in _row_blocks(max_degree, xs, block_rows):
        yield rows[:, :-1] - rows[:, -1:], rows[:, -1]


def legendre_eval(n: int, x) -> float | np.ndarray:
    """Evaluate P_n(x) by the three-term recurrence, P_n(1) = 1 normalization.

    Accepts a scalar or array abscissa in [-1, 1] (values beyond by at most
    1e-12 are clamped).
    """
    xc = _clamp_abscissa(x)
    for block in _row_blocks(n, xc.ravel()):
        pass
    return float(block[-1, 0]) if xc.ndim == 0 else block[-1].reshape(xc.shape)


def legendre_table(max_degree: int, x) -> np.ndarray:
    """Table P_0(x) .. P_N(x) in one recurrence pass.

    Returns shape (N+1,) for scalar x, (N+1, len(x)) for array x.  The table
    satisfies values[0] = 1, |values[n]| <= 1, and values[:, x=1] = 1.
    """
    xc = _clamp_abscissa(x)
    (table,) = _row_blocks(max_degree, np.atleast_1d(xc), max_degree + 1)
    return table[:, 0] if xc.ndim == 0 else table


def legendre_at_zero(max_degree: int) -> np.ndarray:
    """P_n(0) for n = 0..N: the table at x = 0.  Odd degrees are exactly zero."""
    return legendre_table(max_degree, 0.0)


def legendre_defect(max_degree: int, x) -> np.ndarray:
    """P_n(x) - P_n(0) for n = 0..N, shaped like legendre_table's output; one pass."""
    ((defects, _),) = _defect_blocks(max_degree, x, max_degree + 1)
    return defects[:, 0] if np.ndim(x) == 0 else defects


def holder_defect(n: int, delta: float) -> float:
    """|P_n(0) - P_n(delta)|, guaranteed <= 4 * sqrt(|delta|)."""
    return abs(float(legendre_defect(n, delta)[n]))


def bernstein_envelope(n: int, x) -> float | np.ndarray:
    """Bernstein's bound sqrt(2 / (pi n sin theta)) on |P_n(cos theta)|, n >= 1.

    Used as the truncation-tail oracle; infinite at the endpoints x = +-1.
    """
    if n < 1:
        raise ValueError("envelope defined for n >= 1")
    xc = _clamp_abscissa(x)
    sin_theta = np.sqrt(np.maximum(0.0, 1.0 - xc * xc))
    with np.errstate(divide="ignore"):
        env = np.sqrt(2.0 / (np.pi * n * sin_theta))
    return float(env) if np.ndim(env) == 0 else env
