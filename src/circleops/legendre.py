"""Legendre polynomial evaluation and the pointwise defect bounds built on it.

Everything downstream (operator norms, Schatten sums, quadrature eigenvalue
checks) reduces to values of P_n on [-1, 1], normalized by P_n(1) = 1, so the
evaluation here is deliberately plain: the forward three-term recurrence in
double precision, which is stable on the interval.  There is one recurrence
with two solvers, chosen by depth and width: a deep and narrow pass (more
than _BLOCK_VALUES rows, at most _BANDED_WIDTH abscissae) solves it as a
banded lower-triangular system, one compiled BLAS solve per abscissa, and
every other pass runs it row by row over all abscissae at once, in place in
the output rows.  The row loop keeps the plain expression's operations in
their order, so its bits are those of ((2n-1) x P_(n-1) - (n-1) P_(n-2)) / n.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy.linalg.blas import dtbsv

__all__ = [
    "legendre_table",
    "legendre_at_zero",
    "bernstein_envelope",
    "gauss_rule",
    "HOLDER_CONSTANT",
]

# |P_n(0) - P_n(d)| <= HOLDER_CONSTANT * sqrt(|d|) for all n and d in [-1, 1].
HOLDER_CONSTANT = 4.0

_ABSCISSA_SLACK = 1e-12
_BLOCK_VALUES = 2**16  # values in one block of a recurrence pass: keeps memory flat
# Most abscissae a deep pass solves as banded systems: a block holds 2^16 / width rows, so
# the solves per row grow like width^2 / 2^16; past about 200 abscissae the row loop is faster.
_BANDED_WIDTH = 192


def _clamp_abscissa(x):
    """Clip abscissae to [-1, 1], allowing <= 1e-12 of rounding overshoot; NaN is rejected."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.abs(x) <= 1.0 + _ABSCISSA_SLACK):
        raise ValueError(f"delta must lie in [-1, 1]: |delta| = {float(np.max(np.abs(x)))}")
    return np.clip(x, -1.0, 1.0)


def _clamp_delta(delta: float) -> float:
    """_clamp_abscissa of one delta, as a float."""
    return float(_clamp_abscissa(delta))


def _loop_rows(first: int, rows: np.ndarray, x: np.ndarray) -> None:
    """Fill rows[2:] with P_first, .. row by row from rows[:2] = P_(first-2), P_(first-1).

    Works in place, with no temporary per row: each row takes the five steps
    (2n-1) x, *= P_(n-1), -= (n-1) P_(n-2) (one scratch row), /= n.  These are
    the operations of ((2n-1) x P_(n-1) - (n-1) P_(n-2)) / n in their order, so
    the bits are those of the plain expression.
    """
    if first == 0:  # P_0 = 1; the recurrence runs from P_1
        rows[2] = 1.0
        first, rows = 1, rows[1:]
    scratch = np.empty_like(x)
    older, last = rows[:2]
    # the degrees as Python floats, which numpy takes by a faster scalar path than ints
    for n, row in zip(np.arange(first, first + len(rows) - 2, dtype=float).tolist(), rows[2:]):
        np.multiply(x, 2.0 * n - 1.0, out=row)
        row *= last
        row -= np.multiply(older, n - 1.0, out=scratch)
        row /= n
        older, last = last, row


def _banded_rows(first: int, rows: np.ndarray, x: np.ndarray) -> None:
    """Fill rows[2:] like _loop_rows by one banded triangular solve (BLAS dtbsv) per abscissa.

    Unknown k is P_j, j = first - 2 + k.  In LAPACK lower band storage its
    column holds the diagonal max(j, 1) and its coefficients -(2j+1) x and j+1
    in the recurrences for degrees j+1 and j+2; the right-hand side is e_0.
    The first two unknowns are unit rows holding the carried values, with no
    coupling between them, so every block size gives the same bits.
    """
    degrees = np.arange(first - 2, first + len(rows) - 2)
    band = np.empty((3, len(rows)), order="F")
    band[0] = np.maximum(degrees, 1)
    band[0, :2] = 1.0
    band[2] = degrees + 1
    coupling = -(2.0 * degrees + 1.0)
    coupling[0] = 0.0
    rows[2:] = 0.0
    if first == 0:
        rows[2] = 1.0  # P_0 = 1: the right-hand side e_0
    flat = rows.reshape(-1)
    for i, xi in enumerate(x.tolist()):
        np.multiply(coupling, xi, out=band[1])
        dtbsv(2, band, flat, incx=x.size, offx=i, lower=1, overwrite_x=1)


def _row_blocks(max_degree: int, x: np.ndarray, block_rows: int | None = None):
    """Yield P_n(x), n = 0..max_degree, for 1-D clamped x in consecutive blocks of rows.

    The package's one copy of the recurrence n P_n = (2n-1) x P_(n-1) - (n-1) P_(n-2),
    with two solvers chosen by depth and width: a pass of more than
    _BLOCK_VALUES rows over at most _BANDED_WIDTH abscissae is solved as a
    banded system per abscissa (_banded_rows), any other row by row, in place
    (_loop_rows, with the bits of the recurrence evaluated as written).  Neither
    solver's bits depend on the block size or on the other abscissae, but the
    two solvers round differently, so a column's bits can change when the
    width crosses _BANDED_WIDTH.  Each block continues from the last two rows
    of the one before.
    """
    if max_degree < 0:
        raise ValueError("degree must be nonnegative")
    block_rows = block_rows or max(1, _BLOCK_VALUES // max(x.size, 1))
    deep_and_narrow = max_degree + 1 > _BLOCK_VALUES and x.size <= _BANDED_WIDTH
    solve = _banded_rows if deep_and_narrow else _loop_rows
    # P_(-2), P_(-1): with P_(-1) = 0 the recurrence gives P_1 = x exactly
    carried = np.zeros((2, x.size))
    for start in range(0, max_degree + 1, block_rows):
        rows = np.empty((min(block_rows, max_degree + 1 - start) + 2, x.size))
        rows[:2] = carried
        solve(start, rows, x)
        carried = rows[-2:]
        yield rows[2:]


def _defect_blocks(max_degree: int, x):
    """Yield blocks of (P_n(x) - P_n(0), P_n(0)) from one pass with 0.0 as an extra abscissa."""
    xs = np.append(_clamp_abscissa(x), 0.0)
    for rows in _row_blocks(max_degree, xs):
        yield rows[:, :-1] - rows[:, -1:], rows[:, -1]


def legendre_table(max_degree: int, x) -> np.ndarray:
    """Table P_0(x) .. P_N(x) in one recurrence pass.

    Returns shape (N+1,) + x.shape: (N+1,) for scalar x, (N+1, len(x)) for a
    1-D x.  The table satisfies values[0] = 1, |values[n]| <= 1, and
    values[:, x=1] = 1.
    """
    xc = _clamp_abscissa(x)
    (table,) = _row_blocks(max_degree, xc.ravel(), max_degree + 1)
    return table.reshape((max_degree + 1,) + xc.shape)


def legendre_at_zero(max_degree: int) -> np.ndarray:
    """P_n(0) for n = 0..N: the table at x = 0.  Odd degrees are exactly zero."""
    return legendre_table(max_degree, 0.0)


@functools.lru_cache(maxsize=128)
def gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1] (numpy's leggauss), built once per n, read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


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
