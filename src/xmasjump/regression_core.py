"""Least-squares machinery behind the jump pipeline.

Everything here is a closed form or a small dense factorization over a
handful of points, so plain 64-bit floats with exactly-rounded sums
(``math.fsum``) are enough; results are bit-identical across runs and
platforms. Every sum in the package is ``_fsum``'s, so input whose sums
or squares pass the largest float is a DomainError, not an OverflowError;
so is a year whose slope times intercept passes it in ``design_row``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

from .errors import DegenerateDesign, DomainError, RankDeficient, TooFewRows

N_PARAMETERS = 4
MIN_DESIGN_ROWS = 5
# Smallest admissible |R_jj| over the norm of R's column j, which in exact
# arithmetic is the pivot of the design with every column scaled to unit
# norm: the square root of a 1e-12 relative pivot bound on X'X.
RANK_TOLERANCE = 1e-6


def _fsum(values: Iterable[float]) -> float:
    """``math.fsum(values)``; a sum or a term past the largest float, or a
    sum of both infinities, is a DomainError."""
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):  # ValueError: -inf + inf
        raise DomainError("values too large: a sum overflows the float range") from None


def fit_simple_ols(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """Ordinary least squares for a line through ``(xs, ys)``: the
    ``(slope, intercept)`` of ``rate = slope * offset + intercept``.

    Closed form: slope = Sxy / Sxx, intercept = mean(y) - slope * mean(x),
    with sums about the means.
    """
    n = len(xs)
    if n != len(ys):
        raise DomainError("xs and ys differ in length")
    if n < 2:
        raise DomainError("need at least two points to fit a line")
    x_mean = _fsum(xs) / n
    y_mean = _fsum(ys) / n
    sxx = _fsum((x - x_mean) ** 2 for x in xs)
    if sxx == 0.0:
        raise DegenerateDesign("all x values are identical")
    sxy = _fsum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
    slope = sxy / sxx
    return slope, y_mean - slope * x_mean


def fit_intercept_fixed_slope(
    xs: Sequence[float], ys: Sequence[float], slope: float
) -> float:
    """The least-squares intercept of a line whose slope is held fixed.

    Equals the mean of ``y - slope * x``, which minimizes
    ``sum((slope * x + b - y)^2)`` over ``b``.
    """
    n = len(xs)
    if n != len(ys):
        raise DomainError("xs and ys differ in length")
    if n == 0:
        raise DomainError("need at least one point")
    return _fsum(y - slope * x for x, y in zip(xs, ys)) / n


def bilinear_surface(coefficients: Sequence[float], a: float, b: float) -> float:
    """The jump surface ``c0 + c1*a + c2*b + c3*a*b`` at slope ``a``, intercept ``b``."""
    c0, c1, c2, c3 = coefficients
    return c0 + c1 * a + c2 * b + c3 * a * b


# --- the Givens kernel behind every bilinear fit -----------------------------
# A triangle is the upper-trapezoidal [R | Q'y] of some augmented design rows
# (1, a, b, a*b, y): N_PARAMETERS lists of N_PARAMETERS + 1 floats, with
# zeros below the diagonal. Its rows are only ever rotated, never downdated,
# so a triangle depends on nothing but the rows folded into it and their
# order, and ``window_fits`` is the only code that fixes that order. The fifth
# diagonal (the residual norm) is not kept: ``_finish`` takes the RSS from
# the residuals themselves.


def design_row(a: float, b: float, target: float) -> tuple:
    """The augmented design row ``(1, a, b, a*b, target)``; an ``a*b`` past
    the largest float is a DomainError, not an infinity the fit turns into NaN."""
    product = a * b
    if math.isinf(product):
        raise DomainError("values too large: slope times intercept overflows the float range")
    return (1.0, a, b, product, target)


def _folded(rows, onto: list | None = None) -> list:
    """A new triangle: ``rows`` folded, in the order given, into a copy of
    ``onto``, or into zeros."""
    if onto is None:
        triangle = [[0.0] * (N_PARAMETERS + 1) for _ in range(N_PARAMETERS)]
    else:
        triangle = [r[:] for r in onto]
    for row in rows:
        _fold_row(triangle, row)
    return triangle


def _fold_row(triangle: list, row: Sequence[float]) -> None:
    """Rotate one augmented row into ``triangle``, in place; ``row`` is
    left as it is.

    One Givens rotation per nonzero entry among the row's first
    N_PARAMETERS, its radius from ``math.hypot``, so every diagonal of R
    stays >= 0. An entry that is already zero needs no rotation, so a row of
    another triangle folds in without rotating its leading zeros.

    Written out for the 4 x 5 triangle, as ``_finish`` reads it, with the
    row unpacked rather than copied: rotation i takes ``c = r_ii / radius``
    and ``s = x_i / radius``, then for each later column j, with ``r_ij``
    and ``x_j`` as they were before it, sets ``r_ij = c*r_ij + s*x_j`` and
    then ``x_j = c*x_j - s*r_ij``. These are the operations, in the order,
    of one loop over i and j, so every triangle is the same to the bit.
    """
    r0, r1, r2, r3 = triangle
    x0, x1, x2, x3, x4 = row
    if x0 != 0.0:
        d, a1, a2, a3, a4 = r0
        radius = math.hypot(d, x0)
        c = d / radius
        s = x0 / radius
        r0[0] = radius
        r0[1], x1 = c * a1 + s * x1, c * x1 - s * a1
        r0[2], x2 = c * a2 + s * x2, c * x2 - s * a2
        r0[3], x3 = c * a3 + s * x3, c * x3 - s * a3
        r0[4], x4 = c * a4 + s * x4, c * x4 - s * a4
    if x1 != 0.0:
        _, d, a2, a3, a4 = r1
        radius = math.hypot(d, x1)
        c = d / radius
        s = x1 / radius
        r1[1] = radius
        r1[2], x2 = c * a2 + s * x2, c * x2 - s * a2
        r1[3], x3 = c * a3 + s * x3, c * x3 - s * a3
        r1[4], x4 = c * a4 + s * x4, c * x4 - s * a4
    if x2 != 0.0:
        _, _, d, a3, a4 = r2
        radius = math.hypot(d, x2)
        c = d / radius
        s = x2 / radius
        r2[2] = radius
        r2[3], x3 = c * a3 + s * x3, c * x3 - s * a3
        r2[4], x4 = c * a4 + s * x4, c * x4 - s * a4
    if x3 != 0.0:
        _, _, _, d, a4 = r3
        radius = math.hypot(d, x3)
        c = d / radius
        s = x3 / radius
        r3[3] = radius
        r3[4] = c * a4 + s * x4  # x4's own update, the residual, is not kept


def _finish(triangle: list, rows: Sequence[Sequence[float]]) -> tuple:
    """``(coefficients, rss, variance_factors)`` from the triangle of
    ``rows``, the augmented rows it was folded from.

    Raises RankDeficient when a column of R is all zero, or when
    |R_jj| / ||R e_j|| falls below RANK_TOLERANCE. Beta comes by
    back-substitution on R, the RSS as the ``fsum`` of the squared
    residuals of that beta, and diag((X'X)^-1) as the squared row norms of
    an explicit R^-1.
    """
    norms = list(map(math.hypot, *triangle))[:N_PARAMETERS]
    if 0.0 in norms:
        raise RankDeficient(f"design column {norms.index(0.0)} is all zero")
    for j, (r, norm) in enumerate(zip(triangle, norms)):
        if abs(r[j]) / norm < RANK_TOLERANCE:
            raise RankDeficient("design matrix is numerically rank-deficient")
    (r00, r01, r02, r03, z0), (_, r11, r12, r13, z1), (_, _, r22, r23, z2), (_, _, _, r33, z3) = (
        triangle
    )
    b3 = z3 / r33
    b2 = (z2 - r23 * b3) / r22
    b1 = (z1 - r12 * b2 - r13 * b3) / r11
    b0 = (z0 - r01 * b1 - r02 * b2 - r03 * b3) / r00
    rss = _fsum((b0 + b1 * a + b2 * b + b3 * ab - y) ** 2 for _, a, b, ab, y in rows)
    # R^-1 = U, upper triangular, one superdiagonal after another.
    u00, u11, u22, u33 = 1.0 / r00, 1.0 / r11, 1.0 / r22, 1.0 / r33
    u01, u12, u23 = -u00 * r01 * u11, -u11 * r12 * u22, -u22 * r23 * u33
    u02, u13 = -(u00 * r02 + u01 * r12) * u22, -(u11 * r13 + u12 * r23) * u33
    u03 = -(u00 * r03 + u01 * r13 + u02 * r23) * u33
    # Squared row norms of U; fsum only where three or more terms meet, as a
    # float sum of two is already exactly rounded.
    variance_factors = (
        _fsum((u00 * u00, u01 * u01, u02 * u02, u03 * u03)),
        _fsum((u11 * u11, u12 * u12, u13 * u13)),
        u22 * u22 + u23 * u23,
        u33 * u33,
    )
    return (b0, b1, b2, b3), rss, variance_factors


def window_fits(rows: Sequence[Sequence[float]], window_len: int, first: int = 0):
    """Yield ``(coefficients, rss, variance_factors)`` for each window of
    ``window_len`` consecutive augmented ``rows``, oldest window first.

    Row i is numbered ``first + i``, and the numbers are cut into blocks of
    ``window_len`` that start at multiples of ``window_len``. A window is
    then the tail of one block, folded newest-first, followed by the head of
    the next, folded oldest-first; the head's rows are folded into a copy of
    the tail's triangle before ``_finish``. The walk keeps one triangle per
    tail of the current block, made when it enters the block, and one head
    triangle that takes each new row as it comes, so a window costs about
    six row folds rather than ``window_len``. A window's fit depends only on
    its rows and on its first number modulo ``window_len``.

    Raises TooFewRows when ``window_len`` is below MIN_DESIGN_ROWS, and
    RankDeficient when ``_finish`` finds a window's design rank-deficient.
    """
    if window_len < MIN_DESIGN_ROWS:
        raise TooFewRows(f"{window_len} design rows; need at least {MIN_DESIGN_ROWS}")
    boundary = None  # index of the first row of the head's block
    for start in range(len(rows) - window_len + 1):
        end = start + window_len
        split = -(first + start) % window_len  # rows in the tail
        if start + split != boundary:
            boundary = start + split
            tails = [None]  # tails[k]: the block's last k rows, newest first
            for row in reversed(rows[start:boundary]):
                tails.append(_folded((row,), tails[-1]))
            head = _folded(rows[boundary:end])
        else:
            _fold_row(head, rows[end - 1])
        yield _finish(_folded(head, tails[split]) if split else head, rows[start:end])

