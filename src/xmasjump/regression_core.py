"""Least-squares machinery behind the jump pipeline.

Everything here is a closed form or a small dense factorization over a
handful of points, so plain 64-bit floats with exactly-rounded sums
(``math.fsum``) are enough; results are bit-identical across runs and
platforms.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from operator import mul

from .errors import DegenerateDesign, DomainError, RankDeficient, TooFewRows
from .record import Record, set_field

N_PARAMETERS = 4
MIN_DESIGN_ROWS = 5
# Smallest admissible |R_jj| on unit-norm columns: the square root of a
# 1e-12 relative pivot bound on X'X.
RANK_TOLERANCE = 1e-6


class LineFit(Record):
    """A fitted line ``rate = slope * offset + intercept``."""

    __slots__ = ("slope", "intercept")

    def __init__(self, slope: float, intercept: float):
        set_field(self, "slope", slope)
        set_field(self, "intercept", intercept)


def fit_simple_ols(xs: Sequence[float], ys: Sequence[float]) -> LineFit:
    """Ordinary least squares for a line through ``(xs, ys)``.

    Closed form: slope = Sxy / Sxx, intercept = mean(y) - slope * mean(x),
    with sums about the means.
    """
    n = len(xs)
    if n != len(ys):
        raise DomainError("xs and ys differ in length")
    if n < 2:
        raise DomainError("need at least two points to fit a line")
    x_mean = math.fsum(xs) / n
    y_mean = math.fsum(ys) / n
    sxx = math.fsum((x - x_mean) ** 2 for x in xs)
    if sxx == 0.0:
        raise DegenerateDesign("all x values are identical")
    sxy = math.fsum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
    slope = sxy / sxx
    return LineFit(slope, y_mean - slope * x_mean)


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
    return math.fsum(y - slope * x for x, y in zip(xs, ys)) / n


def bilinear_surface(coefficients: Sequence[float], a: float, b: float) -> float:
    """The jump surface ``c0 + c1*a + c2*b + c3*a*b`` at slope ``a``, intercept ``b``."""
    c0, c1, c2, c3 = coefficients
    return c0 + c1 * a + c2 * b + c3 * a * b


def fit_bilinear(trends: Sequence[tuple[float, float]], targets: Sequence[float]) -> tuple:
    """Least-squares fit of targets ~ ``[1, a, b, a*b]`` over (a, b) trends.

    Returns ``(coefficients, rss, variance_factors)``, the last being
    diag((X'X)^-1). One Householder QR of those design rows with every
    column scaled to unit norm first; the regressor columns carry very
    different magnitudes (1 vs. a small slope), which the scaling
    neutralizes. Beta comes from back-substitution on R, and diag((X'X)^-1)
    from the squared row norms of R^-1 divided by the squared column
    scales. Raises RankDeficient when a column is all zero or a diagonal
    entry of R falls below RANK_TOLERANCE.
    """
    m = len(trends)
    if m != len(targets):
        raise DomainError("trends and targets differ in length")
    if m < MIN_DESIGN_ROWS:
        raise TooFewRows(f"{m} design rows; need at least {MIN_DESIGN_ROWS}")
    rows = [(1.0, a, b, a * b) for a, b in trends]
    scales = [math.sqrt(math.fsum([x ** 2 for x in column])) for column in zip(*rows)]
    if 0.0 in scales:
        raise RankDeficient(f"design column {scales.index(0.0)} is all zero")
    # Columns of the scaled design, then the targets; reduced in place to
    # R (upper triangle) and Q'y.
    columns = [[x / scale for x in column] for column, scale in zip(zip(*rows), scales)]
    columns.append(list(targets))
    for j in range(N_PARAMETERS):
        pivot = columns[j]
        v = pivot[j:]
        norm = math.sqrt(math.fsum(map(mul, v, v)))
        if norm < RANK_TOLERANCE:
            raise RankDeficient("design matrix is numerically rank-deficient")
        diagonal = -math.copysign(norm, pivot[j])
        # Reflector v = pivot[j:] - diagonal * e_1, with v'v / 2 = 1 / tau.
        v[0] -= diagonal
        tau = 1.0 / (norm * (norm + abs(pivot[j])))
        for column in columns[j + 1 :]:
            tail = column[j:]
            factor = tau * math.fsum(map(mul, v, tail))
            column[j:] = [c - factor * vi for c, vi in zip(tail, v)]
        pivot[j] = diagonal
    r = list(zip(*columns[:N_PARAMETERS]))[:N_PARAMETERS]
    z = _back_substitute(r, columns[N_PARAMETERS][:N_PARAMETERS])
    beta = tuple(z[j] / scales[j] for j in range(N_PARAMETERS))
    rss = math.fsum([(math.fsum(map(mul, beta, row)) - t) ** 2 for row, t in zip(rows, targets)])
    # Column k of R^-1 solves R x = e_k; the row norms run across them.
    r_inverse_columns = [
        _back_substitute(r, [float(i == k) for i in range(N_PARAMETERS)])
        for k in range(N_PARAMETERS)
    ]
    variance_factors = tuple(
        math.fsum([x ** 2 for x in row]) / scale ** 2
        for row, scale in zip(zip(*r_inverse_columns), scales)
    )
    return beta, rss, variance_factors


def _back_substitute(r: Sequence[Sequence[float]], rhs: list[float]) -> list[float]:
    """Solve ``R x = rhs`` for upper-triangular ``R``."""
    n = len(rhs)
    x = [0.0] * n
    for i in range(n - 1, -1, -1):
        tail = math.fsum(map(mul, r[i][i + 1 :], x[i + 1 :]))
        x[i] = (rhs[i] - tail) / r[i][i]
    return x
