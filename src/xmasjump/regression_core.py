"""Least-squares machinery behind the jump pipeline.

Everything here is a closed form or a small dense factorization over a
handful of points, so plain 64-bit floats with exactly-rounded sums
(``math.fsum``) are enough; results are bit-identical across runs and
platforms.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .errors import DegenerateDesign, DomainError, RankDeficient, TooFewRows
from .record import Record, set_field

N_PARAMETERS = 4
MIN_DESIGN_ROWS = 5
# Smallest admissible |R_jj| on unit-norm columns: the square root of a
# 1e-12 relative pivot bound on X'X.
RANK_TOLERANCE = 1e-6


class LineFit(Record):
    """A fitted line ``rate = slope * offset + intercept``."""

    __slots__ = ("slope", "intercept", "residual_sum_squares", "n")

    def __init__(self, slope: float, intercept: float, residual_sum_squares: float, n: int):
        set_field(self, "slope", slope)
        set_field(self, "intercept", intercept)
        set_field(self, "residual_sum_squares", residual_sum_squares)
        set_field(self, "n", n)


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
    intercept = y_mean - slope * x_mean
    rss = math.fsum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    return LineFit(slope, intercept, rss, n)


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


class DesignMatrix(Record):
    """Regressor rows ``[1, a, b, a*b]`` with one jump target per row."""

    __slots__ = ("rows", "targets")

    def __init__(self, rows: Sequence[tuple[float, ...]], targets: Sequence[float]):
        rows = tuple(tuple(float(v) for v in row) for row in rows)
        targets = tuple(float(t) for t in targets)
        if len(rows) != len(targets):
            raise DomainError("rows and targets differ in length")
        for row in rows:
            if len(row) != N_PARAMETERS:
                raise DomainError(
                    f"each design row must have exactly {N_PARAMETERS} entries"
                )
            if row[0] != 1.0:
                raise DomainError("the first entry of each design row must be 1")
        set_field(self, "rows", rows)
        set_field(self, "targets", targets)

    @classmethod
    def from_trends(cls, trends: Sequence[tuple[float, float]], targets: Sequence[float]):
        """Rows ``[1, a, b, a*b]`` built from (slope, intercept) pairs."""
        rows = tuple((1.0, a, b, a * b) for a, b in trends)
        return cls(rows, tuple(targets))


class BilinearFit(Record):
    """Least-squares coefficients for targets ~ ``[1, a, b, a*b]``.

    ``variance_factors`` is diag((X'X)^-1): each coefficient's variance is
    the residual variance times its factor.
    """

    __slots__ = ("coefficients", "residual_sum_squares", "variance_factors")

    def __init__(self, coefficients: tuple[float, ...], residual_sum_squares: float,
                 variance_factors: tuple[float, ...]):
        set_field(self, "coefficients", coefficients)
        set_field(self, "residual_sum_squares", residual_sum_squares)
        set_field(self, "variance_factors", variance_factors)


def fit_bilinear(design: DesignMatrix) -> BilinearFit:
    """Least-squares coefficients of the four-term bilinear surface.

    One Householder QR of the design with every column scaled to unit norm
    first; the regressor columns carry very different magnitudes (1 vs. a
    small slope), which the scaling neutralizes. Beta comes from
    back-substitution on R, and diag((X'X)^-1) from the squared row norms
    of R^-1 divided by the squared column scales. Raises RankDeficient when
    a column is all zero or a diagonal entry of R falls below
    RANK_TOLERANCE.
    """
    rows = design.rows
    m = len(rows)
    if m < MIN_DESIGN_ROWS:
        raise TooFewRows(f"{m} design rows; need at least {MIN_DESIGN_ROWS}")
    scales = [math.sqrt(math.fsum(row[j] ** 2 for row in rows)) for j in range(N_PARAMETERS)]
    if 0.0 in scales:
        raise RankDeficient(f"design column {scales.index(0.0)} is all zero")
    # Columns of the scaled design, then the targets; reduced in place to
    # R (upper triangle) and Q'y.
    columns = [[row[j] / scales[j] for row in rows] for j in range(N_PARAMETERS)]
    columns.append(list(design.targets))
    for j in range(N_PARAMETERS):
        pivot = columns[j]
        norm = math.sqrt(math.fsum(v * v for v in pivot[j:]))
        if norm < RANK_TOLERANCE:
            raise RankDeficient("design matrix is numerically rank-deficient")
        diagonal = -math.copysign(norm, pivot[j])
        # Reflector v = pivot[j:] - diagonal * e_1, with v'v / 2 = 1 / tau.
        v = pivot[j:]
        v[0] -= diagonal
        tau = 1.0 / (norm * (norm + abs(pivot[j])))
        for column in columns[j + 1 :]:
            factor = tau * math.fsum(vi * ci for vi, ci in zip(v, column[j:]))
            for i, vi in enumerate(v, start=j):
                column[i] -= factor * vi
        pivot[j] = diagonal
    r = [[columns[c][i] for c in range(N_PARAMETERS)] for i in range(N_PARAMETERS)]
    z = _back_substitute(r, columns[N_PARAMETERS][:N_PARAMETERS])
    beta = tuple(z[j] / scales[j] for j in range(N_PARAMETERS))
    rss = math.fsum(
        (math.fsum(c * v for c, v in zip(beta, row)) - t) ** 2
        for row, t in zip(rows, design.targets)
    )
    # Column k of R^-1 solves R x = e_k; the row norms run across them.
    r_inverse_columns = [
        _back_substitute(r, [float(i == k) for i in range(N_PARAMETERS)])
        for k in range(N_PARAMETERS)
    ]
    variance_factors = tuple(
        math.fsum(col[i] ** 2 for col in r_inverse_columns) / scales[i] ** 2
        for i in range(N_PARAMETERS)
    )
    return BilinearFit(beta, rss, variance_factors)


def _back_substitute(r: list[list[float]], rhs: list[float]) -> list[float]:
    """Solve ``R x = rhs`` for upper-triangular ``R``."""
    n = len(rhs)
    x = [0.0] * n
    for i in range(n - 1, -1, -1):
        tail = math.fsum(r[i][j] * x[j] for j in range(i + 1, n))
        x[i] = (rhs[i] - tail) / r[i][i]
    return x
