"""Inference statistics for the bilinear jump model.

Self-contained Student-t machinery: two-sided p-values come from the
regularized incomplete beta function, evaluated with a modified-Lentz
continued fraction. No external numerics libraries.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .errors import DegenerateVariance, DomainError, TooFewRows
from .record import Record, set_field
from .regression_core import N_PARAMETERS, _fsum

_LENTZ_EPS = 1e-14
_LENTZ_TINY = 1e-300
_LENTZ_MAX_ITER = 300
# Above this h, lgamma(h + 1/2) - lgamma(h) comes from its asymptotic series:
# the two lgamma values cancel to about 1e-8 relative at h near 5e7. At
# h = 500 the first omitted series term is below 1e-24. Student-t with
# df <= 1000 (h = df/2) keeps the lgamma difference.
_HALF_STEP_SERIES_MIN = 500.0
_LGAMMA_HALF = math.lgamma(0.5)
# Above _HALF_STEP_SERIES_MIN, Student-t p-values with t^2 below this bound
# evaluate the continued fraction for I_y(1/2, df/2) directly, even past
# its usual switch point near t^2 = 3: the flipped fraction, evaluated
# near x = 1 with a = df/2 large, cancels in every other step.
_DIRECT_T2_MAX = 16.0


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b), the regularized incomplete beta function.

    Continued-fraction evaluation (modified Lentz, 1e-14 convergence
    threshold, 300-term cap); the symmetry I_x(a,b) = 1 - I_{1-x}(b,a)
    keeps the fraction in its fast-converging region. Absolute error is
    well below 1e-12 for moderate (a, b).
    """
    if not (a > 0.0 and b > 0.0):
        raise DomainError("a and b must be positive")
    if not 0.0 <= x <= 1.0:
        raise DomainError("x must lie in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    if x < (a + 1.0) / (a + b + 2.0):
        return _lower_fraction(a, b, x)
    return 1.0 - _beta_front(a, b, x) * _beta_continued_fraction(b, a, 1.0 - x) / b


def _beta_front(a: float, b: float, x: float) -> float:
    """x^a (1 - x)^b / B(a, b), for 0 < x < 1."""
    return math.exp(_log_inverse_beta(a, b) + a * math.log(x) + b * math.log1p(-x))


def _lower_fraction(a: float, b: float, x: float) -> float:
    """I_x(a, b) from the continued fraction at x itself, for 0 < x < 1."""
    return _beta_front(a, b, x) * _beta_continued_fraction(a, b, x) / a


def _log_inverse_beta(a: float, b: float) -> float:
    """-ln B(a, b) = lgamma(a + b) - lgamma(a) - lgamma(b).

    When one argument is 1/2 and the other, h, exceeds
    ``_HALF_STEP_SERIES_MIN``, lgamma(h + 1/2) - lgamma(h) is summed from
    its asymptotic expansion in 1/h (the Bernoulli-polynomial form of
    Stirling's series) instead of as a difference of two large numbers.
    """
    h = max(a, b)
    if min(a, b) == 0.5 and h > _HALF_STEP_SERIES_MIN:
        # 1/2 ln h - 1/(8h) + 1/(192h^3) - 1/(640h^5) + 17/(14336h^7)
        r = 1.0 / (h * h)
        series = r * (1.0 / 192.0 - r * (1.0 / 640.0 - r * 17.0 / 14336.0))
        return 0.5 * math.log(h) + (series - 1.0 / 8.0) / h - _LGAMMA_HALF
    return math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _LENTZ_TINY:
        d = _LENTZ_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _LENTZ_MAX_ITER + 1):
        m2 = 2 * m
        numerator = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + numerator * d
        if abs(d) < _LENTZ_TINY:
            d = _LENTZ_TINY
        c = 1.0 + numerator / c
        if abs(c) < _LENTZ_TINY:
            c = _LENTZ_TINY
        d = 1.0 / d
        h *= d * c
        numerator = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + numerator * d
        if abs(d) < _LENTZ_TINY:
            d = _LENTZ_TINY
        c = 1.0 + numerator / c
        if abs(c) < _LENTZ_TINY:
            c = _LENTZ_TINY
        d = 1.0 / d
        step = d * c
        h *= step
        if abs(step - 1.0) < _LENTZ_EPS:
            break
    return h


def student_t_two_sided_p(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's t with ``df`` degrees of freedom.

    Computed as I_x(df/2, 1/2) at x = df / (df + t^2). When t^2 < df it is
    evaluated as the complement 1 - I_y(1/2, df/2) at y = t^2 / (df + t^2)
    instead: at large df, x rounds to 1 and the p-value would come out as
    exactly 1. For df > 1000 and 0 < t^2 < 16, I_y comes from the
    continued fraction at y itself (see ``_DIRECT_T2_MAX``). An infinite t
    gives x = 0, so p = 0.
    """
    if df < 1:
        raise DomainError("degrees of freedom must be at least 1")
    if math.isnan(t):
        raise DomainError("t statistic is NaN")
    t2 = t * t
    h = df / 2.0
    if h > _HALF_STEP_SERIES_MIN and 0.0 < t2 < _DIRECT_T2_MAX:
        return 1.0 - _lower_fraction(0.5, h, t2 / (df + t2))
    if t2 < df:
        return 1.0 - regularized_incomplete_beta(0.5, h, t2 / (df + t2))
    return regularized_incomplete_beta(h, 0.5, df / (df + t2))


class CoefficientInference(Record):
    """One coefficient with its standard error, t statistic and p-value.

    A perfect fit has zero residual variance; the standard error then
    degenerates to 0 with an infinite t statistic and a zero p-value.
    """

    __slots__ = ("estimate", "standard_error", "t_statistic", "p_value")

    def __init__(self, estimate: float, standard_error: float, t_statistic: float,
                 p_value: float):
        if standard_error < 0.0:
            raise DomainError("standard error cannot be negative")
        if not 0.0 <= p_value <= 1.0:
            raise DomainError("p-value must lie in [0, 1]")
        if standard_error > 0.0:
            implied = estimate / standard_error
            if abs(t_statistic - implied) > 1e-12 * max(1.0, abs(implied)):
                raise DomainError("t statistic inconsistent with estimate / se")
        set_field(self, "estimate", estimate)
        set_field(self, "standard_error", standard_error)
        set_field(self, "t_statistic", t_statistic)
        set_field(self, "p_value", p_value)


def inference_for_fit(targets: Sequence[float], fit: tuple) -> tuple:
    """``(inference, adjusted_r2)`` of a bilinear fit for ``targets``: the
    fit of one ``window_fits`` window over their rows.

    ``inference`` holds one CoefficientInference per coefficient.
    s^2 = rss / (n - 4); standard errors are sqrt(s^2 * diag((X'X)^-1)),
    the diagonal read from the fit's variance factors; p-values are
    two-sided Student-t with n - 4 degrees of freedom; adjusted R^2
    applies the (n - 1)/(n - 4) correction to 1 - rss/TSS,
    TSS taken about the target mean.
    """
    n = len(targets)
    if n <= N_PARAMETERS:
        raise TooFewRows(
            f"{n} rows cannot support inference on {N_PARAMETERS} parameters"
        )
    df = n - N_PARAMETERS
    target_mean = _fsum(targets) / n
    tss = _fsum((t - target_mean) ** 2 for t in targets)
    if tss == 0.0:
        raise DegenerateVariance("targets have zero variance")
    estimates, rss, variance_factors = fit
    s2 = rss / df
    coefficients = []
    for estimate, factor in zip(estimates, variance_factors):
        se = math.sqrt(s2 * factor)
        if se > 0.0:
            t_stat = estimate / se
        elif estimate > 0.0:
            t_stat = math.inf
        elif estimate < 0.0:
            t_stat = -math.inf
        else:
            t_stat = 0.0
        p = student_t_two_sided_p(t_stat, df)
        coefficients.append(CoefficientInference(estimate, se, t_stat, p))
    r2 = 1.0 - rss / tss
    adjusted = 1.0 - (1.0 - r2) * (n - 1) / (n - N_PARAMETERS)
    return tuple(coefficients), adjusted

