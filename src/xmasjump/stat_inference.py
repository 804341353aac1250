"""Inference statistics for the bilinear jump model.

Self-contained Student-t machinery: two-sided p-values come from the
regularized incomplete beta function, evaluated with a modified-Lentz
continued fraction. No external numerics libraries.
"""

import math
import sys
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
# The largest relative error that ``regularized_incomplete_beta`` lets
# rounding give its front factor, as ``_log_inverse_beta`` estimates it.
_FRONT_ERROR_MAX = 1e-10


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b), the regularized incomplete beta function.

    Continued-fraction evaluation (modified Lentz, 1e-14 convergence
    threshold, 300-term cap); the symmetry I_x(a,b) = 1 - I_{1-x}(b,a)
    keeps the fraction in its fast-converging region. An (a, b) so large
    that lgamma overflows is a DomainError.

    The fraction is scaled by the front factor x^a (1 - x)^b / B(a, b), the
    exp of a sum that holds lgamma(a + b), lgamma(a) and lgamma(b), which
    cancel. The sum's rounding error is of the order of 2^-52 times the
    sum of their magnitudes, and the front carries it as a relative error.
    Where that estimate exceeds ``_FRONT_ERROR_MAX`` = 1e-10 (a = b above
    about 1.28e4; a or b above about 2.47e4, whatever the other), the
    result means less and less: (1e20, 1e20, 0.5) would give 1.0, not 0.5.
    Such an (a, b) is a DomainError at every x strictly between 0 and 1;
    at x = 0 and x = 1 no front is formed, and I_0 = 0 and I_1 = 1 stay
    exact. Within the bound the absolute error stays below 1e-10 (checked
    against mpmath at the bound). Where one of a, b is 1/2 and the other
    above 500, -ln B(a, b) comes from a series of small terms instead of
    lgamma, so the bound does not limit that b or a.
    """
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise DomainError("a and b must be positive and finite")
    if not 0.0 <= x <= 1.0:
        raise DomainError("x must lie in [0, 1]")
    try:
        ab, ba = _BetaFraction(a, b), _BetaFraction(b, a)
    except OverflowError:  # lgamma above a + b of about 2.56e305
        raise DomainError("a and b too large: the incomplete beta overflows") from None
    if 0.0 < x < 1.0 and ab.front_error > _FRONT_ERROR_MAX:
        raise DomainError("a and b too large: rounding in ln B(a, b) swamps the incomplete beta")
    return _incomplete_beta(ab, ba, x)


def _incomplete_beta(ab: "_BetaFraction", ba: "_BetaFraction", x: float) -> float:
    """I_x(a, b) for 0 <= x <= 1 from the fractions of (a, b) and (b, a)."""
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    if x < ab.switch:
        return ab.lower(x)
    return 1.0 - ab.front(x) * ba.fraction(1.0 - x) / ab.b


def _log_inverse_beta(a: float, b: float) -> tuple[float, float]:
    """-ln B(a, b) = lgamma(a + b) - lgamma(a) - lgamma(b), and an estimate
    of the relative error that rounding it gives the front factor: the
    float spacing at 1 times the magnitudes of the three lgamma terms.

    When one argument is 1/2 and the other, h, exceeds
    ``_HALF_STEP_SERIES_MIN``, lgamma(h + 1/2) - lgamma(h) is summed from
    its asymptotic expansion in 1/h (the Bernoulli-polynomial form of
    Stirling's series) instead of as a difference of two large numbers.
    Its terms stay below 20, and the estimate is 0.
    """
    h = max(a, b)
    if min(a, b) == 0.5 and h > _HALF_STEP_SERIES_MIN:
        # 1/2 ln h - 1/(8h) + 1/(192h^3) - 1/(640h^5) + 17/(14336h^7)
        r = 1.0 / (h * h)
        series = r * (1.0 / 192.0 - r * (1.0 / 640.0 - r * 17.0 / 14336.0))
        return 0.5 * math.log(h) + (series - 1.0 / 8.0) / h - _LGAMMA_HALF, 0.0
    whole, first, second = math.lgamma(a + b), math.lgamma(a), math.lgamma(b)
    return (whole - first - second,
            sys.float_info.epsilon * (abs(whole) + abs(first) + abs(second)))


class _BetaFraction:
    """The continued fraction of I_x(a, b) for one (a, b), with what every x
    shares: -ln B(a, b) with the relative error its rounding gives the
    front, the switch point (a + 1) / (a + b + 2) and the coefficients of
    the fraction's steps.

    Step m's coefficients are m (b - m), (a - 1 + 2m)(a + 2m),
    -(a + m)(a + b + m) and (a + 2m)(a + 1 + 2m), each product formed as
    the plain loop forms it, so every step gives the same float. The table
    grows only as far as a fraction has run; at df = 11 a Student-t
    p-value needs at most 16 steps of the cap's 300.
    """

    __slots__ = ("a", "b", "switch", "front_error", "_log_inverse_beta", "_qab", "_qap",
                 "_steps")

    def __init__(self, a: float, b: float):
        self.a = a
        self.b = b
        self.switch = (a + 1.0) / (a + b + 2.0)
        self._log_inverse_beta, self.front_error = _log_inverse_beta(a, b)
        self._qab = a + b
        self._qap = a + 1.0
        self._steps: list[tuple[float, float, float, float]] = []

    def front(self, x: float) -> float:
        """x^a (1 - x)^b / B(a, b), for 0 < x < 1."""
        return math.exp(self._log_inverse_beta + self.a * math.log(x)
                        + self.b * math.log1p(-x))

    def lower(self, x: float) -> float:
        """I_x(a, b) from the continued fraction at x itself, for 0 < x < 1."""
        return self.front(x) * self.fraction(x) / self.a

    def fraction(self, x: float) -> float:
        """The continued fraction at x, by modified Lentz."""
        c = 1.0
        d = 1.0 - self._qab * x / self._qap
        if abs(d) < _LENTZ_TINY:
            d = _LENTZ_TINY
        d = 1.0 / d
        h = d
        steps = self._steps
        done = 0
        while True:
            for even, even_divisor, odd, odd_divisor in steps[done:] if done else steps:
                numerator = even * x / even_divisor
                d = 1.0 + numerator * d
                if abs(d) < _LENTZ_TINY:
                    d = _LENTZ_TINY
                c = 1.0 + numerator / c
                if abs(c) < _LENTZ_TINY:
                    c = _LENTZ_TINY
                d = 1.0 / d
                h *= d * c
                numerator = odd * x / odd_divisor
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
                    return h
            done = len(steps)
            if done == _LENTZ_MAX_ITER:
                return h
            self._grow()

    def _grow(self) -> None:
        """Append the next step's coefficients to the table."""
        a, b = self.a, self.b
        m = len(self._steps) + 1
        m2 = 2 * m
        self._steps.append((m * (b - m), (a - 1.0 + m2) * (a + m2),
                            -(a + m) * (self._qab + m), (a + m2) * (self._qap + m2)))


def student_t_two_sided_p(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's t with ``df`` degrees of freedom.

    Computed as I_x(df/2, 1/2) at x = df / (df + t^2). When t^2 < df it is
    evaluated as the complement 1 - I_y(1/2, df/2) at y = t^2 / (df + t^2)
    instead: at large df, x rounds to 1 and the p-value would come out as
    exactly 1. For df > 1000 and 0 < t^2 < 16, I_y comes from the
    continued fraction at y itself (see ``_DIRECT_T2_MAX``); a y that
    underflows to 0 gives p = 1, as I_0 = 0. An infinite t gives x = 0, so
    p = 0.
    """
    if df < 1:
        raise DomainError("degrees of freedom must be at least 1")
    try:
        student_t = _StudentT(df)
    except OverflowError:  # an int past the float range
        raise DomainError("degrees of freedom too large: past the float range") from None
    return student_t.two_sided_p(t)


class _StudentT:
    """Student's t with ``df`` >= 1 degrees of freedom, built once for all
    its p-values: the fractions of I(1/2, df/2) and I(df/2, 1/2)."""

    __slots__ = ("df", "_direct", "_half_first", "_half_last")

    def __init__(self, df: int):
        h = df / 2.0
        self.df = df
        self._direct = h > _HALF_STEP_SERIES_MIN
        self._half_first = _BetaFraction(0.5, h)
        self._half_last = _BetaFraction(h, 0.5)

    def two_sided_p(self, t: float) -> float:
        """``student_t_two_sided_p(t, df)``."""
        if math.isnan(t):
            raise DomainError("t statistic is NaN")
        df = self.df
        t2 = t * t
        if self._direct and 0.0 < t2 < _DIRECT_T2_MAX:
            y = t2 / (df + t2)
            return 1.0 - self._half_first.lower(y) if y else 1.0  # I_0 = 0
        if t2 < df:
            return 1.0 - _incomplete_beta(self._half_first, self._half_last, t2 / (df + t2))
        return _incomplete_beta(self._half_last, self._half_first, df / (df + t2))


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
    return _inference(targets, fit, _StudentT(n - N_PARAMETERS))


def _inference(targets: Sequence[float], fit: tuple, student_t: _StudentT) -> tuple:
    """``inference_for_fit`` of more than ``N_PARAMETERS`` targets, whose
    p-values come from ``student_t``, built for their n - 4 degrees of
    freedom: a walk of many windows of one length builds it once."""
    n = len(targets)
    df = student_t.df
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
        p = student_t.two_sided_p(t_stat)
        coefficients.append(CoefficientInference(estimate, se, t_stat, p))
    r2 = 1.0 - rss / tss
    adjusted = 1.0 - (1.0 - r2) * (n - 1) / (n - N_PARAMETERS)
    return tuple(coefficients), adjusted

