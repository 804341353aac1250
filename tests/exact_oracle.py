"""Exact rational oracles for a year's line fits and for the bilinear fit,
and the accuracy contracts the pipeline is held to.

A year's slope, intercept, post intercept and jump are each linear in its
window rates y (pre window, then post window): q = w_q . y, with weights
w_q that depend only on the offsets. ``exact_year`` computes the four from
the closed forms in ``fractions.Fraction``, ``year_weights`` the weights.
The line-fit contract, with u = 2^-53, for each of the four:

- |q_hat - q| <= c * u * ||w_q||_1 * ||y||_inf.

Noise of amplitude eps moves the exact jump by at most eps * ||w_jump||_1.

The oracle solves the normal equations of the design rows ``[1, a, b, a*b]``
in ``fractions.Fraction``, so its beta, RSS and diag((X'X)^-1) carry no
rounding at all. The rows are the ones the kernel regresses on: ``a*b`` is
the float product, the same rounded number the kernel sees.
``exact_least_squares`` does the same for any design rows, such as a
line's ``[1, x]``.

The contract, with u = 2^-53, D the diagonal of the design's column norms,
kappa = kappa_2(X D^-1) and eta = ||r|| / (||X D^-1||_2 * ||D beta||):

- beta: ||D (beta_hat - beta)|| / ||D beta|| <= c * u * (kappa + kappa^2 * eta);
- variance factors: max_j |v_hat_j - v_j| / v_j <= c * u * kappa^2;
- RSS: |RSS_hat - RSS| <= c * u * (RSS + kappa * ||y|| * sqrt(RSS)).

c = CONTRACT_CONSTANT was fixed before the Givens kernel was written, and
used for the line-fit contract before any line-fit error was measured. A
design that breaks a contract is a fault of the kernel, not of c.

``exact_inference`` computes the squared standard errors s^2 * v_j, with
s^2 = RSS / (n - 4), and the adjusted R^2 in ``fractions.Fraction``. Their
bounds (README, "Accuracy of the standard errors and adjusted R^2") follow
from the RSS and variance-factor contracts and the roundings of
``inference_for_fit``; they add no constant of their own.
"""

import math
from fractions import Fraction

from xmasjump.regression_core import N_PARAMETERS

UNIT_ROUNDOFF = 2.0**-53
CONTRACT_CONSTANT = 32


def exact_year(pre_offsets, pre_rates, post_offsets, post_rates):
    """``(slope, intercept, post_intercept, jump)`` of a year's two windows as
    Fractions: the least-squares line of the pre window, the least-squares
    intercept of the post window at that slope, and the intercept gap."""
    xs, ys = [Fraction(x) for x in pre_offsets], [Fraction(y) for y in pre_rates]
    x_mean, y_mean = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - x_mean) ** 2 for x in xs)
    slope = sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys)) / sxx
    intercept = y_mean - slope * x_mean
    residuals = [Fraction(y) - slope * x for x, y in zip(post_offsets, post_rates)]
    post_intercept = sum(residuals) / len(residuals)
    return slope, intercept, post_intercept, post_intercept - intercept


def year_weights(pre_offsets, post_offsets):
    """The weights over the rates ``pre + post`` that give ``exact_year``'s
    four values, as four lists of Fractions."""
    n, m = len(pre_offsets), len(post_offsets)
    x_mean = Fraction(sum(pre_offsets), n)
    post_mean = Fraction(sum(post_offsets), m)
    sxx = sum((x - x_mean) ** 2 for x in pre_offsets)
    slope = [(x - x_mean) / sxx for x in pre_offsets]
    intercept = [Fraction(1, n) - x_mean * w for w in slope]
    post_intercept = [-post_mean * w for w in slope]
    post = [Fraction(1, m)] * m
    return (
        slope + [Fraction(0)] * m,
        intercept + [Fraction(0)] * m,
        post_intercept + post,
        [p - i for p, i in zip(post_intercept, intercept)] + post,
    )


def year_constants(observation, pre_window, post_window):
    """The smallest c with which each of the observation's ``slope_a``,
    ``intercept_b``, ``post_intercept`` and ``jump_delta`` meets the line-fit
    bound, given the year's ``(offsets, rates, warning)`` windows."""
    (pre_offsets, pre_rates, _), (post_offsets, post_rates, _) = pre_window, post_window
    exact = exact_year(pre_offsets, pre_rates, post_offsets, post_rates)
    rates_norm = max(map(abs, pre_rates + post_rates))
    got = (observation.slope_a, observation.intercept_b, observation.post_intercept,
           observation.jump_delta)
    return tuple(
        _constant(abs(float(Fraction(value) - want)), l1_norm(weights) * rates_norm)
        for value, want, weights in zip(got, exact, year_weights(pre_offsets, post_offsets))
    )


def l1_norm(weights):
    """``||w||_1`` of exact weights, rounded once to a float."""
    return float(sum(map(abs, weights)))


def design_rows(trends):
    """The rows ``(1, a, b, a*b)`` of the ``(a, b)`` trends, in floats."""
    return [(1.0, a, b, a * b) for a, b in trends]


def exact_bilinear(trends, targets):
    """``(beta, rss, variance_factors)`` as Fractions, from the exact normal
    equations X'X beta = X'y; raises ZeroDivisionError when X'X is singular."""
    return exact_least_squares(design_rows(trends), targets)


def exact_least_squares(rows, targets):
    """``exact_bilinear`` for any design: the float rows X, each of the same
    length, regressed on the float targets y."""
    rows = [[Fraction(x) for x in row] for row in rows]
    ys = [Fraction(y) for y in targets]
    n = len(rows[0])
    gram = [[sum(row[i] * row[j] for row in rows) for j in range(n)] for i in range(n)]
    moments = [sum(row[i] * y for row, y in zip(rows, ys)) for i in range(n)]
    inverse = _inverse(gram)
    beta = [sum(g * m for g, m in zip(inverse_row, moments)) for inverse_row in inverse]
    rss = sum((sum(b * x for b, x in zip(beta, row)) - y) ** 2 for row, y in zip(rows, ys))
    return beta, rss, [inverse[i][i] for i in range(n)]


def _inverse(matrix):
    """The inverse of a square Fraction matrix by Gauss-Jordan elimination."""
    n = len(matrix)
    work = [list(row) + [Fraction(int(i == k)) for k in range(n)] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if work[i][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("X'X is singular")
        work[col], work[pivot] = work[pivot], work[col]
        lead = work[col][col]
        work[col] = [x / lead for x in work[col]]
        for i in range(n):
            if i != col and work[i][col] != 0:
                factor = work[i][col]
                work[i] = [x - factor * p for x, p in zip(work[i], work[col])]
    return [row[n:] for row in work]


def _conditioning(trends):
    """``(D, kappa, ||X D^-1||_2)``: the design's column norms, the condition
    number and the norm of the design with unit-norm columns.

    With G = D^-1 X'X D^-1, the Gram matrix of X D^-1, ||X D^-1||_2^2 is
    G's largest eigenvalue, and kappa^2 is that times the largest eigenvalue
    of G^-1 = D (X'X)^-1 D. Both matrices are built from the exact X'X and
    its exact inverse at 30 digits; ``mpmath.eigsy`` finds a largest
    eigenvalue to about as many digits, however large kappa is.
    """
    import mpmath  # here, so that the other oracles import without it

    def number(value):
        return mpmath.mpf(value.numerator) / value.denominator

    rows = [[Fraction(x) for x in row] for row in design_rows(trends)]
    n = len(rows[0])
    gram = [[sum(row[i] * row[j] for row in rows) for j in range(n)] for i in range(n)]
    inverse = _inverse(gram)
    with mpmath.workdps(30):
        scales = [mpmath.sqrt(number(gram[i][i])) for i in range(n)]

        def largest_eigenvalue(matrix, power):
            """The largest eigenvalue of D^power M D^power, M ``matrix``."""
            scaled = mpmath.matrix(
                [[number(matrix[i][j]) * (scales[i] * scales[j]) ** power for j in range(n)]
                 for i in range(n)])
            return max(mpmath.eigsy(scaled, eigvals_only=True))

        gram_top = largest_eigenvalue(gram, -1)
        kappa = mpmath.sqrt(gram_top * largest_eigenvalue(inverse, 1))
        return [float(s) for s in scales], float(kappa), float(mpmath.sqrt(gram_top))


def contract_constants(trends, targets, fit):
    """The smallest c with which ``fit``, a ``(coefficients, rss,
    variance_factors)`` triple for these rows, meets each of the three
    bounds: ``(c_beta, c_variance_factors, c_rss)``."""
    exact_beta, exact_rss, exact_factors = exact_bilinear(trends, targets)
    scales, kappa, scaled_norm = _conditioning(trends)
    beta_hat, rss_hat, factors_hat = fit

    beta_error = math.hypot(
        *(s * float(Fraction(got) - want) for s, got, want in zip(scales, beta_hat, exact_beta))
    )
    beta_norm = math.hypot(*(s * float(want) for s, want in zip(scales, exact_beta)))
    residual_norm = math.sqrt(float(exact_rss))
    beta_scale = kappa * beta_norm + kappa**2 * residual_norm / scaled_norm
    factor_error = max(
        abs(float((Fraction(got) - want) / want)) for got, want in zip(factors_hat, exact_factors)
    )
    rss_error = abs(float(Fraction(rss_hat) - exact_rss))
    target_norm = math.hypot(*targets)
    rss_scale = float(exact_rss) + kappa * target_norm * residual_norm
    return (
        _constant(beta_error, beta_scale),
        _constant(factor_error, kappa**2),
        _constant(rss_error, rss_scale),
    )


def exact_inference(targets, exact_fit):
    """``(se_squared, adjusted_r2)`` as Fractions, from ``exact_fit``, the
    ``exact_bilinear`` triple of these targets' rows: s^2 * v_j for each
    coefficient, with s^2 = RSS / (n - 4), whose square roots are the
    standard errors; and 1 - (RSS / TSS) * (n - 1) / (n - 4)."""
    _, rss, factors = exact_fit
    n = len(targets)
    s2 = rss / (n - N_PARAMETERS)
    adjusted = 1 - rss / _target_moments(targets)[1] * Fraction(n - 1, n - N_PARAMETERS)
    return [s2 * v for v in factors], adjusted


def _target_moments(targets):
    """The targets' mean and their sum of squares about it, as Fractions."""
    ys = [Fraction(y) for y in targets]
    mean = sum(ys) / len(ys)
    return mean, sum((y - mean) ** 2 for y in ys)


def inference_margins(trends, targets, inference, adjusted_r2):
    """The share of its bound that ``inference_for_fit``'s result for these
    rows uses: ``(the largest over the standard errors, adjusted R^2)``.
    Each bound is met when its share is at most 1."""
    exact_fit = exact_bilinear(trends, targets)
    _, exact_rss, exact_factors = exact_fit
    se_squared, exact_adjusted = exact_inference(targets, exact_fit)
    exact_mean, exact_tss = _target_moments(targets)
    _, kappa, _ = _conditioning(trends)
    n, df = len(targets), len(targets) - N_PARAMETERS
    u, c = UNIT_ROUNDOFF, CONTRACT_CONSTANT
    rss, tss, mean = float(exact_rss), float(exact_tss), float(exact_mean)
    delta_rss = c * u * (rss + kappa * math.hypot(*targets) * math.sqrt(rss))
    delta_factors = c * u * kappa**2
    slack = delta_rss + (rss + delta_rss) * (delta_factors + 5 * u * (1 + delta_factors))
    se_share = max(
        _share(float(abs(Fraction(ci.standard_error) ** 2 - want)), float(v) / df * slack)
        for ci, want, v in zip(inference, se_squared, exact_factors)
    )
    delta_tss = 6 * u * tss + 5 * u * u * n * mean * mean
    q, k = rss / tss, (n - 1) / df
    delta_q = (delta_rss + q * delta_tss + u * (rss + delta_rss)) / (tss - delta_tss)
    adjusted_bound = k * delta_q + u * (6 * k * (1 + q + delta_q) + abs(float(exact_adjusted)))
    adjusted_share = _share(float(abs(Fraction(adjusted_r2) - exact_adjusted)), adjusted_bound)
    return se_share, adjusted_share


def _constant(error, scale):
    """``error / (u * scale)``, or 0 / inf when the bound's scale is 0."""
    return _share(error, UNIT_ROUNDOFF * scale)


def _share(error, bound):
    """``error / bound``, or 0 / inf when the bound is 0."""
    if bound == 0.0:
        return 0.0 if error == 0.0 else math.inf
    return error / bound
