"""Student-t machinery against closed forms, quadrature, and numpy."""

import math
import random

import mpmath
import numpy as np
import pytest
from scipy import integrate, stats

from xmasjump.errors import DegenerateVariance, DomainError, TooFewRows
from xmasjump.regression_core import fit_bilinear
from xmasjump.stat_inference import (
    CoefficientInference,
    inference_for_fit,
    regularized_incomplete_beta,
    student_t_two_sided_p,
)


def t_density(u: float, df: int) -> float:
    """Student-t density written out directly (quadrature oracle)."""
    log_norm = (
        math.lgamma((df + 1) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * math.log(df * math.pi)
    )
    return math.exp(log_norm - (df + 1) / 2.0 * math.log(1.0 + u * u / df))


def two_sided_p_by_quadrature(t: float, df: int) -> float:
    tail, _ = integrate.quad(t_density, abs(t), math.inf, args=(df,))
    return 2.0 * tail


def incomplete_beta_integer_oracle(a: int, b: int, x: float) -> float:
    """Binomial tail closed form, valid for integer a, b."""
    n = a + b - 1
    return math.fsum(
        math.comb(n, j) * x**j * (1 - x) ** (n - j) for j in range(a, n + 1)
    )


class TestRegularizedIncompleteBeta:
    def test_boundaries(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_symmetry_at_half(self):
        for a in (0.5, 1.0, 2.5, 7.0):
            assert abs(regularized_incomplete_beta(a, a, 0.5) - 0.5) < 1e-13

    def test_closed_form_for_small_integers(self):
        # I_x(1, 2) = 1 - (1 - x)^2
        assert abs(regularized_incomplete_beta(1, 2, 0.25) - 0.4375) < 1e-13

    def test_integer_parameters_against_binomial_oracle(self):
        rng = random.Random(3)
        for _ in range(200):
            a = rng.randint(1, 12)
            b = rng.randint(1, 12)
            x = rng.uniform(0.001, 0.999)
            got = regularized_incomplete_beta(a, b, x)
            want = incomplete_beta_integer_oracle(a, b, x)
            assert abs(got - want) < 1e-12

    def test_nondecreasing_in_x(self):
        for a, b in ((0.5, 0.5), (1.0, 3.0), (5.5, 0.5), (9.0, 2.0)):
            grid = [i / 200 for i in range(201)]
            values = [regularized_incomplete_beta(a, b, x) for x in grid]
            assert all(v1 >= v0 - 1e-13 for v0, v1 in zip(values, values[1:]))
            assert all(0.0 <= v <= 1.0 for v in values)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            regularized_incomplete_beta(0.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            regularized_incomplete_beta(1.0, -1.0, 0.5)
        with pytest.raises(DomainError):
            regularized_incomplete_beta(1.0, 1.0, 1.5)


class TestStudentTTwoSidedP:
    def test_center(self):
        for df in (1, 5, 30):
            assert student_t_two_sided_p(0.0, df) == 1.0

    def test_infinite_statistic(self):
        assert student_t_two_sided_p(math.inf, 7) == 0.0
        assert student_t_two_sided_p(-math.inf, 7) == 0.0

    def test_even_in_t(self):
        for t in (0.3, 1.7, 4.2):
            for df in (2, 11, 25):
                assert student_t_two_sided_p(t, df) == student_t_two_sided_p(-t, df)

    def test_strictly_decreasing_in_magnitude(self):
        for df in (1, 11, 30):
            grid = [0.1 * i for i in range(1, 60)]
            values = [student_t_two_sided_p(t, df) for t in grid]
            assert all(v1 < v0 for v0, v1 in zip(values, values[1:]))

    def test_critical_value_df_11(self):
        # the classic 5% two-tailed cutoff at 11 degrees of freedom
        assert abs(student_t_two_sided_p(2.201, 11) - 0.0500) < 0.0005

    def test_cauchy_closed_form(self):
        # df=1: P(|T| >= t) = 1 - (2/pi) * arctan(t)
        for t in (0.1, 0.5, 1.0, 3.0, 10.0):
            want = 1.0 - 2.0 / math.pi * math.atan(t)
            assert abs(student_t_two_sided_p(t, 1) - want) < 1e-12

    def test_quadrature_spot_checks(self):
        for t, df in ((0.7, 2), (1.5, 6), (2.201, 11), (4.0, 23)):
            want = two_sided_p_by_quadrature(t, df)
            assert abs(student_t_two_sided_p(t, df) - want) < 1e-8

    def test_matches_normal_tail_for_large_df(self):
        # The true gap to the normal tail peaks near t=1.55 at about
        # 0.32/df, so 2e-3 is reachable from df ~ 160 up.
        for df in (100, 250, 1000):
            for t in (0.25, 1.0, 1.55, 2.0, 3.0, 4.0):
                normal = math.erfc(t / math.sqrt(2.0))
                assert abs(student_t_two_sided_p(t, df) - normal) < 0.33 / df
        for df in (200, 500, 2000):
            for t in (0.25, 1.0, 1.55, 2.0, 3.0, 4.0):
                normal = math.erfc(t / math.sqrt(2.0))
                assert abs(student_t_two_sided_p(t, df) - normal) < 2e-3

    def test_matches_scipy_at_large_df(self):
        # t^2 / df this small rounds df / (df + t^2) to 1, so the p-value
        # has to come from the complementary tail.
        for t, df in ((1e-6, 10**7), (1e-6, 10**8)):
            want = 2.0 * stats.t.sf(t, df)
            assert abs(student_t_two_sided_p(t, df) - want) < 1e-12

    @pytest.mark.parametrize("df", [10**4, 10**5, 10**6, 10**7, 10**8])
    @pytest.mark.parametrize("t", [0.5, 1.5, 1.8, 3.0])
    def test_matches_mpmath_at_large_df(self, t, df):
        # lgamma(df/2 + 1/2) - lgamma(df/2) cancels at large df, and so does
        # the continued fraction evaluated near x = 1; the p-value must not
        # inherit either error.
        with mpmath.workdps(50):
            x = mpmath.mpf(df) / (df + mpmath.mpf(t) ** 2)
            want = mpmath.betainc(mpmath.mpf(df) / 2, 0.5, 0, x, regularized=True)
            assert abs(student_t_two_sided_p(t, df) - want) < 1e-12

    def test_df_below_one_rejected(self):
        with pytest.raises(DomainError):
            student_t_two_sided_p(1.0, 0)


class TestCoefficientInference:
    def test_consistency_enforced(self):
        with pytest.raises(DomainError):
            CoefficientInference(
                estimate=1.0, standard_error=0.5, t_statistic=5.0, p_value=0.01
            )

    def test_p_value_range_enforced(self):
        with pytest.raises(DomainError):
            CoefficientInference(
                estimate=1.0, standard_error=0.5, t_statistic=2.0, p_value=1.5
            )


class TestInferenceForFit:
    @staticmethod
    def _noisy_design(seed=11, count=15, noise=0.02):
        rng = random.Random(seed)
        pairs = [
            (rng.uniform(-0.02, 0.02), rng.uniform(0.5, 5.0)) for _ in range(count)
        ]
        planted = (0.005, -9.0, -0.002, 2.0)
        targets = [
            planted[0]
            + planted[1] * a
            + planted[2] * b
            + planted[3] * a * b
            + rng.uniform(-noise, noise)
            for a, b in pairs
        ]
        return pairs, targets

    def test_perfect_fit_has_unit_adjusted_r2_and_zero_p(self):
        pairs, targets = self._noisy_design(noise=0.0)
        inference, adjusted_r2 = inference_for_fit(targets, fit_bilinear(pairs, targets))
        assert abs(adjusted_r2 - 1.0) < 1e-9
        for ci in inference:
            if abs(ci.estimate) > 1e-6:
                assert ci.p_value < 1e-12

    def test_constant_targets_degenerate(self):
        fit = ((0.125, 0.0, 0.0, 0.0), 0.0, (1.0, 1.0, 1.0, 1.0))
        with pytest.raises(DegenerateVariance):
            inference_for_fit([0.125] * 8, fit)

    def test_too_few_rows(self):
        fit = ((0.0, 0.0, 0.0, 0.0), 0.1, (1.0, 1.0, 1.0, 1.0))
        with pytest.raises(TooFewRows):
            inference_for_fit([0.1, 0.2, 0.3, 0.4], fit)

    @pytest.mark.parametrize("seed", [11, 12, 13, 29, 47, 101])
    def test_standard_errors_match_numpy_closed_form(self, seed):
        pairs, targets = self._noisy_design(seed=seed)
        inference, _ = inference_for_fit(targets, fit_bilinear(pairs, targets))
        x = np.asarray([(1.0, a, b, a * b) for a, b in pairs])
        y = np.asarray(targets)
        beta = np.linalg.solve(x.T @ x, x.T @ y)
        rss = float(((x @ beta - y) ** 2).sum())
        n = len(targets)
        s2 = rss / (n - 4)
        se_ref = np.sqrt(s2 * np.diag(np.linalg.inv(x.T @ x)))
        for ci, se, b_ref in zip(inference, se_ref, beta):
            assert abs(ci.standard_error - se) < 1e-9 * max(1.0, se)
            assert abs(ci.t_statistic - b_ref / se) < 1e-6 * max(1.0, abs(b_ref / se))
            assert 0.0 <= ci.p_value <= 1.0

    def test_adjusted_r2_formula_and_bound(self):
        pairs, targets = self._noisy_design(seed=29)
        fit = fit_bilinear(pairs, targets)
        _, adjusted_r2 = inference_for_fit(targets, fit)
        y = np.asarray(targets)
        tss = float(((y - y.mean()) ** 2).sum())
        r2 = 1.0 - fit[1] / tss
        n = len(targets)
        want = 1.0 - (1.0 - r2) * (n - 1) / (n - 4)
        assert abs(adjusted_r2 - want) < 1e-12
        assert adjusted_r2 <= r2  # n > 5 and r2 < 1
