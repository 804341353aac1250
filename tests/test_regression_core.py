"""Regression machinery against hand-worked values and numpy oracles."""

import math
import random

import numpy as np
import pytest

from helpers import line_value
from xmasjump.errors import DegenerateDesign, DomainError, RankDeficient, TooFewRows
from xmasjump.regression_core import (
    fit_bilinear,
    fit_intercept_fixed_slope,
    fit_simple_ols,
)


def bilinear_rows(pairs):
    """The design rows ``[1, a, b, a*b]`` that fit_bilinear regresses on."""
    return np.asarray([(1.0, a, b, a * b) for a, b in pairs])


def squared_residuals(fit, xs, ys):
    return math.fsum((y - line_value(fit, x)) ** 2 for x, y in zip(xs, ys))


class TestFitSimpleOls:
    def test_points_on_a_line(self):
        fit = fit_simple_ols([-3, -2, -1], [-6, -4, -2])
        assert fit.slope == 2.0
        assert fit.intercept == 0.0

    def test_hand_worked_three_points(self):
        # x_mean=1, y_mean=4/3, Sxy=3, Sxx=2 -> slope 1.5, intercept -1/6
        fit = fit_simple_ols([0, 1, 2], [0, 1, 3])
        assert abs(fit.slope - 1.5) < 1e-15
        assert abs(fit.intercept - (-1 / 6)) < 1e-15
        assert abs(squared_residuals(fit, [0, 1, 2], [0, 1, 3]) - 1 / 6) < 1e-15

    def test_constant_rates(self):
        fit = fit_simple_ols([-5, -3, -1], [2.25, 2.25, 2.25])
        assert fit.slope == 0.0
        assert fit.intercept == 2.25

    def test_degenerate_design(self):
        with pytest.raises(DegenerateDesign):
            fit_simple_ols([2, 2, 2], [1.0, 2.0, 3.0])

    def test_too_few_points(self):
        with pytest.raises(DomainError):
            fit_simple_ols([1], [1.0])

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            fit_simple_ols([1, 2], [1.0])

    def test_matches_numpy_lstsq(self):
        rng = random.Random(101)
        for _ in range(200):
            n = rng.randint(2, 12)
            xs = [rng.uniform(-25, 5) for _ in range(n)]
            while max(xs) - min(xs) < 0.5:
                xs = [rng.uniform(-25, 5) for _ in range(n)]
            ys = [rng.uniform(0, 6) for _ in range(n)]
            fit = fit_simple_ols(xs, ys)
            design = np.column_stack([np.ones(n), np.asarray(xs)])
            (b_ref, a_ref), *_ = np.linalg.lstsq(design, np.asarray(ys), rcond=None)
            assert abs(fit.slope - a_ref) < 1e-9 * max(1.0, abs(a_ref))
            assert abs(fit.intercept - b_ref) < 1e-9 * max(1.0, abs(b_ref))

    def test_shift_invariance(self):
        rng = random.Random(5)
        xs = [-9, -7, -4, -2, -1]
        ys = [rng.uniform(1, 3) for _ in xs]
        base = fit_simple_ols(xs, ys)
        for c in (-3.0, 0.5, 10.0):
            shifted = fit_simple_ols(xs, [y + c for y in ys])
            assert abs(shifted.slope - base.slope) < 1e-12
            assert abs(shifted.intercept - (base.intercept + c)) < 1e-12

    def test_exactly_linear_data_has_negligible_rss(self):
        rng = random.Random(77)
        for _ in range(50):
            slope = rng.uniform(-0.05, 0.05)
            intercept = rng.uniform(0.5, 5)
            xs = sorted(rng.sample(range(-21, 0), 8))
            ys = [slope * x + intercept for x in xs]
            fit = fit_simple_ols(xs, ys)
            scale = max(1.0, math.fsum(y * y for y in ys))
            assert squared_residuals(fit, xs, ys) <= 1e-18 * scale

    def test_residual_orthogonal_to_regressors(self):
        rng = random.Random(9)
        for _ in range(50):
            xs = sorted(rng.sample(range(-30, 0), 10))
            ys = [rng.uniform(0, 5) for _ in xs]
            fit = fit_simple_ols(xs, ys)
            residuals = [y - line_value(fit, x) for x, y in zip(xs, ys)]
            norm = math.sqrt(math.fsum(r * r for r in residuals))
            for column in ([1.0] * len(xs), xs):
                col_norm = math.sqrt(math.fsum(v * v for v in column))
                dot = math.fsum(r * v for r, v in zip(residuals, column))
                assert abs(dot) <= 1e-9 * (1.0 + norm * col_norm)


class TestFitInterceptFixedSlope:
    def test_zero_slope_is_plain_mean(self):
        assert fit_intercept_fixed_slope([2, 3, 6], [1.0, 2.0, 3.0], 0.0) == 2.0

    def test_exact_fit_recovers_intercept_for_any_offsets(self):
        for offsets in ([2, 3, 6], [3, 4, 5, 6], [2, 6]):
            ys = [2.0 * x + 1.0 for x in offsets]
            assert abs(fit_intercept_fixed_slope(offsets, ys, 2.0) - 1.0) < 1e-15

    def test_hand_worked_example(self):
        # y - 0.5x over (2,3,6),(1,2,2) is (0, 0.5, -1); mean is -1/6
        value = fit_intercept_fixed_slope([2, 3, 6], [1.0, 2.0, 2.0], 0.5)
        assert abs(value - (-1 / 6)) < 1e-15

    def test_empty_input(self):
        with pytest.raises(DomainError):
            fit_intercept_fixed_slope([], [], 1.0)

    def test_equals_one_parameter_least_squares(self):
        # the mean of y - a*x minimizes sum((a*x + b - y)^2) over b
        rng = random.Random(13)
        for _ in range(200):
            k = rng.randint(1, 5)
            xs = sorted(rng.sample(range(2, 7), k))
            ys = [rng.uniform(0, 6) for _ in xs]
            slope = rng.uniform(-0.1, 0.1)
            value = fit_intercept_fixed_slope(xs, ys, slope)
            shifted = np.asarray(ys) - slope * np.asarray(xs)
            (b_ref,), *_ = np.linalg.lstsq(
                np.ones((k, 1)), shifted, rcond=None
            )
            assert abs(value - b_ref) < 1e-12


class TestFitBilinear:
    @staticmethod
    def _distinct_pairs(count, seed=20231225):
        rng = random.Random(seed)
        return [
            (rng.uniform(-0.02, 0.02), rng.uniform(0.5, 5.0)) for _ in range(count)
        ]

    def test_recovers_planted_coefficients(self):
        planted = (0.5, -9.0, 0.0, 2.0)
        pairs = self._distinct_pairs(15)
        targets = [
            planted[0] + planted[1] * a + planted[2] * b + planted[3] * a * b
            for a, b in pairs
        ]
        coefficients, rss, _ = fit_bilinear(pairs, targets)
        for got, want in zip(coefficients, planted):
            assert abs(got - want) < 1e-9
        assert rss < 1e-18

    def test_reproduces_noise_free_targets(self):
        planted = (0.01, -4.0, -0.003, 1.5)
        pairs = self._distinct_pairs(12, seed=4)
        targets = [
            planted[0] + planted[1] * a + planted[2] * b + planted[3] * a * b
            for a, b in pairs
        ]
        c0, c1, c2, c3 = fit_bilinear(pairs, targets)[0]
        for (a, b), t in zip(pairs, targets):
            assert abs(c0 + c1 * a + c2 * b + c3 * a * b - t) <= 1e-9

    @pytest.mark.parametrize(
        "pairs",
        [
            [(0.01, 2.0)] * 6,
            [(0.0, 1.0 + 0.5 * k) for k in range(6)],
            [(0.001 * k - 0.002, 2.0) for k in range(6)],
        ],
        ids=["repeated_row", "zero_a_column", "constant_b_rank_2"],
    )
    def test_collinear_design_is_rank_deficient(self, pairs):
        with pytest.raises(RankDeficient):
            fit_bilinear(pairs, [0.1] * 6)

    def test_too_few_rows(self):
        pairs = self._distinct_pairs(4)
        with pytest.raises(TooFewRows):
            fit_bilinear(pairs, [0.0] * 4)

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            fit_bilinear(self._distinct_pairs(6), [0.1] * 5)

    def test_variance_factors_match_numpy_inverse_gram(self):
        rng = random.Random(53)
        for _ in range(50):
            count = rng.randint(6, 20)
            pairs = [
                (rng.uniform(-0.03, 0.03), rng.uniform(0.2, 6.0))
                for _ in range(count)
            ]
            variance_factors = fit_bilinear(pairs, [0.0] * count)[2]
            x = bilinear_rows(pairs)
            ref = np.diag(np.linalg.inv(x.T @ x))
            for got, want in zip(variance_factors, ref):
                assert abs(got - want) < 1e-8 * max(1.0, abs(want))

    def test_matches_numpy_lstsq_on_noisy_targets(self):
        rng = random.Random(31)
        for _ in range(50):
            count = rng.randint(6, 20)
            pairs = [
                (rng.uniform(-0.03, 0.03), rng.uniform(0.2, 6.0))
                for _ in range(count)
            ]
            targets = [rng.uniform(-0.2, 0.2) for _ in range(count)]
            coefficients = fit_bilinear(pairs, targets)[0]
            ref, *_ = np.linalg.lstsq(bilinear_rows(pairs), np.asarray(targets), rcond=None)
            for got, want in zip(coefficients, ref):
                assert abs(got - want) < 1e-8 * max(1.0, abs(want))

    def test_residual_orthogonal_to_columns(self):
        rng = random.Random(41)
        pairs = [(rng.uniform(-0.03, 0.03), rng.uniform(0.2, 6.0)) for _ in range(15)]
        targets = [rng.uniform(-0.2, 0.2) for _ in range(15)]
        coefficients, rss, _ = fit_bilinear(pairs, targets)
        rows = bilinear_rows(pairs).tolist()
        residuals = [
            math.fsum(c * v for c, v in zip(coefficients, row)) - t
            for row, t in zip(rows, targets)
        ]
        assert abs(rss - math.fsum(r * r for r in residuals)) <= 1e-15
        res_norm = math.sqrt(math.fsum(r * r for r in residuals))
        for j in range(4):
            column = [row[j] for row in rows]
            col_norm = math.sqrt(math.fsum(v * v for v in column))
            dot = math.fsum(r * v for r, v in zip(residuals, column))
            assert abs(dot) <= 1e-9 * (1.0 + res_norm * col_norm)
