"""Regression machinery against hand-worked values and the exact rational
least squares of ``exact_oracle``; the written-out Givens rotation against
its looped form, bit for bit."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exact_oracle import design_rows, exact_bilinear, exact_least_squares
from helpers import line_value, reference_fold_row, walk_fit
from xmasjump import regression_core
from xmasjump.errors import DegenerateDesign, DomainError, RankDeficient, TooFewRows
from xmasjump.regression_core import (
    design_row,
    fit_intercept_fixed_slope,
    fit_simple_ols,
    window_fits,
)


def random_rows(rng, count):
    """``count`` augmented design rows of random trends and targets."""
    return [
        design_row(rng.uniform(-0.03, 0.03), rng.uniform(0.2, 6.0), rng.uniform(-0.2, 0.2))
        for _ in range(count)
    ]


def walked_windows(pairs, targets, window_len):
    """``(first, k, fit)`` for each window k of ``window_fits`` walks over
    the rows of ``pairs`` and ``targets``, numbered from several firsts so
    that the block boundaries fall on different rows."""
    rows = [design_row(a, b, t) for (a, b), t in zip(pairs, targets)]
    for first in (0, 1, 1900 + window_len // 2, -1):
        for k, fit in enumerate(window_fits(rows, window_len, first)):
            yield first, k, fit


def squared_residuals(fit, xs, ys):
    return math.fsum((y - line_value(fit, x)) ** 2 for x, y in zip(xs, ys))


class TestFitSimpleOls:
    def test_points_on_a_line(self):
        assert fit_simple_ols([-3, -2, -1], [-6, -4, -2]) == (2.0, 0.0)

    def test_hand_worked_three_points(self):
        # x_mean=1, y_mean=4/3, Sxy=3, Sxx=2 -> slope 1.5, intercept -1/6
        fit = fit_simple_ols([0, 1, 2], [0, 1, 3])
        slope, intercept = fit
        assert abs(slope - 1.5) < 1e-15
        assert abs(intercept - (-1 / 6)) < 1e-15
        assert abs(squared_residuals(fit, [0, 1, 2], [0, 1, 3]) - 1 / 6) < 1e-15

    def test_constant_rates(self):
        assert fit_simple_ols([-5, -3, -1], [2.25, 2.25, 2.25]) == (0.0, 2.25)

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
        # The oracle is ``exact_least_squares``, in Fractions, not numpy.
        rng = random.Random(101)
        for _ in range(200):
            n = rng.randint(2, 12)
            xs = [rng.uniform(-25, 5) for _ in range(n)]
            while max(xs) - min(xs) < 0.5:
                xs = [rng.uniform(-25, 5) for _ in range(n)]
            ys = [rng.uniform(0, 6) for _ in range(n)]
            slope, intercept = fit_simple_ols(xs, ys)
            (b_ref, a_ref), _, _ = exact_least_squares([(1.0, x) for x in xs], ys)
            b_ref, a_ref = float(b_ref), float(a_ref)
            assert abs(slope - a_ref) < 1e-9 * max(1.0, abs(a_ref))
            assert abs(intercept - b_ref) < 1e-9 * max(1.0, abs(b_ref))

    def test_shift_invariance(self):
        rng = random.Random(5)
        xs = [-9, -7, -4, -2, -1]
        ys = [rng.uniform(1, 3) for _ in xs]
        base_slope, base_intercept = fit_simple_ols(xs, ys)
        for c in (-3.0, 0.5, 10.0):
            slope, intercept = fit_simple_ols(xs, [y + c for y in ys])
            assert abs(slope - base_slope) < 1e-12
            assert abs(intercept - (base_intercept + c)) < 1e-12

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
            shifted = [y - slope * x for x, y in zip(xs, ys)]
            (b_ref,), _, _ = exact_least_squares([(1.0,)] * k, shifted)
            assert abs(value - float(b_ref)) < 1e-12


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
        coefficients, rss, _ = walk_fit(pairs, targets)
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
        c0, c1, c2, c3 = walk_fit(pairs, targets)[0]
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
            walk_fit(pairs, [0.1] * 6)

    @staticmethod
    def _walk_data(rng, window_len):
        """Random pairs and targets for a walk of at least two windows' rows."""
        count = 2 * window_len + rng.randint(0, window_len)
        pairs = [(rng.uniform(-0.03, 0.03), rng.uniform(0.2, 6.0)) for _ in range(count)]
        return pairs, [rng.uniform(-0.2, 0.2) for _ in range(count)]

    @staticmethod
    def _exact_windows(pairs, targets, window_len):
        """The exact coefficients and variance factors of each window k of
        the walk, each as a list of floats."""
        windows = []
        for k in range(len(pairs) - window_len + 1):
            window = slice(k, k + window_len)
            beta, _, factors = exact_bilinear(pairs[window], targets[window])
            windows.append((list(map(float, beta)), list(map(float, factors))))
        return windows

    def test_variance_factors_match_numpy_inverse_gram(self):
        # The oracle is ``exact_bilinear``'s (X'X)^-1, in Fractions, not numpy.
        rng = random.Random(53)
        for _ in range(50):
            window_len = rng.randint(6, 20)
            pairs, targets = self._walk_data(rng, window_len)
            exact = self._exact_windows(pairs, targets, window_len)
            for first, k, (_, _, variance_factors) in walked_windows(pairs, targets, window_len):
                for got, want in zip(variance_factors, exact[k][1]):
                    assert abs(got - want) < 1e-8 * max(1.0, abs(want)), (first, k)

    def test_matches_numpy_lstsq_on_noisy_targets(self):
        # The oracle is ``exact_bilinear``, in Fractions, not numpy.
        rng = random.Random(31)
        for _ in range(50):
            window_len = rng.randint(6, 20)
            pairs, targets = self._walk_data(rng, window_len)
            exact = self._exact_windows(pairs, targets, window_len)
            for first, k, (coefficients, _, _) in walked_windows(pairs, targets, window_len):
                for got, want in zip(coefficients, exact[k][0]):
                    assert abs(got - want) < 1e-8 * max(1.0, abs(want)), (first, k)

    def test_residual_orthogonal_to_columns(self):
        pairs, targets = self._walk_data(random.Random(41), 15)
        x = design_rows(pairs)
        for first, k, (coefficients, rss, _) in walked_windows(pairs, targets, 15):
            rows, window_targets = x[k : k + 15], targets[k : k + 15]
            residuals = [
                math.fsum(c * v for c, v in zip(coefficients, row)) - t
                for row, t in zip(rows, window_targets)
            ]
            assert abs(rss - math.fsum(r * r for r in residuals)) <= 1e-15, (first, k)
            res_norm = math.sqrt(math.fsum(r * r for r in residuals))
            for j in range(4):
                column = [row[j] for row in rows]
                col_norm = math.sqrt(math.fsum(v * v for v in column))
                dot = math.fsum(r * v for r, v in zip(residuals, column))
                assert abs(dot) <= 1e-9 * (1.0 + res_norm * col_norm), (first, k)

    def test_each_window_is_the_walk_of_its_own_rows(self):
        # fit_window_model equals backtest's model for the same years because of this
        rng = random.Random(61)
        for window_len in range(5, 17):
            rows = random_rows(rng, 2 * window_len + rng.randint(0, window_len))
            first = rng.randint(-3000, 3000)
            fits = list(window_fits(rows, window_len, first))
            assert len(fits) == len(rows) - window_len + 1
            for k, fit in enumerate(fits):
                alone = next(window_fits(rows[k : k + window_len], window_len, first + k))
                assert fit == alone, (window_len, first, k)

    @pytest.mark.parametrize("window_len", [7, 15])
    def test_windows_share_their_folds(self, monkeypatch, window_len):
        # a walk that refolded each window from scratch would fold window_len rows per window
        folds = 0
        fold_row = regression_core._fold_row

        def counting(triangle, row):
            nonlocal folds
            folds += 1
            fold_row(triangle, row)

        monkeypatch.setattr(regression_core, "_fold_row", counting)
        windows = 60
        rows = random_rows(random.Random(71), windows + window_len - 1)
        for first in (0, 1, 2003):
            folds = 0
            assert len(list(window_fits(rows, window_len, first))) == windows
            assert 0 < folds <= 6 * windows + window_len, first

    @pytest.mark.parametrize("window_len", [0, 4, -3])
    def test_too_short_a_window(self, window_len):
        rows = [design_row(0.01 * k, 1.0 + k, 0.1) for k in range(8)]
        with pytest.raises(TooFewRows, match=f"^{window_len} design rows; need at least 5$"):
            next(window_fits(rows, window_len))


# Entries at the edges of the float range: signed zeros, subnormals, the
# smallest normal, 1e+-300, the infinities and NaN, beside any float.
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300,
               1e300, -1e300, 1.0, -1.0, math.inf, -math.inf, math.nan]
edge_floats = st.sampled_from(EDGE_FLOATS) | st.floats()


@st.composite
def augmented_rows(draw):
    """A row of N_PARAMETERS + 1 floats whose first k entries are zeros of
    either sign, as in a row of another triangle or a design with a zero."""
    row = draw(st.lists(edge_floats, min_size=5, max_size=5))
    leading = draw(st.integers(0, 4))
    row[:leading] = draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=leading,
                                  max_size=leading))
    return tuple(row)


@st.composite
def triangles(draw):
    """Zeros, or a drawn upper-trapezoidal 4 x 5 triangle."""
    if draw(st.booleans()):
        return [[0.0] * 5 for _ in range(4)]
    return [[0.0] * i + draw(st.lists(edge_floats, min_size=5 - i, max_size=5 - i))
            for i in range(4)]


def bits(triangle):
    return [[value.hex() for value in r] for r in triangle]  # so that -0.0 counts


@settings(max_examples=500, deadline=None)
@given(triangle=triangles(), rows=st.lists(augmented_rows(), min_size=1, max_size=6))
@example(triangle=[[0.0] * 5 for _ in range(4)],
         rows=[(1.0, 0.02, 3.5, 0.07, 0.01), (1.0, -0.01, 2.5, -0.025, -0.02)])
@example(triangle=[[0.0] * 5 for _ in range(4)],
         rows=[(0.0, -0.0, 5e-324, 1e300, math.nan), (1e-300, math.inf, -0.0, 1.0, -1e300)])
def test_written_out_rotation_matches_the_loops_bit_for_bit(triangle, rows):
    folded = [r[:] for r in triangle]
    reference = [r[:] for r in triangle]
    for row in rows:
        regression_core._fold_row(folded, row)
        reference_fold_row(reference, row)
    assert bits(folded) == bits(reference)


# Finite inputs whose sums, or whose squares' sums, pass the largest float.
HUGE_ROWS = [
    design_row(a, b, t)
    for a, b, t in [(0.01, 1, 1e160), (-0.02, 2, -1e160), (0.03, 3, 1e160),
                    (0.0, 4, -1e160), (0.02, 5, 1e160), (-0.01, 6, -1e160)]
]


@pytest.mark.parametrize(
    "fit",
    [
        lambda: fit_simple_ols([0, 1, 2], [1e308, 1e308, 1e308]),
        lambda: fit_simple_ols([0, 1, 2, 3], [-1e308, 0.0, 0.0, 1e308]),
        lambda: fit_simple_ols([0, 1, 2, 3], [1.5e308, -1.5e308, -1.5e308, 1.5e308]),
        lambda: fit_intercept_fixed_slope([0, 1], [1e308, 1e308], 0.0),
        lambda: next(window_fits(HUGE_ROWS, len(HUGE_ROWS))),
    ],
    ids=["mean", "cross-products", "both-infinities", "fixed-slope", "window-rss"],
)
def test_a_sum_past_the_float_range_is_a_domain_error(fit):
    with pytest.raises(DomainError, match="^values too large: a sum overflows the float range$"):
        fit()
