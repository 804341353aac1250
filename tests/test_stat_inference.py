"""Student-t machinery against closed forms, mpmath's quadrature and
incomplete beta, the exact rational oracle, and, bit for bit, the plain
p-value chain of ``helpers`` that forms each fraction step in its loop."""

import math
import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exact_oracle import _target_moments, exact_bilinear, exact_inference
from helpers import reference_incomplete_beta, reference_student_t_two_sided_p, walk_fit
from xmasjump.errors import DegenerateVariance, DomainError, TooFewRows
from xmasjump.stat_inference import (
    _DIRECT_T2_MAX,
    _HALF_STEP_SERIES_MIN,
    CoefficientInference,
    _StudentT,
    inference_for_fit,
    regularized_incomplete_beta,
    student_t_two_sided_p,
)


def t_density(u, df: int):
    """Student-t density written out directly (quadrature oracle), in
    mpmath at its working precision."""
    half = mpmath.mpf(df + 1) / 2
    norm = mpmath.gamma(half) / (mpmath.gamma(mpmath.mpf(df) / 2) * mpmath.sqrt(df * mpmath.pi))
    return norm * (1 + u * u / df) ** -half


def two_sided_p_by_quadrature(t: float, df: int) -> float:
    with mpmath.workdps(30):
        return float(2 * mpmath.quad(lambda u: t_density(u, df), [abs(t), mpmath.inf]))


def two_sided_p_by_betainc(t: float, df: int):
    """I_x(df/2, 1/2) at x = df / (df + t^2), at 50 digits."""
    with mpmath.workdps(50):
        x = mpmath.mpf(df) / (df + mpmath.mpf(t) ** 2)
        return mpmath.betainc(mpmath.mpf(df) / 2, 0.5, 0, x, regularized=True)


def incomplete_beta_by_series(a: float, b: float, x: float) -> float:
    """I_x(a, b) at 40 digits, from its hypergeometric series on the side of
    the mean where it converges fast: I_x(a, b) = x^a (1 - x)^b
    2F1(a + b, 1; a + 1; x) / (a B(a, b)). mpmath's own ``betainc`` does not
    converge for a and b in the ten thousands."""
    with mpmath.workdps(40):
        a, b, x = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(x)
        flip = x > (a + 1) / (a + b + 2)
        if flip:
            a, b, x = b, a, 1 - x
        front = mpmath.exp(a * mpmath.log(x) + b * mpmath.log1p(-x)) / (a * mpmath.beta(a, b))
        value = front * mpmath.hyp2f1(a + b, 1, a + 1, x, maxterms=10**6)
        return float(1 - value if flip else value)


def largest_within_the_rounding_bound(ratio: float) -> float:
    """The largest b, to 1e-12 relative, for which ``regularized_incomplete_beta``
    accepts (ratio * b, b)."""
    low, high = 1e-3, 1e6  # accepted, refused
    while high / low > 1.0 + 1e-12:
        middle = math.sqrt(low * high)
        try:
            regularized_incomplete_beta(ratio * middle, middle, 0.5)
            low = middle
        except DomainError:
            high = middle
    return low


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

    @pytest.mark.parametrize("a, b", [(1e306, 1.0), (1.0, 1e306), (1.5e305, 1.5e305),
                                      (1.7e308, 1.7e308)])
    @pytest.mark.parametrize("x", [0.0, 0.5, 1.0])
    def test_arguments_past_the_lgamma_range_are_domain_errors(self, a, b, x):
        # lgamma(a + b) overflows above about 2.56e305, at every x
        with pytest.raises(DomainError, match="too large: the incomplete beta overflows"):
            regularized_incomplete_beta(a, b, x)

    @pytest.mark.parametrize("a, b", [(math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0)])
    def test_infinite_or_nan_arguments_are_domain_errors(self, a, b):
        with pytest.raises(DomainError, match="positive and finite"):
            regularized_incomplete_beta(a, b, 0.5)

    @pytest.mark.parametrize("a, b", [(1e20, 1e20), (1e305, 1e305), (1.0, 1e10), (2.5e4, 1.0),
                                      (1.3e4, 1.3e4)])
    @pytest.mark.parametrize("x", [1e-300, 0.25, 0.5, 0.75, 1.0 - 2.0**-53])
    def test_arguments_whose_rounding_swamps_the_result_are_domain_errors(self, a, b, x):
        # (1e20, 1e20, 0.5) gave 1.0 (exact: 0.5) and (1e305, 1e305, 0.5) NaN:
        # the lgamma terms of -ln B(a, b) are too large for their sum to be
        # trusted, at any x inside (0, 1)
        with pytest.raises(DomainError, match="rounding in ln B"):
            regularized_incomplete_beta(a, b, x)

    @pytest.mark.parametrize("a, b", [(1e20, 1e20), (1e305, 1e305), (1.0, 1e10), (2.5e4, 1.0)])
    def test_the_ends_stay_exact_past_the_rounding_bound(self, a, b):
        # x = 0 and x = 1 form no front, so no rounding reaches them
        assert regularized_incomplete_beta(a, b, 0.0) == 0.0
        assert regularized_incomplete_beta(a, b, 1.0) == 1.0

    @pytest.mark.parametrize("ratio", [1.0, 3.0, 100.0, 1e4, 1e6])
    def test_within_1e_10_of_mpmath_at_the_rounding_bound(self, ratio):
        # The largest (a, b) = (ratio * b, b) that the bound lets through,
        # across the bulk of the distribution and both tails: the error is
        # within the 1e-10 the docstring states. Just past them is an error.
        b = largest_within_the_rounding_bound(ratio)
        a = ratio * b
        mean = a / (a + b)
        sd = math.sqrt(a * b / (a + b + 1.0)) / (a + b)
        for k in (-6.0, -1.0, -0.3, 0.0, 0.3, 1.0, 6.0):
            x = min(max(mean + k * sd, 1e-300), 1.0 - 2.0**-53)
            want = incomplete_beta_by_series(a, b, x)
            assert abs(regularized_incomplete_beta(a, b, x) - want) < 1e-10, (a, b, x)
        with pytest.raises(DomainError, match="rounding in ln B"):
            regularized_incomplete_beta(a * 1.001, b * 1.001, mean)

    def test_a_half_and_a_large_parameter_are_not_bounded(self):
        # -ln B(1/2, h) for h above 500 is summed from its series, whose
        # terms are small, so the bound lets it through.
        for a, b, x in ((0.5, 1e8, 1e-8), (1e8, 0.5, 1.0 - 1e-8)):
            want = incomplete_beta_by_series(a, b, x)
            assert abs(regularized_incomplete_beta(a, b, x) - want) < 1e-12, (a, b, x)


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
        # has to come from the complementary tail. (The name is from the
        # first oracle, scipy's t.sf.)
        for t, df in ((1e-6, 10**7), (1e-6, 10**8)):
            want = two_sided_p_by_betainc(t, df)
            assert abs(student_t_two_sided_p(t, df) - want) < 1e-12

    @pytest.mark.parametrize("df", [10**4, 10**5, 10**6, 10**7, 10**8])
    @pytest.mark.parametrize("t", [0.5, 1.5, 1.8, 3.0])
    def test_matches_mpmath_at_large_df(self, t, df):
        # lgamma(df/2 + 1/2) - lgamma(df/2) cancels at large df, and so does
        # the continued fraction evaluated near x = 1; the p-value must not
        # inherit either error.
        want = two_sided_p_by_betainc(t, df)
        assert abs(student_t_two_sided_p(t, df) - want) < 1e-12

    def test_df_below_one_rejected(self):
        with pytest.raises(DomainError):
            student_t_two_sided_p(1.0, 0)

    def test_df_past_the_float_range_rejected(self):
        # df / 2.0 overflowed, an OverflowError out of the constructor
        with pytest.raises(DomainError, match="degrees of freedom too large"):
            student_t_two_sided_p(1.0, 10**400)


# t statistics across the float range, both sides of the switch at t^2 = df,
# and below t^2 = 16, where a df over 1000 takes the fraction at y directly.
special_t = st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, 5e-324, -1e-310, 2.2e-308, 1e-160, 1e300, -1e300,
     3.9999999999999996, 4.0, 4.000000000000001]
)
degrees_of_freedom = (
    st.sampled_from([1, 2, 11, 999, 1000, 1001, 1002, 2000, 10**4, 10**8])
    | st.integers(min_value=1, max_value=2000)
    | st.integers(min_value=10**4, max_value=10**8)
)


@st.composite
def t_statistics(draw, df):
    near_switch = st.floats(min_value=0.0, max_value=2.0).map(lambda f: f * math.sqrt(df))
    t = draw(st.floats(allow_nan=False) | special_t | near_switch
             | st.floats(min_value=0.0, max_value=4.5))
    return -t if draw(st.booleans()) else t


def p_outcome(fn, *args):
    """What ``fn`` returns, or the type and message of the DomainError it raises."""
    try:
        return fn(*args)
    except DomainError as exc:
        return type(exc), str(exc)


def reference_outcome(t, df):
    """``p_outcome`` of the plain chain where it returns a float or raises a
    DomainError. On the direct path (df > 1000), a t so small that
    y = t^2 / (df + t^2) underflows to 0 makes the chain take math.log(0),
    which raises ValueError; the p-value there is 1, as I_0 = 0."""
    try:
        return p_outcome(reference_student_t_two_sided_p, t, df)
    except ValueError:
        return 1.0


class TestBitForBit:
    """The p-values with the per-df constants built ahead are the floats
    the plain chain in ``helpers`` gives, to the last bit."""

    @settings(max_examples=1500, deadline=None)
    @given(data=st.data(), df=degrees_of_freedom)
    def test_a_p_value_matches_the_plain_chain(self, data, df):
        t = data.draw(t_statistics(df))
        assert p_outcome(student_t_two_sided_p, t, df) == reference_outcome(t, df)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), df=degrees_of_freedom)
    def test_one_student_t_gives_every_p_value_of_a_walk(self, data, df):
        # One object serves many t in any order, its step table grown by
        # whichever fraction ran furthest so far.
        ts = data.draw(st.lists(t_statistics(df), min_size=1, max_size=12))
        student_t = _StudentT(df)
        assert [p_outcome(student_t.two_sided_p, t) for t in ts] == [
            reference_outcome(t, df) for t in ts
        ]

    def test_every_branch_at_every_df_band(self):
        # Each df and t of this grid, which covers both sides of t^2 = df,
        # the direct fraction below t^2 = 16 at df > 1000, t = 0, an
        # infinite t and subnormals.
        branches = set()
        for df in (1, 2, 3, 11, 30, 999, 1000, 1001, 1002, 2000, 10**4, 10**6, 10**8):
            student_t = _StudentT(df)
            root = math.sqrt(df)
            grid = [0.0, 5e-324, 1e-300, 1e-160, 1e-8, 0.5, 1.0, 2.201, 3.99, 4.0, 4.01, 10.0,
                    1e300, math.inf, root * 0.999, root, root * 1.001, 2.0 * root]
            for t in grid + [-t for t in grid]:
                want = reference_outcome(t, df)
                assert p_outcome(student_t_two_sided_p, t, df) == want, (t, df)
                assert p_outcome(student_t.two_sided_p, t) == want, (t, df)
                t2 = t * t
                if df / 2.0 > _HALF_STEP_SERIES_MIN and 0.0 < t2 < _DIRECT_T2_MAX:
                    branches.add("direct")
                else:
                    branches.add("complement" if t2 < df else "upper tail")
        assert branches == {"direct", "complement", "upper tail"}

    @pytest.mark.parametrize("df", [1001, 2000, 10**4, 10**8])
    @pytest.mark.parametrize("t", [1e-160, -1e-160, 3e-162])
    def test_a_t_whose_y_underflows_gives_one(self, t, df):
        # Past df = 1000 the direct path takes I_y at y = t^2 / (df + t^2).
        # t^2 is subnormal, and y is 0 but for t = +-1e-160 at df 1001 and
        # 2000. I_0 = 0, so p = 1, not a math domain error.
        assert student_t_two_sided_p(t, df) == 1.0
        assert _StudentT(df).two_sided_p(t) == 1.0

    @settings(max_examples=500, deadline=None)
    @given(
        a=st.floats(min_value=1e-3, max_value=1e3) | st.integers(min_value=1, max_value=12),
        b=st.floats(min_value=1e-3, max_value=1e3) | st.integers(min_value=1, max_value=12),
        x=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_the_incomplete_beta_matches_the_plain_chain(self, a, b, x):
        assert regularized_incomplete_beta(a, b, x) == reference_incomplete_beta(a, b, x)


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
        inference, adjusted_r2 = inference_for_fit(targets, walk_fit(pairs, targets))
        assert abs(adjusted_r2 - 1.0) < 1e-9
        for ci in inference:
            if abs(ci.estimate) > 1e-6:
                assert ci.p_value < 1e-12

    def test_zero_standard_error_gives_an_infinite_or_zero_t(self):
        fit = ((1.0, -1.0, 0.0, 0.5), 0.0, (1.0, 1.0, 1.0, 1.0))
        inference, adjusted_r2 = inference_for_fit([0.0, 1.0, 2.0, 3.0, 5.0], fit)
        assert adjusted_r2 == 1.0
        assert [(ci.standard_error, ci.t_statistic, ci.p_value) for ci in inference] == [
            (0.0, math.inf, 0.0),
            (0.0, -math.inf, 0.0),
            (0.0, 0.0, 1.0),
            (0.0, math.inf, 0.0),
        ]

    def test_constant_targets_degenerate(self):
        fit = ((0.125, 0.0, 0.0, 0.0), 0.0, (1.0, 1.0, 1.0, 1.0))
        with pytest.raises(DegenerateVariance):
            inference_for_fit([0.125] * 8, fit)

    def test_targets_past_the_float_range_are_a_domain_error(self):
        fit = ((0.0, 0.0, 0.0, 0.0), 1.0, (1.0, 1.0, 1.0, 1.0))
        with pytest.raises(DomainError, match="^values too large: a sum overflows"):
            inference_for_fit([1e160, -1e160] * 4, fit)

    def test_too_few_rows(self):
        fit = ((0.0, 0.0, 0.0, 0.0), 0.1, (1.0, 1.0, 1.0, 1.0))
        with pytest.raises(TooFewRows):
            inference_for_fit([0.1, 0.2, 0.3, 0.4], fit)

    @pytest.mark.parametrize("seed", [11, 12, 13, 29, 47, 101])
    def test_standard_errors_match_numpy_closed_form(self, seed):
        # The closed form sqrt(s^2 diag((X'X)^-1)) from the exact rational
        # normal equations. (The name is from the first oracle, numpy's
        # solve and inv.)
        pairs, targets = self._noisy_design(seed=seed)
        inference, _ = inference_for_fit(targets, walk_fit(pairs, targets))
        exact_fit = exact_bilinear(pairs, targets)
        se_squared, _ = exact_inference(targets, exact_fit)
        beta = [float(b) for b in exact_fit[0]]
        se_ref = [math.sqrt(v) for v in se_squared]
        for ci, se, b_ref in zip(inference, se_ref, beta):
            assert abs(ci.standard_error - se) < 1e-9 * max(1.0, se)
            assert abs(ci.t_statistic - b_ref / se) < 1e-6 * max(1.0, abs(b_ref / se))
            assert 0.0 <= ci.p_value <= 1.0

    def test_adjusted_r2_formula_and_bound(self):
        pairs, targets = self._noisy_design(seed=29)
        fit = walk_fit(pairs, targets)
        _, adjusted_r2 = inference_for_fit(targets, fit)
        tss = float(_target_moments(targets)[1])
        r2 = 1.0 - fit[1] / tss
        n = len(targets)
        want = 1.0 - (1.0 - r2) * (n - 1) / (n - 4)
        assert abs(adjusted_r2 - want) < 1e-12
        assert adjusted_r2 <= r2  # n > 5 and r2 < 1
