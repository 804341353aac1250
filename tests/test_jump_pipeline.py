"""End-to-end per-year extraction, meta-model, backtest, prediction."""

import json
import math
import random
from datetime import date

import pytest

from helpers import constant_jump, linear_series, planted_series
from xmasjump import (
    BacktestRow,
    BilinearJump,
    DailyRateSeries,
    HolidayCalendar,
    JumpModel,
    SyntheticSpec,
    backtest,
    fit_window_model,
    generate_synthetic_series,
    jump_pipeline,
    predict_next,
    yearly_observation,
)
from xmasjump.errors import DomainError, IncompleteWindow, InsufficientData, WindowTooShort
from xmasjump.jump_pipeline import _forecast
from xmasjump.market_calendar import post_window_offsets
from xmasjump.regression_core import MIN_DESIGN_ROWS, bilinear_surface, fit_intercept_fixed_slope

# the published 2019 prediction surface, used as a hand-checkable model
SURFACE_2019 = JumpModel(
    window_years=(2004, 2018),
    coefficients=(0.0048, -9.2646, -0.0024, 2.0161),
)


class TestYearlyObservation:
    def test_unbroken_line_has_no_jump(self, cal):
        series = linear_series(
            date(2018, 11, 1), date(2018, 12, 31), 0.013, 2.4, year=2018
        )
        obs = yearly_observation(2018, series, cal)
        assert abs(obs.jump_delta) < 1e-12
        assert abs(obs.slope_a - 0.013) < 1e-12
        assert abs(obs.intercept_b - 2.4) < 1e-12
        assert obs.jump_delta == obs.post_intercept - obs.intercept_b

    def test_planted_step_is_recovered_exactly(self, cal):
        series = linear_series(
            date(2018, 11, 1), date(2018, 12, 31), 0.013, 2.4, year=2018, jump=0.25
        )
        obs = yearly_observation(2018, series, cal)
        assert abs(obs.jump_delta - 0.25) < 1e-12

    def test_window_warnings_propagate(self, cal):
        series = linear_series(
            date(2015, 11, 1), date(2015, 12, 31), 0.0, 1.0, year=2015
        )
        obs = yearly_observation(2015, series, cal)
        assert obs.post_warning is not None  # 2015 has four post days
        assert obs.pre_warning is None

    def test_level_shift_leaves_the_jump_unchanged(self, cal):
        base, _ = planted_series(2018, 2018, constant_jump(0.1), noise=0.02, seed=6)
        obs = yearly_observation(2018, base, cal)
        for shift in (-2.0, 0.75, 10.0):
            shifted = DailyRateSeries(
                entries=tuple((d, r + shift) for d, r in base.entries),
                tenor_label=base.tenor_label,
            )
            obs_shifted = yearly_observation(2018, shifted, cal)
            assert abs(obs_shifted.jump_delta - obs.jump_delta) < 1e-12
            assert abs(obs_shifted.slope_a - obs.slope_a) < 1e-12
            assert abs(obs_shifted.intercept_b - (obs.intercept_b + shift)) < 1e-12

    def test_jump_equals_mean_difference_form(self, cal):
        # the fixed-slope intercept gap equals mean(y) - mean(trend)
        rng = random.Random(2712)
        for _ in range(300):
            slope = rng.uniform(-0.05, 0.05)
            intercept = rng.uniform(0.0, 5.0)
            k = rng.randint(2, 5)
            offsets = sorted(rng.sample(range(2, 7), k))
            rates = [rng.uniform(0.0, 6.0) for _ in offsets]
            delta = fit_intercept_fixed_slope(offsets, rates, slope) - intercept
            mean_rate = math.fsum(rates) / k
            mean_trend = math.fsum(slope * x + intercept for x in offsets) / k
            assert abs(delta - (mean_rate - mean_trend)) < 1e-12


class TestFitWindowModel:
    def test_recovers_planted_surface(self, cal):
        planted = (0.005, -9.0, -0.002, 2.0)
        series, _ = planted_series(2000, 2014, BilinearJump(planted))
        model = fit_window_model(2000, 2014, series, cal)
        for got, want in zip(model.coefficients, planted):
            assert abs(got - want) < 1e-9
        assert model.adjusted_r2 >= 1.0 - 1e-9
        assert model.window_years == (2000, 2014)
        assert len(model.inference) == 4

    def test_window_too_short(self, cal):
        series, _ = planted_series(2010, 2014, constant_jump(0.1))
        with pytest.raises(WindowTooShort):
            fit_window_model(2011, 2014, series, cal)

    def test_model_type_enforces_minimum_span(self):
        with pytest.raises(WindowTooShort):
            JumpModel(window_years=(2015, 2018), coefficients=(0.0, 0.0, 0.0, 0.0))

    def test_one_span_rule_for_models_fits_and_backtests(self, cal):
        series, _ = planted_series(2010, 2014, constant_jump(0.1))
        raised = []
        for attempt in (
            lambda: JumpModel(window_years=(2011, 2014), coefficients=(0.0,) * 4),
            lambda: fit_window_model(2011, 2014, series, cal),
            lambda: backtest(series, cal, 2015, 2015, window_len=4),
        ):
            with pytest.raises(WindowTooShort) as exc_info:
                attempt()
            raised.append(str(exc_info.value))
        assert raised == ["window 2011-2014 must span at least 5 years"] * 3
        assert jump_pipeline.MIN_WINDOW_YEARS == MIN_DESIGN_ROWS

    @pytest.mark.parametrize("year", [0, 10000])
    def test_year_outside_the_date_range(self, year, cal):
        series, _ = planted_series(2010, 2014, constant_jump(0.1))
        with pytest.raises(DomainError):
            yearly_observation(year, series, cal)


class TestPredictJump:
    """A model's predicted jump: its fitted surface at a year's (slope, intercept)."""

    def test_constant_term_at_the_origin(self):
        assert bilinear_surface(SURFACE_2019.coefficients, 0.0, 0.0) == 0.0048

    def test_intercept_direction(self):
        # 0.0048 - 0.0024 * 1 = 0.0024
        assert abs(bilinear_surface(SURFACE_2019.coefficients, 0.0, 1.0) - 0.0024) < 1e-12

    def test_full_surface_by_hand(self):
        a, b = 0.002, 1.5
        want = 0.0048 - 9.2646 * a - 0.0024 * b + 2.0161 * a * b
        assert bilinear_surface(SURFACE_2019.coefficients, a, b) == want

    def test_origin_returns_constant_for_any_model(self):
        rng = random.Random(8)
        for _ in range(20):
            coeffs = tuple(rng.uniform(-5, 5) for _ in range(4))
            model = JumpModel(window_years=(2000, 2004), coefficients=coeffs)
            assert bilinear_surface(model.coefficients, 0.0, 0.0) == coeffs[0]


def constant_jump_model(jump):
    """A model whose surface predicts ``jump`` whatever the trend."""
    return JumpModel(window_years=(2004, 2018), coefficients=(jump, 0.0, 0.0, 0.0))


class TestMeanRate:
    """The jump-corrected mean of ``_forecast``: the trend's mean rate over
    the post offsets plus the predicted jump."""

    def test_flat_line_without_jump(self):
        forecast = _forecast(constant_jump_model(0.0), 2019, 0.0, 1.0, (2, 3, 6))
        assert forecast.corrected_mean_estimate == 1.0

    def test_hand_worked_example(self):
        # trend mean 1 + 0.01 * (2+3+6)/3, then the jump on top
        forecast = _forecast(constant_jump_model(0.05), 2019, 0.01, 1.0, (2, 3, 6))
        assert forecast.predicted_jump == 0.05
        assert abs(forecast.corrected_mean_estimate - (1.0 + 0.01 * (11 / 3) + 0.05)) < 1e-12

    def test_trend_mean_alone(self):
        forecast = _forecast(constant_jump_model(0.0), 2019, 0.01, 1.0, (2, 3, 6))
        assert abs(forecast.corrected_mean_estimate - (1.0 + 0.11 / 3)) < 1e-12


@pytest.fixture(scope="module")
def planted():
    return planted_series(1999, 2019, BilinearJump((0.005, -9.0, -0.002, 2.0)))


class TestBacktest:
    def test_windows_strictly_precede_their_target(self, planted, cal):
        series, _ = planted
        report = backtest(series, cal, 2015, 2018)
        assert [r.target_year for r in report.rows] == [2015, 2016, 2017, 2018]
        for row, model in zip(report.rows, report.models):
            first, last = model.window_years
            assert last == row.target_year - 1
            assert last - first + 1 == report.window_len

    def test_target_2015_uses_2000_to_2014(self, planted, cal):
        series, _ = planted
        report = backtest(series, cal, 2015, 2015, window_len=15)
        assert report.models[0].window_years == (2000, 2014)

    def test_exact_model_has_negligible_errors(self, planted, cal):
        series, _ = planted
        report = backtest(series, cal, 2015, 2018)
        for row in report.rows:
            assert abs(row.error) < 1e-8

    def test_error_identity(self, planted, cal):
        series, _ = planted
        report = backtest(series, cal, 2015, 2018)
        for row in report.rows:
            assert abs(row.error - (row.predicted_jump - row.realized_jump)) < 1e-12
            assert (
                abs(row.error - (row.corrected_mean_estimate - row.realized_mean))
                < 1e-12
            )

    def test_noisy_data_still_satisfies_the_identity(self, cal):
        series, _ = planted_series(
            1999, 2019, BilinearJump((0.005, -9.0, -0.002, 2.0)), noise=0.03, seed=12
        )
        report = backtest(series, cal, 2015, 2018)
        for row in report.rows:
            assert (
                abs(row.error - (row.corrected_mean_estimate - row.realized_mean))
                < 1e-12
            )

    def test_deterministic_reports(self, planted, cal):
        series, _ = planted
        first = backtest(series, cal, 2015, 2018)
        second = backtest(series, cal, 2015, 2018)
        assert first == second
        assert json.dumps(first.to_dict()) == json.dumps(second.to_dict())

    def test_to_dict_round_trips_through_json(self, planted, cal):
        series, _ = planted
        report = backtest(series, cal, 2015, 2017)
        tree = report.to_dict()
        assert json.loads(json.dumps(tree)) == tree
        assert [row["target_year"] for row in tree["rows"]] == [2015, 2016, 2017]
        assert set(tree["rows"][0]) == {
            "target_year",
            "predicted_jump",
            "realized_jump",
            "corrected_mean_estimate",
            "realized_mean",
            "error",
        }
        assert set(tree["models"][0]) == {
            "window_years",
            "coefficients",
            "inference",
            "adjusted_r2",
        }

    def test_each_year_is_extracted_once(self, planted, cal, monkeypatch):
        series, _ = planted
        extracted = []
        extract = jump_pipeline.yearly_observation

        def counting(year, *args, **kwargs):
            extracted.append(year)
            return extract(year, *args, **kwargs)

        monkeypatch.setattr(jump_pipeline, "yearly_observation", counting)
        report = backtest(series, cal, 2015, 2018, window_len=15)
        assert extracted == list(range(2000, 2019))
        for target, model in zip(range(2015, 2019), report.models):
            assert model == fit_window_model(target - 15, target - 1, series, cal)

    def test_reversed_targets_rejected(self, planted, cal):
        series, _ = planted
        with pytest.raises(DomainError):
            backtest(series, cal, 2018, 2015)

    def test_rates_near_1e7(self, cal):
        # the mean form of each error rounds at the scale of the means
        rng = random.Random(1)
        trends = {
            year: (rng.uniform(-0.02, 0.02), rng.uniform(0.5e7, 1.5e7))
            for year in range(1990, 2011)
        }
        spec = SyntheticSpec(trends, constant_jump(0.25), noise_amplitude=0.01, seed=1)
        series = generate_synthetic_series(spec, trends, cal)
        report = backtest(series, cal, 2005, 2010)
        assert [row.target_year for row in report.rows] == list(range(2005, 2011))
        for row in report.rows:
            assert row.error == row.predicted_jump - row.realized_jump
            assert abs(row.error) < 0.05


class TestBacktestRow:
    @pytest.mark.parametrize("level, offset", [(1.0, 1e-6), (1e7, 0.1)])
    @pytest.mark.parametrize("field", ["error", "realized_jump", "realized_mean"])
    def test_inconsistent_error_rejected(self, level, offset, field):
        row = dict(
            target_year=2019,
            predicted_jump=0.5,
            realized_jump=0.25,
            corrected_mean_estimate=level + 0.5,
            realized_mean=level + 0.25,
            error=0.25,
        )
        BacktestRow(**row)
        row[field] += offset
        with pytest.raises(DomainError, match="^inconsistent error for 2019"):
            BacktestRow(**row)


class TestPredictNext:
    def test_target_year_without_post_window_banking_days(self, planted, cal):
        series, _ = planted
        closed = HolidayCalendar(
            holidays=cal.holidays | {date(2019, 12, 27), date(2019, 12, 30), date(2019, 12, 31)}
        )
        model = fit_window_model(2004, 2018, series, cal)
        message = r"^0 banking days with offsets 2\.\.6 after Dec 25 2019$"
        with pytest.raises(InsufficientData, match=message):
            predict_next(series, closed, 2019, model)
    def test_matches_planted_jump_from_pre_window_alone(self, cal):
        planted = BilinearJump((0.005, -9.0, -0.002, 2.0))
        series, trends = planted_series(2004, 2019, planted)
        model = fit_window_model(2004, 2018, series, cal)
        # truncate: nothing after Dec 24 2019 exists at prediction time
        truncated = DailyRateSeries(
            entries=tuple(e for e in series.entries if e[0] < date(2019, 12, 25)),
            tenor_label=series.tenor_label,
        )
        forecast = predict_next(truncated, cal, 2019, model)
        a, b = trends[2019]
        assert abs(forecast.slope_a - a) < 1e-12
        assert abs(forecast.intercept_b - b) < 1e-12
        assert abs(forecast.predicted_jump - bilinear_surface(planted.coefficients, a, b)) < 1e-9

    def test_corrected_mean_is_trend_mean_plus_jump(self, cal):
        series, _ = planted_series(2004, 2019, constant_jump(0.2))
        model = fit_window_model(2004, 2018, series, cal)
        forecast = predict_next(series, cal, 2019, model)
        offsets = post_window_offsets(2019, cal)
        trend = [forecast.slope_a * x + forecast.intercept_b for x in offsets]
        want = math.fsum(trend) / len(offsets) + forecast.predicted_jump
        assert forecast.corrected_mean_estimate == want

    def test_truncated_series_is_incomplete(self, cal):
        series, _ = planted_series(2004, 2019, constant_jump(0.0))
        truncated = DailyRateSeries(
            entries=tuple(e for e in series.entries if e[0] <= date(2019, 12, 10))
        )
        model = fit_window_model(2004, 2018, truncated, cal)
        with pytest.raises(IncompleteWindow):
            predict_next(truncated, cal, 2019, model)

    def test_truncated_series_gives_one_error_on_every_path(self, cal):
        series, _ = planted_series(2004, 2019, constant_jump(0.0))
        truncated = DailyRateSeries(
            entries=tuple(e for e in series.entries if e[0] <= date(2019, 12, 9))
        )
        model = fit_window_model(2004, 2018, truncated, cal)
        messages = set()
        for attempt in (
            lambda: predict_next(truncated, cal, 2019, model),
            lambda: yearly_observation(2019, truncated, cal),
            lambda: backtest(truncated, cal, 2019, 2019),
        ):
            with pytest.raises(IncompleteWindow) as exc_info:
                attempt()
            messages.add(str(exc_info.value))
        assert messages == {
            "pre-window for 2019 runs through 2019-12-24,"
            " but the series ends at 2019-12-09"
        }

    def test_zero_trend_year_returns_the_constant_term(self, cal):
        # a degenerate all-zero pre-window gives a = b = 0
        zeros = linear_series(
            date(2019, 11, 1), date(2019, 12, 24), 0.0, 0.0, year=2019
        )
        forecast = predict_next(zeros, cal, 2019, SURFACE_2019)
        assert forecast.slope_a == 0.0
        assert forecast.intercept_b == 0.0
        assert forecast.predicted_jump == 0.0048
