"""Per-year jump extraction, the bilinear meta-model over years, and the
walk-forward backtest.

One year's analysis: fit a line to the 15 banking days before December 25,
keep its slope for the days after the holiday, re-fit only the intercept
there, and call the intercept gap the year's jump. The meta-model regresses
those jumps on each year's (slope, intercept) with a bilinear surface and
predicts the next year's jump from its pre-event trend alone.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .data_io import DailyRateSeries
from .errors import DomainError, InsufficientData, WindowTooShort
from .market_calendar import (
    HolidayCalendar,
    PRE_WINDOW_DAYS,
    post_window,
    post_window_offsets,
    pre_window,
)
from .regression_core import (
    MIN_DESIGN_ROWS,
    bilinear_surface,
    fit_bilinear,
    fit_intercept_fixed_slope,
    fit_simple_ols,
)
from .record import Record, set_field
from .stat_inference import CoefficientInference, inference_for_fit

# Years in a model's fitting window by default; one design row per year,
# so the fewest allowed is the bilinear fit's minimum.
WINDOW_YEARS = 15
MIN_WINDOW_YEARS = MIN_DESIGN_ROWS


class YearObservation(Record):
    """One year's fitted trend, post-event intercept, and jump.

    ``jump_delta`` is ``post_intercept - intercept_b`` by construction:
    how far the rate level stepped across the holiday once the shared
    trend is accounted for. ``post_offsets`` and ``post_mean`` are the
    post window's banking-day offsets and its mean rate, so a backtest
    can score the year without cutting the window again.
    """

    __slots__ = ("year", "slope_a", "intercept_b", "post_intercept", "jump_delta",
                 "post_offsets", "post_mean", "pre_warning", "post_warning")

    def __init__(self, year: int, slope_a: float, intercept_b: float, post_intercept: float,
                 jump_delta: float, post_offsets: tuple[int, ...], post_mean: float,
                 pre_warning: str | None = None, post_warning: str | None = None):
        set_field(self, "year", year)
        set_field(self, "slope_a", slope_a)
        set_field(self, "intercept_b", intercept_b)
        set_field(self, "post_intercept", post_intercept)
        set_field(self, "jump_delta", jump_delta)
        set_field(self, "post_offsets", post_offsets)
        set_field(self, "post_mean", post_mean)
        set_field(self, "pre_warning", pre_warning)
        set_field(self, "post_warning", post_warning)


class JumpModel(Record):
    """The bilinear jump surface fitted over a contiguous span of years."""

    __slots__ = ("window_years", "coefficients", "inference", "adjusted_r2")

    def __init__(self, window_years: tuple[int, int], coefficients: Sequence[float],
                 inference: Sequence[CoefficientInference] = (), adjusted_r2: float = math.nan):
        first, last = window_years
        check_window_span(first, last)
        set_field(self, "window_years", (int(first), int(last)))
        set_field(self, "coefficients", tuple(float(c) for c in coefficients))
        set_field(self, "inference", tuple(inference))
        set_field(self, "adjusted_r2", adjusted_r2)

    def to_dict(self) -> dict:
        """Field name to value, tuples as lists: JSON round-trips it unchanged."""
        return {
            "window_years": list(self.window_years),
            "coefficients": list(self.coefficients),
            "inference": [ci.to_dict() for ci in self.inference],
            "adjusted_r2": self.adjusted_r2,
        }


class BacktestRow(Record):
    """One target year of the walk-forward table.

    ``error`` equals both ``predicted_jump - realized_jump`` and
    ``corrected_mean_estimate - realized_mean``; the constructor rejects
    rows where they differ by more than 1e-9 times max(1, |each mean|).
    """

    __slots__ = ("target_year", "predicted_jump", "realized_jump", "corrected_mean_estimate",
                 "realized_mean", "error")

    def __init__(self, target_year: int, predicted_jump: float, realized_jump: float,
                 corrected_mean_estimate: float, realized_mean: float, error: float):
        jump_gap = predicted_jump - realized_jump
        mean_gap = corrected_mean_estimate - realized_mean
        bound = 1e-9 * max(1.0, abs(corrected_mean_estimate), abs(realized_mean))
        if abs(error - jump_gap) > bound or abs(error - mean_gap) > bound:
            raise DomainError(
                f"inconsistent error for {target_year}:"
                f" {error} vs {jump_gap} and {mean_gap}"
            )
        set_field(self, "target_year", target_year)
        set_field(self, "predicted_jump", predicted_jump)
        set_field(self, "realized_jump", realized_jump)
        set_field(self, "corrected_mean_estimate", corrected_mean_estimate)
        set_field(self, "realized_mean", realized_mean)
        set_field(self, "error", error)


class BacktestReport(Record):
    """Walk-forward rows plus the model fitted for each target year."""

    __slots__ = ("window_len", "rows", "models")

    def __init__(self, window_len: int, rows: tuple[BacktestRow, ...],
                 models: tuple[JumpModel, ...]):
        set_field(self, "window_len", window_len)
        set_field(self, "rows", rows)
        set_field(self, "models", models)

    def to_dict(self) -> dict:
        """Field name to value, rows and models as JSON-ready dicts."""
        return {
            "window_len": self.window_len,
            "rows": [row.to_dict() for row in self.rows],
            "models": [model.to_dict() for model in self.models],
        }


class JumpForecast(Record):
    """A prediction made from the pre-event window alone."""

    __slots__ = ("target_year", "slope_a", "intercept_b", "predicted_jump",
                 "corrected_mean_estimate")

    def __init__(self, target_year: int, slope_a: float, intercept_b: float,
                 predicted_jump: float, corrected_mean_estimate: float):
        set_field(self, "target_year", target_year)
        set_field(self, "slope_a", slope_a)
        set_field(self, "intercept_b", intercept_b)
        set_field(self, "predicted_jump", predicted_jump)
        set_field(self, "corrected_mean_estimate", corrected_mean_estimate)


def yearly_observation(
    year: int,
    series: DailyRateSeries,
    cal: HolidayCalendar,
    pre_days: int = PRE_WINDOW_DAYS,
) -> YearObservation:
    """Extract one year's trend and jump from its two windows.

    Fits the pre-window line, holds its slope fixed across the holiday
    (the trend barely moves over a few days), re-fits the post-window
    intercept, and records the intercept difference as the jump.
    """
    pre_offsets, pre_rates, pre_warning = pre_window(year, series, cal, n=pre_days)
    post_offsets, post_rates, post_warning = post_window(year, series, cal)
    trend = fit_simple_ols(pre_offsets, pre_rates)
    post_intercept = fit_intercept_fixed_slope(post_offsets, post_rates, trend.slope)
    post_mean = math.fsum(post_rates) / len(post_rates)
    jump = post_intercept - trend.intercept
    return YearObservation(year, trend.slope, trend.intercept, post_intercept, jump,
                           post_offsets, post_mean, pre_warning, post_warning)


def fit_window_model(
    first_year: int,
    last_year: int,
    series: DailyRateSeries,
    cal: HolidayCalendar,
    pre_days: int = PRE_WINDOW_DAYS,
) -> JumpModel:
    """Fit the bilinear jump surface over [first_year, last_year]."""
    check_window_span(first_year, last_year)
    years = range(first_year, last_year + 1)
    return _fit_observations([yearly_observation(y, series, cal, pre_days) for y in years])


def check_window_span(first_year: int, last_year: int) -> None:
    """Raise WindowTooShort unless [first_year, last_year] holds at least
    MIN_WINDOW_YEARS years."""
    if last_year - first_year + 1 < MIN_WINDOW_YEARS:
        raise WindowTooShort(
            f"window {first_year}-{last_year} must span at least"
            f" {MIN_WINDOW_YEARS} years"
        )


def _fit_observations(observations: Sequence[YearObservation]) -> JumpModel:
    """Fit the bilinear jump surface to consecutive years' observations."""
    targets = [obs.jump_delta for obs in observations]
    fit = fit_bilinear([(obs.slope_a, obs.intercept_b) for obs in observations], targets)
    inference, adjusted_r2 = inference_for_fit(targets, fit)
    window_years = (observations[0].year, observations[-1].year)
    return JumpModel(window_years, fit[0], inference, adjusted_r2)


def backtest(
    series: DailyRateSeries,
    cal: HolidayCalendar,
    first_target: int,
    last_target: int,
    window_len: int = WINDOW_YEARS,
    pre_days: int = PRE_WINDOW_DAYS,
) -> BacktestReport:
    """Walk-forward evaluation over the target years.

    Each target year T is predicted by a model fitted on the window_len
    years immediately before it, [T - window_len, T - 1]; the window never
    touches T itself. Each year is extracted once, in ascending order, into
    a table whose last window_len entries are the next target's window.
    """
    if last_target < first_target:
        raise DomainError("last_target precedes first_target")
    check_window_span(first_target - window_len, first_target - 1)
    years = range(first_target - window_len, first_target)
    table = [yearly_observation(year, series, cal, pre_days) for year in years]
    rows = []
    models = []
    for target in range(first_target, last_target + 1):
        model = _fit_observations(table[-window_len:])
        obs = yearly_observation(target, series, cal, pre_days)
        table.append(obs)
        forecast = _forecast(model, target, obs.slope_a, obs.intercept_b, obs.post_offsets)
        predicted, realized = forecast.predicted_jump, obs.jump_delta
        estimate, error = forecast.corrected_mean_estimate, predicted - realized
        rows.append(BacktestRow(target, predicted, realized, estimate, obs.post_mean, error))
        models.append(model)
    return BacktestReport(window_len, tuple(rows), tuple(models))


def _forecast(model: JumpModel, target_year: int, slope_a: float, intercept_b: float,
              post_offsets: Sequence[int]) -> JumpForecast:
    """Trend, then the predicted jump, then the jump-corrected mean: the
    mean rate the trend alone implies over the post offsets, plus the jump."""
    predicted = bilinear_surface(model.coefficients, slope_a, intercept_b)
    trend_mean = math.fsum(slope_a * x + intercept_b for x in post_offsets) / len(post_offsets)
    estimate = trend_mean + predicted
    return JumpForecast(target_year, slope_a, intercept_b, predicted, estimate)


def predict_next(
    series: DailyRateSeries,
    cal: HolidayCalendar,
    target_year: int,
    model: JumpModel,
    pre_days: int = PRE_WINDOW_DAYS,
) -> JumpForecast:
    """Predict the target year's jump from its pre-event window alone.

    Runnable on or after the last pre-event banking day (before that,
    ``pre_window`` raises IncompleteWindow); the post-event mean estimate
    uses the calendar's banking-day offsets, so no post-event fixings are
    needed; a calendar without any of them is InsufficientData.
    """
    offsets, rates, _ = pre_window(target_year, series, cal, n=pre_days)
    trend = fit_simple_ols(offsets, rates)
    post_offsets = post_window_offsets(target_year, cal)
    if not post_offsets:
        raise InsufficientData(f"0 banking days with offsets 2..6 after Dec 25 {target_year}")
    return _forecast(model, target_year, trend.slope, trend.intercept, post_offsets)
