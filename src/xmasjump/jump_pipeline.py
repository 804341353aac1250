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
from dataclasses import asdict, dataclass
from datetime import date, timedelta
from typing import Sequence

from .data_io import DailyRateSeries
from .errors import DomainError, IncompleteWindow, WindowTooShort
from .market_calendar import (
    HolidayCalendar,
    PRE_WINDOW_DAYS,
    is_banking_day,
    post_window,
    post_window_offsets,
    pre_window,
)
from .regression_core import DesignMatrix, fit_bilinear, fit_intercept_fixed_slope, fit_simple_ols
from .stat_inference import CoefficientInference, inference_for_fit

MIN_WINDOW_YEARS = 5


@dataclass(frozen=True)
class YearObservation:
    """One year's fitted trend, post-event intercept, and jump.

    ``jump_delta`` is ``post_intercept - intercept_b`` by construction:
    how far the rate level stepped across the holiday once the shared
    trend is accounted for. ``post_offsets`` and ``post_mean`` are the
    post window's banking-day offsets and its mean rate, so a backtest
    can score the year without cutting the window again.
    """

    year: int
    slope_a: float
    intercept_b: float
    post_intercept: float
    jump_delta: float
    post_offsets: tuple[int, ...]
    post_mean: float
    pre_warning: str | None = None
    post_warning: str | None = None


@dataclass(frozen=True)
class JumpModel:
    """The bilinear jump surface fitted over a contiguous span of years."""

    window_years: tuple[int, int]
    coefficients: tuple[float, float, float, float]
    inference: tuple[CoefficientInference, ...] = ()
    adjusted_r2: float = math.nan

    def __post_init__(self):
        first, last = self.window_years
        if last - first + 1 < MIN_WINDOW_YEARS:
            raise WindowTooShort(
                f"model window {first}-{last} spans fewer than"
                f" {MIN_WINDOW_YEARS} years"
            )
        object.__setattr__(self, "window_years", (int(first), int(last)))
        object.__setattr__(self, "coefficients", tuple(float(c) for c in self.coefficients))
        object.__setattr__(self, "inference", tuple(self.inference))

    def to_dict(self) -> dict:
        """Key/value tree with fields named exactly as the dataclasses.

        Tuples become lists so the tree round-trips through JSON
        unchanged.
        """
        return _listify(asdict(self))


@dataclass(frozen=True)
class BacktestRow:
    """One target year of the walk-forward table.

    ``error`` equals both ``predicted_jump - realized_jump`` and
    ``corrected_mean_estimate - realized_mean``; the constructor rejects
    rows where the two disagree.
    """

    target_year: int
    predicted_jump: float
    realized_jump: float
    corrected_mean_estimate: float
    realized_mean: float
    error: float

    def __post_init__(self):
        jump_gap = self.predicted_jump - self.realized_jump
        mean_gap = self.corrected_mean_estimate - self.realized_mean
        if abs(self.error - jump_gap) > 1e-9 or abs(self.error - mean_gap) > 1e-9:
            raise DomainError(
                f"inconsistent error for {self.target_year}:"
                f" {self.error} vs {jump_gap} and {mean_gap}"
            )


@dataclass(frozen=True)
class BacktestReport:
    """Walk-forward rows plus the model fitted for each target year."""

    rows: tuple[BacktestRow, ...]
    models: tuple[JumpModel, ...]
    window_len: int

    def to_dict(self) -> dict:
        """Key/value tree with fields named exactly as the dataclasses,
        models as in ``JumpModel.to_dict``."""
        return {
            "window_len": self.window_len,
            "rows": [asdict(row) for row in self.rows],
            "models": [model.to_dict() for model in self.models],
        }


def _listify(value):
    if isinstance(value, (list, tuple)):
        return [_listify(v) for v in value]
    if isinstance(value, dict):
        return {k: _listify(v) for k, v in value.items()}
    return value


@dataclass(frozen=True)
class JumpForecast:
    """A prediction made from the pre-event window alone."""

    target_year: int
    slope_a: float
    intercept_b: float
    predicted_jump: float
    corrected_mean_estimate: float


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
    pre = pre_window(year, series, cal, n=pre_days)
    post = post_window(year, series, cal)
    trend = fit_simple_ols(pre.offsets, pre.rates)
    post_intercept = fit_intercept_fixed_slope(post.offsets, post.rates, trend.slope)
    return YearObservation(
        year=year,
        slope_a=trend.slope,
        intercept_b=trend.intercept,
        post_intercept=post_intercept,
        jump_delta=post_intercept - trend.intercept,
        post_offsets=post.offsets,
        post_mean=math.fsum(post.rates) / len(post.rates),
        pre_warning=pre.warning,
        post_warning=post.warning,
    )


def fit_window_model(
    first_year: int,
    last_year: int,
    series: DailyRateSeries,
    cal: HolidayCalendar,
    pre_days: int = PRE_WINDOW_DAYS,
) -> JumpModel:
    """Fit the bilinear jump surface over [first_year, last_year]."""
    _check_window_span(first_year, last_year)
    return _fit_observations(
        [
            yearly_observation(year, series, cal, pre_days)
            for year in range(first_year, last_year + 1)
        ]
    )


def _check_window_span(first_year: int, last_year: int) -> None:
    if last_year - first_year + 1 < MIN_WINDOW_YEARS:
        raise WindowTooShort(
            f"window {first_year}-{last_year} spans fewer than"
            f" {MIN_WINDOW_YEARS} years"
        )


def _fit_observations(observations: Sequence[YearObservation]) -> JumpModel:
    """Fit the bilinear jump surface to consecutive years' observations."""
    design = DesignMatrix.from_trends(
        [(obs.slope_a, obs.intercept_b) for obs in observations],
        [obs.jump_delta for obs in observations],
    )
    fit = fit_bilinear(design)
    report = inference_for_fit(design, fit)
    return JumpModel(
        window_years=(observations[0].year, observations[-1].year),
        coefficients=fit.coefficients,
        inference=report.coefficients,
        adjusted_r2=report.adjusted_r2,
    )


def predict_jump(model: JumpModel, slope_a: float, intercept_b: float) -> float:
    """Evaluate the fitted jump surface at (slope, intercept)."""
    c0, c1, c2, c3 = model.coefficients
    return c0 + c1 * slope_a + c2 * intercept_b + c3 * slope_a * intercept_b


def trend_mean_rate(
    slope_a: float, intercept_b: float, post_offsets: Sequence[int]
) -> float:
    """Mean rate the pre-event trend alone implies over the post offsets."""
    if not post_offsets:
        raise DomainError("post_offsets must be non-empty")
    return math.fsum(slope_a * x + intercept_b for x in post_offsets) / len(post_offsets)


def predict_mean_rate(
    slope_a: float,
    intercept_b: float,
    post_offsets: Sequence[int],
    predicted_jump: float,
) -> float:
    """Jump-corrected estimate of the post-event mean rate."""
    return trend_mean_rate(slope_a, intercept_b, post_offsets) + predicted_jump


def backtest(
    series: DailyRateSeries,
    cal: HolidayCalendar,
    first_target: int,
    last_target: int,
    window_len: int = 15,
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
    _check_window_span(first_target - window_len, first_target - 1)
    table = [
        yearly_observation(year, series, cal, pre_days)
        for year in range(first_target - window_len, first_target)
    ]
    rows = []
    models = []
    for target in range(first_target, last_target + 1):
        model = _fit_observations(table[-window_len:])
        obs = yearly_observation(target, series, cal, pre_days)
        table.append(obs)
        forecast = _forecast(model, target, obs.slope_a, obs.intercept_b, obs.post_offsets)
        rows.append(
            BacktestRow(
                target_year=target,
                predicted_jump=forecast.predicted_jump,
                realized_jump=obs.jump_delta,
                corrected_mean_estimate=forecast.corrected_mean_estimate,
                realized_mean=obs.post_mean,
                error=forecast.predicted_jump - obs.jump_delta,
            )
        )
        models.append(model)
    return BacktestReport(rows=tuple(rows), models=tuple(models), window_len=window_len)


def _forecast(
    model: JumpModel,
    target_year: int,
    slope_a: float,
    intercept_b: float,
    post_offsets: Sequence[int],
) -> JumpForecast:
    """Trend, then the predicted jump, then the jump-corrected mean."""
    predicted = predict_jump(model, slope_a, intercept_b)
    return JumpForecast(
        target_year=target_year,
        slope_a=slope_a,
        intercept_b=intercept_b,
        predicted_jump=predicted,
        corrected_mean_estimate=predict_mean_rate(
            slope_a, intercept_b, post_offsets, predicted
        ),
    )


def predict_next(
    series: DailyRateSeries,
    cal: HolidayCalendar,
    target_year: int,
    model: JumpModel,
    pre_days: int = PRE_WINDOW_DAYS,
) -> JumpForecast:
    """Predict the target year's jump from its pre-event window alone.

    Runnable on or after the last pre-event banking day; the post-event
    mean estimate uses the calendar's banking-day offsets, so no
    post-event fixings are needed.
    """
    last_pre = _last_banking_day_before_event(target_year, cal)
    if len(series) == 0 or series.last_date < last_pre:
        have = series.last_date.isoformat() if len(series) else "no fixings"
        raise IncompleteWindow(
            f"pre-window for {target_year} runs through {last_pre.isoformat()},"
            f" but the series ends at {have}"
        )
    pre = pre_window(target_year, series, cal, n=pre_days)
    trend = fit_simple_ols(pre.offsets, pre.rates)
    return _forecast(
        model,
        target_year,
        trend.slope,
        trend.intercept,
        post_window_offsets(target_year, cal),
    )


def _last_banking_day_before_event(year: int, cal: HolidayCalendar) -> date:
    d = date(year, 12, 24)
    floor = date(year, 1, 1)
    while d >= floor:
        if is_banking_day(d, cal):
            return d
        d -= timedelta(days=1)
    raise DomainError(f"calendar admits no banking day before Dec 25 {year}")
