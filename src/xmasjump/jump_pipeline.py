"""Per-year jump extraction, the bilinear meta-model over years, and the
walk-forward backtest.

One year's analysis: fit a line to the 15 banking days before December 25,
keep its slope for the days after the holiday, re-fit only the intercept
there, and call the intercept gap the year's jump. The meta-model regresses
those jumps on each year's (slope, intercept) with a bilinear surface and
predicts the next year's jump from its pre-event trend alone.
"""

import math
from collections.abc import Sequence

from .data_io import DailyRateSeries, _finite_tuple
from .errors import DomainError, WindowTooShort
from .market_calendar import (
    HolidayCalendar,
    PRE_WINDOW_DAYS,
    _year_windows,
    post_window_offsets,
    pre_window,
)
from .regression_core import (
    MIN_DESIGN_ROWS,
    N_PARAMETERS,
    _fsum,
    bilinear_surface,
    design_row,
    fit_intercept_fixed_slope,
    fit_simple_ols,
    window_fits,
)
from .record import Record, set_field
from .stat_inference import CoefficientInference, _inference, _StudentT

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
    """The bilinear jump surface fitted over a contiguous span of years:
    ``window_years`` holds two ints, ``coefficients`` four finite numbers."""

    __slots__ = ("window_years", "coefficients", "inference", "adjusted_r2")

    def __init__(self, window_years: tuple[int, int], coefficients: Sequence[float],
                 inference: Sequence[CoefficientInference] = (), adjusted_r2: float = math.nan):
        years = tuple(window_years) if isinstance(window_years, Sequence) else ()
        if list(map(type, years)) != [int, int]:
            raise DomainError(f"window_years must be two integer years, got {window_years!r}")
        check_window_span(*years)
        values = _finite_tuple(coefficients, N_PARAMETERS)
        if values is None:
            raise DomainError(
                f"coefficients must be {N_PARAMETERS} finite numbers: {coefficients!r}"
            )
        set_field(self, "window_years", years)
        set_field(self, "coefficients", values)
        set_field(self, "inference", tuple(inference))
        set_field(self, "adjusted_r2", adjusted_r2)


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
    intercept, and records the intercept difference as the jump. The
    windows are cut by the walk that ``backtest`` cuts its years with.
    """
    return _observations(range(year, year + 1), series, cal, pre_days)[0]


def _observation(year: int, pre: tuple, post: tuple) -> YearObservation:
    """``year``'s observation from its ``pre_window`` and ``post_window``."""
    pre_offsets, pre_rates, pre_warning = pre
    post_offsets, post_rates, post_warning = post
    slope, intercept = fit_simple_ols(pre_offsets, pre_rates)
    post_intercept = fit_intercept_fixed_slope(post_offsets, post_rates, slope)
    post_mean = _fsum(post_rates) / len(post_rates)
    jump = post_intercept - intercept
    return YearObservation(year, slope, intercept, post_intercept, jump,
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
    observations = _observations(range(first_year, last_year + 1), series, cal, pre_days)
    rows = _design_rows(observations)
    fit = next(window_fits(rows, len(rows), first_year))
    return _model(observations, fit, _StudentT(len(rows) - N_PARAMETERS))


def _observations(years: range, series: DailyRateSeries, cal: HolidayCalendar,
                  pre_days: int) -> list[YearObservation]:
    """The observation of each of ``years``, in order, with their windows
    cut by one ``_year_windows`` walk."""
    windows = _year_windows(years, series, cal, pre_days)
    return [_observation(year, *pair) for year, pair in zip(years, windows)]


def _design_rows(observations: Sequence[YearObservation]) -> list[tuple]:
    """The observations' design rows; an overflow names its year."""
    rows = []
    for obs in observations:
        try:
            rows.append(design_row(obs.slope_a, obs.intercept_b, obs.jump_delta))
        except DomainError as exc:
            raise DomainError(f"{exc} in year {obs.year}") from None
    return rows


def check_window_span(first_year: int, last_year: int) -> None:
    """Raise WindowTooShort unless [first_year, last_year] holds at least
    MIN_WINDOW_YEARS years."""
    if last_year - first_year + 1 < MIN_WINDOW_YEARS:
        raise WindowTooShort(
            f"window {first_year}-{last_year} must span at least"
            f" {MIN_WINDOW_YEARS} years"
        )


def _model(observations: Sequence[YearObservation], fit: tuple,
           student_t: _StudentT) -> JumpModel:
    """The model of consecutive years' observations from their bilinear fit,
    with p-values from ``student_t``, built for as many years less
    ``N_PARAMETERS`` degrees of freedom."""
    inference, adjusted_r2 = _inference([obs.jump_delta for obs in observations], fit, student_t)
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
    touches T itself. Every year from the first window's through
    ``last_target`` is extracted once, in ascending order, before any model
    is fitted; the function then drops its reference to ``series``, so a
    series passed as a temporary is freed while the models are built.
    An extraction error is raised where it is met, as in
    ``fit_window_model``: a target year that cannot be extracted is
    reported first, even when an earlier window's fit would fail.

    The models' fits come from one ``window_fits`` walk over the years'
    design rows, which shares factors between windows; a window's fit
    depends only on its rows and years, so each model is the one
    ``fit_window_model`` gives for the same years.
    """
    if last_target < first_target:
        raise DomainError("last_target precedes first_target")
    check_window_span(first_target - window_len, first_target - 1)
    years = range(first_target - window_len, last_target + 1)
    table = _observations(years, series, cal, pre_days)
    del series
    fits = window_fits(_design_rows(table), window_len, first_target - window_len)
    student_t = _StudentT(window_len - N_PARAMETERS)
    rows = []
    models = []
    for start, obs in enumerate(table[window_len:]):
        model = _model(table[start:start + window_len], next(fits), student_t)
        predicted, estimate = _forecast(model, obs.slope_a, obs.intercept_b, obs.post_offsets)
        realized = obs.jump_delta
        error = predicted - realized
        rows.append(BacktestRow(obs.year, predicted, realized, estimate, obs.post_mean, error))
        models.append(model)
    return BacktestReport(window_len, tuple(rows), tuple(models))


def _forecast(model: JumpModel, slope_a: float, intercept_b: float,
              post_offsets: Sequence[int]) -> tuple[float, float]:
    """``(predicted_jump, corrected_mean_estimate)`` from a year's trend: the
    model's jump, then the mean rate the trend alone implies over the post
    offsets, plus the jump."""
    predicted = bilinear_surface(model.coefficients, slope_a, intercept_b)
    trend_mean = _fsum(slope_a * x + intercept_b for x in post_offsets) / len(post_offsets)
    return predicted, trend_mean + predicted


def predict_next(
    series: DailyRateSeries,
    cal: HolidayCalendar,
    target_year: int,
    model: JumpModel,
    pre_days: int = PRE_WINDOW_DAYS,
) -> JumpForecast:
    """Predict the target year's jump from its pre-event window alone.

    ``model`` must end before ``target_year``, or it would have seen its
    answer: DomainError. Runnable on or after the last pre-event banking day
    (before that, ``pre_window`` raises IncompleteWindow); the post-event
    mean estimate uses the calendar's ``post_window_offsets``, so no
    post-event fixings are needed.
    """
    if model.window_years[1] >= target_year:
        raise DomainError(f"model window {model.window_years[0]}-{model.window_years[1]}"
                          f" must end before the target year {target_year}")
    offsets, rates, _ = pre_window(target_year, series, cal, n=pre_days)
    slope, intercept = fit_simple_ols(offsets, rates)
    predicted, estimate = _forecast(model, slope, intercept, post_window_offsets(target_year, cal))
    return JumpForecast(target_year, slope, intercept, predicted, estimate)
