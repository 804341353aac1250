"""Detect and predict the post-Christmas jump in daily interest-rate series.

A daily fixing series tends to step to a new level right after the
December 25 holiday. This package extracts that step year by year with
trend-constrained windowed regressions, models it as a bilinear function
of each year's pre-holiday trend, and evaluates the model with a
walk-forward backtest.

The package root exports the pipeline: series input and output, the
holiday calendar, the synthetic generator, the four pipeline steps with
their records, and the base error. Layer functions, constants and the
specific error types are imported from their modules (``market_calendar``,
``regression_core``, ``stat_inference``, ``jump_pipeline``, ``errors``).
"""

from .data_io import (
    BilinearJump,
    DailyRateSeries,
    SyntheticSpec,
    generate_synthetic_series,
    parse_rate_series,
    serialize_rate_series,
    synthetic_spec_from_json,
)
from .errors import XmasJumpError
from .jump_pipeline import (
    BacktestReport,
    BacktestRow,
    JumpForecast,
    JumpModel,
    YearObservation,
    backtest,
    fit_window_model,
    predict_next,
    yearly_observation,
)
from .market_calendar import HolidayCalendar, calendar_from_lines

__version__ = "0.1.0"

__all__ = [
    "BacktestReport",
    "BacktestRow",
    "BilinearJump",
    "DailyRateSeries",
    "HolidayCalendar",
    "JumpForecast",
    "JumpModel",
    "SyntheticSpec",
    "XmasJumpError",
    "YearObservation",
    "backtest",
    "calendar_from_lines",
    "fit_window_model",
    "generate_synthetic_series",
    "parse_rate_series",
    "predict_next",
    "serialize_rate_series",
    "synthetic_spec_from_json",
    "yearly_observation",
]
