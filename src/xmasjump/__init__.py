"""Detect and predict the post-Christmas jump in daily interest-rate series.

A daily fixing series tends to step to a new level right after the
December 25 holiday. This package extracts that step year by year with
trend-constrained windowed regressions, models it as a bilinear function
of each year's pre-holiday trend, and evaluates the model with a
walk-forward backtest.
"""

from .data_io import (
    BilinearJump,
    DailyRateSeries,
    FixedJump,
    SyntheticSpec,
    generate_synthetic_series,
    parse_rate_series,
    serialize_rate_series,
    synthetic_spec_from_json,
)
from .errors import (
    DegenerateDesign,
    DegenerateVariance,
    DomainError,
    DuplicateDate,
    IncompleteWindow,
    InsufficientData,
    MissingFixing,
    ParseError,
    RankDeficient,
    TooFewRows,
    WindowTooShort,
    XmasJumpError,
)
from .jump_pipeline import (
    BacktestReport,
    BacktestRow,
    JumpForecast,
    JumpModel,
    YearObservation,
    backtest,
    fit_window_model,
    predict_jump,
    predict_mean_rate,
    predict_next,
    trend_mean_rate,
    yearly_observation,
)
from .market_calendar import (
    HolidayCalendar,
    WindowSample,
    banking_days,
    calendar_from_lines,
    day_offset,
    is_banking_day,
    post_window,
    post_window_offsets,
    pre_window,
)
from .regression_core import (
    BilinearFit,
    DesignMatrix,
    LineFit,
    fit_bilinear,
    fit_intercept_fixed_slope,
    fit_simple_ols,
)
from .stat_inference import (
    CoefficientInference,
    InferenceReport,
    inference_for_fit,
    regularized_incomplete_beta,
    student_t_two_sided_p,
)

__version__ = "0.1.0"

__all__ = [
    "BacktestReport",
    "BacktestRow",
    "BilinearFit",
    "BilinearJump",
    "CoefficientInference",
    "DailyRateSeries",
    "DegenerateDesign",
    "DegenerateVariance",
    "DesignMatrix",
    "DomainError",
    "DuplicateDate",
    "FixedJump",
    "HolidayCalendar",
    "IncompleteWindow",
    "InferenceReport",
    "InsufficientData",
    "JumpForecast",
    "JumpModel",
    "LineFit",
    "MissingFixing",
    "ParseError",
    "RankDeficient",
    "SyntheticSpec",
    "TooFewRows",
    "WindowSample",
    "WindowTooShort",
    "XmasJumpError",
    "YearObservation",
    "backtest",
    "banking_days",
    "calendar_from_lines",
    "day_offset",
    "fit_bilinear",
    "fit_intercept_fixed_slope",
    "fit_simple_ols",
    "fit_window_model",
    "generate_synthetic_series",
    "inference_for_fit",
    "is_banking_day",
    "parse_rate_series",
    "post_window",
    "post_window_offsets",
    "pre_window",
    "predict_jump",
    "predict_mean_rate",
    "predict_next",
    "regularized_incomplete_beta",
    "serialize_rate_series",
    "student_t_two_sided_p",
    "synthetic_spec_from_json",
    "trend_mean_rate",
    "yearly_observation",
]
