"""Command-line frontend: per-year analysis, backtesting, prediction, and
fixture generation.

Exit codes: 0 success, 1 data or calendar error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

from .data_io import (
    generate_synthetic_series,
    parse_rate_series,
    serialize_rate_series,
    synthetic_spec_from_json,
)
from .errors import XmasJumpError
from .jump_pipeline import (
    MIN_WINDOW_YEARS,
    backtest,
    fit_window_model,
    predict_next,
    yearly_observation,
)
from .market_calendar import PRE_WINDOW_MIN, HolidayCalendar, calendar_from_lines

DATA_ENV_VAR = "XMASJUMP_DATA"

EXIT_OK = 0
EXIT_DATA_ERROR = 1
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xmasjump",
        description=(
            "Detect and predict the post-Christmas jump in a daily"
            " interest-rate series."
        ),
        epilog=(
            f"Exit codes: {EXIT_OK} success, {EXIT_DATA_ERROR} data/calendar error,"
            f" {EXIT_USAGE} usage error. ${DATA_ENV_VAR} supplies a default for --data."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--data",
        metavar="PATH",
        default=None,
        help=f"rate series file (default: ${DATA_ENV_VAR})",
    )
    common.add_argument(
        "--calendar",
        metavar="PATH",
        default=None,
        help="holiday override file, one YYYY-MM-DD or --MM-DD per line",
    )
    common.add_argument(
        "--pre-days",
        type=int,
        default=15,
        metavar="N",
        help="banking days in the pre-event trend window (default 15)",
    )
    common.add_argument(
        "--format",
        choices=("table", "json-like"),
        default="table",
        help="output rendering (default table)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "fit-year", parents=[common], help="fit one year's trend and jump"
    )
    p.add_argument("year", type=int)

    p = sub.add_parser(
        "backtest", parents=[common], help="walk-forward backtest over target years"
    )
    p.add_argument("first_target", type=int)
    p.add_argument("last_target", type=int)
    p.add_argument(
        "--window-len",
        type=int,
        default=15,
        metavar="N",
        help="years in each fitting window (default 15)",
    )

    p = sub.add_parser(
        "predict",
        parents=[common],
        help="predict a year's jump from its pre-event window alone",
    )
    p.add_argument("target_year", type=int)
    p.add_argument(
        "--window-len",
        type=int,
        default=15,
        metavar="N",
        help="years in the fitting window (default 15)",
    )
    p.add_argument(
        "--model-years",
        metavar="FIRST-LAST",
        default=None,
        help="pin the fitting window, e.g. 2004-2018 (reuse an older model)",
    )

    p = sub.add_parser("generate", help="write a deterministic synthetic fixture")
    p.add_argument("--spec", required=True, metavar="PATH", help="generator spec (JSON)")
    p.add_argument("--out", required=True, metavar="PATH", help="output series path")
    p.add_argument(
        "--calendar",
        metavar="PATH",
        default=None,
        help="holiday override file for banking-day layout",
    )
    for command_parser in sub.choices.values():
        # errors found after parsing print the subcommand's usage line
        command_parser.set_defaults(command_parser=command_parser)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed its message
        return int(exc.code or 0)
    try:
        _validate_args(args.command_parser, args)
        cal = _load_calendar(args)
        if args.command == "generate":
            return _cmd_generate(args, cal)
        series = _load_series(args.command_parser, args)
        if args.command == "fit-year":
            return _cmd_fit_year(args, series, cal)
        if args.command == "backtest":
            return _cmd_backtest(args, series, cal)
        return _cmd_predict(args, series, cal)
    except SystemExit as exc:  # parser.error() inside validation
        return int(exc.code or 0)
    except (XmasJumpError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR


def _validate_args(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    if getattr(args, "window_len", MIN_WINDOW_YEARS) < MIN_WINDOW_YEARS:
        parser.error(f"--window-len must be at least {MIN_WINDOW_YEARS}")
    if getattr(args, "pre_days", PRE_WINDOW_MIN) < PRE_WINDOW_MIN:
        parser.error(f"--pre-days must be at least {PRE_WINDOW_MIN}")
    if getattr(args, "model_years", None) is not None:
        try:
            first, last = _parse_year_range(args.model_years)
        except ValueError:
            parser.error("--model-years must look like FIRST-LAST, e.g. 2004-2018")
        if last < first:
            parser.error("--model-years range is reversed")
        if last - first + 1 < MIN_WINDOW_YEARS:
            parser.error(f"--model-years must span at least {MIN_WINDOW_YEARS} years")


def _parse_year_range(text: str) -> tuple[int, int]:
    first_text, last_text = text.split("-", 1)
    return int(first_text), int(last_text)


def _load_series(parser, args):
    path = args.data or os.environ.get(DATA_ENV_VAR)
    if not path:
        parser.error(f"no data file: pass --data or set ${DATA_ENV_VAR}")
    return parse_rate_series(Path(path).read_text())


def _load_calendar(args) -> HolidayCalendar:
    if getattr(args, "calendar", None):
        return calendar_from_lines(Path(args.calendar).read_text())
    return HolidayCalendar()


def _format_rate(value: float) -> str:
    text = f"{value:.4f}"
    return "0.0000" if text == "-0.0000" else text


def _format_coefficient(value: float) -> str:
    if value != 0.0 and abs(value) < 1e-3:
        return f"{value:.4e}"
    return f"{value:.5g}"


def _print_kv(pairs: list[tuple[str, str]]) -> None:
    width = max(len(label) for label, _ in pairs)
    for label, value in pairs:
        print(f"{label:<{width}}  {value}")


def _cmd_fit_year(args, series, cal) -> int:
    obs = yearly_observation(args.year, series, cal, pre_days=args.pre_days)
    if args.format == "json-like":
        print(json.dumps(asdict(obs), indent=2))
        return EXIT_OK
    _print_kv(
        [
            ("year", str(obs.year)),
            ("trend slope", _format_coefficient(obs.slope_a)),
            ("trend intercept", _format_rate(obs.intercept_b)),
            ("post intercept", _format_rate(obs.post_intercept)),
            ("jump", _format_rate(obs.jump_delta)),
            ("pre window", obs.pre_warning or "ok"),
            ("post window", obs.post_warning or "ok"),
        ]
    )
    return EXIT_OK


def _cmd_backtest(args, series, cal) -> int:
    report = backtest(
        series,
        cal,
        args.first_target,
        args.last_target,
        window_len=args.window_len,
        pre_days=args.pre_days,
    )
    if args.format == "json-like":
        print(json.dumps(report.to_dict(), indent=2))
        return EXIT_OK
    _print_backtest_table(report)
    return EXIT_OK


def _print_backtest_table(report) -> None:
    last = len(report.rows) - 1
    columns = []
    for i, (row, model) in enumerate(zip(report.rows, report.models)):
        first_year, last_year = model.window_years
        cells = [f"{first_year}-{last_year}", str(row.target_year)]
        for ci in model.inference:
            text = _format_coefficient(ci.estimate)
            if i == last:  # p-values accompany the most recent model only
                text += f" (p={_format_coefficient(ci.p_value)})"
            cells.append(text)
        cells.extend(
            [
                _format_rate(model.adjusted_r2),
                _format_rate(row.predicted_jump),
                _format_rate(row.realized_jump),
                _format_rate(row.corrected_mean_estimate),
                _format_rate(row.realized_mean),
                _format_rate(row.error),
            ]
        )
        columns.append(cells)
    labels = [
        "Model years",
        "Target year",
        "beta0 (1)",
        "beta1 (a)",
        "beta2 (b)",
        "beta3 (a*b)",
        "Adj R^2",
        "Predicted jump",
        "Realized jump",
        "Mean estimate",
        "Realized mean",
        "Error",
    ]
    label_width = max(len(label) for label in labels)
    widths = [max(len(cells[r]) for r in range(len(labels))) for cells in columns]
    for r, label in enumerate(labels):
        line = f"{label:<{label_width}}"
        for cells, width in zip(columns, widths):
            line += f"  {cells[r]:>{width}}"
        print(line)


def _cmd_predict(args, series, cal) -> int:
    if args.model_years is not None:
        first, last = _parse_year_range(args.model_years)
    else:
        first, last = args.target_year - args.window_len, args.target_year - 1
    model = fit_window_model(first, last, series, cal, pre_days=args.pre_days)
    forecast = predict_next(series, cal, args.target_year, model, pre_days=args.pre_days)
    if args.format == "json-like":
        doc = {"model": model.to_dict(), "forecast": asdict(forecast)}
        print(json.dumps(doc, indent=2))
        return EXIT_OK
    _print_kv(
        [
            ("target year", str(forecast.target_year)),
            ("model years", f"{first}-{last}"),
            ("trend slope", _format_coefficient(forecast.slope_a)),
            ("trend intercept", _format_rate(forecast.intercept_b)),
            ("predicted jump", _format_rate(forecast.predicted_jump)),
            ("mean estimate", _format_rate(forecast.corrected_mean_estimate)),
        ]
    )
    return EXIT_OK


def _cmd_generate(args, cal) -> int:
    spec, years = synthetic_spec_from_json(Path(args.spec).read_text())
    series = generate_synthetic_series(spec, years, cal)
    Path(args.out).write_text(serialize_rate_series(series))
    _print_kv(
        [
            ("written", args.out),
            ("tenor", series.tenor_label),
            ("years", f"{years[0]}-{years[-1]}"),
            ("fixings", str(len(series))),
        ]
    )
    return EXIT_OK
