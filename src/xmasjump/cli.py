"""Command-line frontend: per-year analysis, backtesting, prediction, and
fixture generation.

Exit codes: 0 success, 1 data or calendar error, 2 usage error, 141 closed pipe.
"""

from __future__ import annotations

import argparse
import os
import sys
from json.encoder import encode_basestring_ascii

from .data_io import (
    generate_synthetic_series,
    parse_rate_series,
    serialize_rate_series,
    synthetic_spec_from_json,
)
from .errors import WindowTooShort, XmasJumpError
from .jump_pipeline import (
    MIN_WINDOW_YEARS,
    WINDOW_YEARS,
    backtest,
    check_window_span,
    fit_window_model,
    predict_next,
    yearly_observation,
)
from .market_calendar import (
    PRE_WINDOW_DAYS,
    PRE_WINDOW_MIN,
    HolidayCalendar,
    calendar_from_lines,
)

DATA_ENV_VAR = "XMASJUMP_DATA"

EXIT_OK = 0
EXIT_DATA_ERROR = 1
EXIT_USAGE = 2
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process killed by it


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xmasjump",
        description=(
            "Detect and predict the post-Christmas jump in a daily"
            " interest-rate series."
        ),
        epilog=(
            f"Exit codes: {EXIT_OK} success, {EXIT_DATA_ERROR} data/calendar error,"
            f" {EXIT_USAGE} usage error, {EXIT_BROKEN_PIPE} closed pipe."
            f" ${DATA_ENV_VAR} supplies a default for --data."
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
        type=_at_least(PRE_WINDOW_MIN),
        default=PRE_WINDOW_DAYS,
        metavar="N",
        help="banking days in the pre-event trend window (default %(default)s)",
    )
    common.add_argument(
        "--format",
        choices=("table", "json-like"),
        default="table",
        help="output rendering (default table)",
    )
    windowed = argparse.ArgumentParser(add_help=False)
    windowed.add_argument(
        "--window-len",
        type=_at_least(MIN_WINDOW_YEARS),
        default=WINDOW_YEARS,
        metavar="N",
        help="years in each fitting window (default %(default)s)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "fit-year", parents=[common], help="fit one year's trend and jump"
    )
    p.add_argument("year", type=int)

    p = sub.add_parser(
        "backtest",
        parents=[common, windowed],
        help="walk-forward backtest over target years",
    )
    p.add_argument("first_target", type=int)
    p.add_argument("last_target", type=int)

    p = sub.add_parser(
        "predict",
        parents=[common, windowed],
        help="predict a year's jump from its pre-event window alone",
    )
    p.add_argument("target_year", type=int)
    p.add_argument(
        "--model-years",
        type=_year_range,
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


def _at_least(minimum: int):
    """An argparse type: an integer no smaller than ``minimum``."""

    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}")
        return value

    return integer


def _year_range(text: str) -> tuple[int, int]:
    """The argparse type of --model-years: FIRST-LAST, a valid model window."""
    try:
        first, last = map(int, text.split("-", 1))
    except ValueError:
        raise argparse.ArgumentTypeError(
            "must look like FIRST-LAST, e.g. 2004-2018"
        ) from None
    try:
        check_window_span(first, last)
    except WindowTooShort as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return first, last


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        model_years = getattr(args, "model_years", None)
        if model_years and model_years[1] >= args.target_year:
            # a model fitted on the target year or later would see its answer
            args.command_parser.error(
                f"--model-years must end before the target year {args.target_year}"
            )
    except SystemExit as exc:  # argparse already printed its message
        return int(exc.code or 0)
    output = None  # the command's text, once it has run
    try:
        cal = _load_calendar(args)
        if args.command == "generate":
            output = _cmd_generate(args, cal)
        elif args.command == "fit-year":
            output = _cmd_fit_year(args, _load_series(args.command_parser, args), cal)
        elif args.command == "backtest":
            output = _cmd_backtest(args, _load_series(args.command_parser, args), cal)
        else:
            output = _cmd_predict(args, _load_series(args.command_parser, args), cal)
        print(output)
        sys.stdout.flush()  # so that a closed pipe or a full disk is reported here
        return EXIT_OK
    except SystemExit as exc:  # parser.error() from _load_series
        return int(exc.code or 0)
    except (XmasJumpError, OSError, UnicodeError) as exc:
        if output is not None and isinstance(exc, OSError):
            # stdout failed; devnull quiets the exit-time flush of what it still buffers
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            if isinstance(exc, BrokenPipeError):  # a reader that stopped early (| head)
                return EXIT_BROKEN_PIPE
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR


def _load_series(parser, args):
    path = args.data or os.environ.get(DATA_ENV_VAR)
    if not path:
        parser.error(f"no data file: pass --data or set ${DATA_ENV_VAR}")
    return parse_rate_series(_read_text(path))


def _load_calendar(args) -> HolidayCalendar:
    if getattr(args, "calendar", None):
        return calendar_from_lines(_read_text(args.calendar))
    return HolidayCalendar()


def _read_text(path: str) -> str:
    """The file's text; the file closes first, so parsing runs without its buffer."""
    with open(path) as file:
        return file.read()


def _json_text(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2)`` for the types records put in their dicts."""
    kind = type(value)  # exact types, so repr() is float.__repr__ or int.__repr__
    if kind is float:
        if value - value == 0.0:  # finite
            return repr(value)
        return "NaN" if value != value else "Infinity" if value > 0.0 else "-Infinity"
    inner = indent + "  "
    if kind is dict:  # encode_basestring_ascii rejects a key that is not a str
        items = [f"{encode_basestring_ascii(k)}: {_json_text(v, inner)}" for k, v in value.items()]
        brackets = "{}"
    elif kind is list or kind is tuple:
        items, brackets = [_json_text(item, inner) for item in value], "[]"
    elif kind is str:
        return encode_basestring_ascii(value)
    elif kind is int:
        return repr(value)
    elif kind is bool or value is None:  # by identity, as 1 == True
        return "true" if value is True else "false" if value is False else "null"
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1]


def _format_rate(value: float) -> str:
    text = f"{value:.4f}"
    return "0.0000" if text == "-0.0000" else text


def _format_coefficient(value: float) -> str:
    if value != 0.0 and abs(value) < 1e-3:
        return f"{value:.4e}"
    return f"{value:.5g}"


def _kv_text(pairs: list[tuple[str, str]]) -> str:
    width = max(len(label) for label, _ in pairs)
    return "\n".join(f"{label:<{width}}  {value}" for label, value in pairs)


def _cmd_fit_year(args, series, cal) -> str:
    obs = yearly_observation(args.year, series, cal, pre_days=args.pre_days)
    if args.format == "json-like":
        return _json_text(obs.to_dict())
    return _kv_text(
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


def _cmd_backtest(args, series, cal) -> str:
    report = backtest(
        series,
        cal,
        args.first_target,
        args.last_target,
        window_len=args.window_len,
        pre_days=args.pre_days,
    )
    if args.format == "json-like":
        return _json_text(report.to_dict())
    return _backtest_table(report)


def _backtest_table(report) -> str:
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
    lines = []
    for r, label in enumerate(labels):
        line = f"{label:<{label_width}}"
        for cells, width in zip(columns, widths):
            line += f"  {cells[r]:>{width}}"
        lines.append(line)
    return "\n".join(lines)


def _cmd_predict(args, series, cal) -> str:
    default_years = (args.target_year - args.window_len, args.target_year - 1)
    first, last = args.model_years or default_years
    model = fit_window_model(first, last, series, cal, pre_days=args.pre_days)
    forecast = predict_next(series, cal, args.target_year, model, pre_days=args.pre_days)
    if args.format == "json-like":
        return _json_text({"model": model.to_dict(), "forecast": forecast.to_dict()})
    return _kv_text(
        [
            ("target year", str(forecast.target_year)),
            ("model years", f"{first}-{last}"),
            ("trend slope", _format_coefficient(forecast.slope_a)),
            ("trend intercept", _format_rate(forecast.intercept_b)),
            ("predicted jump", _format_rate(forecast.predicted_jump)),
            ("mean estimate", _format_rate(forecast.corrected_mean_estimate)),
        ]
    )


def _cmd_generate(args, cal) -> str:
    spec, years = synthetic_spec_from_json(_read_text(args.spec))
    series = generate_synthetic_series(spec, years, cal)
    text = serialize_rate_series(series)  # before opening: no file buffer held meanwhile
    with open(args.out, "w") as file:
        file.write(text)
    return _kv_text(
        [
            ("written", args.out),
            ("tenor", series.tenor_label),
            ("years", f"{years[0]}-{years[-1]}"),
            ("fixings", str(len(series))),
        ]
    )
