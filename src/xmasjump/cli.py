"""Command-line frontend: per-year analysis, backtesting, prediction, and
fixture generation.

Exit codes: 0 success, 1 data or calendar error, 2 usage error, 141 closed pipe.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections.abc import Iterable, Iterator
from json.encoder import encode_basestring_ascii

from .data_io import (
    _parse_pieces,
    _read_pieces,
    _serialized_pieces,
    generate_synthetic_series,
    parse_rate_series,
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
from .record import Record

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
    p.set_defaults(run=_cmd_fit_year)

    p = sub.add_parser(
        "backtest",
        parents=[common, windowed],
        help="walk-forward backtest over target years",
    )
    p.add_argument("first_target", type=int)
    p.add_argument("last_target", type=int)
    p.set_defaults(run=_cmd_backtest)

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
    p.set_defaults(run=_cmd_predict)

    p = sub.add_parser("generate", help="write a deterministic synthetic fixture")
    p.add_argument("--spec", required=True, metavar="PATH", help="generator spec (JSON)")
    p.add_argument("--out", required=True, metavar="PATH", help="output series path")
    p.add_argument(
        "--calendar",
        metavar="PATH",
        default=None,
        help="holiday override file for banking-day layout",
    )
    p.set_defaults(run=_cmd_generate)
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
    output = None  # the pieces of the command's text, once it has run
    try:
        args = parser.parse_args(argv)
        model_years = getattr(args, "model_years", None)
        if model_years and model_years[1] >= args.target_year:
            # a model fitted on the target year or later would see its answer
            args.command_parser.error(
                f"--model-years must end before the target year {args.target_year}"
            )
        cal = _load_calendar(args)  # a bad calendar is reported before a missing data file
        output = args.run(args, cal)
        for piece in output:  # a json-like report is rendered as it is written
            sys.stdout.write(piece)
        sys.stdout.write("\n")
        sys.stdout.flush()  # so that a closed pipe or a full disk is reported here
        return EXIT_OK
    except SystemExit as exc:  # a usage error, which argparse has already printed
        return int(exc.code or 0)
    except (XmasJumpError, OSError, UnicodeError) as exc:
        if output is not None and isinstance(exc, OSError):
            # stdout failed; devnull quiets the exit-time flush of what it still buffers
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            if isinstance(exc, BrokenPipeError):  # a reader that stopped early (| head)
                return EXIT_BROKEN_PIPE
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR


def _load_series(args):
    """The series in ``--data`` or ``$XMASJUMP_DATA``, read and parsed a
    piece at a time, so that the file's whole text is never held.

    A file at fault is read again whole and that text parsed, so that the
    error is the whole text's: a byte that is not UTF-8 anywhere in the file
    comes before a bad row, with its position in the file, not in a piece.
    A file that cannot seek, such as a pipe, is read whole at once.
    """
    path = args.data or os.environ.get(DATA_ENV_VAR)
    if not path:
        args.command_parser.error(f"no data file: pass --data or set ${DATA_ENV_VAR}")
    with open(path, encoding="utf-8-sig") as file:
        if file.seekable():
            try:
                return _parse_pieces(_read_pieces(file))
            except (XmasJumpError, UnicodeDecodeError):
                file.seek(0)
        text = file.read()
    return parse_rate_series(text)


def _load_calendar(args) -> HolidayCalendar:
    if args.calendar:
        return calendar_from_lines(_read_text(args.calendar))
    return HolidayCalendar()


def _read_text(path: str) -> str:
    """The file's UTF-8 text, less a leading byte-order mark; the file closes
    first, so parsing runs without its buffer. For a calendar or a spec,
    which are short; a series is read a piece at a time by ``_load_series``."""
    with open(path, encoding="utf-8-sig") as file:
        return file.read()


_NUMBERS = frozenset((int, float))  # the leaves that %r writes as JSON when finite


class _JsonText(str):
    """A leaf's JSON text, which ``%r`` writes as it is."""

    __slots__ = ()
    __repr__ = str.__str__


def _json_text(value, indent: str = "\n", templates: dict | None = None) -> str:
    """``json.dumps(value.to_dict(), indent=2)`` of a record, without
    building that dict, and ``json.dumps(value, indent=2)`` of the values
    records hold: a tuple, a str, an int, a float, a bool or None.

    A record or a tuple is written as one ``template % leaves``: the
    template is its text with a ``%r`` in each leaf's place, made once per
    shape and indent and kept in ``templates`` (a dict that the caller
    keeps for one output, else one for this call), and the leaves are its
    scalars in order. A leaf that ``%r`` does not write as JSON (a
    non-finite float, a str, a bool, None) is swapped for its JSON text.
    """
    kind = type(value)  # exact types, so repr() is float.__repr__ or int.__repr__
    if kind is float:
        if value - value == 0.0:  # finite
            return repr(value)
        return "NaN" if value != value else "Infinity" if value > 0.0 else "-Infinity"
    if kind is tuple or isinstance(value, Record):
        leaves = []
        key = indent, _shape(value, leaves)
        if templates is None:
            templates = {}
        entry = templates.get(key)
        if entry is None:  # plain: every leaf is an int or a float
            plain = _NUMBERS.issuperset(map(type, leaves))
            entry = templates[key] = _template(value, indent), plain
        template, plain = entry
        try:
            if plain and all(map(math.isfinite, leaves)):
                return template % tuple(leaves)
        except OverflowError:  # an int past the float range, which %r writes as it is
            pass
        return template % tuple(map(_json_leaf, leaves))
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return repr(value)
    if kind is bool or value is None:  # by identity, as 1 == True
        return "true" if value is True else "false" if value is False else "null"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _shape(value, leaves: list):
    """Append the leaves of a tuple or record to ``leaves``, in order, and
    return its shape: the record's type or the tuple's length, alone when
    every item is an int or a float, else followed by each item's shape,
    which for a leaf is its type."""
    if type(value) is tuple:
        items, head = value, len(value)
    else:
        items, head = value._astuple(), type(value)
    if _NUMBERS.issuperset(map(type, items)):
        leaves += items
        return head
    shape = [head]
    for item in items:
        kind = type(item)
        if kind is tuple or isinstance(item, Record):
            flat = item if kind is tuple else item._astuple()
            if _NUMBERS.issuperset(map(type, flat)):  # as the call below would find
                leaves += flat
                shape.append(len(flat) if kind is tuple else kind)
            else:
                shape.append(_shape(item, leaves))
        else:
            leaves.append(item)
            shape.append(kind)
    return tuple(shape)


def _template(value, indent: str) -> str:
    """The text ``_json_text`` writes for a tuple or record, with ``%r`` in
    place of each leaf."""
    inner = indent + "  "
    if type(value) is tuple:
        items, brackets = [_template(item, inner) for item in value], "[]"
    elif isinstance(value, Record):
        items = [key + _template(item, inner)
                 for key, item in zip(value._json_keys, value._astuple())]
        brackets = "{}"
    else:
        return "%r"
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1]


def _json_leaf(value):
    """``value`` if ``%r`` writes it as JSON, else its JSON text."""
    if type(value) is int or type(value) is float and value - value == 0.0:
        return value
    return _JsonText(_json_text(value))


def _json_pieces(value) -> Iterator[str]:
    """``_json_text(value)`` of a record in pieces: one per field, and one
    per element of a field that is a non-empty tuple, such as a report's
    rows and models. Each piece is rendered when it is asked for, from
    templates kept for this call alone. A dict of str keys to records, as
    ``predict`` writes its model and forecast, is written as an object of
    those records in the same way.
    """
    if type(value) is dict:
        fields = [(f"{encode_basestring_ascii(k)}: ", v) for k, v in value.items()]
    else:
        fields = list(zip(value._json_keys, value._astuple()))
    templates = {}
    separator = "{\n  "
    for key, field in fields:
        if type(field) is tuple and field:
            opening = separator + key + "["
            for item in field:
                yield opening + "\n    " + _json_text(item, "\n    ", templates)
                opening = ","
            yield "\n  ]"
        else:
            yield separator + key + _json_text(field, "\n  ", templates)
        separator = ",\n  "
    yield "\n}"


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


def _cmd_fit_year(args, cal) -> Iterable[str]:
    obs = yearly_observation(args.year, _load_series(args), cal, pre_days=args.pre_days)
    if args.format == "json-like":
        return _json_pieces(obs)
    return [_kv_text(
        [
            ("year", str(obs.year)),
            ("trend slope", _format_coefficient(obs.slope_a)),
            ("trend intercept", _format_rate(obs.intercept_b)),
            ("post intercept", _format_rate(obs.post_intercept)),
            ("jump", _format_rate(obs.jump_delta)),
            ("pre window", obs.pre_warning or "ok"),
            ("post window", obs.post_warning or "ok"),
        ]
    )]


def _cmd_backtest(args, cal) -> Iterable[str]:
    # the series is a temporary: backtest frees it before it fits the models
    report = backtest(
        _load_series(args),
        cal,
        args.first_target,
        args.last_target,
        window_len=args.window_len,
        pre_days=args.pre_days,
    )
    if args.format == "json-like":
        return _json_pieces(report)
    return [_backtest_table(report)]


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


def _cmd_predict(args, cal) -> Iterable[str]:
    series = _load_series(args)
    default_years = (args.target_year - args.window_len, args.target_year - 1)
    first, last = args.model_years or default_years
    model = fit_window_model(first, last, series, cal, pre_days=args.pre_days)
    forecast = predict_next(series, cal, args.target_year, model, pre_days=args.pre_days)
    if args.format == "json-like":
        return _json_pieces({"model": model, "forecast": forecast})
    return [_kv_text(
        [
            ("target year", str(forecast.target_year)),
            ("model years", f"{first}-{last}"),
            ("trend slope", _format_coefficient(forecast.slope_a)),
            ("trend intercept", _format_rate(forecast.intercept_b)),
            ("predicted jump", _format_rate(forecast.predicted_jump)),
            ("mean estimate", _format_rate(forecast.corrected_mean_estimate)),
        ]
    )]


def _cmd_generate(args, cal) -> Iterable[str]:
    """Write the spec's series to ``--out`` and return the summary.

    The spec, the series and its tenor label, and the summary's encoding
    are all checked before ``--out`` is opened, so a failure leaves it
    untouched; after that only an OSError can fail the write. The text is
    written a piece at a time and never built whole.
    """
    spec, years = synthetic_spec_from_json(_read_text(args.spec))
    series = generate_synthetic_series(spec, years, cal)
    summary = _kv_text(
        [
            ("written", args.out),
            ("tenor", series.tenor_label),
            ("years", f"{years[0]}-{years[-1]}"),
            ("fixings", str(len(series))),
        ]
    )
    _check_printable(summary)  # a failure must leave --out untouched
    with open(args.out, "w", encoding="utf-8", newline="\n") as file:
        file.writelines(_serialized_pieces(series))
    return [summary]


def _check_printable(text: str) -> None:
    """Raise the UnicodeEncodeError that printing ``text`` would raise.

    A stdout without an encoding, such as ``io.StringIO``, takes any text.
    """
    encoding = getattr(sys.stdout, "encoding", None)
    if encoding is not None:
        text.encode(encoding, getattr(sys.stdout, "errors", None) or "strict")


if __name__ == "__main__":
    sys.exit(main())
