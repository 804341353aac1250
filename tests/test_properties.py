"""Property tests for the pipeline, fuzzing of the input parsers, the
package root's export list and the names the benchmark relies on.

The backtest must never let data from a target year's own post-event
window, or from any later year, into that target's model or prediction;
and on a complete series its target step must agree with ``predict_next``.
Adding a constant to every rate moves each year's intercept by that
constant and leaves its slope and jump alone. Each year's slope,
intercept, post intercept and jump meet the line-fit contract of
``exact_oracle``, and noise of amplitude eps moves the jump by at most
eps times the L1 norm of its exact weights, plus that contract's slack.
A fixed jump ``v`` is the constant surface ``[v, 0, 0, 0]`` and adds
exactly ``v`` to every post-event rate. Serializing a series and parsing
it back returns the same series, whatever the row order, comments, blank
lines, spacing and line ends. The parsers, given any text, return a
value or raise an ``XmasJumpError`` subclass, never anything else; so do
the constructors of the input records, given any arguments. On the demo
fixture with its rates scaled by any power of ten a float can hold, each
data command prints its result or exits 1 with one error line. The
banking-day walks over day ordinals agree with a day-by-day reference, also
where a series holds only banking days and a window that succeeds is one
slice of it, and a calendar's closed days of a year are the days
``is_holiday`` names. The walk that cuts a span of years' windows from one
window pattern per weekday, leap flag and closed days gives each year's
own windows, or the first error they raise.
The CLI's JSON writer prints what ``json.dumps(value, indent=2)`` prints
for scalars and tuples, and what it prints for a record's ``to_dict()``,
also when it writes a record or two records in pieces. The parser that
splits its text a piece at a time, each piece ending after a line break,
parses as the whole-text parser does,
also where it reads a piece of rows in bulk and one row of the text is
wrong or out of place; every row ``serialize_rate_series`` writes is one
that the bulk step takes, with ``"\\n"`` or ``"\\r\\n"`` line ends. The
generator and the serializer give, bit for bit, the arrays, pieces and
errors of the writer that walked every year's days and formatted every row
on its own. The CLI's load of a series file, read and parsed
a piece at a time, ends as the parse of the file's whole text does, from a
file or a pipe, whatever its line ends, byte-order mark and bad bytes. The series constructor rejects what the
list-based checks reject, with their message.
The fit of a ``window_fits`` window numbered from any year fails exactly
when its Householder reference fails, with the same error, and where both
succeed both meet the accuracy contract of ``exact_oracle``, as do the
backtest's own models; the standard errors and adjusted R^2 that
``inference_for_fit`` gives for that fit meet the bounds that follow from
the contract. README.md names only functions and tests that exist.
"""

import argparse
import ast
import contextlib
import importlib
import io
import json
import math
import pickle
import pkgutil
import random
import re
from datetime import date, datetime
from decimal import Decimal
from enum import IntEnum
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import xmasjump
from exact_oracle import (
    CONTRACT_CONSTANT,
    UNIT_ROUNDOFF,
    contract_constants,
    exact_year,
    inference_margins,
    l1_norm,
    year_constants,
    year_weights,
)
from helpers import (
    constant_jump,
    distinct_trends,
    reference_banking_days,
    reference_fit_bilinear,
    reference_generate,
    reference_parse_rate_series,
    reference_post_window,
    reference_post_window_offsets,
    reference_pre_window,
    reference_serialized_pieces,
    reference_series_error,
    walk_fit,
)
from xmasjump import (
    BacktestReport,
    BacktestRow,
    DailyRateSeries,
    HolidayCalendar,
    JumpForecast,
    JumpModel,
    SyntheticSpec,
    XmasJumpError,
    YearObservation,
    backtest,
    calendar_from_lines,
    cli,
    data_io,
    generate_synthetic_series,
    jump_pipeline,
    market_calendar,
    parse_rate_series,
    predict_next,
    regression_core,
    serialize_rate_series,
    synthetic_spec_from_json,
    yearly_observation,
)
from xmasjump.cli import _json_pieces, _json_text, main
from xmasjump.errors import DomainError, DuplicateDate, IncompleteWindow, ParseError
from xmasjump.market_calendar import banking_days, post_window, post_window_offsets, pre_window
from xmasjump.record import Record
from xmasjump.stat_inference import CoefficientInference, inference_for_fit

FIRST_YEAR, LAST_YEAR = 2000, 2012
WINDOW_LEN = 5
FIRST_TARGET = FIRST_YEAR + WINDOW_LEN
PLANTED = (0.005, -9.0, -0.002, 2.0)
# The default closures, alone or with one more year-end closure, so that
# the post windows also come in other shapes.
CALENDARS = [
    HolidayCalendar(),
    HolidayCalendar(holidays=frozenset({(12, 26), (1, 1), (12, 27)})),
    HolidayCalendar(holidays=frozenset({(12, 26), (1, 1), (12, 31)})),
]

seeds = st.integers(min_value=0, max_value=2**32 - 1)
targets = st.integers(min_value=FIRST_TARGET, max_value=LAST_YEAR)


def noisy_series(trend_seed, noise_seed, cal, amplitude=0.01):
    spec = SyntheticSpec(
        year_trends=distinct_trends(FIRST_YEAR, LAST_YEAR, trend_seed),
        jump=PLANTED,
        noise_amplitude=amplitude,
        seed=noise_seed,
    )
    return generate_synthetic_series(spec, range(FIRST_YEAR, LAST_YEAR + 1), cal)


@settings(max_examples=40, deadline=None)
@given(
    trend_seed=seeds,
    noise_seed=seeds,
    target=targets,
    cal=st.sampled_from(CALENDARS),
    new_rate=st.floats(min_value=-10.0, max_value=10.0),
    data=st.data(),
)
def test_walk_forward_never_sees_the_target_post_window(
    trend_seed, noise_seed, target, cal, new_rate, data
):
    series = noisy_series(trend_seed, noise_seed, cal)
    entries = list(series.entries)
    late = [i for i, (d, _) in enumerate(entries) if d >= date(target, 12, 25)]
    i = data.draw(st.sampled_from(late), label="perturbed fixing")
    entries[i] = (entries[i][0], new_rate)
    perturbed = DailyRateSeries(entries=tuple(entries), tenor_label=series.tenor_label)

    before = backtest(series, cal, FIRST_TARGET, LAST_YEAR, window_len=WINDOW_LEN)
    after = backtest(perturbed, cal, FIRST_TARGET, LAST_YEAR, window_len=WINDOW_LEN)
    k = target - FIRST_TARGET
    assert after.models[: k + 1] == before.models[: k + 1]
    assert after.rows[k].predicted_jump == before.rows[k].predicted_jump


@settings(max_examples=40, deadline=None)
@given(
    trend_seed=seeds,
    noise_seed=seeds,
    target=targets,
    cal=st.sampled_from(CALENDARS),
    cut=st.integers(min_value=24, max_value=31),
)
def test_predict_next_agrees_with_the_backtest_row(trend_seed, noise_seed, target, cal, cut):
    series = noisy_series(trend_seed, noise_seed, cal)
    report = backtest(series, cal, FIRST_TARGET, LAST_YEAR, window_len=WINDOW_LEN)
    k = target - FIRST_TARGET
    forecast = predict_next(series, cal, target, report.models[k])
    assert forecast.predicted_jump == report.rows[k].predicted_jump
    assert forecast.corrected_mean_estimate == report.rows[k].corrected_mean_estimate
    # A series that ends between Dec 24 and Dec 31 of the target year: the
    # target's row is either refused or the forecast predict_next makes.
    short = DailyRateSeries(
        entries=tuple(e for e in series.entries if e[0] <= date(target, 12, cut)),
        tenor_label=series.tenor_label,
    )
    try:
        report = backtest(short, cal, FIRST_TARGET, target, window_len=WINDOW_LEN)
    except IncompleteWindow:
        return
    forecast = predict_next(short, cal, target, report.models[-1])
    assert forecast.predicted_jump == report.rows[-1].predicted_jump
    assert forecast.corrected_mean_estimate == report.rows[-1].corrected_mean_estimate


@settings(max_examples=40, deadline=None)
@given(
    trend_seed=seeds,
    noise_seed=seeds,
    year=st.integers(min_value=FIRST_YEAR, max_value=LAST_YEAR),
    cal=st.sampled_from(CALENDARS),
    shift=st.floats(min_value=-20.0, max_value=20.0),
)
def test_level_shift_moves_only_the_intercept(trend_seed, noise_seed, year, cal, shift):
    series = noisy_series(trend_seed, noise_seed, cal)
    shifted = DailyRateSeries(
        entries=tuple((d, r + shift) for d, r in series.entries),
        tenor_label=series.tenor_label,
    )
    obs = yearly_observation(year, series, cal)
    moved = yearly_observation(year, shifted, cal)
    # Each shifted rate is rounded once; the fits' fsum means add no more.
    tolerance = 1e-12 * (1.0 + abs(shift))
    assert moved.slope_a == pytest.approx(obs.slope_a, rel=0, abs=tolerance)
    assert moved.jump_delta == pytest.approx(obs.jump_delta, rel=0, abs=tolerance)
    assert moved.intercept_b == pytest.approx(obs.intercept_b + shift, rel=0, abs=tolerance)


# --- a year's line fits against the exact oracle -------------------------

def windows(year, series, cal):
    return pre_window(year, series, cal), post_window(year, series, cal)


@settings(max_examples=200, deadline=None)
@given(
    pre_offsets=st.lists(st.integers(-40, -1), min_size=2, max_size=20, unique=True),
    post_offsets=st.lists(st.integers(2, 6), min_size=1, max_size=5, unique=True),
    data=st.data(),
)
def test_year_weights_give_the_exact_year(pre_offsets, post_offsets, data):
    rates = data.draw(
        st.lists(st.floats(-10.0, 10.0), min_size=len(pre_offsets) + len(post_offsets),
                 max_size=len(pre_offsets) + len(post_offsets)),
        label="rates",
    )
    pre_rates, post_rates = rates[: len(pre_offsets)], rates[len(pre_offsets) :]
    exact = exact_year(pre_offsets, pre_rates, post_offsets, post_rates)
    weights = year_weights(pre_offsets, post_offsets)
    assert tuple(sum(w * Fraction(y) for w, y in zip(ws, rates)) for ws in weights) == exact


@settings(max_examples=40, deadline=None)
@given(
    trend_seed=seeds,
    noise_seed=seeds,
    amplitude=st.sampled_from([0.0, 1e-4, 0.01, 0.5]),
    cal=st.sampled_from(CALENDARS),
)
def test_year_observations_meet_the_line_fit_contract(trend_seed, noise_seed, amplitude, cal):
    series = noisy_series(trend_seed, noise_seed, cal, amplitude)
    for year in range(FIRST_YEAR, LAST_YEAR + 1):
        obs = yearly_observation(year, series, cal)
        constants = year_constants(obs, *windows(year, series, cal))
        assert max(constants) <= CONTRACT_CONSTANT, f"{year}: {constants} u-units"


@settings(max_examples=40, deadline=None)
@given(
    trend_seed=seeds,
    noise_seed=seeds,
    amplitude=st.sampled_from([1e-4, 0.01, 0.5]),
    cal=st.sampled_from(CALENDARS),
)
def test_noise_moves_each_jump_within_its_weights_bound(trend_seed, noise_seed, amplitude, cal):
    """Each noisy rate differs from the noise-free one by at most the
    amplitude plus its own rounding (3 u |rate|), and each computed jump
    lies within the line-fit contract of its exact value."""
    clean = noisy_series(trend_seed, noise_seed, cal, 0.0)
    noisy = noisy_series(trend_seed, noise_seed, cal, amplitude)
    for year in range(FIRST_YEAR, LAST_YEAR + 1):
        (pre, post), (noisy_pre, noisy_post) = windows(year, clean, cal), windows(year, noisy, cal)
        assert (pre[0], post[0]) == (noisy_pre[0], noisy_post[0])
        norms = max(map(abs, pre[1] + post[1])) + max(map(abs, noisy_pre[1] + noisy_post[1]))
        slack = (CONTRACT_CONSTANT + 3) * UNIT_ROUNDOFF * norms
        bound = l1_norm(year_weights(pre[0], post[0])[3]) * (amplitude + slack)
        moved = yearly_observation(year, noisy, cal).jump_delta
        assert abs(moved - yearly_observation(year, clean, cal).jump_delta) <= bound


def assert_constructor_accepts(series):
    """``series``, made without the constructor's checks, passes them: the
    constructor rebuilds it equal from its entries, each an exact
    ``(date, float)`` pair."""
    assert DailyRateSeries(series.entries, series.tenor_label) == series
    assert all(type(day) is date and type(rate) is float for day, rate in series.entries)


# --- a fixed jump is the constant surface ---------------------------------

jump_values = st.floats(min_value=-1e6, max_value=1e6) | st.sampled_from([0.0, -0.0])


@settings(max_examples=100, deadline=None)
@given(value=jump_values, trend_seed=seeds, noise_seed=seeds)
def test_fixed_jump_is_the_constant_surface(value, trend_seed, noise_seed):
    trends = distinct_trends(2018, 2019, trend_seed)
    doc = {"seed": noise_seed, "noise": 0.01, "years": {str(y): ab for y, ab in trends.items()}}

    def generated(**jump):
        spec, years = synthetic_spec_from_json(json.dumps({**doc, **jump}))
        return generate_synthetic_series(spec, years, HolidayCalendar())

    fixed = generated(jump={"fixed": value})
    constant = generated(jump={"coefficients": [value, 0, 0, 0]})
    assert_constructor_accepts(fixed)
    assert serialize_rate_series(fixed) == serialize_rate_series(constant)
    for (day, rate), (_, base) in zip(fixed.entries, generated().entries, strict=True):
        assert rate == (base + value if day > date(day.year, 12, 25) else base)


# --- round trip ----------------------------------------------------------

tenor_labels = st.text().filter(lambda s: s == s.strip() and len(s.splitlines()) <= 1)
series_entries = st.lists(
    st.tuples(st.dates(), st.floats(allow_nan=False, allow_infinity=False)),
    unique_by=lambda entry: entry[0],
).map(lambda entries: tuple(sorted(entries)))


@settings(max_examples=200, deadline=None)
@given(entries=series_entries, label=tenor_labels)
def test_parse_inverts_serialize(entries, label):
    series = DailyRateSeries(entries=entries, tenor_label=label)
    assert parse_rate_series(serialize_rate_series(series)) == series


blanks = st.sampled_from(["", " ", "\t", " \t "])
filler_lines = st.sampled_from(["", "   ", "# a comment", "#", "\t# date,rate"])
line_ends = st.sampled_from(["\n", "\r\n"])


@st.composite
def decorated_rows(draw, series):
    """The series' rows as (date, line): shuffled and padded with spaces
    and trailing notes, with blank and comment lines mixed in."""
    lines = serialize_rate_series(series).splitlines()
    rows = []
    for line in lines[lines.index("date,rate") + 1 :]:
        date_text, rate_text = line.split(",")
        note = draw(st.sampled_from(["", "# note", " #note"]))
        lead, before_comma, after_comma, trail = (draw(blanks) for _ in range(4))
        padded = f"{lead}{date_text}{before_comma},{after_comma}{rate_text}{trail}{note}"
        rows.append((date.fromisoformat(date_text), padded))
    rows = draw(st.permutations(rows))
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        at = draw(st.integers(min_value=0, max_value=len(rows)))
        rows.insert(at, (None, draw(filler_lines)))
    return rows


def layout(series, rows, line_end):
    head = [f"# tenor: {series.tenor_label}"] if series.tenor_label else []
    return line_end.join(head + ["date,rate"] + [line for _, line in rows]) + line_end


@settings(max_examples=200, deadline=None)
@given(entries=series_entries, label=tenor_labels, line_end=line_ends, data=st.data())
def test_parse_ignores_order_and_layout(entries, label, line_end, data):
    series = DailyRateSeries(entries=entries, tenor_label=label)
    rows = data.draw(decorated_rows(series), label="rows")
    assert parse_rate_series(layout(series, rows, line_end)) == series


@settings(max_examples=100, deadline=None)
@given(entries=series_entries.filter(len), line_end=line_ends, data=st.data())
def test_a_repeated_row_is_a_duplicate_date(entries, line_end, data):
    series = DailyRateSeries(entries=entries)
    rows = data.draw(decorated_rows(series), label="rows")
    repeated = data.draw(st.sampled_from([row for row in rows if row[0] is not None]))
    rows.insert(data.draw(st.integers(min_value=0, max_value=len(rows))), repeated)
    with pytest.raises(DuplicateDate) as exc_info:
        parse_rate_series(layout(series, rows, line_end))
    assert exc_info.value.fixing_date == repeated[0]


# --- the piecewise parser and the one-dict series against their references --

# Every line break ``str.splitlines`` knows.
LINE_BREAKS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
# The same, and \x1f, which it does not know.
any_line_ends = st.sampled_from([*LINE_BREAKS, "\x1f"])
# Dates from a short span, so that the drawn dates repeat.
near_dates = st.dates(min_value=date(2018, 12, 20), max_value=date(2018, 12, 31))


@st.composite
def rate_texts(draw):
    """A header or none, then rows of distinct dates or with one repeated,
    comments, blank lines and at most one odd line, such as a second header
    or arbitrary short text; each line followed by a line break, most often
    ``\\n`` or ``\\r\\n``, or by ``\\x1f``, which joins it to the next."""
    head = draw(st.sampled_from(["date,rate", "# tenor: SYN", " Date , Rate # note", ""]))
    days = draw(st.lists(st.dates(date(2018, 1, 1), date(2019, 12, 31)), unique=True, max_size=8))
    if days and draw(st.booleans()):
        days.append(draw(st.sampled_from(days)))
    lines = [f"{day.isoformat()},{draw(st.sampled_from(['2.70', ' -0.5 ', '1e-3#n']))}"
             for day in days]
    for _ in range(draw(st.integers(0, 3))):
        filler = draw(st.sampled_from(["", "# tenor: EUR", "#", "# date,rate", "  "]))
        lines.insert(draw(st.integers(0, len(lines))), filler)
    if draw(st.booleans()):
        odd = draw(st.sampled_from(["date,rate", "2018-12-24,1e999", "2018-02-30,1", "x"])
                   | st.text(max_size=6))
        lines.insert(draw(st.integers(0, len(lines))), odd)
    line_ends = st.sampled_from(["\n", "\r\n"]) | any_line_ends
    ends = [draw(line_ends) for _ in range(len(lines) + 1)]
    tail = draw(st.sampled_from(["", "\r", "\n"]))
    return "".join(map(str.__add__, [head, *lines], ends)) + tail


def outcome(fn, *args):
    """What ``fn`` returns, or the type and message of the error it raises."""
    try:
        return fn(*args)
    except (XmasJumpError, UnicodeDecodeError) as exc:
        return type(exc), str(exc)


# The parser's own piece size, and a larger one that spans a whole small file.
@pytest.mark.parametrize("piece_chars", [1, 2, 7, data_io._PIECE_CHARS, 1 << 14])
@settings(max_examples=150, deadline=None)
@given(text=rate_texts())
@example(text="date,rate\r\n2018-12-24,2.70\r\n# tenor: A\r\n2018-12-27,2.5\r\n")
@example(text="date,rate\n2018-12-27,3\n2018-12-20,1e-3\n2018-12-24,2.70\n")
@example(text="#tenor:\tUSD \u2002 2M\x1f\t\ndate,rate\n2018-12-24,2.70\n")
def test_piecewise_parse_matches_the_whole_text_parse(piece_chars, text):
    # With small pieces, the search for a piece's end starts inside rows,
    # comments and \r\n pairs.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data_io, "_PIECE_CHARS", piece_chars)
        parsed = outcome(parse_rate_series, text)
        assert parsed == outcome(reference_parse_rate_series, text)
    if isinstance(parsed, DailyRateSeries):
        assert_constructor_accepts(parsed)


@pytest.mark.parametrize("piece_chars", [1, 2, 7, 64])
@settings(max_examples=150, deadline=None)
@given(text=rate_texts())
@example(text="date,rate\r\n2018-12-24,2.70\r\n")
@example(text="date,rate\u20282018-12-24,2.70\x85# tenor: A\r")
def test_pieces_end_at_line_breaks(piece_chars, text):
    # Cut from the text or read from a file that keeps its line ends, every
    # piece ends after a line break, never inside "\r\n", or at the end.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data_io, "_PIECE_CHARS", piece_chars)
        cut = list(data_io._pieces(text))
        read = list(data_io._read_pieces(io.StringIO(text, newline="")))
    for pieces in (cut, read):
        assert "".join(pieces) == text
        assert [line for piece in pieces for line in piece.splitlines()] == text.splitlines()


class Unseekable(io.BytesIO):
    """Bytes that, as from a pipe, cannot be read a second time."""

    def seekable(self):
        return False


# Comment lines that put what follows them past the first 8 KiB the text
# layer of a file decodes at once, so that a bad row before them is read
# before a bad byte after them is decoded.
PADDING = "# padding\n" * 1000


@st.composite
def rate_files(draw):
    """A ``rate_texts`` text as a file's bytes: its ``"\\n"`` line ends
    kept or made ``"\\r\\n"`` or any other line break ``str.splitlines``
    honours, ``PADDING`` after a line or none, UTF-8 with a byte-order mark
    or without, and a byte that is not UTF-8 inserted at any position or
    none."""
    text = draw(rate_texts())
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]) | st.sampled_from(LINE_BREAKS))
    head = draw(st.sampled_from([b"", b"\xef\xbb\xbf"]))
    if draw(st.booleans()):
        at = draw(st.sampled_from([0] + [i + 1 for i, char in enumerate(text) if char == "\n"]))
        head += (text[:at] + PADDING).replace("\n", newline).encode("utf-8")
        text = text[at:]
    data = head + text.replace("\n", newline).encode("utf-8")
    if draw(st.booleans()):  # anywhere, or often just after the padding
        at = draw(st.integers(0, len(data)) | st.integers(len(head), len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\x80", b"\xc3"])) + data[at:]
    return data


@settings(max_examples=300, deadline=None)
@given(
    data=rate_files(),
    piece_chars=st.integers(1, 64) | st.just(data_io._PIECE_CHARS),
    seekable=st.booleans(),
)
@example(  # a bad row, then a bad byte past the first 8 KiB
    data=f"date,rate\n2018-02-30,1\n{PADDING}2018-12-24,2.70\n".encode() + b"\xff\n",
    piece_chars=7, seekable=True,
)
@example(data=b"\xef\xbb\xbfdate,rate\r2018-12-24,2.70\r", piece_chars=1, seekable=True)
def test_streamed_load_matches_the_whole_text_parse(data, piece_chars, seekable, tmp_path_factory):
    # The CLI reads a file and parses it a piece at a time; it must end as
    # the parse of the file's whole text does, with the same series or the
    # same error: a byte that is not UTF-8 anywhere before any bad row.
    path = tmp_path_factory.getbasetemp() / "streamed.csv"
    path.write_bytes(data)
    whole_text_parses = []

    def whole_text_parse(text):
        whole_text_parses.append(len(text))
        return parse_rate_series(text)

    def pipe(file, encoding):
        return io.TextIOWrapper(Unseekable(Path(file).read_bytes()), encoding=encoding)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data_io, "_PIECE_CHARS", piece_chars)
        patch.setattr(cli, "parse_rate_series", whole_text_parse)
        if not seekable:
            patch.setattr(cli, "open", pipe, raising=False)
        loaded = outcome(cli._load_series, argparse.Namespace(data=str(path)))
    want = outcome(lambda: parse_rate_series(path.read_text(encoding="utf-8-sig")))
    assert loaded == want
    if isinstance(loaded, DailyRateSeries):  # read whole only from a pipe
        assert len(whole_text_parses) == (not seekable)


CORRUPTIONS = ["02-30", "1e999", "1.2.3", "moved", "repeated", "trailing space", "\r\n",
               "lone \r", "blank line"]


def corrupt(lines, at, how, data):
    """Make the serialized data line at ``at`` wrong or not canonical, as
    ``how`` names: a date or rate that does not convert, a rate that
    overflows, the row moved or repeated, padding, a line end, a line break
    of its own before it, a blank line."""
    row = lines[at]
    if how == "02-30":
        lines[at] = row[:5] + how + row[10:]
    elif how in ("1e999", "1.2.3"):
        lines[at] = row[:11] + how
    elif how == "moved":
        del lines[at]
        lines.insert(data.draw(st.integers(0, len(lines)).filter(lambda to: to != at)), row)
    elif how == "repeated":
        lines.insert(data.draw(st.integers(0, len(lines))), row)
    elif how == "blank line":
        lines.insert(at, "")
    elif how == "lone \r":
        lines[at] = "\r" + row
    else:
        lines[at] += {"trailing space": " ", "\r\n": "\r"}[how]


# Enough rows that a serialized series spans several 256-character pieces.
# A property over them that fails prints its draw unshrunk: shrinking 40-80
# rows of any dates and floats can take minutes while its memory grows.
long_series_entries = st.lists(
    st.tuples(st.dates(), st.floats(allow_nan=False, allow_infinity=False)),
    min_size=40, max_size=80, unique_by=lambda entry: entry[0],
).map(lambda entries: tuple(sorted(entries)))
UNSHRUNK = (Phase.explicit, Phase.reuse, Phase.generate, Phase.target)


@pytest.mark.parametrize("piece_chars", [64, 256])
@settings(max_examples=100, deadline=None, phases=UNSHRUNK)
@given(entries=long_series_entries, how=st.sampled_from(CORRUPTIONS), data=st.data())
def test_bulk_rows_parse_as_the_whole_text_parse(piece_chars, entries, how, data):
    # Pieces small next to the text, so the header sits in an earlier piece
    # and the pieces after it are read in bulk until one is not canonical,
    # with "\n" or "\r\n" line ends.
    head, *lines = serialize_rate_series(DailyRateSeries(entries)).splitlines()
    at = data.draw(st.integers(0, len(lines) - 1), label="at")
    corrupt(lines, at, how, data)
    line_end = data.draw(line_ends, label="line end")
    text = line_end.join([head, *lines, ""])
    taken = []
    canonical_rows = data_io._canonical_rows

    def spy(piece, latest):
        taken.append(canonical_rows(piece, latest))
        return taken[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data_io, "_PIECE_CHARS", piece_chars)
        patch.setattr(data_io, "_canonical_rows", spy)
        assert outcome(parse_rate_series, text) == outcome(reference_parse_rate_series, text)
        taken.clear()
        parse_rate_series(serialize_rate_series(DailyRateSeries(entries)).replace("\n", line_end))
    assert any(rows is not None for rows in taken)  # the uncorrupted text takes the bulk step


@pytest.mark.parametrize("piece_chars", [64, 256])
@settings(max_examples=50, deadline=None, phases=UNSHRUNK)
@given(entries=long_series_entries, label=tenor_labels)
def test_text_with_crlf_line_ends_parses_in_bulk(piece_chars, entries, label):
    # Every piece after the header's is read in bulk, to the series that the
    # same text with "\n" line ends gives.
    series = DailyRateSeries(entries, label)
    text = serialize_rate_series(series)
    taken = []
    canonical_rows = data_io._canonical_rows

    def spy(piece, latest):
        taken.append(canonical_rows(piece, latest))
        return taken[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data_io, "_PIECE_CHARS", piece_chars)
        patch.setattr(data_io, "_canonical_rows", spy)
        assert parse_rate_series(text.replace("\n", "\r\n")) == series
    assert taken and all(rows is not None for rows in taken)


@pytest.mark.parametrize("piece_chars", [16, 64])
@pytest.mark.parametrize("line_break", ["\r\r\n", "\r\n\r\n", "\n\r\n", "\r\n\n", "\r"])
def test_a_bad_row_after_crlf_rows_names_its_line(piece_chars, line_break):
    # Pieces of "\r\n" rows read in bulk count the lines splitlines counts,
    # also past another line break among them.
    rows = [f"2018-12-{day:02d},{day / 8}" for day in range(1, 29)]
    text = "\r\n".join(["date,rate", *rows[:10]]) + line_break + "\r\n".join(
        [*rows[10:], "2018-12-32,1", ""])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data_io, "_PIECE_CHARS", piece_chars)
        parsed = outcome(parse_rate_series, text)
    assert parsed == outcome(reference_parse_rate_series, text)
    assert parsed[0] is ParseError


@settings(max_examples=200, deadline=None)
@given(entries=st.lists(
    st.tuples(st.dates(max_value=date(999, 12, 31)) | st.dates(),
              st.floats(allow_nan=False, allow_infinity=False)
              | st.sampled_from([-0.0, 5e-324, -1.7976931348623157e308, 1e16, 1e-7])),
    min_size=2, unique_by=lambda entry: entry[0],
).map(sorted))
def test_serialized_rows_are_canonical(entries):
    # So a file the package writes is read in bulk past its first piece:
    # here the rows after the first, as a piece that follows it.
    head, *lines = serialize_rate_series(DailyRateSeries(entries)).splitlines()
    assert head == "date,rate"
    assert all(data_io._CANONICAL_ROW.fullmatch(line) for line in lines)
    ordinals, rates = data_io._canonical_rows("\n".join(lines[1:]) + "\n",
                                              entries[0][0].toordinal())
    assert list(zip(map(date.fromordinal, ordinals), rates)) == entries[1:]
    assert [math.copysign(1.0, rate) for rate in rates] == [
        math.copysign(1.0, rate) for _, rate in entries[1:]]


series_dates = (
    near_dates
    | st.datetimes(min_value=datetime(2018, 12, 20), max_value=datetime(2018, 12, 31))
    | st.lists(st.integers(0, 9), max_size=2)  # unhashable
    | st.sampled_from(["2018-12-24", None, 20181224])
)
series_rates = (
    st.floats(min_value=-10.0, max_value=10.0)
    | st.sampled_from([math.nan, math.inf, -math.inf, True, False, "2.5", None, 3, Fraction(1, 3)])
)
series_pairs = st.tuples(series_dates, series_rates)
series_pairs = series_pairs | series_pairs.map(list)
non_pairs = (
    st.tuples(near_dates)
    | st.tuples(near_dates, series_rates, series_rates)
    | st.sampled_from([None, 7, "ab", "abc", ()])
)


@st.composite
def odd_entries(draw):
    """(date, float) pairs, in date order or not, with up to two other
    entries among them: pairs of other types or values, and non-pairs."""
    days = draw(st.lists(near_dates, unique=True, max_size=5))
    if draw(st.booleans()):
        days.sort()
    entries = [(day, draw(st.floats(-10.0, 10.0))) for day in days]
    for _ in range(draw(st.integers(0, 2))):
        odd = st.tuples(near_dates, series_rates) | series_pairs | non_pairs
        entries.insert(draw(st.integers(0, len(entries))), draw(odd))
    return tuple(entries)


@settings(max_examples=500, deadline=None)
@given(
    entries=odd_entries() | st.sampled_from([None, 5]),
    label=st.sampled_from(["", "SYN", " SYN", "a\nb", 5]),
)
@example(entries=((date(2018, 12, 20), 1.0), ([2018, 12], 1.0)), label="")
@example(entries=((date(2018, 12, 20), 1.0), (date(2018, 12, 21), -math.inf)), label="")
@example(entries=((date(2018, 12, 20), True), (date(2018, 12, 21), math.nan)), label="")
@example(entries=((date(2018, 12, 21), 1.0), (date(2018, 12, 20), "2.5")), label="")
@example(entries=((date(2018, 12, 21), 1.0), (date(2018, 12, 20), 1.0)), label="")
@example(entries=((date(2018, 12, 20), 1.0), [date(2018, 12, 20), 2]), label="")
@example(entries=((date(2018, 12, 20), 1.0), (date(2018, 12, 21),)), label="")
@example(entries=((date(2018, 12, 20), Fraction(1, 3)),), label="")
def test_series_checks_match_the_list_checks(entries, label):
    expected = reference_series_error(entries, label)
    try:
        series = DailyRateSeries(entries, label)
    except DomainError as exc:
        assert str(exc) == expected
    else:
        assert expected is None
        # a rate that is not a float is rebuilt as one
        assert series.entries == tuple((day, float(rate)) for day, rate in entries)
        assert {type(value) for entry in series.entries for value in entry} <= {date, float}
        assert list(series._ordinals) == [day.toordinal() for day, _ in entries]


# --- fuzzing: only XmasJumpError subclasses escape -------------------------


def texts_from(fragments):
    """Lines joined from input-like fragments and arbitrary short text."""
    pieces = st.sampled_from(fragments) | st.text(max_size=6)
    return st.lists(pieces, max_size=40).map("".join)


@settings(max_examples=300, deadline=None)
@given(
    text=texts_from(
        [
            "date,rate\n",
            "# tenor: ",
            "#",
            "2018-12-24",
            "9999-12-31",
            "0001-01-01",
            "2018-02-30",
            ",",
            "2.70",
            "-0.0",
            "1e999",
            "1e-999",
            ".5",
            "nan",
            "20181224",
            "\u0661",
            "_",
            "\n",
            "\r\n",
            "\r",
            "\v",
            "\f",
            "\x1c",
            "\x1d",
            "\x1e",
            "\x1f",
            "\x85",
            "\u2028",
            "\u2029",
            " ",
        ]
    ),
)
def test_fuzz_parse_rate_series(text):
    try:
        series = parse_rate_series(text)
    except XmasJumpError:
        return
    assert_constructor_accepts(series)


@settings(max_examples=300, deadline=None)
@given(
    text=texts_from(
        [
            "--",
            "--12-26",
            "--02-29",
            "--13-01",
            "-",
            "12",
            "99999999999999999999",
            "2018-12-24",
            "0000-01-01",
            "2012-W44-2",
            "\u0661",
            "_",
            "+",
            "#",
            "\n",
            " ",
        ]
    )
)
def test_fuzz_calendar_from_lines(text):
    try:
        calendar_from_lines(text)
    except XmasJumpError:
        pass


big_integers = st.integers(min_value=10**300, max_value=10**320)
numbers = st.integers() | big_integers | st.floats() | st.booleans()
json_values = st.recursive(
    st.none() | numbers | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=8,
)
spec_documents = st.fixed_dictionaries(
    {
        "years": st.dictionaries(
            st.integers(min_value=-2, max_value=10001).map(str) | st.text(max_size=6),
            st.lists(numbers, min_size=2, max_size=2) | json_values,
            max_size=3,
        )
        | json_values
    },
    optional={
        "jump": st.fixed_dictionaries(
            {},
            optional={
                "fixed": numbers,
                "coefficients": st.lists(numbers, min_size=4, max_size=4) | json_values,
            },
        )
        | json_values,
        "noise": numbers | json_values,
        "seed": numbers | json_values,
        "tenor": st.text(max_size=8) | json_values,
    },
)


@settings(max_examples=300, deadline=None)
@given(text=spec_documents.map(json.dumps) | st.text(max_size=40))
def test_fuzz_spec_then_generate(text):
    cal = HolidayCalendar()
    try:
        spec, years = synthetic_spec_from_json(text)
        series = generate_synthetic_series(spec, years, cal)
    except XmasJumpError:
        return
    assert_constructor_accepts(series)


DEMO_TEXT = (Path(__file__).resolve().parents[1] / "fixtures" / "demo_rates.csv").read_text()


@pytest.fixture(scope="module")
def scaled_demo(tmp_path_factory):
    """``scaled_demo(k)``: the path of the demo fixture with every rate times
    10**k, each rounded once from its exact decimal value."""
    path = tmp_path_factory.mktemp("scaled") / "rates.csv"

    def write(k):
        lines = []
        for line in DEMO_TEXT.splitlines():
            day, _, rate = line.partition(",")
            lines.append(f"{day},{Decimal(rate).scaleb(k)}" if day[:1].isdigit() else line)
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    return write


@settings(max_examples=100, deadline=None)
@given(k=st.integers(min_value=-320, max_value=307))
@example(k=155)  # the fit's coefficients are NaN
@example(k=156)  # the targets' squares pass the largest float
@example(k=307)  # the sum of a pre-window's rates does
def test_scaled_rates_fail_only_as_one_error_line(scaled_demo, k):
    data = scaled_demo(k)
    for argv in (["fit-year", "2019"], ["backtest", "2015", "2019"], ["predict", "2019"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--data", data])
        if code == 0:
            assert err.getvalue() == "", argv
        else:
            assert code == 1, argv
            assert re.fullmatch("error: [^\n]*\n", err.getvalue()), (argv, err.getvalue())
            assert out.getvalue() == "", argv


def test_an_overflowing_design_row_is_one_error_naming_its_year(scaled_demo):
    # at 10**155 a year's slope times its intercept passes the largest float;
    # unchecked, the fit would carry that infinity into NaN coefficients
    data = scaled_demo(155)
    for argv in (["backtest", "2015", "2019"], ["predict", "2019"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main([*argv, "--data", data]) == 1
        assert out.getvalue() == ""
        assert err.getvalue() == (
            "error: values too large: slope times intercept overflows the float range"
            " in year 2004\n"
        )


# Hashable junk, then junk nested in tuples of any arity, lists and dicts.
junk_atoms = (
    st.none()
    | st.text(max_size=5)
    | st.binary(max_size=5)
    | st.sampled_from([math.nan, math.inf, -math.inf])
    | big_integers
    | numbers
    | st.dates()
)
junk = st.recursive(
    junk_atoms,
    lambda inner: st.lists(inner, max_size=5).map(tuple)
    | st.lists(inner, max_size=5)
    | st.dictionaries(junk_atoms, inner, max_size=3),
    max_leaves=8,
)
record_calls = st.one_of(
    st.tuples(
        st.just(DailyRateSeries),
        st.fixed_dictionaries(
            {
                "entries": junk | st.lists(st.tuples(st.dates(), junk) | junk, max_size=4),
                "tenor_label": junk | st.just("X"),
            }
        ),
    ),
    st.tuples(
        st.just(SyntheticSpec),
        st.fixed_dictionaries(
            {
                "year_trends": junk
                | st.dictionaries(
                    st.integers(min_value=1998, max_value=2001) | junk_atoms,
                    junk | st.tuples(numbers, numbers),
                    max_size=3,
                ),
                "jump": junk
                | st.lists(junk_atoms, min_size=3, max_size=5)
                | st.sampled_from([constant_jump(0.1), PLANTED]),
                "noise_amplitude": junk,
                "seed": junk,
                "tenor_label": junk | st.just("SYN"),
            }
        ),
    ),
    st.tuples(
        st.just(HolidayCalendar),
        st.fixed_dictionaries(
            {"holidays": junk | st.frozensets(st.tuples(junk_atoms, junk_atoms) | junk_atoms)}
        ),
    ),
)


@settings(max_examples=500, deadline=None)
@given(call=record_calls)
def test_fuzz_record_constructors(call):
    cls, kwargs = call
    try:
        record = cls(**kwargs)
        if cls is SyntheticSpec:  # a spec that constructs can be generated from
            generate_synthetic_series(record, record.year_trends, HolidayCalendar())
    except XmasJumpError:
        pass


# --- banking-day walks against the day-by-day reference --------------------

LAST_ORDINAL = date.max.toordinal()
# Near-window closures and the leap day, or any day of the first 28 of a month.
recurring_days = st.sampled_from([(2, 29), (12, 24), (12, 27), (12, 31), (1, 2), (11, 30)]) | (
    st.tuples(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=28))
)
# One-off closures, as day offsets from December 25: from before the
# reach of an n = 400 window (about 560 days, past one Feb 29) to Jan 4.
closure_offsets = st.integers(min_value=-700, max_value=10)
# Banking days asked of the pre-window: mostly the default (the only n with
# a span warning), else too few, the most, or any.
window_lengths = st.sampled_from([15, 1, 400]) | st.integers(min_value=2, max_value=400)


def day_at(ordinal):
    return date.fromordinal(min(max(ordinal, 1), LAST_ORDINAL))


@settings(max_examples=200, deadline=None)
@given(
    year=st.sampled_from([1, 2, 4, 9998, 9999]) | st.integers(min_value=1, max_value=9999),
    recurring=st.frozensets(recurring_days, max_size=4),
    one_offs=st.frozensets(closure_offsets, max_size=6),
    late=st.integers(min_value=0, max_value=710),
    cut=st.integers(min_value=0, max_value=46),
    gaps=st.frozensets(st.integers(min_value=-60, max_value=6), max_size=2),
    n=window_lengths,
    first_day=st.integers(min_value=-800, max_value=10),
    days=st.integers(min_value=-3, max_value=800),
)
def test_ordinal_walks_match_the_day_by_day_reference(
    year, recurring, one_offs, late, cut, gaps, n, first_day, days
):
    # The series starts ``late`` days after Dec 25 - 700 and ends ``cut`` days
    # before Dec 31. Hypothesis favours zero, so the favoured series is long.
    event = date(year, 12, 25).toordinal()
    cal = HolidayCalendar(holidays=recurring | {day_at(event + x) for x in one_offs})
    first, last = day_at(event - 700 + late), day_at(event + 6 - cut)
    gap_days = {day_at(event + x).toordinal() for x in gaps}
    coverage = range(first.toordinal(), last.toordinal() + 1)
    series = DailyRateSeries(
        entries=tuple((date.fromordinal(o), (o % 97) / 8.0) for o in coverage if o not in gap_days)
    )
    start = day_at(event + first_day)
    end = day_at(start.toordinal() + days)
    assert banking_days(start, end, cal) == reference_banking_days(start, end, cal)
    assert outcome(post_window_offsets, year, cal) == outcome(
        reference_post_window_offsets, year, cal
    )
    assert outcome(pre_window, year, series, cal, n) == outcome(
        reference_pre_window, year, series, cal, n
    )
    assert outcome(post_window, year, series, cal) == outcome(
        reference_post_window, year, series, cal
    )


@settings(max_examples=200, deadline=None)
@given(
    year=st.sampled_from([1, 2, 4, 9998, 9999]) | st.integers(min_value=1, max_value=9999),
    recurring=st.frozensets(recurring_days, max_size=4),
    one_offs=st.frozensets(closure_offsets, max_size=6),
    late=st.integers(min_value=0, max_value=710),
    cut=st.integers(min_value=0, max_value=46),
    gaps=st.frozensets(st.integers(min_value=-60, max_value=6), max_size=2),
    n=window_lengths,
)
def test_windows_of_a_banking_day_series_match_the_reference(
    year, recurring, one_offs, late, cut, gaps, n
):
    # As above, but the series holds only the calendar's banking days, less
    # the gaps and the cut, so a window that succeeds is one slice of it:
    # no rate is read day by day. The every-day series above never slices.
    event = date(year, 12, 25).toordinal()
    cal = HolidayCalendar(holidays=recurring | {day_at(event + x) for x in one_offs})
    first, last = day_at(event - 700 + late), day_at(event + 6 - cut)
    gap_days = {day_at(event + x) for x in gaps}
    series = DailyRateSeries(entries=tuple(
        (d, (d.toordinal() % 97) / 8.0)
        for d in reference_banking_days(first, last, cal) if d not in gap_days
    ))
    fixing = market_calendar._fixing
    read = []

    def spy(o, *args):
        read.append(o)
        return fixing(o, *args)

    for window, reference, args in [
        (pre_window, reference_pre_window, (year, series, cal, n)),
        (post_window, reference_post_window, (year, series, cal)),
    ]:
        read.clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(market_calendar, "_fixing", spy)
            got = outcome(window, *args)
        assert got == outcome(reference, *args)
        failed = isinstance(got[0], type)  # (error type, message)
        assert failed or read == []


# Days of a span of years, as (index of the year in the span, offset from
# its December 25): from before the reach of an n = 400 window to Dec 31.
span_days = st.tuples(st.integers(min_value=0, max_value=39),
                      st.integers(min_value=-600, max_value=6)
                      | st.integers(min_value=-30, max_value=6))


@settings(max_examples=200, deadline=None)
@given(
    first_year=st.sampled_from([1, 2, 1999, 9980]) | st.integers(min_value=1, max_value=9999),
    span=st.integers(min_value=1, max_value=40),
    recurring=st.frozensets(recurring_days, max_size=3),
    one_offs=st.frozensets(span_days, max_size=6),
    extras=st.frozensets(span_days, max_size=3),
    gaps=st.frozensets(span_days, max_size=2),
    late=st.integers(min_value=0, max_value=900),
    cut=st.integers(min_value=0, max_value=8),
    n=window_lengths,
)
# Dec 25 falls on a Tuesday in 2001 and in leap 2012. With Dec 26 2001 and
# Dec 24 2012 closed, both years close days 359 and 360; the series' fixing
# on Dec 24 2012 tempts a key without the leap flag to take 2001's pattern.
@example(first_year=2001, span=12, recurring=frozenset(), one_offs={(0, 1), (11, -1)},
         extras={(11, -1)}, gaps=frozenset(), late=0, cut=0, n=15)
# 2001 and 2007 share a key, but 400 banking days reach back into 2000 and
# 2006, and only 2006 closes Sep 1, on which the series has a fixing.
@example(first_year=2001, span=7, recurring=frozenset(), one_offs={(5, -115)},
         extras={(5, -115)}, gaps=frozenset(), late=0, cut=0, n=400)
def test_year_windows_match_the_windows_of_each_year(
    first_year, span, recurring, one_offs, extras, gaps, late, cut, n
):
    # The walk that stores each year's window pattern under its key and
    # reuses it must give each year's pre_window and post_window, or raise
    # the first error they raise, with its message: on series of banking
    # days with gaps, fixings on other days, and either end cut. The second
    # assertion holds the walk over all the years against yearly_observation
    # of each year alone. That is a walk of one year, which has no pattern
    # to reuse, so it cuts through pre_window and then post_window: it is
    # still the independent path.
    years = range(first_year, min(first_year + span, 10000))

    def day(index, offset):
        return day_at(date(min(first_year + index, 9999), 12, 25).toordinal() + offset)
    cal = HolidayCalendar(holidays=recurring | {day(*x) for x in one_offs})
    first = day_at(date(first_year, 12, 25).toordinal() - 600 + late)
    last = day_at(date(years[-1], 12, 31).toordinal() - cut)
    held = (set(banking_days(first, last, cal)) | {day(*x) for x in extras}) - {
        day(*x) for x in gaps}
    series = DailyRateSeries(entries=tuple(
        (d, (d.toordinal() % 97) / 8.0) for d in sorted(held) if first <= d <= last
    ))
    assert outcome(lambda: list(market_calendar._year_windows(years, series, cal, n))) == outcome(
        lambda: [(pre_window(y, series, cal, n), post_window(y, series, cal)) for y in years]
    )
    assert outcome(jump_pipeline._observations, years, series, cal, n) == outcome(
        lambda: [yearly_observation(y, series, cal, n) for y in years]
    )


# One-off closures, as day offsets from January 1 of the drawn year: any day
# of the year before, the year itself or the year after.
one_off_offsets = st.integers(min_value=-366, max_value=730)


@settings(max_examples=200, deadline=None)
@given(
    year=st.sampled_from([1, 4, 1900, 2000, 9999]) | st.integers(min_value=1, max_value=9999),
    recurring=st.frozensets(recurring_days, max_size=4),
    one_offs=st.frozensets(one_off_offsets, max_size=8),
)
def test_closed_days_are_the_holidays(year, recurring, one_offs):
    start = date(year, 1, 1).toordinal()
    entries = recurring | {day_at(start + x) for x in one_offs}
    cal = HolidayCalendar(holidays=entries)
    years = {1, 4, 1900, 2000, 9999, year, max(year - 1, 1), min(year + 1, 9999)}
    for y in sorted(years):
        ordinals = range(date(y, 1, 1).toordinal(), date(y, 12, 31).toordinal() + 1)
        holidays = filter(cal.is_holiday, map(date.fromordinal, ordinals))
        assert cal.closed_days(y) == {d.timetuple().tm_yday for d in holidays}
    # the grouped state is derived: equality, hashing and pickling see the entries
    same = HolidayCalendar(holidays=[*entries, (12, 25)])
    restored = pickle.loads(pickle.dumps(cal))
    for other in (same, restored):
        assert other == cal and hash(other) == hash(cal)
        assert all(other.closed_days(y) == cal.closed_days(y) for y in years)


# --- the writer, bit for bit against the one before its pattern table -------

# Closures on weekdays between Nov 25 and Dec 31 in some years, and Feb 29,
# which moves every later day of the year in leap years.
writer_closures = st.sampled_from(
    [(2, 29), (11, 25), (11, 30), (12, 1), (12, 24), (12, 26), (12, 27), (12, 31)]
) | st.tuples(st.just(12), st.integers(min_value=1, max_value=31))
writer_floats = st.floats(min_value=-1e3, max_value=1e3) | st.sampled_from([0.0, -0.0, 5e-324])
# The a*b coefficient of a jump surface: -1e307 overflows the jump of most
# years, 1e300 none.
writer_cross_terms = writer_floats | st.sampled_from([1e300, -1e307])


@settings(max_examples=300, deadline=None)
@given(
    first_year=st.sampled_from([1, 1896, 1999, 2001, 9990])
    | st.integers(min_value=1, max_value=9999),
    span=st.integers(min_value=1, max_value=30),
    gaps=st.frozensets(st.integers(min_value=0, max_value=29), max_size=12),
    recurring=st.frozensets(writer_closures, max_size=3),
    one_offs=st.frozensets(st.tuples(st.integers(min_value=0, max_value=29),
                                     st.integers(min_value=-30, max_value=6)), max_size=4),
    trends=st.lists(st.tuples(writer_floats, writer_floats), min_size=30, max_size=30),
    jump=st.tuples(writer_floats, writer_floats, writer_floats, writer_cross_terms),
    amplitude=st.sampled_from([0.0, 0.01, 5e-324]) | st.floats(min_value=0.0, max_value=1e6),
    seed=st.sampled_from([-1, 0, 2**64 - 1, 2**64, -(2**64) - 3])
    | st.integers(min_value=-(2**70), max_value=2**70),
    descending=st.booleans(),
)
# Dec 25 falls on a Tuesday in 2001 and in leap 2012. With Dec 26 2001 and
# Dec 24 2012 closed, both years close days 359 and 360, so a pattern key
# without the leap flag would give 2012 the banking day Dec 24 of 2001.
@example(first_year=2001, span=12, gaps=frozenset(range(1, 11)), recurring=frozenset(),
         one_offs={(0, 1), (11, -1)}, trends=[(0.01, 2.0)] * 30, jump=(0.25, 0.0, 0.0, 0.0),
         amplitude=0.01, seed=7, descending=False)
# The second year's post-event rates overflow: the error names the first.
@example(first_year=2003, span=3, gaps=frozenset(), recurring=frozenset(), one_offs=frozenset(),
         trends=[(0.01, 2.0), (0.01, 1e308)] + [(0.01, 2.0)] * 28, jump=(1e308, 0.0, 0.0, 0.0),
         amplitude=0.0, seed=0, descending=True)
def test_generated_series_and_its_text_match_the_day_by_day_writer(
    first_year, span, gaps, recurring, one_offs, trends, jump, amplitude, seed, descending
):
    # Each calendar pattern's offsets walked once and reused, the LCG stepped
    # inline and each piece formatted in one call must give the arrays, the
    # pieces and the errors of the writer that did each of these per day.
    years = [y for i, y in enumerate(range(first_year, min(first_year + span, 10000)))
             if i not in gaps or i == 0]
    cal = HolidayCalendar(holidays=recurring | {
        day_at(date(min(first_year + i, 9999), 12, 25).toordinal() + x) for i, x in one_offs})
    spec = SyntheticSpec(dict(zip(years, trends)), jump, amplitude, seed)
    given_years = years[::-1] + years[:1] if descending else years  # order and repeats ignored
    got = outcome(generate_synthetic_series, spec, given_years, cal)
    want = outcome(reference_generate, spec, given_years, cal)
    if not isinstance(got, DailyRateSeries):
        assert got == want
        return
    ordinals, rates = want
    assert list(got._ordinals) == ordinals
    assert list(map(float.hex, got._rates)) == list(map(float.hex, rates))  # -0.0 too
    pieces = list(data_io._serialized_pieces(got))
    assert pieces == list(reference_serialized_pieces(got))
    assert serialize_rate_series(got) == "".join(pieces)


@pytest.mark.parametrize("rows", [1, 2, 3, data_io._WRITE_ROWS])
@settings(max_examples=100, deadline=None, phases=UNSHRUNK)
@given(entries=series_entries | long_series_entries, label=tenor_labels)
def test_serialized_pieces_match_the_row_by_row_writer(rows, entries, label):
    # Any rates, -0.0, subnormals and the largest floats among them, each
    # written as its repr, in pieces of any number of rows.
    series = DailyRateSeries(entries, label)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data_io, "_WRITE_ROWS", rows)
        assert list(data_io._serialized_pieces(series)) == list(
            reference_serialized_pieces(series))


# --- the JSON writer ---------------------------------------------------------

# Escapes, controls, non-ASCII, astral and a lone surrogate, plus any character.
json_strings = st.text(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\x80\u2028\u00e9\U0001f600\ud800')
    | st.characters(),
    max_size=8,
)
json_floats = st.floats() | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, math.inf, -math.inf, math.nan]
)
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**30), max_value=10**30)
    | json_floats
    | json_strings,
    lambda children: st.lists(children, max_size=4).map(tuple),
    max_leaves=20,
)


@settings(max_examples=500, deadline=None)
@given(value=json_values)
def test_json_writer_matches_json_dumps(value):
    assert _json_text(value) == json.dumps(value, indent=2)


class Colour(IntEnum):
    RED = 1


@pytest.mark.parametrize(
    "value",
    [{1, 2}, Colour.RED, (1.0, Colour.RED), (b"bytes",), {1: "int key"}, {"key": 1.0}, [1.0]],
    ids=["set", "int_enum", "nested_int_enum", "bytes_value", "int_key", "dict", "list"],
)
def test_json_writer_rejects_other_types(value):
    with pytest.raises(TypeError):
        _json_text(value)


# Every record type, with the edge values the pipeline can produce: an
# infinite t statistic over a zero standard error, a NaN adjusted R^2, no
# inference, and warnings that are None or text.
plain_floats = st.floats(min_value=-1e6, max_value=1e6)
record_warnings = st.none() | json_strings
record_years = st.integers(min_value=1, max_value=9999)


@st.composite
def coefficient_inferences(draw):
    estimate = draw(json_floats)
    if draw(st.booleans()):  # a perfect fit
        se, t_statistic = 0.0, draw(st.sampled_from([math.inf, -math.inf, 0.0]))
    else:
        se = draw(st.floats(min_value=5e-324, allow_infinity=False))
        t_statistic = estimate / se
    return CoefficientInference(estimate, se, t_statistic, draw(st.floats(0.0, 1.0)))


@st.composite
def jump_models(draw):
    first = draw(st.integers(min_value=1, max_value=9000))
    return JumpModel(
        window_years=(first, first + draw(st.integers(min_value=4, max_value=40))),
        coefficients=draw(st.tuples(*[plain_floats] * 4)),
        inference=tuple(draw(st.lists(coefficient_inferences(), max_size=4))),
        adjusted_r2=draw(json_floats),
    )


@st.composite
def backtest_rows(draw):
    predicted, realized, realized_mean = draw(st.tuples(*[plain_floats] * 3))
    error = predicted - realized
    return BacktestRow(
        draw(record_years), predicted, realized, realized_mean + error, realized_mean, error
    )


RECORD_VALUES = {
    DailyRateSeries: st.builds(
        DailyRateSeries,
        entries=st.lists(st.tuples(st.dates(), plain_floats), max_size=3, unique_by=lambda e: e[0])
        .map(sorted)
        .map(tuple),
        tenor_label=st.sampled_from(["", "SYN", "\u20acSTR"]),
    ),
    SyntheticSpec: st.builds(
        SyntheticSpec,
        year_trends=st.dictionaries(
            st.integers(min_value=1900, max_value=2100),
            st.tuples(plain_floats, plain_floats),
            max_size=2,
        ),
        jump=st.tuples(*[plain_floats] * 4),
    ),
    HolidayCalendar: st.builds(
        HolidayCalendar, st.frozensets(st.sampled_from([(12, 26), (1, 1)]) | st.dates())
    ),
    CoefficientInference: coefficient_inferences(),
    YearObservation: st.builds(
        YearObservation,
        record_years,
        json_floats,
        json_floats,
        json_floats,
        json_floats,
        st.lists(st.integers(min_value=1, max_value=10), max_size=4).map(tuple),
        json_floats,
        record_warnings,
        record_warnings,
    ),
    JumpModel: jump_models(),
    BacktestRow: backtest_rows(),
    BacktestReport: st.builds(
        BacktestReport,
        st.integers(min_value=5, max_value=40),
        st.lists(backtest_rows(), max_size=3).map(tuple),
        st.lists(jump_models(), max_size=3).map(tuple),
    ),
    JumpForecast: st.builds(JumpForecast, record_years, *[json_floats] * 4),
}
# The records the CLI writes: nothing in them is outside JSON's types.
CLI_RECORDS = {
    CoefficientInference, YearObservation, JumpModel, BacktestRow, BacktestReport, JumpForecast
}


def test_every_record_type_has_values():
    assert set(RECORD_VALUES) == set(Record.__subclasses__())
    assert CLI_RECORDS < set(RECORD_VALUES)


# A report whose models hold 4, 0 and 2 inferences, so that three shapes of
# one record type meet in one output, with a NaN adjusted R^2, infinite t
# statistics and a -0.0 among them.
MIXED_REPORT = BacktestReport(
    15,
    (
        BacktestRow(2016, 0.5, 0.25, 2.75, 2.5, 0.25),
        BacktestRow(2017, -0.125, 0.0625, 3.0, 3.1875, -0.1875),
        BacktestRow(2018, 0.0, -0.0, 1.5, 1.5, 0.0),
    ),
    (
        JumpModel((2001, 2015), (0.005, -9.0, -0.002, 2.0), (
            CoefficientInference(0.005, 0.0025, 2.0, 0.07),
            CoefficientInference(-9.0, 3.0, -3.0, 0.01),
            CoefficientInference(-0.002, 0.001, -2.0, 0.07),
            CoefficientInference(2.0, 0.5, 4.0, 0.002),
        ), 0.75),
        JumpModel((2002, 2016), (0.0, 0.0, 0.0, 0.0), (), math.nan),
        JumpModel((2003, 2017), (1.0, -1.0, 0.0, 0.5), (
            CoefficientInference(1.0, 0.0, math.inf, 0.0),
            CoefficientInference(-1.0, 0.0, -math.inf, 0.0),
        ), 1.0),
    ),
)


def json_text_or_type_error(value):
    try:
        return _json_text(value)
    except TypeError:
        return TypeError


@settings(max_examples=400, deadline=None)
@given(record=st.one_of(*RECORD_VALUES.values()))
@example(record=JumpModel(
    (2004, 2018),
    (1.0, -1.0, 0.0, 0.5),
    (
        CoefficientInference(1.0, 0.0, math.inf, 0.0),
        CoefficientInference(-1.0, 0.0, -math.inf, 0.0),
    ),
    math.nan,
))
@example(record=JumpModel((2004, 2018), (0.0, 0.0, 0.0, 0.0), (), math.nan))
@example(record=YearObservation(2019, 0.5, 2.5, 2.25, -0.25, (2, 5, 6), 2.3))
@example(record=YearObservation(
    2019, 0.5, 2.5, 2.25, -0.25, (2,), 2.3, "pre \u00e9t\u00e9 \"short\"", "post\nshort"
))
@example(record=MIXED_REPORT)
def test_json_writer_writes_a_record_as_its_dict(record):
    text = json_text_or_type_error(record)
    if type(record) not in CLI_RECORDS and text is TypeError:
        return  # a series' dates, a calendar's frozenset, a spec's dict
    assert text == json.dumps(record.to_dict(), indent=2)
    if type(record) in CLI_RECORDS:
        # the CLI writes its output in pieces, as a record or as two records
        assert "".join(_json_pieces(record)) == text
        both = {"model": record, "forecast": record}
        expected = json.dumps({"model": record.to_dict(), "forecast": record.to_dict()}, indent=2)
        assert "".join(_json_pieces(both)) == expected


def test_one_output_writes_records_of_one_type_and_several_shapes():
    # Tuple fields of different lengths, and text where None was, each need
    # their own template within one _json_pieces call.
    short = YearObservation(2019, 0.5, 2.5, 2.25, -0.25, (2,), 2.3)
    value = {
        "short": short,
        "long": YearObservation(2018, 0.5, 2.5, 2.25, -0.25, (2, 5, 6), 2.3),
        "again": short,
        "warned": YearObservation(2017, 0.5, 2.5, 2.25, -0.25, (2,), 2.3, None, "short"),
        "empty": YearObservation(2016, 0.5, 2.5, 2.25, -0.25, (), math.inf),
    }
    expected = json.dumps({key: record.to_dict() for key, record in value.items()}, indent=2)
    assert "".join(_json_pieces(value)) == expected


# --- the bilinear fit against its reference and the exact oracle ------------


def fit_error(fit, *args):
    """The type and message of the error ``fit(*args)`` raises, or None."""
    try:
        fit(*args)
    except Exception as exc:  # any error must match too
        return type(exc), str(exc)
    return None


@st.composite
def bilinear_designs(draw):
    """``(trends, targets)`` of m rows: random trends over slopes of one
    magnitude, nearly collinear ones (about half of the draws), or designs
    with an all-zero or constant column, a column collinear with another,
    or repeated rows."""
    m = draw(st.integers(min_value=5, max_value=40))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    magnitude = draw(st.sampled_from([1e-8, 1e-5, 1e-2, 1.0, 1e3]) | st.floats(1e-8, 1e3))
    shape = draw(
        st.sampled_from(["random", "near_collinear"])
        | st.sampled_from(["zero_a", "zero_b", "constant_a", "collinear", "repeated"])
    )
    slopes = [rng.uniform(-magnitude, magnitude) for _ in range(m)]
    intercepts = [rng.uniform(-5.0, 5.0) for _ in range(m)]
    if shape == "zero_a":
        slopes = [0.0] * m
    elif shape == "zero_b":
        intercepts = [0.0] * m
    elif shape == "constant_a":
        slopes = [slopes[0]] * m
    elif shape == "collinear":
        intercepts = [2.5 * a - 0.75 for a in slopes]
    elif shape == "near_collinear":
        nudge = draw(st.sampled_from([1e-7, 1e-6, 1e-5, 1e-3])) * (2.5 * magnitude + 0.75)
        intercepts = [2.5 * a - 0.75 + rng.gauss(0.0, nudge) for a in slopes]
    elif shape == "repeated":
        slopes, intercepts = (slopes[:3] * m)[:m], (intercepts[:3] * m)[:m]
    targets = [rng.gauss(0.0, 1.0) * draw(st.sampled_from([1e-3, 1.0, 1e3])) for _ in range(m)]
    return list(zip(slopes, intercepts)), targets


def assert_meets_the_contract(trends, targets, fit):
    c_beta, c_factors, c_rss = contract_constants(trends, targets, fit)
    assert c_beta <= CONTRACT_CONSTANT, f"beta off by {c_beta:.3g} u-units"
    assert c_factors <= CONTRACT_CONSTANT, f"variance factors off by {c_factors:.3g} u-units"
    assert c_rss <= CONTRACT_CONSTANT, f"RSS off by {c_rss:.3g} u-units"


@settings(max_examples=300, deadline=None)
@given(design=bilinear_designs(), data=st.data())
def test_window_fit_agrees_with_its_reference_and_meets_the_contract(design, data):
    trends, targets = design
    first = data.draw(st.just(0) | st.integers(-3000, 3000), label="first")
    error = fit_error(walk_fit, trends, targets, first)
    assert error == fit_error(reference_fit_bilinear, trends, targets)
    if error is None:
        fit = walk_fit(trends, targets, first)
        assert_meets_the_contract(trends, targets, fit)
        assert_meets_the_contract(trends, targets, reference_fit_bilinear(trends, targets))
        se_share, adjusted_share = inference_margins(
            trends, targets, *inference_for_fit(targets, fit)
        )
        assert se_share <= 1.0, f"standard errors use {se_share:.3g} of their bound"
        assert adjusted_share <= 1.0, f"adjusted R^2 uses {adjusted_share:.3g} of its bound"


def test_backtest_models_meet_the_contract(monkeypatch):
    """The 186 models of a backtest over a noisy 201-year series: the fit
    each was made from, against the oracle on that window's rows."""
    first, last, window = 1900, 2100, 15
    spec = SyntheticSpec(
        year_trends=distinct_trends(first, last, seed=901),
        jump=PLANTED,
        noise_amplitude=0.01,
        seed=901,
    )
    cal = HolidayCalendar()
    series = generate_synthetic_series(spec, range(first, last + 1), cal)
    fits = []
    walk = jump_pipeline.window_fits

    def recording(*args):
        for fit in walk(*args):
            fits.append(fit)
            yield fit

    monkeypatch.setattr(jump_pipeline, "window_fits", recording)
    report = backtest(series, cal, first + window, last)
    table = [yearly_observation(year, series, cal) for year in range(first, last + 1)]
    assert len(report.models) == len(fits) == 186
    for start, (model, fit) in enumerate(zip(report.models, fits)):
        observations = table[start : start + window]
        assert model.window_years == (observations[0].year, observations[-1].year)
        assert model.coefficients == fit[0]
        trends = [(obs.slope_a, obs.intercept_b) for obs in observations]
        targets = [obs.jump_delta for obs in observations]
        assert_meets_the_contract(trends, targets, fit)


# --- the package root ------------------------------------------------------

ROOT_EXPORTS = [
    "BacktestReport",
    "BacktestRow",
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


def test_package_root_exports_the_pipeline_surface():
    assert sorted(xmasjump.__all__) == ROOT_EXPORTS
    namespace = {}
    exec("from xmasjump import *", namespace)
    assert all(name in namespace for name in ROOT_EXPORTS)


KERNEL_EXPORTS = [
    "bilinear_surface",
    "design_row",
    "fit_intercept_fixed_slope",
    "fit_simple_ols",
    "window_fits",
]


def test_regression_core_keeps_its_triangles_private():
    public = [
        name
        for name, value in vars(regression_core).items()
        if callable(value)
        and not name.startswith("_")
        and getattr(value, "__module__", None) == regression_core.__name__
    ]
    assert sorted(public) == KERNEL_EXPORTS


def test_names_the_benchmark_imports_or_patches_stay():
    """``perfbench/`` reaches into the package by these names; deleting or
    rebinding one breaks the benchmark, so it fails here first."""
    from xmasjump import cli, data_io, errors, jump_pipeline, market_calendar

    assert callable(cli.main)
    assert cli.HolidayCalendar is market_calendar.HolidayCalendar
    for name in (
        "generate_synthetic_series",
        "serialize_rate_series",
        "synthetic_spec_from_json",
        "parse_rate_series",
    ):
        assert callable(getattr(data_io, name)), name
    assert jump_pipeline.pre_window is market_calendar.pre_window
    assert callable(jump_pipeline.fit_window_model)
    assert issubclass(errors.WindowTooShort, errors.XmasJumpError)


def test_the_functions_the_tracer_wraps_stay():
    """``perfbench/tracer.py`` times the functions its ``LAYERS`` names; the
    three it names that the package no longer has may not grow in number.
    The traced harness reads a missing name as 0 calls."""
    source = (Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py").read_text()
    (layers,) = [
        ast.literal_eval(node.value)
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "LAYERS"
    ]
    missing = {
        f"{module}.{name}"
        for module, names in layers.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"xmasjump.{module}"), name, None))
    }
    assert missing <= {
        "market_calendar.is_banking_day",
        "regression_core.fit_bilinear",
        "regression_core.solve_linear_system",
    }


def test_every_module_parses_as_the_oldest_python_promised():
    """``pyproject.toml`` promises a minimum Python; every module of the
    package must parse with that version's grammar, which ``except*`` would
    not for 3.10. Library calls newer than that version are not caught."""
    root = Path(__file__).resolve().parents[1]
    pyproject = (root / "pyproject.toml").read_text(encoding="utf-8")
    [(major, minor)] = re.findall(r'requires-python = ">=(\d+)\.(\d+)"', pyproject)
    modules = sorted((root / "src" / "xmasjump").glob("*.py"))
    assert {path.stem for path in modules} >= {"cli", "data_io", "regression_core"}
    for path in modules:
        source = path.read_text(encoding="utf-8")
        ast.parse(source, str(path), feature_version=(int(major), int(minor)))


# --- the names README.md cites ---------------------------------------------

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_the_readme_cites_only_package_names_that_exist():
    """Each ``module.name`` (or ``xmasjump.module.name``) that README.md
    cites, for a module of the package, is an attribute of that module."""
    modules = {info.name for info in pkgutil.iter_modules(xmasjump.__path__)}
    cited = {
        (module, name)
        for module, name in re.findall(r"`(?:xmasjump\.)?(\w+)\.(\w+)", README)
        if module in modules
    }
    assert ("regression_core", "window_fits") in cited
    missing = [
        f"{module}.{name}"
        for module, name in sorted(cited)
        if not hasattr(importlib.import_module(f"xmasjump.{module}"), name)
    ]
    assert missing == []


def test_the_readme_cites_only_tests_that_exist():
    """Each ``tests/<file>.py::Class::test`` id that README.md cites names a
    class, and within it a test, defined in that file."""
    tests = Path(__file__).resolve().parent
    cited = set(re.findall(r"tests/(\w+\.py)((?:::\w+)+)", README))
    assert cited
    missing = []
    for file, path in sorted(cited):
        scope = ast.parse((tests / file).read_text(encoding="utf-8")).body
        for name in path.split("::")[1:]:
            scope = next(
                (
                    node.body
                    for node in scope
                    if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name
                ),
                None,
            )
            if scope is None:
                missing.append(f"tests/{file}{path}")
                break
    assert missing == []
