"""Property tests for the pipeline, fuzzing of the input parsers, and the
package root's export list.

The backtest must never let data from a target year's own post-event
window, or from any later year, into that target's model or prediction;
and on a complete series its target step must agree with ``predict_next``.
Adding a constant to every rate moves each year's intercept by that
constant and leaves its slope and jump alone. Serializing a series and
parsing it back returns the same series, whatever the row order, comments,
blank lines, spacing and line ends. The parsers, given any text, return a
value or raise an ``XmasJumpError`` subclass, never anything else; so do
the constructors of the input records, given any arguments.
"""

import json
import math
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xmasjump
from helpers import distinct_trends
from xmasjump import (
    BilinearJump,
    DailyRateSeries,
    FixedJump,
    HolidayCalendar,
    SyntheticSpec,
    XmasJumpError,
    backtest,
    calendar_from_lines,
    generate_synthetic_series,
    parse_rate_series,
    predict_next,
    serialize_rate_series,
    synthetic_spec_from_json,
    yearly_observation,
)
from xmasjump.errors import DuplicateDate

FIRST_YEAR, LAST_YEAR = 2000, 2012
WINDOW_LEN = 5
FIRST_TARGET = FIRST_YEAR + WINDOW_LEN
PLANTED = BilinearJump((0.005, -9.0, -0.002, 2.0))
# The default closures, alone or with one more year-end closure, so that
# the post windows also come in other shapes.
CALENDARS = [
    HolidayCalendar(),
    HolidayCalendar(holidays=frozenset({(12, 26), (1, 1), (12, 27)})),
    HolidayCalendar(holidays=frozenset({(12, 26), (1, 1), (12, 31)})),
]

seeds = st.integers(min_value=0, max_value=2**32 - 1)
targets = st.integers(min_value=FIRST_TARGET, max_value=LAST_YEAR)


def noisy_series(trend_seed, noise_seed, cal):
    spec = SyntheticSpec(
        year_trends=distinct_trends(FIRST_YEAR, LAST_YEAR, trend_seed),
        jump=PLANTED,
        noise_amplitude=0.01,
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
)
def test_predict_next_agrees_with_the_backtest_row(trend_seed, noise_seed, target, cal):
    series = noisy_series(trend_seed, noise_seed, cal)
    report = backtest(series, cal, FIRST_TARGET, LAST_YEAR, window_len=WINDOW_LEN)
    k = target - FIRST_TARGET
    forecast = predict_next(series, cal, target, report.models[k])
    assert forecast.predicted_jump == report.rows[k].predicted_jump
    assert forecast.corrected_mean_estimate == report.rows[k].corrected_mean_estimate


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
            "\u2028",
            " ",
        ]
    ),
    tenor=st.none() | st.text(max_size=6),
)
def test_fuzz_parse_rate_series(text, tenor):
    try:
        parse_rate_series(text, tenor_label=tenor)
    except XmasJumpError:
        pass


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
        generate_synthetic_series(spec, years, cal)
    except XmasJumpError:
        pass


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
    st.tuples(st.just(FixedJump), st.fixed_dictionaries({"value": junk})),
    st.tuples(
        st.just(BilinearJump),
        st.fixed_dictionaries({"coefficients": junk | st.lists(junk_atoms, min_size=3, max_size=5)}),
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
                "jump": junk | st.sampled_from([FixedJump(0.1), PLANTED]),
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


# --- the package root ------------------------------------------------------

ROOT_EXPORTS = [
    "BacktestReport",
    "BacktestRow",
    "BilinearJump",
    "DailyRateSeries",
    "FixedJump",
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
