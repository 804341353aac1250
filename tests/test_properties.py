"""Property tests for the pipeline, fuzzing of the input parsers, and the
package root's export list.

The backtest must never let data from a target year's own post-event
window, or from any later year, into that target's model or prediction;
and on a complete series its target step must agree with ``predict_next``.
Adding a constant to every rate moves each year's intercept by that
constant and leaves its slope and jump alone. A fixed jump ``v`` is the
constant surface ``[v, 0, 0, 0]`` and adds exactly ``v`` to every
post-event rate. Serializing a series and parsing it back returns the same
series, whatever the row order, comments, blank lines, spacing and line
ends. The parsers, given any text, return a
value or raise an ``XmasJumpError`` subclass, never anything else; so do
the constructors of the input records, given any arguments. The
banking-day walks over day ordinals agree with a day-by-day reference.
The CLI's JSON writer prints what ``json.dumps(value, indent=2)`` prints,
and ``fit_bilinear`` equals its generator-expression reference bit for bit.
"""

import json
import math
import random
from datetime import date
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xmasjump
from helpers import (
    constant_jump,
    distinct_trends,
    reference_banking_days,
    reference_fit_bilinear,
    reference_post_window,
    reference_post_window_offsets,
    reference_pre_window,
)
from xmasjump import (
    BilinearJump,
    DailyRateSeries,
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
from xmasjump.cli import _json_text
from xmasjump.errors import DuplicateDate
from xmasjump.market_calendar import banking_days, post_window, post_window_offsets, pre_window
from xmasjump.regression_core import fit_bilinear

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
                "jump": junk | st.sampled_from([constant_jump(0.1), PLANTED]),
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


def outcome(fn, *args):
    """What ``fn`` returns, or the type and message of the error it raises."""
    try:
        return fn(*args)
    except XmasJumpError as exc:
        return type(exc), str(exc)


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
    assert post_window_offsets(year, cal) == reference_post_window_offsets(year, cal)
    assert outcome(pre_window, year, series, cal, n) == outcome(
        reference_pre_window, year, series, cal, n
    )
    assert outcome(post_window, year, series, cal) == outcome(
        reference_post_window, year, series, cal
    )


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
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(json_strings, children, max_size=4),
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
    [{1, 2}, Colour.RED, [1.0, Colour.RED], {"key": b"bytes"}, {1: "int key"}],
    ids=["set", "int_enum", "nested_int_enum", "bytes_value", "int_key"],
)
def test_json_writer_rejects_other_types(value):
    with pytest.raises(TypeError):
        _json_text(value)


# --- the bilinear fit against its reference ----------------------------------


def fit_outcome(fit, trends, targets):
    """``repr`` of the fit, or of the type and message of its error: equal
    reprs mean equal bits (``repr`` round-trips a float)."""
    try:
        return repr(fit(trends, targets))
    except Exception as exc:  # any error must match too
        return repr((type(exc), str(exc)))


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


@settings(max_examples=300, deadline=None)
@given(design=bilinear_designs())
def test_fit_bilinear_matches_its_reference_bit_for_bit(design):
    trends, targets = design
    assert fit_outcome(fit_bilinear, trends, targets) == fit_outcome(
        reference_fit_bilinear, trends, targets
    )


def test_fit_bilinear_matches_its_reference_on_a_backtest():
    """The 186 fitting windows of a backtest over a noisy 201-year series."""
    first, last, window = 1900, 2100, 15
    spec = SyntheticSpec(
        year_trends=distinct_trends(first, last, seed=901),
        jump=PLANTED,
        noise_amplitude=0.01,
        seed=901,
    )
    cal = HolidayCalendar()
    series = generate_synthetic_series(spec, range(first, last + 1), cal)
    table = [yearly_observation(year, series, cal) for year in range(first, last + 1)]
    windows = [table[start : start + window] for start in range(len(table) - window)]
    assert len(windows) == 186
    for observations in windows:
        trends = [(obs.slope_a, obs.intercept_b) for obs in observations]
        targets = [obs.jump_delta for obs in observations]
        assert repr(fit_bilinear(trends, targets)) == repr(reference_fit_bilinear(trends, targets))


# --- the package root ------------------------------------------------------

ROOT_EXPORTS = [
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


def test_package_root_exports_the_pipeline_surface():
    assert sorted(xmasjump.__all__) == ROOT_EXPORTS
    namespace = {}
    exec("from xmasjump import *", namespace)
    assert all(name in namespace for name in ROOT_EXPORTS)
