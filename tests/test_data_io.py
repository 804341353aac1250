"""Parsing, serialization round-trips, and the seeded generator."""

import math
import random
from array import array
from datetime import date, datetime
from decimal import Decimal

import pytest

from helpers import constant_jump, day_offset, reference_banking_days
from xmasjump import (
    DailyRateSeries,
    HolidayCalendar,
    SyntheticSpec,
    data_io,
    generate_synthetic_series,
    parse_rate_series,
    serialize_rate_series,
    synthetic_spec_from_json,
)
from xmasjump.errors import DomainError, DuplicateDate, InsufficientData, ParseError

LCG_MULTIPLIER = 6364136223846793005
LCG_INCREMENT = 1442695040888963407
# a JSON array nested 600 deep, which json.loads reads; no message may show it in full
_DEEP = "[" * 600 + "]" * 600


class Day(date):
    """A date subclass: a plain date to the series, with its type dropped."""


def lcg_uniforms(seed: int, count: int) -> list[float]:
    """The documented noise stream, recomputed from the recurrence."""
    state = seed & ((1 << 64) - 1)
    out = []
    for _ in range(count):
        state = (LCG_MULTIPLIER * state + LCG_INCREMENT) % (1 << 64)
        out.append((state >> 11) / 2**53)
    return out


class TestParseRateSeries:
    def test_single_row(self):
        series = parse_rate_series("date,rate\n2018-12-24,2.70\n")
        assert len(series) == 1
        assert series.rate_on(date(2018, 12, 24)) == 2.70

    def test_comments_blank_lines_and_spacing(self):
        text = "\n".join(
            [
                "# tenor: USD-2M",
                "",
                "date,rate",
                "2018-12-24, 2.70  # pre-holiday fixing",
                "",
                "2018-12-27,2.75",
            ]
        )
        series = parse_rate_series(text)
        assert series.tenor_label == "USD-2M"
        assert len(series) == 2

    def test_unsorted_input_is_sorted(self):
        text = "date,rate\n2018-12-27,2.75\n2018-12-24,2.70\n"
        series = parse_rate_series(text)
        assert series.first_date == date(2018, 12, 24)
        assert series.last_date == date(2018, 12, 27)

    def test_duplicate_date(self):
        text = "date,rate\n2018-12-24,2.70\n2018-12-24,2.71\n"
        with pytest.raises(DuplicateDate) as exc_info:
            parse_rate_series(text)
        assert exc_info.value.fixing_date == date(2018, 12, 24)

    def test_invalid_month_reports_line(self):
        text = "date,rate\n2018-12-24,2.70\n2018-13-01,2.0\n"
        with pytest.raises(ParseError) as exc_info:
            parse_rate_series(text)
        assert exc_info.value.line_number == 3

    def test_bad_rate(self):
        for bad in ("abc", "2.7.0", "nan", "inf", "1_0", ""):
            with pytest.raises(ParseError):
                parse_rate_series(f"date,rate\n2018-12-24,{bad}\n")

    def test_overflowing_rate_reports_its_line(self):
        text = "date,rate\n2018-12-24,2.70\n2018-12-27,1e999\n"
        with pytest.raises(ParseError) as exc_info:
            parse_rate_series(text)
        assert exc_info.value.line_number == 3

    def test_scientific_notation_accepted(self):
        series = parse_rate_series("date,rate\n2018-12-24,2.7e-1\n")
        assert series.rate_on(date(2018, 12, 24)) == 0.27

    def test_wrong_field_count(self):
        with pytest.raises(ParseError):
            parse_rate_series("date,rate\n2018-12-24,2.70,extra\n")

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_rate_series("2018-12-24,2.70\n")
        with pytest.raises(ParseError):
            parse_rate_series("")

    @pytest.mark.parametrize(
        "text, line, reason",
        [
            ("2018-12-27,2.70\n2018-13-01,2.0", 3, "bad date '2018-13-01'"),
            ("2018-12-27 ,  nan # note", 2, "bad rate 'nan'"),
            ("2018-02-30,abc", 2, "bad date '2018-02-30'"),
            ("2018-12-24,1.2.3", 2, "bad rate '1.2.3'"),
            ("2018-12-24,2.70,extra", 2, "expected exactly two comma-separated fields"),
            ("2018-12-24", 2, "expected exactly two comma-separated fields"),
            ("2018-12-24,2.70\r\n2018-12-27,1e999", 3, "rate '1e999' overflows"),
            ("2018-12-24,1e999\n2018-12-27,x", 2, "rate '1e999' overflows"),
        ],
        ids=[
            "bad_month",
            "nan",
            "bad_day_before_bad_rate",
            "two_points",
            "three_fields",
            "one_field",
            "overflow",
            "first_error_wins",
        ],
    )
    def test_error_reasons(self, text, line, reason):
        with pytest.raises(ParseError) as exc_info:
            parse_rate_series("date,rate\n" + text + "\n")
        assert (exc_info.value.line_number, exc_info.value.reason) == (line, reason)

    def test_row_before_header(self):
        with pytest.raises(ParseError) as exc_info:
            parse_rate_series("# tenor: X\n2018-12-24,2.70\ndate,rate\n")
        assert str(exc_info.value) == (
            "line 2: expected header 'date,rate', got '2018-12-24,2.70'"
        )

    @pytest.mark.parametrize(
        "date_text", ["20181224", "2018-W52-1", "2018W521", "\u0662\u0660\u0661\u0668-12-24"]
    )
    def test_only_ascii_yyyy_mm_dd_dates(self, date_text):
        with pytest.raises(ParseError) as exc_info:
            parse_rate_series(f"date,rate\n{date_text},2.70\n")
        assert str(exc_info.value) == f"line 2: bad date {date_text!r}"

    @pytest.mark.parametrize("rate_text", ["\u0661.\u0665", "\u0661", "2.7\u0660"])
    def test_only_ascii_digits_in_rates(self, rate_text):
        with pytest.raises(ParseError) as exc_info:
            parse_rate_series(f"date,rate\n2018-12-24,{rate_text}\n")
        assert str(exc_info.value) == f"line 2: bad rate {rate_text!r}"

    def test_unicode_whitespace_around_fields(self):
        series = parse_rate_series("date,rate\n\u00a02018-12-24\u2003,\t2.70\u3000# x\n")
        assert series.entries == ((date(2018, 12, 24), 2.70),)


class TestSerializeRoundTrip:
    def test_parse_serialize_parse_is_identity(self):
        rng = random.Random(17)
        entries = []
        d = date(2017, 11, 1)
        for _ in range(120):
            entries.append((d, rng.uniform(0.1, 6.0)))
            d = d.fromordinal(d.toordinal() + rng.randint(1, 3))
        series = DailyRateSeries(entries=tuple(entries), tenor_label="SYN-2M")
        text = serialize_rate_series(series)
        reparsed = parse_rate_series(text)
        assert reparsed == series
        assert serialize_rate_series(reparsed) == text

    def test_rates_survive_exactly(self):
        series = DailyRateSeries(entries=((date(2018, 1, 2), 0.1 + 0.2),))
        reparsed = parse_rate_series(serialize_rate_series(series))
        assert reparsed.rate_on(date(2018, 1, 2)) == 0.1 + 0.2


class TestDailyRateSeriesValidation:
    def test_the_ordinal_array_holds_every_date(self):
        # A series keeps its days as items of type code ``_ORDINAL``: the
        # latest date's ordinal fits, and the earliest and latest dates come
        # back from a series built or parsed.
        assert array(data_io._ORDINAL, [date.max.toordinal()])[0] == date.max.toordinal()
        entries = ((date.min, 1.0), (date.max, 2.0))
        assert DailyRateSeries(entries).entries == entries
        assert parse_rate_series("date,rate\n0001-01-01,1.0\n9999-12-31,2.0\n").entries == entries

    def test_decreasing_dates_rejected(self):
        with pytest.raises(DomainError):
            DailyRateSeries(
                entries=((date(2018, 1, 3), 1.0), (date(2018, 1, 2), 1.0))
            )

    def test_duplicate_dates_rejected(self):
        with pytest.raises(DomainError):
            DailyRateSeries(
                entries=((date(2018, 1, 2), 1.0), (date(2018, 1, 2), 1.1))
            )

    def test_non_finite_rate_rejected(self):
        with pytest.raises(DomainError):
            DailyRateSeries(entries=((date(2018, 1, 2), math.nan),))
        with pytest.raises(DomainError):
            DailyRateSeries(entries=((date(2018, 1, 2), math.inf),))

    @pytest.mark.parametrize(
        "series", [DailyRateSeries([]), parse_rate_series("date,rate\n")], ids=["built", "parsed"]
    )
    @pytest.mark.parametrize("end", ["first_date", "last_date"])
    def test_an_empty_series_has_no_first_or_last_date(self, series, end):
        with pytest.raises(InsufficientData, match="^series is empty$"):
            getattr(series, end)
        # read inside a generator, a bare StopIteration would be a RuntimeError
        with pytest.raises(InsufficientData, match="^series is empty$"):
            list(getattr(series, end) for _ in range(1))
        assert series.rate_on(date(2018, 12, 24)) is None

    @pytest.mark.parametrize("label", [" USD", "USD ", "a\nb", "a\rb", "a\u2028b"])
    def test_tenor_label_that_cannot_round_trip_rejected(self, label):
        with pytest.raises(DomainError):
            DailyRateSeries(entries=(), tenor_label=label)

    @pytest.mark.parametrize("label", ["\udcff", "USD\ud800"])
    def test_tenor_label_that_utf8_cannot_encode_rejected(self, label):
        # a lone surrogate: the label could not be written to a file
        want = f"tenor label {label!r} cannot be written as UTF-8"
        with pytest.raises(DomainError) as exc_info:
            DailyRateSeries(entries=(), tenor_label=label)
        assert str(exc_info.value) == want
        # a parsed text may hold one too; its series is refused as the constructor's
        text = f"# tenor: {label}\ndate,rate\n2018-12-24,2.70\n"
        with pytest.raises(DomainError) as exc_info:
            parse_rate_series(text)
        assert str(exc_info.value) == want

    def test_datetime_rejected(self):
        with pytest.raises(DomainError):
            DailyRateSeries(entries=((datetime(2018, 1, 2, 12, 0), 1.0),))

    @pytest.mark.parametrize(
        "entries, message",
        [
            (
                (("2018-01-02", 1.0),),
                "fixing dates must be datetime.date, got '2018-01-02'",
            ),
            (
                ((date(2018, 1, 2), 1.0), ([2018, 1, 3], 1.0)),
                "fixing dates must be datetime.date, got [2018, 1, 3]",
            ),
            (
                ((date(2018, 1, 2), 1.0), (datetime(2018, 1, 3, 12, 0), 1.0)),
                "fixing dates must be datetime.date, got datetime.datetime(2018, 1, 3, 12, 0)",
            ),
            (
                (
                    (date(2018, 1, 2), 1.0),
                    (date(2018, 1, 3), math.nan),
                    (date(2018, 1, 4), math.inf),
                ),
                "rate on 2018-01-03 is not finite",
            ),
            (
                ((date(2018, 1, 3), 1.0), (date(2018, 1, 2), 1.0)),
                "fixing dates must be strictly increasing",
            ),
            (
                ((date(2018, 1, 2), 1.0), (date(2018, 1, 3), 1.0), (date(2018, 1, 3), 1.1)),
                "fixing dates must be strictly increasing",
            ),
        ],
        ids=["string", "unhashable", "datetime", "first_non_finite", "decreasing", "repeated"],
    )
    def test_error_messages(self, entries, message):
        with pytest.raises(DomainError) as exc_info:
            DailyRateSeries(entries=entries)
        assert str(exc_info.value) == message

    @pytest.mark.parametrize(
        "rate, shown",
        [
            (None, "None"),
            ("abc", "'abc'"),
            ("2.5", "'2.5'"),
            (b"2.5", "b'2.5'"),
            ([2.5], "[2.5]"),
        ],
        ids=["none", "text", "numeric_text", "bytes", "list"],
    )
    def test_rate_that_is_not_a_number(self, rate, shown):
        with pytest.raises(DomainError) as exc_info:
            DailyRateSeries(entries=((date(2018, 1, 2), 1.0), (date(2018, 1, 3), rate)))
        assert str(exc_info.value) == (
            f"rate on 2018-01-03 must be a finite real number, got {shown}"
        )

    def test_rate_beyond_the_float_range(self):
        message = "^rate on 2018-01-02 must be a finite real number"
        with pytest.raises(DomainError, match=message):
            DailyRateSeries(entries=((date(2018, 1, 2), 10**400),))

    @pytest.mark.parametrize(
        "entry",
        [(date(2018, 1, 3),), (date(2018, 1, 3), 1.0, 2.0), None, date(2018, 1, 3)],
        ids=["one_item", "three_items", "none", "bare_date"],
    )
    def test_entry_that_is_not_a_pair(self, entry):
        with pytest.raises(DomainError) as exc_info:
            DailyRateSeries(entries=((date(2018, 1, 2), 1.0), entry))
        assert str(exc_info.value) == f"entries must be (date, rate) pairs, got {entry!r}"

    def test_entries_become_date_float_tuples(self):
        series = DailyRateSeries(entries=[[date(2018, 1, 2), 1], (date(2018, 1, 3), Decimal(1))])
        assert series.entries == ((date(2018, 1, 2), 1.0), (date(2018, 1, 3), 1.0))
        assert all(type(e) is tuple and type(e[1]) is float for e in series.entries)
        assert series.rate_on(date(2018, 1, 2)) == 1.0
        assert hash(series) == hash(DailyRateSeries(entries=series.entries))

    def test_entries_from_a_generator(self):
        dates = [date(2018, 1, 2), date(2018, 1, 3)]
        series = DailyRateSeries(entries=((d, 2.5) for d in dates))
        assert series.entries == ((date(2018, 1, 2), 2.5), (date(2018, 1, 3), 2.5))

    def test_lookup(self):
        series = DailyRateSeries(
            entries=((date(2018, 1, 2), 1.0), (date(2018, 1, 5), 2.0))
        )
        assert series.rate_on(date(2018, 1, 5)) == 2.0
        assert series.rate_on(date(2018, 1, 3)) is None

    @pytest.mark.parametrize(
        "day", [datetime(2018, 12, 24), "2018-12-24", None, 20181224, 737052],
        ids=["datetime", "text", "none", "integer", "ordinal"],
    )
    def test_lookup_of_what_is_not_a_date_finds_nothing(self, day):
        # A datetime never equals a date, so it names no fixing, not even
        # the one on its own day; nor does the day's ordinal.
        series = DailyRateSeries(entries=((date(2018, 12, 24), 2.5),))
        assert date(2018, 12, 24).toordinal() == 737052
        assert series.rate_on(day) is None

    def test_lookup_by_a_date_subclass(self):
        series = DailyRateSeries(entries=((date(2018, 12, 24), 2.5),))
        assert series.rate_on(Day(2018, 12, 24)) == 2.5
        assert series.rate_on(Day(2018, 12, 21)) is None

    def test_a_date_subclass_comes_back_as_a_plain_date(self):
        # The series keeps day ordinals, so a fixing's date is rebuilt as a date.
        series = DailyRateSeries(entries=((Day(2018, 12, 24), 2.5),))
        assert series.entries == ((date(2018, 12, 24), 2.5),)
        assert type(series.entries[0][0]) is date
        assert type(series.first_date) is type(series.last_date) is date
        assert series == DailyRateSeries(entries=((date(2018, 12, 24), 2.5),))


class TestGenerator:
    def test_same_seed_is_byte_identical(self, cal):
        spec = SyntheticSpec(
            year_trends={2018: (0.01, 2.5)},
            jump=constant_jump(0.1),
            noise_amplitude=0.05,
            seed=42,
        )
        a = serialize_rate_series(generate_synthetic_series(spec, [2018], cal))
        b = serialize_rate_series(generate_synthetic_series(spec, [2018], cal))
        assert a == b

    def test_a_rate_past_the_float_range_is_a_domain_error(self, cal):
        # Nov 26 is 29 days before Dec 25: 1e308 * -29 overflows
        spec = SyntheticSpec(year_trends={2018: (1e308, 0.0)})
        with pytest.raises(DomainError, match="^rate on 2018-11-26 is not finite$"):
            generate_synthetic_series(spec, [2018], cal)

    def test_different_seeds_differ(self, cal):
        base = dict(
            year_trends={2018: (0.01, 2.5)},
            jump=constant_jump(0.1),
            noise_amplitude=0.05,
        )
        a = generate_synthetic_series(SyntheticSpec(seed=1, **base), [2018], cal)
        b = generate_synthetic_series(SyntheticSpec(seed=2, **base), [2018], cal)
        assert a.entries != b.entries

    def test_emits_every_banking_day_of_the_season(self):
        years = [2018, 2019, 2020]
        spec = SyntheticSpec(year_trends={year: (0.0, 1.0) for year in years})
        overrides = {(12, 27), (2, 29), date(2018, 12, 3), date(2020, 11, 30)}
        for cal in (HolidayCalendar(), HolidayCalendar(holidays=frozenset(overrides))):
            series = generate_synthetic_series(spec, years, cal)
            expected = [
                d
                for year in years
                for d in reference_banking_days(date(year, 11, 25), date(year, 12, 31), cal)
            ]
            assert [d for d, _ in series.entries] == expected

    def test_zero_noise_zero_jump_lies_on_the_trend(self, cal):
        spec = SyntheticSpec(year_trends={2018: (0.01, 2.5)})
        series = generate_synthetic_series(spec, [2018], cal)
        for d, rate in series.entries:
            x = day_offset(d, 2018)
            assert rate == 0.01 * x + 2.5

    def test_fixed_jump_shifts_post_event_days_only(self, cal):
        spec = SyntheticSpec(year_trends={2018: (0.01, 2.5)}, jump=constant_jump(0.25))
        series = generate_synthetic_series(spec, [2018], cal)
        for d, rate in series.entries:
            x = day_offset(d, 2018)
            want = 0.01 * x + 2.5 + (0.25 if x >= 1 else 0.0)
            assert abs(rate - want) < 1e-15

    def test_bilinear_rule_value(self, cal):
        coeffs = (0.005, -9.0, -0.002, 2.0)
        a, b = 0.01, 2.5
        spec = SyntheticSpec(year_trends={2018: (a, b)}, jump=coeffs)
        series = generate_synthetic_series(spec, [2018], cal)
        planted = coeffs[0] + coeffs[1] * a + coeffs[2] * b + coeffs[3] * a * b
        post_rate = series.rate_on(date(2018, 12, 27))
        assert abs(post_rate - (a * 2 + b + planted)) < 1e-15

    def test_noise_stream_matches_documented_recurrence(self, cal):
        # trend 0, jump 0, amplitude 1: each rate IS the noise draw
        spec = SyntheticSpec(
            year_trends={2018: (0.0, 0.0)}, noise_amplitude=1.0, seed=7
        )
        series = generate_synthetic_series(spec, [2018], cal)
        uniforms = lcg_uniforms(7, len(series))
        for (d, rate), u in zip(series.entries, uniforms):
            assert rate == 1.0 * (2.0 * u - 1.0), d

    def test_noise_bounded_by_amplitude(self, cal):
        spec = SyntheticSpec(
            year_trends={2018: (0.0, 2.0)}, noise_amplitude=0.03, seed=9
        )
        series = generate_synthetic_series(spec, [2018], cal)
        for _, rate in series.entries:
            assert abs(rate - 2.0) <= 0.03

    def test_draw_order_is_year_then_date(self, cal):
        trends = {2017: (0.0, 0.0), 2018: (0.0, 0.0)}
        spec = SyntheticSpec(year_trends=trends, noise_amplitude=1.0, seed=5)
        series = generate_synthetic_series(spec, [2018, 2017], cal)  # order given reversed
        uniforms = lcg_uniforms(5, len(series))
        rates = [r for _, r in series.entries]
        assert rates == [2.0 * u - 1.0 for u in uniforms]
        assert [d.year for d, _ in series.entries] == sorted(
            d.year for d, _ in series.entries
        )

    @pytest.mark.parametrize("year", [2018.9, 2018.0, "2018", True], ids=repr)
    def test_year_that_is_not_an_int_rejected(self, year, cal):
        spec = SyntheticSpec(year_trends={2018: (0.0, 1.0)})
        with pytest.raises(DomainError) as exc_info:
            generate_synthetic_series(spec, [2018, year], cal)
        assert str(exc_info.value) == f"years must be integers, got {year!r}"

    def test_missing_year_trend(self, cal):
        spec = SyntheticSpec(year_trends={2018: (0.0, 1.0)})
        with pytest.raises(DomainError):
            generate_synthetic_series(spec, [2017, 2018], cal)

    def test_empty_years(self, cal):
        spec = SyntheticSpec(year_trends={2018: (0.0, 1.0)})
        with pytest.raises(DomainError):
            generate_synthetic_series(spec, [], cal)

    def test_negative_noise_amplitude_rejected(self):
        with pytest.raises(DomainError):
            SyntheticSpec(year_trends={2018: (0.0, 1.0)}, noise_amplitude=-0.1)

    @pytest.mark.parametrize("amplitude", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_noise_amplitude_rejected(self, amplitude):
        with pytest.raises(DomainError):
            SyntheticSpec(year_trends={2018: (0.0, 1.0)}, noise_amplitude=amplitude)

    @pytest.mark.parametrize(
        "trend",
        [(math.nan, 1.0), (0.01, math.inf), (-math.inf, 2.5)],
        ids=["nan", "inf", "-inf"],
    )
    def test_non_finite_trend_rejected(self, trend):
        with pytest.raises(DomainError, match=r"^year_trends\[2018\] must be finite"):
            SyntheticSpec(year_trends={2017: (0.0, 1.0), 2018: trend})

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"]
    )
    def test_non_finite_fixed_jump_rejected(self, value):
        with pytest.raises(DomainError, match="^jump coefficients must be 4 finite numbers"):
            SyntheticSpec(year_trends={2018: (0.0, 1.0)}, jump=constant_jump(value))

    @pytest.mark.parametrize(
        "coefficients",
        [(math.nan, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, math.inf), (0.0, 0.0, 0.0)],
        ids=["nan", "inf", "three"],
    )
    def test_bad_jump_coefficients_rejected(self, coefficients):
        with pytest.raises(DomainError, match="^jump coefficients must be 4 finite numbers"):
            SyntheticSpec(year_trends={2018: (0.0, 1.0)}, jump=coefficients)

    @pytest.mark.parametrize("label", [5, None, " SYN", "SYN ", "a\nb", "\udcff"])
    def test_tenor_label_checked_when_the_spec_is_built(self, label):
        # the series' rule and message, before any fixing is generated
        with pytest.raises(DomainError) as series_error:
            DailyRateSeries(entries=(), tenor_label=label)
        with pytest.raises(DomainError) as spec_error:
            SyntheticSpec(year_trends={2018: (0.0, 1.0)}, tenor_label=label)
        assert str(spec_error.value) == str(series_error.value)

    @pytest.mark.parametrize("year", [10000, 0])
    def test_year_outside_the_calendar_rejected_when_the_spec_is_built(self, year):
        want = f"year_trends key {year}: year {year} lies outside 1..9999"
        with pytest.raises(DomainError) as exc_info:
            SyntheticSpec(year_trends={2018: (0.0, 1.0), year: (0.0, 1.0)})
        assert str(exc_info.value) == want


class TestSyntheticSpecFromJson:
    GOOD = """
    {
      "tenor": "SYN-2M",
      "seed": 3,
      "noise": 0.01,
      "jump": {"coefficients": [0.005, -9.0, -0.002, 2.0]},
      "years": {"2004": [0.01, 2.5], "2005": [-0.002, 1.0]}
    }
    """

    def test_good_document(self):
        spec, years = synthetic_spec_from_json(self.GOOD)
        assert years == [2004, 2005]
        assert spec.tenor_label == "SYN-2M"
        assert spec.seed == 3
        assert spec.noise_amplitude == 0.01
        assert spec.jump == (0.005, -9.0, -0.002, 2.0)
        assert spec.year_trends[2004] == (0.01, 2.5)

    def test_fixed_jump_document(self):
        spec, _ = synthetic_spec_from_json(
            '{"jump": {"fixed": 0.25}, "years": {"2018": [0.0, 1.0]}}'
        )
        assert spec.jump == constant_jump(0.25)

    def test_defaults(self):
        spec, _ = synthetic_spec_from_json('{"years": {"2018": [0.0, 1.0]}}')
        assert spec.jump == constant_jump(0.0)
        assert spec.noise_amplitude == 0.0
        assert spec.seed == 0

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            "[1, 2]",
            "{}",
            '{"years": {}}',
            '{"years": {"abc": [0, 1]}}',
            '{"years": {"2018": [0]}}',
            '{"years": {"2018": [0, "x"]}}',
            '{"years": {"2018": [0, 1]}, "jump": {"fixed": 0.1, "coefficients": [1,2,3,4]}}',
            '{"years": {"2018": [0, 1]}, "jump": {"coefficients": [1, 2, 3]}}',
            '{"years": {"2018": [0, 1]}, "jump": {"other": 1}}',
            '{"years": {"2018": [0, 1]}, "noise": -1}',
            '{"years": {"2018": [0, 1]}, "seed": "x"}',
            '{"years": {"2018": [0, 1]}, "tenor": 5}',
            '{"years": {"0": [0, 1]}}',
            '{"years": {"10000": [0, 1]}}',
            '{"years": {"99999": [0, 1]}}',
            pytest.param("[" * 100000, id="deep_nesting"),
            pytest.param('{"years": {"2018": [1%s, 1]}}' % ("0" * 400), id="huge_trend"),
            pytest.param(
                '{"years": {"2018": [0, 1]}, "noise": 1%s}' % ("0" * 400), id="huge_noise"
            ),
            pytest.param(
                '{"years": {"2018": [0, 1]}, "jump": {"fixed": 1%s}}' % ("0" * 400),
                id="huge_fixed_jump",
            ),
            pytest.param(
                '{"years": {"2018": [0, 1]}, "seed": 1%s}' % ("0" * 5000), id="long_integer"
            ),
            pytest.param('{"years": {"2018": [NaN, 1]}}', id="nan_trend"),
            pytest.param('{"years": {"2018": [0, Infinity]}}', id="infinite_trend"),
            pytest.param(
                '{"years": {"2018": [0, 1]}, "jump": {"fixed": NaN}}', id="nan_fixed_jump"
            ),
            pytest.param(
                '{"years": {"2018": [0, 1]}, "jump": {"coefficients": [0, -Infinity, 0, 0]}}',
                id="infinite_coefficient",
            ),
            pytest.param('{"years": {"2018": [0, 1]}, "seed": true}', id="boolean_seed"),
            pytest.param('{"years": {"2018": [0, 1]}, "noise": true}', id="boolean_noise"),
            pytest.param('{"years": {"2018": [true, false]}}', id="boolean_trend"),
            pytest.param(
                '{"years": {"2018": [0, 1]}, "jump": {"fixed": true}}', id="boolean_fixed_jump"
            ),
            pytest.param(
                '{"years": {"2018": [0, 1]}, "jump": {"coefficients": [true, 0, 0, false]}}',
                id="boolean_coefficient",
            ),
            pytest.param('{"years": {"2018": [0, 1]}, "tenor": " x"}', id="padded_tenor"),
            *(
                pytest.param('{"years": {"%s": [0, 1]}}' % key, id=f"year_key_{name}")
                for name, key in [
                    ("plus", "+2004"),
                    ("leading_zero", "02004"),
                    ("underscore", "2_004"),
                    ("space", " 2004"),
                    ("fullwidth", "\uff12\uff10\uff10\uff14"),
                    ("past_the_int_digit_limit", "1" * 5000),
                ]
            ),
            pytest.param(
                '{"years": {"2004": [0, 1], "+2004": [0, 2]}}', id="two_spellings_of_a_year"
            ),
            # valid JSON nested too deeply for a plain repr() of the value
            *(
                pytest.param(doc % _DEEP, id=f"deep_{name}")
                for name, doc in [
                    ("trend", '{"years": {"2018": %s}}'),
                    ("seed", '{"years": {"2018": [0, 1]}, "seed": %s}'),
                    ("tenor", '{"years": {"2018": [0, 1]}, "tenor": %s}'),
                    ("noise", '{"years": {"2018": [0, 1]}, "noise": %s}'),
                    ("fixed_jump", '{"years": {"2018": [0, 1]}, "jump": {"fixed": %s}}'),
                    ("coefficients", '{"years": {"2018": [0, 1]}, "jump": {"coefficients": %s}}'),
                ]
            ),
            pytest.param('{"years": {"2004": [0, 1], "2004": [0, 2]}}', id="repeated_year"),
            pytest.param(
                '{"years": {"2004": [0, 1]}, "noise": 0.1, "noise": 0.2}', id="repeated_noise"
            ),
            pytest.param(
                '{"years": {"2004": [0, 1]}, "jump": {"fixed": 1, "fixed": 2}}',
                id="repeated_jump_key",
            ),
        ],
    )
    def test_malformed_documents(self, text):
        with pytest.raises(ParseError):
            synthetic_spec_from_json(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"years": {"+2004": [0, 1]}}', "bad year key '+2004'"),
            ('{"years": {"0": [0, 1]}}', "year_trends key 0: year 0 lies outside 1..9999"),
            ('{"years": {"2018": [0]}}', "year_trends[2018] must be finite, got [0]"),
            ('{"years": {"2018": [0, 1]}, "seed": "x"}', "seed must be an integer, got 'x'"),
            (
                '{"years": {"2018": [0, 1]}, "tenor": " x"}',
                "tenor label ' x' has surrounding whitespace or a line break",
            ),
            # the jump's shape is the reader's, so it is reported before any value
            (
                '{"years": {"2018": [0]}, "jump": {"other": 1}}',
                "'jump' must hold exactly one of 'fixed' or 'coefficients'",
            ),
            # a value is shown shallow and short, whatever its depth or length
            (
                '{"years": {"2018": %s}}' % _DEEP,
                "year_trends[2018] must be finite, got [[[[[[[...]]]]]]]",
            ),
            (
                '{"years": {"2018": [0, 1]}, "tenor": "%s "}' % ("x" * 100000),
                "tenor label 'xxxxxxxxxxxx...xxxxxxxxxxxx ' has surrounding whitespace"
                " or a line break",
            ),
            ('{"years": {"2004": [0, 1], "2004": [0, 2]}}', "repeated key '2004'"),
            # a JSON escape can spell a lone surrogate, which UTF-8 cannot encode
            (
                '{"years": {"2018": [0, 1]}, "tenor": "\\udcff"}',
                "tenor label '\\udcff' cannot be written as UTF-8",
            ),
        ],
        ids=["key_spelling", "year_range", "short_trend", "text_seed", "padded_tenor",
             "jump_shape_first", "deep_trend", "long_tenor", "repeated_key", "surrogate_tenor"],
    )
    def test_a_bad_value_reports_the_spec_field(self, text, message):
        with pytest.raises(ParseError) as exc_info:
            synthetic_spec_from_json(text)
        assert exc_info.value.line_number is None
        assert str(exc_info.value) == message

    @pytest.mark.parametrize("noise", ["NaN", "Infinity"])
    def test_non_finite_noise_rejected(self, noise):
        with pytest.raises(ParseError) as exc_info:
            synthetic_spec_from_json('{"years": {"2018": [0, 1]}, "noise": %s}' % noise)
        assert str(exc_info.value) == "noise amplitude must be a finite non-negative number"

    def test_last_representable_year_generates(self, cal):
        spec, years = synthetic_spec_from_json('{"years": {"9999": [0.001, 1.0]}}')
        series = generate_synthetic_series(spec, years, cal)
        assert series.last_date == date(9999, 12, 31)
