"""Calendar arithmetic, verified against an independent weekday oracle."""

from datetime import date, timedelta

import pytest

from helpers import day_offset, flat_series
from xmasjump import HolidayCalendar, calendar_from_lines
from xmasjump.errors import (
    DomainError,
    IncompleteWindow,
    InsufficientData,
    MissingFixing,
    ParseError,
)
from xmasjump.market_calendar import (
    banking_days,
    event_date,
    is_banking_day,
    post_window,
    post_window_offsets,
    pre_window,
)

DEFAULT_HOLIDAYS = frozenset({(12, 25), (12, 26), (1, 1)})


def zeller_weekday(d: date) -> int:
    """Day of week via Zeller's congruence, mapped to Monday=0..Sunday=6."""
    y, m, day = d.year, d.month, d.day
    if m < 3:
        m += 12
        y -= 1
    k = y % 100
    j = y // 100
    h = (day + 13 * (m + 1) // 5 + k + k // 4 + j // 4 + 5 * j) % 7
    return (h + 5) % 7


def oracle_is_banking_day(d: date, holidays=DEFAULT_HOLIDAYS) -> bool:
    return zeller_weekday(d) < 5 and (d.month, d.day) not in holidays


def oracle_pre_offsets(year: int, n: int) -> list[int]:
    """Enumerate banking days backward from Dec 24 with the oracle."""
    picked = []
    d = date(year, 12, 24)
    while len(picked) < n:
        if oracle_is_banking_day(d):
            picked.append(day_offset(d, year))
        d -= timedelta(days=1)
    picked.reverse()
    return picked


class TestIsBankingDay:
    def test_event_date_is_never_a_banking_day(self, cal):
        for year in range(1995, 2031):
            assert not is_banking_day(date(year, 12, 25), cal)

    def test_event_date_enforced_even_with_empty_holiday_set(self):
        bare = HolidayCalendar(holidays=frozenset())
        assert not is_banking_day(date(2018, 12, 25), bare)
        assert (12, 25) in bare.holidays

    def test_thursday_dec_27_2018(self, cal):
        assert zeller_weekday(date(2018, 12, 27)) == 3  # Thursday
        assert is_banking_day(date(2018, 12, 27), cal)

    def test_saturday_dec_29_2018(self, cal):
        assert zeller_weekday(date(2018, 12, 29)) == 5  # Saturday
        assert not is_banking_day(date(2018, 12, 29), cal)

    def test_matches_weekday_oracle_across_decades(self, cal):
        d = date(1995, 11, 1)
        while d <= date(2025, 2, 1):
            assert is_banking_day(d, cal) == oracle_is_banking_day(d), d
            d += timedelta(days=37)  # co-prime with 7: sweeps all weekdays

    def test_full_december_2018_against_oracle(self, cal):
        for day in range(1, 32):
            d = date(2018, 12, day)
            assert is_banking_day(d, cal) == oracle_is_banking_day(d), d

    def test_one_off_holiday_applies_to_its_year_only(self):
        special = HolidayCalendar(holidays=frozenset({date(2012, 10, 30)}))
        assert not is_banking_day(date(2012, 10, 30), special)  # a Tuesday
        assert is_banking_day(date(2013, 10, 30), special)  # a Wednesday


class TestCalendarValidation:
    def test_bad_recurring_entry(self):
        with pytest.raises(DomainError):
            HolidayCalendar(holidays=frozenset({(13, 1)}))
        with pytest.raises(DomainError):
            HolidayCalendar(holidays=frozenset({(2, 30)}))
        with pytest.raises(DomainError):  # beyond the C int range
            HolidayCalendar(holidays=frozenset({(10**20, 1)}))

    def test_feb_29_is_a_valid_recurring_entry(self):
        leap = HolidayCalendar(holidays=frozenset({(2, 29)}))
        assert not is_banking_day(date(2024, 2, 29), leap)

    def test_bad_entry_type(self):
        with pytest.raises(DomainError):
            HolidayCalendar(holidays=frozenset({"2018-12-25"}))


class TestCalendarFromLines:
    def test_mixed_entries_and_comments(self):
        text = "\n".join(
            [
                "# one-off closure",
                "2012-10-30",
                "",
                "--01-01  # recurring New Year",
                "--12-26",
            ]
        )
        cal = calendar_from_lines(text)
        assert date(2012, 10, 30) in cal.holidays
        assert (1, 1) in cal.holidays
        assert (12, 25) in cal.holidays  # always enforced

    def test_file_replaces_default_holidays(self):
        cal = calendar_from_lines("--01-01\n")
        # Dec 26 2018 is a Wednesday; without the default entry it is open.
        assert is_banking_day(date(2018, 12, 26), cal)

    def test_bad_line_reports_line_number(self):
        with pytest.raises(ParseError) as exc_info:
            calendar_from_lines("--01-01\nnot-a-date\n")
        assert exc_info.value.line_number == 2

    @pytest.mark.parametrize(
        "entry",
        [
            "2012-W44-2",
            "20121030",
            "--1_2-2_6",
            "--\u0661\u0662-\u0662\u0666",
            "--+12-26",
            "--12- 26",
            "--1-1",
        ],
    )
    def test_only_documented_shapes(self, entry):
        with pytest.raises(ParseError) as exc_info:
            calendar_from_lines(f"--01-01\n{entry}\n")
        assert str(exc_info.value) == f"line 2: bad calendar entry {entry!r}"

    def test_bad_recurring_month(self):
        with pytest.raises(ParseError):
            calendar_from_lines("--13-01\n")
        with pytest.raises(ParseError):  # beyond the C int range
            calendar_from_lines("--99999999999999999999-01\n")


class TestDayOffset:
    def test_event_date_is_zero(self):
        assert day_offset(date(2018, 12, 25), 2018) == 0

    def test_new_years_eve_is_six(self):
        # the post-window offsets are 27-25 .. 31-25 = 2 .. 6
        assert day_offset(date(2018, 12, 31), 2018) == 6

    def test_dec_4_is_minus_21(self):
        assert day_offset(date(2018, 12, 4), 2018) == -21

    def test_december_identity_for_all_days_and_years(self):
        for year in (1997, 2004, 2016, 2024):
            for day in range(1, 32):
                assert day_offset(date(year, 12, day), year) == day - 25

    @pytest.mark.parametrize("year", [0, -1, 10000])
    def test_year_outside_the_date_range(self, year):
        with pytest.raises(DomainError):
            event_date(year)
        with pytest.raises(DomainError):
            day_offset(date(2018, 12, 25), year)

    def test_crosses_month_boundary(self):
        assert day_offset(date(2018, 11, 30), 2018) == -25
        assert day_offset(date(2019, 1, 2), 2018) == 8


class TestPreWindow:
    def test_2018_offsets_match_oracle_enumeration(self, cal):
        series = flat_series(date(2018, 11, 1), date(2018, 12, 31))
        offsets, rates, warning = pre_window(2018, series, cal)
        expected = [-21, -20, -19, -18, -15, -14, -13, -12, -11, -8, -7, -6, -5, -4, -1]
        assert offsets == tuple(expected)
        assert list(offsets) == oracle_pre_offsets(2018, 15)
        assert rates == (2.0,) * 15
        assert warning is None

    def test_returns_exactly_n_observations(self, cal):
        series = flat_series(date(2017, 10, 1), date(2018, 12, 31))
        for n in (2, 5, 15, 30):
            offsets, rates, _ = pre_window(2018, series, cal, n=n)
            assert len(offsets) == len(rates) == n

    def test_insufficient_data(self, cal):
        # exactly 10 banking-day fixings before Dec 25 2018
        tail = oracle_pre_offsets(2018, 10)
        entries = tuple(
            (date(2018, 12, 25) + timedelta(days=x), 2.0) for x in tail
        )
        from xmasjump import DailyRateSeries

        series = DailyRateSeries(entries=entries)
        with pytest.raises(InsufficientData):
            pre_window(2018, series, cal, n=15)

    def test_empty_series(self, cal):
        from xmasjump import DailyRateSeries

        with pytest.raises(InsufficientData):
            pre_window(2018, DailyRateSeries(entries=()), cal)

    def test_missing_fixing_inside_coverage(self, cal):
        series = flat_series(date(2018, 11, 1), date(2018, 12, 31))
        entries = tuple(e for e in series.entries if e[0] != date(2018, 12, 12))
        from xmasjump import DailyRateSeries

        gappy = DailyRateSeries(entries=entries)
        with pytest.raises(MissingFixing) as exc_info:
            pre_window(2018, gappy, cal)
        assert exc_info.value.fixing_date == date(2018, 12, 12)

    def test_series_ending_before_the_window_is_incomplete(self, cal):
        series = flat_series(date(2018, 11, 1), date(2018, 12, 9))
        with pytest.raises(IncompleteWindow) as exc_info:
            pre_window(2018, series, cal)
        assert "2018-12-24" in str(exc_info.value)
        assert "2018-12-09" in str(exc_info.value)

    def test_series_ending_on_a_closure_before_the_window_end(self, cal):
        # Dec 22-23 2018 is a weekend, so a series ending on Dec 21 lacks
        # only Dec 24: still incomplete
        series = flat_series(date(2018, 11, 1), date(2018, 12, 21))
        with pytest.raises(IncompleteWindow):
            pre_window(2018, series, cal)
        closed = HolidayCalendar(holidays=frozenset({date(2018, 12, 24)}))
        assert pre_window(2018, series, closed)[0][-1] == -4

    def test_walk_stops_at_the_first_representable_day(self, cal):
        series = flat_series(date(1, 1, 1), date(1, 12, 31))
        with pytest.raises(InsufficientData):
            pre_window(1, series, cal, n=300)

    def test_span_warning_for_2016(self, cal):
        # Dec 25 2016 is a Sunday: 15 banking days reach back only 20 days
        series = flat_series(date(2016, 11, 1), date(2016, 12, 31))
        offsets, _, warning = pre_window(2016, series, cal)
        assert -offsets[0] == 20
        assert warning is not None and "20" in warning

    def test_no_span_warning_for_custom_n(self, cal):
        series = flat_series(date(2016, 11, 1), date(2016, 12, 31))
        assert pre_window(2016, series, cal, n=10)[2] is None

    def test_n_below_two_rejected(self, cal):
        series = flat_series(date(2018, 11, 1), date(2018, 12, 31))
        with pytest.raises(DomainError):
            pre_window(2018, series, cal, n=1)


class TestPostWindow:
    def test_2018_has_the_nominal_three_days(self, cal):
        series = flat_series(date(2018, 11, 1), date(2018, 12, 31))
        offsets, rates, warning = post_window(2018, series, cal)
        assert offsets == (2, 3, 6)
        assert rates == (2.0,) * 3
        assert warning is None

    def test_2015_has_four_days_with_warning(self, cal):
        # Dec 25 2015 is a Friday: Dec 28-31 are all banking days
        series = flat_series(date(2015, 11, 1), date(2015, 12, 31))
        offsets, _, warning = post_window(2015, series, cal)
        assert offsets == (3, 4, 5, 6)
        assert warning is not None

    def test_1999_has_five_days_with_warning(self, cal):
        # Dec 25 1999 is a Saturday: Dec 27-31 are all banking days
        series = flat_series(date(1999, 11, 1), date(1999, 12, 31))
        offsets, _, warning = post_window(1999, series, cal)
        assert offsets == (2, 3, 4, 5, 6)
        assert warning is not None

    def test_insufficient_when_calendar_blocks_the_week(self):
        blocked = HolidayCalendar(
            holidays=DEFAULT_HOLIDAYS | {(12, 27), (12, 28), (12, 29), (12, 30)}
        )
        series = flat_series(date(2018, 11, 1), date(2018, 12, 31))
        with pytest.raises(InsufficientData):
            post_window(2018, series, blocked)  # only Dec 31 remains

    def test_missing_fixing_inside_coverage(self, cal):
        series = flat_series(date(2018, 11, 1), date(2018, 12, 31))
        entries = tuple(e for e in series.entries if e[0] != date(2018, 12, 28))
        from xmasjump import DailyRateSeries

        gappy = DailyRateSeries(entries=entries)
        with pytest.raises(MissingFixing) as exc_info:
            post_window(2018, gappy, cal)
        assert exc_info.value.fixing_date == date(2018, 12, 28)

    def test_truncated_coverage_returns_fewer_with_warning(self, cal):
        series = flat_series(date(2018, 11, 1), date(2018, 12, 29))
        offsets, _, warning = post_window(2018, series, cal)
        assert offsets == (2, 3)  # Dec 31 is beyond coverage
        assert warning is not None

    def test_offsets_helper_matches_window(self, cal):
        series = flat_series(date(2018, 11, 1), date(2018, 12, 31))
        assert post_window_offsets(2018, cal) == post_window(2018, series, cal)[0]


class TestWindowProperties:
    def test_every_returned_pair_is_a_banking_day_with_the_series_rate(self, cal):
        for year in (2001, 2007, 2015, 2016, 2018):
            series = flat_series(date(year, 11, 1), date(year, 12, 31), rate=1.25)
            for offsets, rates, _ in (pre_window(year, series, cal), post_window(year, series, cal)):
                assert len(offsets) == len(rates)
                for x, rate in zip(offsets, rates):
                    d = date(year, 12, 25) + timedelta(days=x)
                    assert is_banking_day(d, cal)
                    assert series.rate_on(d) == rate

    def test_pre_offsets_negative_post_offsets_in_range(self, cal):
        for year in range(1999, 2021):
            series = flat_series(date(year, 11, 1), date(year, 12, 31))
            pre_offsets = pre_window(year, series, cal)[0]
            post_offsets = post_window(year, series, cal)[0]
            assert all(x < 0 for x in pre_offsets)
            assert all(2 <= x <= 6 for x in post_offsets)
            for offsets in (pre_offsets, post_offsets):
                assert all(a < b for a, b in zip(offsets, offsets[1:]))

    def test_banking_days_iterates_ascending_banking_days_only(self, cal):
        days = list(banking_days(date(2018, 12, 20), date(2018, 12, 31), cal))
        assert days == sorted(days)
        assert all(oracle_is_banking_day(d) for d in days)
        assert date(2018, 12, 25) not in days

    def test_banking_days_through_the_last_representable_day(self, cal):
        assert post_window_offsets(9999, cal) == (2, 3, 4, 5, 6)

