"""Banking-day arithmetic and the rate windows around December 25.

Dates are naive ``datetime.date`` values; there is no timezone or intraday
handling. A banking day is a weekday that is not listed as a holiday.
Windows are walked over proleptic day ordinals (``date.toordinal()``): a
day's weekday is ``(ordinal + 6) % 7``, and its holiday check is one set
lookup of its day of the year among its year's closed days, so only a
banking day the walk yields becomes a ``date``; window offsets are ordinal
differences. A series keeps its fixings as an array of day ordinals beside
an array of rates, so a window whose banking days are exactly the series'
fixings from its first day through its last takes its rates as one slice,
found by one bisection; any other window, one with a gap, past an end of
the series, or in a series that also holds other days, reads its rates day
by day, which names the first fault the walk meets.
"""

import re
from collections.abc import Iterator
from datetime import MAXYEAR, MINYEAR, date, datetime
from itertools import islice

from .errors import DomainError, IncompleteWindow, InsufficientData, MissingFixing, ParseError
from .record import Record, set_field

SATURDAY = 5  # weekday() of the first weekend day; Sunday is 6

# Recurring closures relevant around the turn of the year. Approximates the
# interbank fixing calendar; one-off closures go in a calendar override file.
DEFAULT_RECURRING_HOLIDAYS = frozenset({(12, 25), (12, 26), (1, 1)})

PRE_WINDOW_DAYS = 15
# Fewest banking days a pre-window may be asked for: a line needs two points.
PRE_WINDOW_MIN = 2
# A 15-banking-day window nominally covers 21 calendar days; other spans are
# legal but flagged.
NOMINAL_PRE_SPAN_DAYS = 21
# The post window: the banking days at these offsets from December 25,
# December 27-31. Nominally three of them; other counts are flagged, fewer
# than two is an error.
POST_WINDOW_OFFSETS = range(2, 7)
POST_WINDOW_TEXT = f"offsets {POST_WINDOW_OFFSETS[0]}..{POST_WINDOW_OFFSETS[-1]}"
NOMINAL_POST_COUNT = 3
POST_WINDOW_MIN = 2

# Date patterns of input files: ASCII ``YYYY-MM-DD``, and ``--MM-DD`` for a
# closure recurring every year. Left as text for ``re``'s cache, so that
# importing the package compiles neither.
ISO_DATE = r"[0-9]{4}-[0-9]{2}-[0-9]{2}"
_RECURRING_DATE = r"--([0-9]{2})-([0-9]{2})"


def is_plain_date_type(kind: type) -> bool:
    """True for ``datetime.date`` and its subclasses other than ``datetime``,
    whose values never equal a date."""
    return issubclass(kind, date) and not issubclass(kind, datetime)


class HolidayCalendar(Record):
    """Saturdays and Sundays plus holiday entries, recurring or year-specific.

    ``holidays`` holds plain ``datetime.date`` entries (not ``datetime``) for
    one-off closures and ``(month, day)`` pairs for closures recurring every
    year. December 25 is always enforced as a recurring holiday: the event
    date is never a banking day.

    ``is_holiday`` is the rule. For the banking-day walks, construction also
    resolves the entries to days of the year, for common and for leap years
    and for each year with one-off closures, which ``closed_days`` hands
    out; ``holidays`` stays the only field, so equality, hashing and
    pickling see the entries alone.
    """

    __slots__ = ("holidays", "_recurring", "_by_year")

    def __init__(self, holidays: frozenset = DEFAULT_RECURRING_HOLIDAYS):
        try:
            entries = set(holidays)
        except TypeError:
            raise DomainError(f"holidays must be a set of entries, got {holidays!r}") from None
        entries.add((12, 25))
        common, leap = set(), set()
        one_offs: dict[int, set[int]] = {}
        for entry in entries:
            if isinstance(entry, tuple) and len(entry) == 2:
                month, day = entry
                try:
                    probe = date(2000, month, day)  # leap year, so (2, 29) is legal
                except (TypeError, ValueError, OverflowError):
                    raise DomainError(f"invalid recurring holiday {entry!r}") from None
                pair = (probe.month, probe.day)
                if entry == pair:  # else no date's pair equals it
                    leap.add(_day_of_year(probe))
                    if pair != (2, 29):
                        common.add(_day_of_year(date(2001, *pair)))
            elif is_plain_date_type(type(entry)):
                one_offs.setdefault(entry.year, set()).add(_day_of_year(entry))
            else:
                raise DomainError(
                    f"holiday entries must be a date or a (month, day) pair, got {entry!r}"
                )
        recurring = (frozenset(common), frozenset(leap))
        set_field(self, "holidays", frozenset(entries))
        set_field(self, "_recurring", recurring)
        set_field(
            self, "_by_year", {y: recurring[_is_leap(y)] | days for y, days in one_offs.items()}
        )

    def is_holiday(self, d: date) -> bool:
        # A date never equals a (month, day) pair, so one set holds both kinds.
        return d in self.holidays or (d.month, d.day) in self.holidays

    def closed_days(self, year: int) -> frozenset[int]:
        """The holidays of ``year`` as days of the year, 1 for January 1
        (``timetuple().tm_yday``): each recurring day the year has, so
        (2, 29) only in leap years, and the year's one-off closures."""
        days = self._by_year.get(year)
        return self._recurring[_is_leap(year)] if days is None else days


def _day_of_year(d: date) -> int:
    """1 for January 1, as ``d.timetuple().tm_yday``."""
    return d.toordinal() - date(d.year, 1, 1).toordinal() + 1


def _is_leap(year: int) -> bool:
    """The Gregorian leap-year rule, as ``calendar.isleap``."""
    return year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)


def calendar_from_lines(text: str) -> HolidayCalendar:
    """Build a calendar from holiday override-file text.

    One entry per line: ``YYYY-MM-DD`` for a one-off closure or ``--MM-DD``
    for a closure recurring every year; ``#`` starts a comment. The file
    replaces the default holiday list (December 25 stays enforced);
    weekends remain Saturday and Sunday.
    """
    entries: set = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        recurring = re.fullmatch(_RECURRING_DATE, line)
        try:
            if recurring:
                entry = (int(recurring[1]), int(recurring[2]))
                date(2000, *entry)  # a leap year, so --02-29 is legal
            else:
                entry = iso_date(line)
        except ValueError as exc:
            raise ParseError(lineno, f"bad calendar entry {line!r}") from exc
        entries.add(entry)
    return HolidayCalendar(holidays=frozenset(entries))


def iso_date(text: str) -> date:
    """The date an ASCII ``YYYY-MM-DD`` string names; ValueError otherwise.

    ``date.fromisoformat`` alone also takes ``YYYYMMDD`` and ISO week dates
    on Python 3.11.
    """
    if not re.fullmatch(ISO_DATE, text):
        raise ValueError(f"not an ASCII YYYY-MM-DD date: {text!r}")
    return date.fromisoformat(text)


def banking_days(start: date, end: date, cal: HolidayCalendar) -> list[date]:
    """Banking days from ``start`` through ``end`` inclusive, ascending,
    found by one walk over their day ordinals."""
    ordinals = range(start.toordinal(), end.toordinal() + 1)
    return list(map(date.fromordinal, _banking(ordinals, cal)))


def _banking(ordinals: range, cal: HolidayCalendar) -> Iterator[int]:
    """The banking days among ``ordinals`` (step 1 or -1), as ordinals in
    the range's order; lazy, so a walk may stop early.

    A weekday is a holiday when its day of the year is in its year's
    ``cal.closed_days``. The walk looks that set up on reaching a weekday
    outside the year it is in, so once for each year it enters, going
    forward or back.
    """
    before = last = 0  # the current year's ordinals are before+1..last; none yet
    closed = frozenset()
    for o in ordinals:
        if (o + 6) % 7 < SATURDAY:
            if not before < o <= last:
                year = date.fromordinal(o).year
                before = date(year, 1, 1).toordinal() - 1
                last = date(year, 12, 31).toordinal()
                closed = cal.closed_days(year)
            if o - before not in closed:
                yield o


def event_date(year: int) -> date:
    """December 25 of ``year``, for years ``datetime.date`` can hold."""
    if not MINYEAR <= year <= MAXYEAR:
        raise DomainError(f"year {year} lies outside {MINYEAR}..{MAXYEAR}")
    return date(year, 12, 25)


def pre_window(
    year: int,
    series: "DailyRateSeries",
    cal: HolidayCalendar,
    n: int = PRE_WINDOW_DAYS,
) -> tuple:
    """The last ``n`` banking-day fixings strictly before December 25.

    Returns ``(offsets, rates, warning)``, offsets in whole days from
    December 25, ascending. Walks backward from December 24 to the first
    fixing for the window's ``n`` banking days; when the series holds
    exactly those days from the first through the last, their rates are
    one slice of it. Otherwise each banking day's rate comes from
    ``_fixing``, latest first (no interpolation: IncompleteWindow after the
    last fixing, MissingFixing for a gap), and the window must still hold
    exactly ``n`` observations, else InsufficientData: the series does not
    reach back far enough. With the default ``n``, ``warning`` flags a
    calendar span other than the nominal 21 days.
    """
    if n < PRE_WINDOW_MIN:
        raise DomainError(f"pre-window needs at least {PRE_WINDOW_MIN} banking days")
    if len(series) == 0:
        raise InsufficientData(
            f"series is empty; need {n} fixings before Dec 25 {year}"
        )
    event = event_date(year).toordinal()
    walk = _banking(range(event - 1, series.first_date.toordinal() - 1, -1), cal)
    days = list(islice(walk, n))
    days.reverse()
    rates = series._run_rates(days) if len(days) == n else None
    if rates is None:
        # only the first day met, the window's last, can lie past the series end
        picked = [_fixing(o, series, "pre", year, o) for o in reversed(days)]
        if len(picked) < n:
            raise InsufficientData(
                f"only {len(picked)} banking-day fixings before Dec 25 {year},"
                f" need {n}"
            )
        rates = tuple(reversed(picked))
    offsets = tuple([o - event for o in days])
    warning = None
    span = -offsets[0]
    if n == PRE_WINDOW_DAYS and span != NOMINAL_PRE_SPAN_DAYS:
        warning = (
            f"pre-window spans {span} calendar days,"
            f" nominal {NOMINAL_PRE_SPAN_DAYS}"
        )
    return offsets, rates, warning


def post_window_offsets(year: int, cal: HolidayCalendar) -> tuple[int, ...]:
    """The offsets of ``year``'s post-window banking days, ascending; fewer
    than ``POST_WINDOW_MIN`` is InsufficientData. Needs no rate data, so it
    also serves prediction for years whose post-event fixings do not exist.
    """
    event = event_date(year).toordinal()
    ordinals = range(event + POST_WINDOW_OFFSETS.start, event + POST_WINDOW_OFFSETS.stop)
    offsets = tuple([o - event for o in _banking(ordinals, cal)])
    if len(offsets) < POST_WINDOW_MIN:
        raise InsufficientData(
            f"{len(offsets)} banking days with {POST_WINDOW_TEXT} after Dec 25 {year}"
        )
    return offsets


def post_window(year: int, series: "DailyRateSeries", cal: HolidayCalendar) -> tuple:
    """The fixings on every day ``post_window_offsets`` gives, as one slice
    of the series when it holds exactly those days from the first through
    the last, else each rate from ``_fixing``; ``(offsets, rates, warning)``
    like ``pre_window``. Nominally three observations; ``warning`` flags a
    calendar that gives another count.
    """
    offsets = post_window_offsets(year, cal)
    event = event_date(year).toordinal()
    days = [event + x for x in offsets]
    rates = series._run_rates(days)
    if rates is None:
        rates = tuple([_fixing(o, series, "post", year, days[-1]) for o in days])
    warning = None
    if len(offsets) != NOMINAL_POST_COUNT:
        warning = (
            f"post-window has {len(offsets)} observations,"
            f" nominal {NOMINAL_POST_COUNT}"
        )
    return offsets, rates, warning


def _calendar_key(year: int, cal: HolidayCalendar) -> tuple:
    """What fixes the banking days of ``year``, one ``datetime.date`` can
    hold, as offsets from its December 25: the weekday of that day, whether
    the year is a leap year and ``cal.closed_days(year)``. Years of one key
    have the same banking days from January 1 through December 31 at the
    same offsets, so a walk of many years walks each key's days once."""
    return date(year, 12, 25).weekday(), _is_leap(year), cal.closed_days(year)


def _year_windows(years: range, series: "DailyRateSeries", cal: HolidayCalendar,
                  n: int) -> Iterator[tuple[tuple, tuple]]:
    """``(pre_window(year, series, cal, n), post_window(year, series, cal))``
    for each year of ``years`` in turn, walking the calendar once per
    pattern instead of once per year.

    A pre window inside its own year, and the post window, have the same
    offsets and warnings in every year of one ``_calendar_key``. The first
    year of a key walks the calendar and stores them; a later year reuses
    them when the series holds exactly each window's days from its first
    through its last, so that both rates come as one slice. Then the
    window's first day is a fixing, and the walk back to the series' first
    fixing would have found the same days. Any other year, or a year a
    window cannot be read from, goes through ``pre_window`` and then
    ``post_window``, which raise what they raise. The patterns live only as
    long as the walk.
    """
    patterns: dict[tuple, tuple] = {}
    for year in years:
        key = None
        if MINYEAR <= year <= MAXYEAR:
            event = date(year, 12, 25).toordinal()
            key = _calendar_key(year, cal)
            pattern = patterns.get(key)
            if pattern is not None:
                pre_offsets, pre_warning, post_offsets, post_warning = pattern
                pre_rates = series._run_rates([event + x for x in pre_offsets])
                post_rates = pre_rates and series._run_rates([event + x for x in post_offsets])
                if post_rates:
                    yield ((pre_offsets, pre_rates, pre_warning),
                           (post_offsets, post_rates, post_warning))
                    continue
        pre = pre_window(year, series, cal, n)
        post = post_window(year, series, cal)
        if key is not None and key not in patterns:
            if event + pre[0][0] >= date(year, 1, 1).toordinal():  # inside its year
                patterns[key] = (pre[0], pre[2], post[0], post[2])
        yield pre, post


def _fixing(o: int, series: "DailyRateSeries", window: str, year: int, through: int) -> float:
    """The rate on banking day ordinal ``o`` of ``year``'s ``window`` ("pre" or
    "post"), which ends on ordinal ``through``: IncompleteWindow after the
    series' last fixing, InsufficientData before its first, else MissingFixing."""
    d = date.fromordinal(o)
    rate = series.rate_on(d)
    if rate is not None:
        return rate
    if d > series.last_date:
        raise IncompleteWindow(
            f"{window}-window for {year} runs through {date.fromordinal(through).isoformat()},"
            f" but the series ends at {series.last_date.isoformat()}"
        )
    if d < series.first_date:
        raise InsufficientData(f"{window}-window for {year} needs {d.isoformat()}, but the"
                               f" series starts at {series.first_date.isoformat()}")
    raise MissingFixing(d)
