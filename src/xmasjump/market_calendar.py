"""Banking-day arithmetic and the rate windows around December 25.

Dates are naive ``datetime.date`` values; there is no timezone or intraday
handling. A banking day is a weekday that is not listed as a holiday.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from datetime import MAXYEAR, MINYEAR, date, timedelta

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
# Nominally three post-event banking days before year end; other counts are
# flagged, fewer than two is an error.
NOMINAL_POST_COUNT = 3
POST_WINDOW_MIN = 2

# Date patterns of input files: ASCII ``YYYY-MM-DD``, and ``--MM-DD`` for a
# closure recurring every year. Left as text for ``re``'s cache, so that
# importing the package compiles neither.
ISO_DATE = r"[0-9]{4}-[0-9]{2}-[0-9]{2}"
_RECURRING_DATE = r"--([0-9]{2})-([0-9]{2})"


class HolidayCalendar(Record):
    """Saturdays and Sundays plus holiday entries, recurring or year-specific.

    ``holidays`` holds ``datetime.date`` entries for one-off closures and
    ``(month, day)`` pairs for closures recurring every year. December 25 is
    always enforced as a recurring holiday: the event date is never a
    banking day.
    """

    __slots__ = ("holidays", "_recurring", "_fixed")

    def __init__(self, holidays: frozenset = DEFAULT_RECURRING_HOLIDAYS):
        try:
            entries = set(holidays)
        except TypeError:
            raise DomainError(f"holidays must be a set of entries, got {holidays!r}") from None
        for entry in entries:
            if isinstance(entry, date):
                continue
            if isinstance(entry, tuple) and len(entry) == 2:
                month, day = entry
                try:
                    date(2000, month, day)  # leap year, so (2, 29) is legal
                except (TypeError, ValueError, OverflowError):
                    raise DomainError(f"invalid recurring holiday {entry!r}") from None
            else:
                raise DomainError(
                    f"holiday entries must be a date or a (month, day) pair, got {entry!r}"
                )
        entries.add((12, 25))
        set_field(self, "holidays", frozenset(entries))
        set_field(self, "_recurring", frozenset(e for e in entries if isinstance(e, tuple)))
        set_field(self, "_fixed", frozenset(e for e in entries if isinstance(e, date)))

    def is_holiday(self, d: date) -> bool:
        return d in self._fixed or (d.month, d.day) in self._recurring


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


def is_banking_day(d: date, cal: HolidayCalendar) -> bool:
    """True when ``d`` is neither a Saturday, a Sunday nor a holiday."""
    return d.weekday() < SATURDAY and not cal.is_holiday(d)


def banking_days(start: date, end: date, cal: HolidayCalendar) -> Iterator[date]:
    """Banking days from ``start`` through ``end`` inclusive, ascending."""
    for i in range((end - start).days + 1):
        d = start + timedelta(days=i)
        if is_banking_day(d, cal):
            yield d


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
    December 25, ascending. Walks backward from December 24; every banking
    day inside the series coverage must carry a rate (no interpolation).
    Returns exactly ``n`` observations or raises: IncompleteWindow when a
    banking day of the walk lies after the last fixing, InsufficientData
    when the series does not reach back far enough, MissingFixing when a
    covered banking day has no rate. With the default ``n``, ``warning``
    flags a calendar span other than the nominal 21 days.
    """
    if n < PRE_WINDOW_MIN:
        raise DomainError(f"pre-window needs at least {PRE_WINDOW_MIN} banking days")
    if len(series) == 0:
        raise InsufficientData(
            f"series is empty; need {n} fixings before Dec 25 {year}"
        )
    event = event_date(year)
    picked: list[tuple[int, float]] = []
    for back in range(1, (event - series.first_date).days + 1):
        d = event - timedelta(days=back)
        if not is_banking_day(d, cal):
            continue
        if d > series.last_date:
            raise IncompleteWindow(
                f"pre-window for {year} runs through {d.isoformat()},"
                f" but the series ends at {series.last_date.isoformat()}"
            )
        rate = series.rate_on(d)
        if rate is None:
            raise MissingFixing(d)
        picked.append((-back, rate))
        if len(picked) == n:
            break
    else:
        raise InsufficientData(
            f"only {len(picked)} banking-day fixings before Dec 25 {year},"
            f" need {n}"
        )
    offsets, rates = zip(*reversed(picked))
    warning = None
    span = -offsets[0]
    if n == PRE_WINDOW_DAYS and span != NOMINAL_PRE_SPAN_DAYS:
        warning = (
            f"pre-window spans {span} calendar days,"
            f" nominal {NOMINAL_PRE_SPAN_DAYS}"
        )
    return offsets, rates, warning


def post_window_offsets(year: int, cal: HolidayCalendar) -> tuple[int, ...]:
    """Banking-day offsets in [2, 6] (December 27-31) for ``year``.

    Needs no rate data, so it also serves prediction for years whose
    post-event fixings do not exist yet.
    """
    event = event_date(year)
    start = event + timedelta(days=2)
    end = event + timedelta(days=6)
    return tuple((d - event).days for d in banking_days(start, end, cal))


def post_window(year: int, series: "DailyRateSeries", cal: HolidayCalendar) -> tuple:
    """All banking-day fixings with offsets in [2, 6] after December 25.

    Returns ``(offsets, rates, warning)`` like ``pre_window``. Nominally
    three observations; any other count is returned with a warning. Fewer
    than two is InsufficientData; a banking day inside the series coverage
    without a rate is MissingFixing.
    """
    event = event_date(year)
    picked: list[tuple[int, float]] = []
    for x in post_window_offsets(year, cal):
        d = event + timedelta(days=x)
        if not series.covers(d):
            continue
        rate = series.rate_on(d)
        if rate is None:
            raise MissingFixing(d)
        picked.append((x, rate))
    if len(picked) < POST_WINDOW_MIN:
        raise InsufficientData(
            f"{len(picked)} banking-day fixings with offsets 2..6 after"
            f" Dec 25 {year}, need at least {POST_WINDOW_MIN}"
        )
    warning = None
    if len(picked) != NOMINAL_POST_COUNT:
        warning = (
            f"post-window has {len(picked)} observations,"
            f" nominal {NOMINAL_POST_COUNT}"
        )
    return tuple(x for x, _ in picked), tuple(r for _, r in picked), warning
