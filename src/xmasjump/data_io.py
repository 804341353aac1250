"""Rate-series ingestion, serialization, and a seeded synthetic generator.

File format: a ``date,rate`` header, then one ``YYYY-MM-DD,<decimal>`` row
per line, in ASCII digits. Blank lines and ``#`` comments are ignored; a
``# tenor: <label>`` comment carries the tenor label through serialization.
Rates are percent per annum (2.70 means 2.70%).

The synthetic generator's noise stream is a fully specified 64-bit linear
congruential generator, so fixtures are bit-identical on every platform:

    state(k+1) = (6364136223846793005 * state(k) + 1442695040888963407) mod 2^64
    uniform(k) = (state(k+1) >> 11) / 2^53        in [0, 1)
    noise(k)   = amplitude * (2 * uniform(k) - 1)  in [-amplitude, amplitude]

state(0) is the seed reduced mod 2^64. Draws advance year by year
(ascending) and banking day by banking day (ascending) within each year,
one draw per generated fixing, including when the amplitude is zero.
"""

from __future__ import annotations

import datetime
import json
import math
import operator
import re
from collections.abc import Iterable, Iterator, Mapping
from datetime import date

from .errors import DomainError, DuplicateDate, ParseError
from .market_calendar import ISO_DATE, HolidayCalendar, banking_days, event_date, iso_date
from .record import Record, set_field
from .regression_core import bilinear_surface

CSV_HEADER = "date,rate"
_TENOR_COMMENT = re.compile(r"^#\s*tenor:\s*(.+?)\s*$")
# A data row: a date, a comma and a rate, each field with any whitespace
# around it, then an optional ``#`` comment. The rate may hold only ASCII
# digits, ``.``, ``e``/``E`` and signs; float() rejects every such string
# that is not a decimal with an optional exponent (``1.2.3``, ``e5``), so
# ``nan``, ``inf``, ``_`` and non-ASCII digits never become a rate.
_ROW = re.compile(rf"\s*({ISO_DATE})\s*,\s*([0-9.eE+-]+)\s*(?:#.*)?")
_FIRST = operator.itemgetter(0)

GENERATION_START = (11, 25)  # rates are emitted from Nov 25 through Dec 31

_LCG_MULTIPLIER = 6364136223846793005
_LCG_INCREMENT = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


def _is_fixing_date_type(kind: type) -> bool:
    return issubclass(kind, date) and not issubclass(kind, datetime.datetime)


def _finite(value) -> float | None:
    """``value`` as a float when it is a finite real number, not text; else None."""
    try:
        if not isinstance(value, (str, bytes, bytearray)):  # float() parses text
            number = float(value)
            return number if math.isfinite(number) else None
    except (TypeError, ValueError, OverflowError):
        pass
    return None


def _finite_tuple(values, count: int) -> tuple[float, ...] | None:
    """``values`` as a tuple of ``count`` finite floats, else None."""
    try:
        numbers = tuple(map(_finite, values))
    except TypeError:  # not iterable
        return None
    return numbers if len(numbers) == count and None not in numbers else None


class DailyRateSeries(Record):
    """Date-ordered banking-day fixings, rates in percent per annum.

    ``entries`` are ``(date, rate)`` pairs; each rate is a finite real
    number, not text. The tenor label is a single line without surrounding
    whitespace, so that it survives serialization.
    """

    __slots__ = ("entries", "tenor_label", "_by_date")

    def __init__(self, entries: Iterable[tuple[date, float]], tenor_label: str = ""):
        if not isinstance(tenor_label, str):
            raise DomainError(f"tenor_label must be a string, got {tenor_label!r}")
        try:
            entries = tuple(entries)
        except TypeError:
            raise DomainError(f"entries must be (date, rate) pairs, got {entries!r}") from None
        try:
            dates = [d for d, _ in entries]
        except (TypeError, ValueError):
            bad = next(e for e in entries if type(e) not in (tuple, list) or len(e) != 2)
            raise DomainError(f"entries must be (date, rate) pairs, got {bad!r}") from None
        rates = [r for _, r in entries]
        if not all(map(_is_fixing_date_type, set(map(type, dates)))):
            bad = next(d for d in dates if not _is_fixing_date_type(type(d)))
            raise DomainError(f"fixing dates must be datetime.date, got {bad!r}")
        # Exact (date, float) tuples, as the parser and the generator build
        # them, are kept; other pairs and rate types are rebuilt that way.
        if set(map(type, entries)) != {tuple} or set(map(type, rates)) != {float}:
            rates = list(map(_finite, rates))
            if None in rates:
                day, rate = entries[rates.index(None)]
                raise DomainError(
                    f"rate on {day.isoformat()} must be a finite real number, got {rate!r}"
                )
            entries = tuple(zip(dates, rates))
        if not all(map(math.isfinite, rates)):
            bad = next(d for d, r in zip(dates, rates) if not math.isfinite(r))
            raise DomainError(f"rate on {bad.isoformat()} is not finite")
        if not all(map(operator.lt, dates, dates[1:])):
            raise DomainError("fixing dates must be strictly increasing")
        if tenor_label != tenor_label.strip() or len(tenor_label.splitlines()) > 1:
            raise DomainError(
                f"tenor label {tenor_label!r} has surrounding whitespace or a line break"
            )
        set_field(self, "entries", entries)
        set_field(self, "tenor_label", tenor_label)
        set_field(self, "_by_date", dict(entries))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    @property
    def first_date(self) -> date:
        return self.entries[0][0]

    @property
    def last_date(self) -> date:
        return self.entries[-1][0]

    def covers(self, d: date) -> bool:
        """True when ``d`` lies inside the series' date span."""
        return bool(self.entries) and self.first_date <= d <= self.last_date

    def rate_on(self, d: date) -> float | None:
        return self._by_date.get(d)


def parse_rate_series(text: str, tenor_label: str | None = None) -> DailyRateSeries:
    """Parse delimited rate-series text into a DailyRateSeries.

    Each line is matched once against ``_ROW``: a data row is converted
    where it stands; any other line is a comment, a blank line, the header
    or an error.
    Tolerates blank lines and ``#`` comments, rejects malformed rows with
    their line number, sorts by date, then rejects duplicates. An explicit
    ``tenor_label`` overrides any ``# tenor:`` comment in the text.
    """
    rows: list[tuple[date, float]] = []
    seen_header = False
    parsed_tenor = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        row = _ROW.fullmatch(raw)
        if row is not None and seen_header:
            date_text, rate_text = row.groups()
            try:
                day = date.fromisoformat(date_text)
            except ValueError:
                raise ParseError(lineno, f"bad date {date_text!r}") from None
            try:
                rate = float(rate_text)
            except ValueError:
                raise ParseError(lineno, f"bad rate {rate_text!r}") from None
            if not math.isfinite(rate):
                raise ParseError(lineno, f"rate {rate_text!r} overflows")
            rows.append((day, rate))
            continue
        stripped = raw.strip()
        if stripped.startswith("#"):
            match = _TENOR_COMMENT.match(stripped)
            if match:
                parsed_tenor = match.group(1)
            continue
        line = stripped.split("#", 1)[0].strip()
        if not line:
            continue
        if seen_header:
            raise ParseError(lineno, _row_problem(line))
        if line.replace(" ", "").lower() != CSV_HEADER:
            raise ParseError(lineno, f"expected header {CSV_HEADER!r}, got {line!r}")
        seen_header = True
    if not seen_header:
        raise ParseError(None, f"missing {CSV_HEADER!r} header")
    rows.sort(key=_FIRST)  # a single pass when the rows are already in order
    if not all(map(operator.lt, map(_FIRST, rows), map(_FIRST, rows[1:]))):
        neighbours = zip(rows, rows[1:])
        raise DuplicateDate(next(d for (d, _), (e, _) in neighbours if d == e))
    label = tenor_label if tenor_label is not None else parsed_tenor
    return DailyRateSeries(tuple(rows), label)


def _row_problem(line: str) -> str:
    """Why a line after the header, comment stripped, is not a data row."""
    fields = [f.strip() for f in line.split(",")]
    if len(fields) != 2:
        return "expected exactly two comma-separated fields"
    date_text, rate_text = fields
    try:
        iso_date(date_text)
    except ValueError:
        return f"bad date {date_text!r}"
    return f"bad rate {rate_text!r}"


def serialize_rate_series(series: DailyRateSeries) -> str:
    """Render a series back to the delimited text format.

    Shortest round-trip float formatting, so parse(serialize(s)) == s.
    """
    lines = []
    if series.tenor_label:
        lines.append(f"# tenor: {series.tenor_label}")
    lines.append(CSV_HEADER)
    lines.extend(f"{d.isoformat()},{rate!r}" for d, rate in series.entries)
    return "\n".join(lines) + "\n"


class BilinearJump(Record):
    """Plant ``bilinear_surface(coefficients, slope, intercept)`` each year;
    coefficients ``(v, 0, 0, 0)`` plant the same jump ``v`` every year."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: tuple[float, float, float, float]):
        numbers = _finite_tuple(coefficients, 4)
        if numbers is None:
            raise DomainError(f"jump coefficients must be 4 finite numbers: {coefficients!r}")
        set_field(self, "coefficients", numbers)


class SyntheticSpec(Record):
    """Recipe for a deterministic synthetic rate series.

    ``year_trends`` maps each year to its (slope, intercept) in percent/day
    and percent; the jump rule decides what is added to post-event rates;
    ``seed`` fixes the noise stream exactly. Every number must be finite.
    """

    __slots__ = ("year_trends", "jump", "noise_amplitude", "seed", "tenor_label")

    def __init__(self, year_trends: Mapping[int, tuple[float, float]],
                 jump: BilinearJump = BilinearJump((0.0, 0.0, 0.0, 0.0)),
                 noise_amplitude: float = 0.0,
                 seed: int = 0, tenor_label: str = "SYN"):
        if not isinstance(year_trends, Mapping):
            raise DomainError(f"year_trends must map years to pairs, got {year_trends!r}")
        trends = {}
        for year, trend in year_trends.items():
            if not isinstance(year, int):
                raise DomainError(f"year_trends key {year!r} is not an integer year")
            trends[year] = _finite_tuple(trend, 2)
            if trends[year] is None:
                raise DomainError(f"year_trends[{year}] must be finite, got {trend!r}")
        if not isinstance(jump, BilinearJump):
            raise DomainError(f"jump must be a BilinearJump, got {jump!r}")
        noise = _finite(noise_amplitude)
        if noise is None or noise < 0.0:
            raise DomainError("noise amplitude must be a finite non-negative number")
        if not isinstance(seed, int):
            raise DomainError(f"seed must be an integer, got {seed!r}")
        set_field(self, "year_trends", trends)
        set_field(self, "jump", jump)
        set_field(self, "noise_amplitude", noise)
        set_field(self, "seed", seed)
        set_field(self, "tenor_label", tenor_label)


def _lcg_uniforms(seed: int) -> Iterator[float]:
    """The documented 64-bit LCG's stream: one uniform in [0, 1) per draw."""
    state = seed & _LCG_MASK
    while True:
        state = (_LCG_MULTIPLIER * state + _LCG_INCREMENT) & _LCG_MASK
        yield (state >> 11) / float(1 << 53)


def generate_synthetic_series(
    spec: SyntheticSpec, years: Iterable[int], cal: HolidayCalendar
) -> DailyRateSeries:
    """Emit rates on every banking day of Nov 25 - Dec 31 per year.

    Banking days before December 25 follow the year's linear trend; days
    after it additionally carry the planted jump. Noise is uniform in
    [-amplitude, amplitude] from the documented LCG stream.
    """
    year_list = sorted(set(int(y) for y in years))
    if not year_list:
        raise DomainError("year range is empty")
    missing = [y for y in year_list if y not in spec.year_trends]
    if missing:
        raise DomainError(f"no trend configured for years {missing}")
    uniforms = _lcg_uniforms(spec.seed)
    entries = []
    for year in year_list:
        slope, intercept = spec.year_trends[year]
        jump = bilinear_surface(spec.jump.coefficients, slope, intercept)
        event = event_date(year).toordinal()
        start = date(year, *GENERATION_START)
        for d in banking_days(start, date(year, 12, 31), cal):
            x = d.toordinal() - event
            noise = spec.noise_amplitude * (2.0 * next(uniforms) - 1.0)
            rate = slope * x + intercept + noise
            if x >= 1:
                rate += jump
            entries.append((d, rate))
    return DailyRateSeries(tuple(entries), spec.tenor_label)


def synthetic_spec_from_json(text: str) -> tuple[SyntheticSpec, list[int]]:
    """Parse a generator spec document; returns the spec and its years.

    Schema:
        {
          "tenor": "SYN-2M",          optional, default "SYN"
          "seed": 1,                  optional, default 0
          "noise": 0.01,              optional, default 0.0
          "jump": {"fixed": 0.25},    or {"coefficients": [c0, c1, c2, c3]}
          "years": {"2004": [slope, intercept], ...}
        }
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, f"invalid JSON: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # over-long integers, deep nesting
        raise ParseError(None, f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError(None, "spec document must be a JSON object")
    years_doc = doc.get("years")
    if not isinstance(years_doc, dict) or not years_doc:
        raise ParseError(None, "'years' must be a non-empty object")
    year_trends = {}
    for key, value in years_doc.items():
        try:
            year = int(key)
            event_date(year)
        except (ValueError, DomainError):
            raise ParseError(None, f"bad year key {key!r}") from None
        year_trends[year] = _floats(value, 2, f"year {key}: expected [slope, intercept]")
    jump_doc = doc.get("jump", {"fixed": 0.0})
    if not isinstance(jump_doc, dict) or len(jump_doc) != 1:
        raise ParseError(None, "'jump' must hold exactly one of 'fixed' or 'coefficients'")
    if "fixed" in jump_doc:
        (fixed,) = _floats([jump_doc["fixed"]], 1, "'jump.fixed' must be a number")
        jump = BilinearJump((fixed, 0.0, 0.0, 0.0))
    elif "coefficients" in jump_doc:
        coeffs = jump_doc["coefficients"]
        jump = BilinearJump(_floats(coeffs, 4, "'jump.coefficients' must be four numbers"))
    else:
        raise ParseError(None, "'jump' must hold 'fixed' or 'coefficients'")
    (noise,) = _floats([doc.get("noise", 0.0)], 1, "'noise' must be a non-negative number")
    if noise < 0:
        raise ParseError(None, "'noise' must be a non-negative number")
    seed = doc.get("seed", 0)
    if type(seed) is not int:
        raise ParseError(None, "'seed' must be an integer")
    tenor = doc.get("tenor", "SYN")
    if not isinstance(tenor, str):
        raise ParseError(None, "'tenor' must be a string")
    return SyntheticSpec(year_trends, jump, noise, seed, tenor), sorted(year_trends)


def _floats(values, count: int, message: str) -> tuple[float, ...]:
    """A JSON array of ``count`` finite numbers as floats, else ParseError(message).

    ``json.loads`` reads ``NaN`` and ``Infinity`` as floats; they are rejected
    here, like integers beyond the float range and ``true`` and ``false``.
    """
    is_numbers = isinstance(values, list) and bool not in map(type, values)
    floats = _finite_tuple(values, count) if is_numbers else None
    if floats is None:
        raise ParseError(None, message)
    return floats
