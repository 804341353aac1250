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

import math
import operator
import re
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator, Mapping
from datetime import date
from itertools import islice
from reprlib import repr as _brief  # a value cut to a few levels and characters

from .errors import DomainError, DuplicateDate, InsufficientData, ParseError
from .market_calendar import (ISO_DATE, HolidayCalendar, _banking, _calendar_key, event_date,
                              is_plain_date_type, iso_date)
from .record import Record, set_field
from .regression_core import N_PARAMETERS, bilinear_surface

CSV_HEADER = "date,rate"
_TENOR_COMMENT = re.compile(r"^#\s*tenor:\s*(.+?)\s*$")
# A data row: a date, a comma and a rate, each field with any whitespace
# around it, then an optional ``#`` comment. The rate may hold only ASCII
# digits, ``.``, ``e``/``E`` and signs; float() rejects every such string
# that is not a decimal with an optional exponent (``1.2.3``, ``e5``), so
# ``nan``, ``inf``, ``_`` and non-ASCII digits never become a rate.
_ROW = re.compile(rf"\s*({ISO_DATE})\s*,\s*([0-9.eE+-]+)\s*(?:#.*)?")
# A row as ``serialize_rate_series`` writes it, a whole line: no whitespace,
# no comment. It has no group, so ``findall`` returns the lines themselves.
_CANONICAL_ROW = re.compile(rf"^{ISO_DATE},[0-9.eE+-]+$", re.M)
_DATE_TEXT = operator.itemgetter(slice(10))  # of a canonical row
_RATE_TEXT = operator.itemgetter(slice(11, None))
# The array type code of a series' day ordinals: a C int, which CPython needs
# to hold 32 bits, holds every ordinal up to ``date.max``'s 3652059, in 4
# bytes where a C long takes 8 (64-bit Linux and macOS).
_ORDINAL = "i"
# The line breaks ``str.splitlines`` honours other than ``"\\n"``, with
# which ``"\\r\\n"`` ends.
_OTHER_BREAKS = "\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
# About how many characters ``parse_rate_series`` splits into lines at once;
# the lines of one piece, as strings, take a few times the piece's size.
_PIECE_CHARS = 1 << 12
# How many rows ``_serialized_pieces`` renders at once: about 7.5 K
# characters of rows as the generator writes them, 20 to 30 characters each.
_WRITE_ROWS = 256

GENERATION_START = (11, 25)  # rates are emitted from Nov 25 through Dec 31

_LCG_MULTIPLIER = 6364136223846793005
_LCG_INCREMENT = 1442695040888963407
_LCG_MASK = (1 << 64) - 1
_LCG_SPAN = float(1 << 53)  # a state's top 53 bits over this are a uniform in [0, 1)


def _finite(value) -> float | None:
    """``value`` as a float when it is a finite real number, neither text nor
    a bool; else None."""
    try:
        if not isinstance(value, (str, bytes, bytearray, bool)):  # float() parses text
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


def _check_tenor_label(label) -> None:
    """Raise DomainError unless ``label`` is a string of one line without
    surrounding whitespace that UTF-8 can encode, which survives
    serialization and the file ``generate`` writes."""
    if not isinstance(label, str):
        raise DomainError(f"tenor_label must be a string, got {_brief(label)}")
    if label != label.strip() or len(label.splitlines()) > 1:
        raise DomainError(
            f"tenor label {_brief(label)} has surrounding whitespace or a line break")
    try:
        label.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate
        raise DomainError(f"tenor label {_brief(label)} cannot be written as UTF-8") from None


class DailyRateSeries(Record):
    """Date-ordered banking-day fixings, rates in percent per annum.

    The series keeps two arrays, dates ascending: the day ordinals of its
    fixings (``date.toordinal()``) and their rates, 12 bytes a fixing: 4 for
    a C int ordinal and 8 for a double. ``entries``, its first field, is
    built from them when it is read: a tuple of ``(date, rate)`` pairs, each
    date a plain ``date`` and each rate a float. The constructor, the one
    place that checks a series, takes such pairs, each date a ``date`` or a
    subclass other than ``datetime`` and each rate a finite real number,
    neither text nor a bool. The tenor label is one line without surrounding
    whitespace that UTF-8 can encode, so that it survives serialization.
    """

    __slots__ = ("tenor_label", "_ordinals", "_rates")
    _fields = ("entries", "tenor_label")

    def __init__(self, entries: Iterable[tuple[date, float]], tenor_label: str = ""):
        _check_tenor_label(tenor_label)
        try:
            entries = tuple(entries)
        except TypeError:
            raise DomainError(f"entries must be (date, rate) pairs, got {entries!r}") from None
        try:  # every entry is unpacked before any other check
            kinds = {type(d) for d, _ in entries}
        except (TypeError, ValueError):
            bad = next(e for e in entries if type(e) not in (tuple, list) or len(e) != 2)
            raise DomainError(f"entries must be (date, rate) pairs, got {bad!r}") from None
        if not all(map(is_plain_date_type, kinds)):
            bad = next(d for d, _ in entries if not is_plain_date_type(type(d)))
            raise DomainError(f"fixing dates must be datetime.date, got {bad!r}")
        # Pairs of other types, or with rates of other types, are rebuilt as
        # exact (date, float) tuples.
        if set(map(type, entries)) != {tuple} or {type(r) for _, r in entries} != {float}:
            entries = tuple(_finite_entry(day, rate) for day, rate in entries)
        else:
            bad = next((d for d, r in entries if not math.isfinite(r)), None)
            if bad is not None:
                raise DomainError(f"rate on {bad.isoformat()} is not finite")
        ordinals = array(_ORDINAL, [d.toordinal() for d, _ in entries])
        if not all(map(operator.lt, ordinals, islice(ordinals, 1, None))):
            raise DomainError("fixing dates must be strictly increasing")
        set_field(self, "tenor_label", tenor_label)
        set_field(self, "_ordinals", ordinals)
        set_field(self, "_rates", array("d", [r for _, r in entries]))

    @property
    def entries(self) -> tuple[tuple[date, float], ...]:
        return tuple(zip(map(date.fromordinal, self._ordinals), self._rates))

    def __len__(self) -> int:
        return len(self._ordinals)

    @property
    def first_date(self) -> date:
        return self._date_at(0)

    @property
    def last_date(self) -> date:
        return self._date_at(-1)

    def _date_at(self, i: int) -> date:
        """The date of fixing ``i``; InsufficientData when there is none."""
        if not self._ordinals:
            raise InsufficientData("series is empty")
        return date.fromordinal(self._ordinals[i])

    def rate_on(self, d: date) -> float | None:
        """The rate on ``d``, found by bisection; None when the series has
        no fixing that day or ``d`` is not a date (a ``datetime`` is not)."""
        if not is_plain_date_type(type(d)):
            return None
        o = d.toordinal()
        i = bisect_left(self._ordinals, o)
        return self._rates[i] if i < len(self._ordinals) and self._ordinals[i] == o else None

    def _run_rates(self, ordinals: list[int]) -> tuple[float, ...] | None:
        """The rates on ``ordinals``, ascending and not empty, when they are
        every fixing of the series from the first of them through the last;
        else None. One bisection finds the run; the slices are compared as
        arrays, since an array never equals a list."""
        end = bisect_right(self._ordinals, ordinals[-1])
        start = end - len(ordinals)
        if start < 0 or self._ordinals[start:end] != array(_ORDINAL, ordinals):
            return None
        return tuple(self._rates[start:end])


def _series_of(ordinals: array, rates: array, tenor_label: str) -> DailyRateSeries:
    """A series that keeps the arrays ``ordinals`` and ``rates`` themselves,
    with no copy and no check.

    Only for ``parse_rate_series`` and ``generate_synthetic_series``. Each
    fills its arrays with ascending day ordinals and finite rates (the parse
    rejects overflows and repeats and sorts; the generator checks its rates
    finite and walks its days in order), with a label that
    ``_check_tenor_label`` passed, and then drops them.
    """
    series = DailyRateSeries.__new__(DailyRateSeries)
    set_field(series, "tenor_label", tenor_label)
    set_field(series, "_ordinals", ordinals)
    set_field(series, "_rates", rates)
    return series


def _finite_entry(day: date, rate) -> tuple[date, float]:
    """``(day, rate)`` with the rate as a float, if it is a finite real number."""
    number = _finite(rate)
    if number is None:
        raise DomainError(f"rate on {day.isoformat()} must be a finite real number, got {rate!r}")
    return day, number


def _pieces(text: str) -> Iterator[str]:
    """``text`` in the pieces ``_whole_lines`` makes of its slices of
    ``_PIECE_CHARS`` characters."""
    return _whole_lines(text[i:i + _PIECE_CHARS] for i in range(0, len(text), _PIECE_CHARS))


def _read_pieces(file) -> Iterator[str]:
    """The text of ``file``, open for reading text, in the pieces
    ``_whole_lines`` makes of its reads of ``_PIECE_CHARS`` characters."""
    return _whole_lines(iter(lambda: file.read(_PIECE_CHARS), ""))


def _whole_lines(chunks: Iterable[str]) -> Iterator[str]:
    """The text of ``chunks`` in pieces that each end just after a line
    break ``str.splitlines`` honours, or at the end of the text: a piece is
    a chunk up to its last line break, after the unfinished line that the
    chunks before it left; a chunk without one is added to that line. A
    ``"\\r"`` that ends a chunk is left to the next piece, which may start
    with the ``"\\n"`` of its ``"\\r\\n"``. So no line or line break straddles
    two pieces: the pieces' lines, taken in order, are the text's
    ``splitlines()``.
    """
    carry = ""
    for chunk in chunks:
        stop = len(chunk) - chunk.endswith("\r")
        end = chunk.rfind("\n", 0, stop) + 1
        if not chunk[end:stop].isprintable():  # no break is printable
            end = max(end, *[chunk.rfind(other, end, stop) + 1 for other in _OTHER_BREAKS])
        if end:
            piece, carry = carry + chunk[:end], chunk[end:]
            del chunk  # held neither while the piece is parsed
            yield piece
            del piece  # nor, as the piece, while the next one is read
        else:
            carry += chunk
    if carry:
        yield carry


def _canonical_rows(piece: str, latest: int) -> tuple[list[int], list[float]] | None:
    """The day ordinals and rates of ``piece`` when each of its lines is a
    ``_CANONICAL_ROW``, every date and rate converts, every rate is finite
    and the ordinals ascend strictly from after ``latest``, an ordinal; else
    None. Each date is built and turned into its ordinal in turn, so no
    list of ``date`` objects is held.

    The pattern matches at most once per ``"\\n"``-separated line and holds
    no line break, so as many matches as such lines means that they are
    the lines ``splitlines`` gives, each a whole row. A piece with a
    ``"\\r"`` is matched with its ``"\\r\\n"`` line ends made ``"\\n"``, so
    that a file with those line ends is read in bulk too; a lone ``"\\r"``
    stays inside a ``"\\n"``-separated line, which then fails the pattern.
    """
    if "\r" in piece:
        piece = piece.replace("\r\n", "\n")
    rows = _CANONICAL_ROW.findall(piece)
    if len(rows) != piece.count("\n") + (not piece.endswith("\n")):
        return None
    try:
        ordinals = list(map(date.toordinal, map(date.fromisoformat, map(_DATE_TEXT, rows))))
        rates = list(map(float, map(_RATE_TEXT, rows)))
    except ValueError:
        return None
    if (latest < ordinals[0] and all(map(operator.lt, ordinals, islice(ordinals, 1, None)))
            and all(map(math.isfinite, rates))):
        return ordinals, rates
    return None


def parse_rate_series(text: str) -> DailyRateSeries:
    """Parse delimited rate-series text into a DailyRateSeries.

    The text is split into lines one piece of about ``_PIECE_CHARS``
    characters at a time, so the parse never holds more than a piece's lines
    next to the text and the series' two arrays, of day ordinals and of
    rates. The CLI parses a file in the same pieces as it reads them, so
    that it never holds the file's whole text. A piece after the header
    whose lines are all rows as ``serialize_rate_series`` writes them, in
    date order after the rows before it, goes into the arrays in bulk: a
    file as ``generate`` writes it, with ``"\\n"`` or ``"\\r\\n"`` line ends,
    is read so, past its first piece. Any other piece is read line by line,
    each line matched once against ``_ROW``: a data row is appended to the
    arrays where it stands; any other line is a comment, a blank line, the
    header or an error, which names its line number. Rows out of date order
    are sorted once, at the end; a date on two rows is then a DuplicateDate,
    the earliest such date. Each row is checked as it is read, so the series
    keeps the arrays without a copy or a second check. The tenor label is
    the last ``# tenor:`` comment's, else empty, and a DomainError if UTF-8
    cannot encode it; relabel with ``DailyRateSeries(series.entries, label)``.
    """
    return _parse_pieces(_pieces(text))


def _parse_pieces(pieces: Iterable[str]) -> DailyRateSeries:
    """``parse_rate_series`` of the text that ``pieces`` make up, each piece
    ending just after a line break or at the end of the text."""
    ordinals = array(_ORDINAL)
    rates = array("d")
    latest = 0  # the latest day ordinal so far; every date's is at least 1
    in_order = True
    seen_header = False
    tenor_label = ""
    lineno = 0
    for piece in pieces:
        bulk = _canonical_rows(piece, latest) if seen_header else None
        if bulk is not None:
            ordinals.fromlist(bulk[0])
            rates.fromlist(bulk[1])
            latest = ordinals[-1]
            lineno += len(bulk[0])
            del piece, bulk  # neither held while the next piece is read
            continue
        for lineno, raw in enumerate(piece.splitlines(), start=lineno + 1):
            row = _ROW.fullmatch(raw)
            if row is not None and seen_header:
                date_text, rate_text = row.groups()
                try:
                    day = date.fromisoformat(date_text)
                    rate = float(rate_text)
                except ValueError:
                    raise ParseError(lineno, _row_problem(f"{date_text},{rate_text}")) from None
                if not math.isfinite(rate):
                    raise ParseError(lineno, f"rate {rate_text!r} overflows")
                ordinal = day.toordinal()
                if ordinal > latest:
                    latest = ordinal
                else:  # out of order, or repeated
                    in_order = False
                ordinals.append(ordinal)
                rates.append(rate)
                continue
            stripped = raw.strip()
            if stripped.startswith("#"):
                match = _TENOR_COMMENT.match(stripped)
                if match:
                    tenor_label = match.group(1)
                continue
            line = stripped.split("#", 1)[0].strip()
            if not line:
                continue
            if seen_header:
                raise ParseError(lineno, _row_problem(line))
            if line.replace(" ", "").lower() != CSV_HEADER:
                raise ParseError(lineno, f"expected header {CSV_HEADER!r}, got {line!r}")
            seen_header = True
        del piece  # not held while the next one is read: 2 bytes a character past Latin-1
    if not seen_header:
        raise ParseError(None, f"missing {CSV_HEADER!r} header")
    if not in_order:
        order = sorted(range(len(ordinals)), key=ordinals.__getitem__)
        ordinals = array(_ORDINAL, map(ordinals.__getitem__, order))
        rates = array("d", map(rates.__getitem__, order))
        for o, later in zip(ordinals, islice(ordinals, 1, None)):
            if o == later:
                raise DuplicateDate(date.fromordinal(o))
    _check_tenor_label(tenor_label)  # the constructor's rule: a str may hold a lone surrogate
    return _series_of(ordinals, rates, tenor_label)


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

    Shortest round-trip float formatting, so parse(serialize(s)) == s. The
    text is the join of ``_serialized_pieces(series)``, which the CLI writes
    piece by piece instead, so that it never holds the whole text.
    """
    return "".join(_serialized_pieces(series))


def _serialized_pieces(series: DailyRateSeries) -> Iterator[str]:
    """The lines of ``serialize_rate_series(series)``, each ending in
    ``"\\n"``: the header's as one piece, then the rows' ``_WRITE_ROWS`` at a
    time. A piece of rows is one ``%`` format of a list that interleaves the
    rows' ISO dates with their rates, each rate written by ``%r``, its
    ``repr``."""
    head = f"# tenor: {series.tenor_label}\n" if series.tenor_label else ""
    yield head + CSV_HEADER + "\n"
    ordinals, rates = series._ordinals, series._rates
    for start in range(0, len(ordinals), _WRITE_ROWS):
        stop = start + _WRITE_ROWS
        piece_rates = rates[start:stop]
        fields = [None] * (2 * len(piece_rates))
        fields[::2] = map(date.isoformat, map(date.fromordinal, ordinals[start:stop]))
        fields[1::2] = piece_rates
        yield "%s,%r\n" * len(piece_rates) % tuple(fields)


class SyntheticSpec(Record):
    """Recipe for a deterministic synthetic rate series.

    ``year_trends`` maps each year to its (slope, intercept) in percent/day
    and percent. ``jump`` holds the four coefficients of the surface planted
    each year: ``bilinear_surface(jump, slope, intercept)`` is added to
    post-event rates, so ``(v, 0, 0, 0)`` plants the same jump ``v`` every
    year. ``seed`` fixes the noise stream exactly. Every number must be
    finite and no number a bool.
    """

    __slots__ = ("year_trends", "jump", "noise_amplitude", "seed", "tenor_label")

    def __init__(self, year_trends: Mapping[int, tuple[float, float]],
                 jump: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0),
                 noise_amplitude: float = 0.0,
                 seed: int = 0, tenor_label: str = "SYN"):
        if not isinstance(year_trends, Mapping):
            raise DomainError(f"year_trends must map years to pairs, got {_brief(year_trends)}")
        trends = {}
        for year, trend in year_trends.items():
            if type(year) is not int:
                raise DomainError(f"year_trends key {_brief(year)} is not an integer year")
            try:
                event_date(year)
            except DomainError as exc:
                raise DomainError(f"year_trends key {year}: {exc}") from None
            trends[year] = _finite_tuple(trend, 2)
            if trends[year] is None:
                raise DomainError(f"year_trends[{year}] must be finite, got {_brief(trend)}")
        coefficients = _finite_tuple(jump, N_PARAMETERS)
        if coefficients is None:
            raise DomainError(
                f"jump coefficients must be {N_PARAMETERS} finite numbers: {_brief(jump)}")
        noise = _finite(noise_amplitude)
        if noise is None or noise < 0.0:
            raise DomainError("noise amplitude must be a finite non-negative number")
        if type(seed) is not int:
            raise DomainError(f"seed must be an integer, got {_brief(seed)}")
        _check_tenor_label(tenor_label)
        set_field(self, "year_trends", trends)
        set_field(self, "jump", coefficients)
        set_field(self, "noise_amplitude", noise)
        set_field(self, "seed", seed)
        set_field(self, "tenor_label", tenor_label)


def generate_synthetic_series(
    spec: SyntheticSpec, years: Iterable[int], cal: HolidayCalendar
) -> DailyRateSeries:
    """Emit rates on every banking day of Nov 25 - Dec 31 per year.

    Banking days before December 25 follow the year's linear trend; days
    after it additionally carry the planted jump. Noise is uniform in
    [-amplitude, amplitude] from the documented LCG stream, stepped inline
    one draw per fixing. Each year must be an ``int``, not a bool, a float
    or text. The span lies inside its year, so its banking days, as offsets
    from December 25, are fixed by the year's ``_calendar_key``: the first
    year of a key walks the calendar, and the later ones reuse its offsets,
    kept only for the call. The days go into the series' array as day
    ordinals, a year at a time, so no ``date`` is built for a fixing. A
    rate that overflows is a DomainError naming its date; the series keeps
    the arrays without a copy.
    """
    years = list(years)
    bad = [y for y in years if type(y) is not int]
    if bad:
        raise DomainError(f"years must be integers, got {bad[0]!r}")
    year_list = sorted(set(years))
    if not year_list:
        raise DomainError("year range is empty")
    missing = [y for y in year_list if y not in spec.year_trends]
    if missing:
        raise DomainError(f"no trend configured for years {missing}")
    amplitude = spec.noise_amplitude
    state = spec.seed & _LCG_MASK
    patterns: dict[tuple, list[int]] = {}  # calendar key -> offsets from Dec 25
    ordinals = array(_ORDINAL)
    rates = array("d")
    append = rates.append
    for year in year_list:
        slope, intercept = spec.year_trends[year]
        jump = bilinear_surface(spec.jump, slope, intercept)
        event = event_date(year).toordinal()
        key = _calendar_key(year, cal)
        offsets = patterns.get(key)
        if offsets is None:
            days = range(date(year, *GENERATION_START).toordinal(), event + 7)  # through Dec 31
            offsets = patterns[key] = [o - event for o in _banking(days, cal)]
        ordinals.extend([event + x for x in offsets])
        for x in offsets:
            state = (_LCG_MULTIPLIER * state + _LCG_INCREMENT) & _LCG_MASK
            rate = slope * x + intercept + amplitude * (2.0 * ((state >> 11) / _LCG_SPAN) - 1.0)
            if x >= 1:
                rate += jump
            append(rate)
    if not all(map(math.isfinite, rates)):
        bad = next(o for o, r in zip(ordinals, rates) if not math.isfinite(r))
        raise DomainError(f"rate on {date.fromordinal(bad).isoformat()} is not finite")
    return _series_of(ordinals, rates, spec.tenor_label)


def _object_without_repeats(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict; a repeated key is a ParseError."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ParseError(None, f"repeated key {_brief(key)}")
        obj[key] = value
    return obj


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

    Only the document's shape and keys are checked here: no object repeats a
    key, and each year key is its year's canonical ASCII spelling. Every
    value is checked by ``SyntheticSpec``, whose message becomes a ParseError.
    """
    import json  # here, so that only ``generate`` pays for loading it

    try:
        doc = json.loads(text, object_pairs_hook=_object_without_repeats)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, f"invalid JSON: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # over-long integers, deep nesting
        raise ParseError(None, f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError(None, "spec document must be a JSON object")
    years_doc = doc.get("years")
    if not isinstance(years_doc, dict) or not years_doc:
        raise ParseError(None, "'years' must be a non-empty object")
    for key in years_doc:
        try:  # ASCII digits, so int() raises only past its 4300-digit limit
            canonical = key.isascii() and key.isdecimal() and str(int(key)) == key
        except ValueError:
            canonical = False
        if not canonical:
            raise ParseError(None, f"bad year key {_brief(key)}")
    jump_doc = doc.get("jump", {"fixed": 0.0})
    if not isinstance(jump_doc, dict) or list(jump_doc) not in (["fixed"], ["coefficients"]):
        raise ParseError(None, "'jump' must hold exactly one of 'fixed' or 'coefficients'")
    ((kind, value),) = jump_doc.items()
    jump = value if kind == "coefficients" else (value, 0.0, 0.0, 0.0)
    trends = {int(key): trend for key, trend in years_doc.items()}
    try:
        spec = SyntheticSpec(trends, jump, doc.get("noise", 0.0), doc.get("seed", 0),
                             doc.get("tenor", "SYN"))
    except DomainError as exc:
        raise ParseError(None, str(exc)) from None
    return spec, sorted(trends)
