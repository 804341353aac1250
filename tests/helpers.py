"""Shared fixture builders for the test suite."""

import math
import operator
import random
from datetime import date, timedelta
from itertools import groupby

from xmasjump import (
    DailyRateSeries,
    HolidayCalendar,
    SyntheticSpec,
    generate_synthetic_series,
)
from xmasjump.data_io import (
    _LCG_INCREMENT,
    _LCG_MASK,
    _LCG_MULTIPLIER,
    _ROW,
    _TENOR_COMMENT,
    CSV_HEADER,
    GENERATION_START,
    _check_tenor_label,
    _finite,
    _row_problem,
)
from xmasjump.errors import (
    DomainError,
    DuplicateDate,
    IncompleteWindow,
    InsufficientData,
    MissingFixing,
    ParseError,
    RankDeficient,
    TooFewRows,
)
from xmasjump.market_calendar import (
    NOMINAL_POST_COUNT,
    NOMINAL_PRE_SPAN_DAYS,
    POST_WINDOW_MIN,
    PRE_WINDOW_DAYS,
    PRE_WINDOW_MIN,
    _banking,
    banking_days,
    event_date,
    is_plain_date_type,
)
from xmasjump.regression_core import (
    MIN_DESIGN_ROWS,
    N_PARAMETERS,
    RANK_TOLERANCE,
    bilinear_surface,
    design_row,
    window_fits,
)
from xmasjump.stat_inference import (
    _DIRECT_T2_MAX,
    _HALF_STEP_SERIES_MIN,
    _LENTZ_EPS,
    _LENTZ_MAX_ITER,
    _LENTZ_TINY,
    _log_inverse_beta,
)

_FIRST = operator.itemgetter(0)


def day_offset(d, year):
    """Signed whole days from December 25 of ``year`` to ``d``.

    For December dates of the same year this is day-of-month minus 25;
    years outside 1..9999 are a DomainError, as in ``event_date``.
    """
    return (d - event_date(year)).days


def is_banking_day(d, cal):
    """True when ``d`` is neither a Saturday, a Sunday nor a holiday."""
    return bool(banking_days(d, d, cal))


def line_value(fit, x):
    """The fitted line ``fit``, a ``(slope, intercept)`` pair, at offset ``x``."""
    slope, intercept = fit
    return slope * x + intercept


def distinct_trends(first_year, last_year, seed=20231225):
    """Per-year (slope, intercept) pairs over realistic magnitudes."""
    rng = random.Random(seed)
    return {
        year: (rng.uniform(-0.02, 0.02), rng.uniform(0.5, 5.0))
        for year in range(first_year, last_year + 1)
    }


def constant_jump(value):
    """The jump coefficients that add ``value`` to every post-event rate."""
    return (value, 0.0, 0.0, 0.0)


def planted_series(first_year, last_year, jump, seed=3, noise=0.0, trend_seed=20231225):
    """Synthetic series plus the trends it was generated from."""
    cal = HolidayCalendar()
    trends = distinct_trends(first_year, last_year, trend_seed)
    spec = SyntheticSpec(
        year_trends=trends, jump=jump, noise_amplitude=noise, seed=seed
    )
    return generate_synthetic_series(spec, trends.keys(), cal), trends


def flat_series(first, last, rate=2.0):
    """A fixing on every calendar day; window extraction keeps banking days."""
    entries = []
    d = first
    while d <= last:
        entries.append((d, rate))
        d += timedelta(days=1)
    return DailyRateSeries(entries=tuple(entries))


def linear_series(first, last, slope, intercept, year, jump=0.0):
    """Rates exactly on a line in day-offsets around Dec 25 of ``year``.

    Days after December 25 are shifted by ``jump``; there is a fixing on
    every calendar day, so no banking day can be missing.
    """
    entries = []
    d = first
    while d <= last:
        x = day_offset(d, year)
        rate = slope * x + intercept + (jump if x >= 1 else 0.0)
        entries.append((d, rate))
        d += timedelta(days=1)
    return DailyRateSeries(entries=tuple(entries))


# --- day-by-day references for the banking-day walks ------------------------
# One ``timedelta`` step and one ``date.weekday()`` per calendar day, with no
# day-ordinal arithmetic: the oracle for ``market_calendar``'s walks, which
# must return the same values and raise the same errors with the same messages.


def reference_banking_days(start, end, cal):
    """Banking days from ``start`` through ``end`` inclusive, ascending."""
    days = []
    for i in range((end - start).days + 1):
        d = start + timedelta(days=i)
        if d.weekday() < 5 and not cal.is_holiday(d):  # Monday..Friday
            days.append(d)
    return days


def reference_pre_window(year, series, cal, n=PRE_WINDOW_DAYS):
    """``pre_window``, one calendar day back at a time from December 24."""
    if n < PRE_WINDOW_MIN:
        raise DomainError(f"pre-window needs at least {PRE_WINDOW_MIN} banking days")
    if len(series) == 0:
        raise InsufficientData(f"series is empty; need {n} fixings before Dec 25 {year}")
    event = event_date(year)
    picked = []
    for back in range(1, (event - series.first_date).days + 1):
        d = event - timedelta(days=back)
        if not reference_banking_days(d, d, cal):
            continue
        if d > series.last_date:
            raise IncompleteWindow(
                f"pre-window for {year} runs through {d.isoformat()},"
                f" but the series ends at {series.last_date.isoformat()}"
            )
        rate = series.rate_on(d)
        if rate is None:
            raise MissingFixing(d)
        picked.insert(0, (-back, rate))
        if len(picked) == n:
            break
    else:
        raise InsufficientData(
            f"only {len(picked)} banking-day fixings before Dec 25 {year}, need {n}"
        )
    span = -picked[0][0]
    warning = None
    if n == PRE_WINDOW_DAYS and span != NOMINAL_PRE_SPAN_DAYS:
        warning = f"pre-window spans {span} calendar days, nominal {NOMINAL_PRE_SPAN_DAYS}"
    return tuple(x for x, _ in picked), tuple(r for _, r in picked), warning


def reference_post_window_offsets(year, cal):
    """Banking-day offsets of December 27-31 from December 25; too few is
    InsufficientData."""
    event = event_date(year)
    days = reference_banking_days(event + timedelta(days=2), event + timedelta(days=6), cal)
    if len(days) < POST_WINDOW_MIN:
        raise InsufficientData(f"{len(days)} banking days with offsets 2..6 after Dec 25 {year}")
    return tuple((d - event).days for d in days)


def reference_post_window(year, series, cal):
    """``post_window``: every post-event banking day must carry a rate."""
    event = event_date(year)
    offsets = reference_post_window_offsets(year, cal)
    if len(series) == 0:
        raise InsufficientData("series is empty")
    rates = []
    for x in offsets:
        d = event + timedelta(days=x)
        if d > series.last_date:
            raise IncompleteWindow(
                f"post-window for {year} runs through {event + timedelta(days=offsets[-1])},"
                f" but the series ends at {series.last_date}"
            )
        if d < series.first_date:
            raise InsufficientData(
                f"post-window for {year} needs {d}, but the series starts at {series.first_date}"
            )
        rate = series.rate_on(d)
        if rate is None:
            raise MissingFixing(d)
        rates.append(rate)
    warning = None
    if len(offsets) != NOMINAL_POST_COUNT:
        warning = f"post-window has {len(offsets)} observations, nominal {NOMINAL_POST_COUNT}"
    return offsets, tuple(rates), warning


# --- the Student-t p-value, one call at a time ------------------------------
# ``student_t_two_sided_p`` as a chain of plain functions that build nothing
# ahead: each continued-fraction step forms its coefficients inside the loop.
# The per-df constants ``stat_inference`` builds once must give the same
# floats, so the p-values are compared with ``==``.


def reference_student_t_two_sided_p(t, df):
    """P(|T| >= |t|), by the complement of I_y(1/2, df/2) for t^2 < df,
    else by I_x(df/2, 1/2); I_y directly for df > 1000 and 0 < t^2 < 16."""
    if df < 1:
        raise DomainError("degrees of freedom must be at least 1")
    if math.isnan(t):
        raise DomainError("t statistic is NaN")
    t2 = t * t
    h = df / 2.0
    if h > _HALF_STEP_SERIES_MIN and 0.0 < t2 < _DIRECT_T2_MAX:
        return 1.0 - _reference_lower_fraction(0.5, h, t2 / (df + t2))
    if t2 < df:
        return 1.0 - reference_incomplete_beta(0.5, h, t2 / (df + t2))
    return reference_incomplete_beta(h, 0.5, df / (df + t2))


def reference_incomplete_beta(a, b, x):
    """I_x(a, b) for a, b > 0 and 0 <= x <= 1, by the continued fraction at
    x or, past (a + 1) / (a + b + 2), by the symmetry I_x(a, b) = 1 - I_{1-x}(b, a)."""
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    if x < (a + 1.0) / (a + b + 2.0):
        return _reference_lower_fraction(a, b, x)
    return 1.0 - _reference_front(a, b, x) * _reference_fraction(b, a, 1.0 - x) / b


def _reference_front(a, b, x):
    return math.exp(_log_inverse_beta(a, b)[0] + a * math.log(x) + b * math.log1p(-x))


def _reference_lower_fraction(a, b, x):
    return _reference_front(a, b, x) * _reference_fraction(a, b, x) / a


def _reference_fraction(a, b, x):
    """The modified-Lentz continued fraction of I_x(a, b)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _LENTZ_TINY:
        d = _LENTZ_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _LENTZ_MAX_ITER + 1):
        m2 = 2 * m
        numerator = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + numerator * d
        if abs(d) < _LENTZ_TINY:
            d = _LENTZ_TINY
        c = 1.0 + numerator / c
        if abs(c) < _LENTZ_TINY:
            c = _LENTZ_TINY
        d = 1.0 / d
        h *= d * c
        numerator = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + numerator * d
        if abs(d) < _LENTZ_TINY:
            d = _LENTZ_TINY
        c = 1.0 + numerator / c
        if abs(c) < _LENTZ_TINY:
            c = _LENTZ_TINY
        d = 1.0 / d
        step = d * c
        h *= step
        if abs(step - 1.0) < _LENTZ_EPS:
            break
    return h


# --- the Givens rotation with its loops -------------------------------------
# ``_fold_row`` as it was before it was written out for the 4 x 5 triangle:
# a loop over the triangle's rows and, inside it, over the later columns, on
# a list copy of the row. The written-out kernel must leave every triangle
# the same to the bit.


def reference_fold_row(triangle, row):
    """Rotate one augmented row into ``triangle``, in place."""
    x = list(row)
    for i, r in enumerate(triangle):
        xi = x[i]
        if xi == 0.0:
            continue
        ri = r[i]
        radius = math.hypot(ri, xi)
        c = ri / radius
        s = xi / radius
        r[i] = radius
        for j in range(i + 1, N_PARAMETERS + 1):
            rj = r[j]
            xj = x[j]
            r[j] = c * rj + s * xj
            x[j] = c * xj - s * rj


# --- the bilinear fit and its Householder reference -------------------------
# ``walk_fit`` is the fit of one ``window_fits`` window over all the rows.
# ``reference_fit_bilinear`` is the same fit as one Householder QR of the
# column-scaled design, written with generator expressions and element-wise
# loops. The Givens kernel rounds differently by design, so the two agree on
# outcome (the same error type and message, or success for both) and, where
# both succeed, each meets the accuracy contract of ``exact_oracle`` against
# exact arithmetic; their bits may differ.


def walk_fit(trends, targets, first=0):
    """``(coefficients, rss, variance_factors)`` of the one window of a
    ``window_fits`` walk over the rows of ``(a, b)`` trends and targets,
    numbered from ``first``."""
    rows = [design_row(a, b, t) for (a, b), t in zip(trends, targets)]
    return next(window_fits(rows, len(rows), first))


def reference_fit_bilinear(trends, targets):
    """The Householder fit: ``(coefficients, rss, variance_factors)``."""
    m = len(trends)
    if m != len(targets):
        raise DomainError("trends and targets differ in length")
    if m < MIN_DESIGN_ROWS:
        raise TooFewRows(f"{m} design rows; need at least {MIN_DESIGN_ROWS}")
    rows = [(1.0, a, b, a * b) for a, b in trends]
    scales = [math.sqrt(math.fsum(row[j] ** 2 for row in rows)) for j in range(N_PARAMETERS)]
    if 0.0 in scales:
        raise RankDeficient(f"design column {scales.index(0.0)} is all zero")
    columns = [[row[j] / scales[j] for row in rows] for j in range(N_PARAMETERS)]
    columns.append(list(targets))
    for j in range(N_PARAMETERS):
        pivot = columns[j]
        norm = math.sqrt(math.fsum(v * v for v in pivot[j:]))
        if norm < RANK_TOLERANCE:
            raise RankDeficient("design matrix is numerically rank-deficient")
        diagonal = -math.copysign(norm, pivot[j])
        v = pivot[j:]
        v[0] -= diagonal
        tau = 1.0 / (norm * (norm + abs(pivot[j])))
        for column in columns[j + 1 :]:
            factor = tau * math.fsum(vi * ci for vi, ci in zip(v, column[j:]))
            for i, vi in enumerate(v, start=j):
                column[i] -= factor * vi
        pivot[j] = diagonal
    r = [[columns[c][i] for c in range(N_PARAMETERS)] for i in range(N_PARAMETERS)]
    z = _reference_back_substitute(r, columns[N_PARAMETERS][:N_PARAMETERS])
    beta = tuple(z[j] / scales[j] for j in range(N_PARAMETERS))
    rss = math.fsum(
        (math.fsum(c * v for c, v in zip(beta, row)) - t) ** 2
        for row, t in zip(rows, targets)
    )
    r_inverse_columns = [
        _reference_back_substitute(r, [float(i == k) for i in range(N_PARAMETERS)])
        for k in range(N_PARAMETERS)
    ]
    variance_factors = tuple(
        math.fsum(col[i] ** 2 for col in r_inverse_columns) / scales[i] ** 2
        for i in range(N_PARAMETERS)
    )
    return beta, rss, variance_factors


def _reference_back_substitute(r, rhs):
    """Solve ``R x = rhs`` for upper-triangular ``R``."""
    n = len(rhs)
    x = [0.0] * n
    for i in range(n - 1, -1, -1):
        tail = math.fsum(r[i][j] * x[j] for j in range(i + 1, n))
        x[i] = (rhs[i] - tail) / r[i][i]
    return x


# --- the whole-text parser and the list-based series checks -----------------
# ``parse_rate_series`` as it was when it split the whole text at once, and
# the checks ``DailyRateSeries`` made over lists of its dates and rates: the
# oracles of the piecewise parser and of the one-dict constructor, which must
# give the same series, or the same error with the same message.


def reference_parse_rate_series(text):
    """``parse_rate_series`` over ``text.splitlines()`` in one list."""
    rows = []
    seen_header = False
    tenor_label = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
            rows.append((day, rate))
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
    if not seen_header:
        raise ParseError(None, f"missing {CSV_HEADER!r} header")
    rows.sort(key=_FIRST)
    if not all(map(operator.lt, map(_FIRST, rows), map(_FIRST, rows[1:]))):
        neighbours = zip(rows, rows[1:])
        raise DuplicateDate(next(d for (d, _), (e, _) in neighbours if d == e))
    return DailyRateSeries(tuple(rows), tenor_label)


def reference_series_error(entries, label=""):
    """The message of the DomainError ``DailyRateSeries(entries, label)``
    raises, from its checks over lists of the dates and the rates; None
    when it accepts them."""
    try:
        _check_tenor_label(label)
    except DomainError as exc:
        return str(exc)
    try:
        entries = tuple(entries)
    except TypeError:
        return f"entries must be (date, rate) pairs, got {entries!r}"
    try:
        dates = [d for d, _ in entries]
    except (TypeError, ValueError):
        bad = next(e for e in entries if type(e) not in (tuple, list) or len(e) != 2)
        return f"entries must be (date, rate) pairs, got {bad!r}"
    rates = [r for _, r in entries]
    if not all(map(is_plain_date_type, set(map(type, dates)))):
        bad = next(d for d in dates if not is_plain_date_type(type(d)))
        return f"fixing dates must be datetime.date, got {bad!r}"
    if set(map(type, entries)) != {tuple} or set(map(type, rates)) != {float}:
        rates = list(map(_finite, rates))
        if None in rates:
            day, rate = entries[rates.index(None)]
            return f"rate on {day.isoformat()} must be a finite real number, got {rate!r}"
    if not all(map(math.isfinite, rates)):
        bad = next(d for d, r in zip(dates, rates) if not math.isfinite(r))
        return f"rate on {bad.isoformat()} is not finite"
    if not all(map(operator.lt, dates, dates[1:])):
        return "fixing dates must be strictly increasing"
    return None


# --- the writer as it was before its pattern tables and row templates ------
# The generator that walked every year's days through ``_banking`` and drew
# each noise value with ``next()`` on a generator of the LCG's uniforms, and
# the serializer that formatted each row with its own f-string: the oracles
# of ``generate_synthetic_series`` and ``_serialized_pieces``, which must
# give the same arrays, the same text in the same pieces and the same errors.


def reference_lcg_uniforms(seed):
    """The documented 64-bit LCG's stream: one uniform in [0, 1) per draw."""
    state = seed & _LCG_MASK
    while True:
        state = (_LCG_MULTIPLIER * state + _LCG_INCREMENT) & _LCG_MASK
        yield (state >> 11) / float(1 << 53)


def reference_generate(spec, years, cal):
    """``(ordinals, rates)`` of ``generate_synthetic_series(spec, years,
    cal)`` as two lists, every year's banking days walked day by day."""
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
    uniforms = reference_lcg_uniforms(spec.seed)
    ordinals, rates = [], []
    for year in year_list:
        slope, intercept = spec.year_trends[year]
        jump = bilinear_surface(spec.jump, slope, intercept)
        event = event_date(year).toordinal()
        days = range(date(year, *GENERATION_START).toordinal(), date(year, 12, 31).toordinal() + 1)
        for o in _banking(days, cal):
            x = o - event
            noise = spec.noise_amplitude * (2.0 * next(uniforms) - 1.0)
            rate = slope * x + intercept + noise
            if x >= 1:
                rate += jump
            ordinals.append(o)
            rates.append(rate)
    if not all(map(math.isfinite, rates)):
        bad = next(o for o, r in zip(ordinals, rates) if not math.isfinite(r))
        raise DomainError(f"rate on {date.fromordinal(bad).isoformat()} is not finite")
    return ordinals, rates


def reference_serialized_pieces(series):
    """``_serialized_pieces(series)``, each row formatted by its own f-string,
    the header in one piece and the rows of each year in one."""
    head = f"# tenor: {series.tenor_label}\n" if series.tenor_label else ""
    yield head + CSV_HEADER + "\n"
    days = map(date.fromordinal, series._ordinals)
    for _, rows in groupby(zip(days, series._rates), key=lambda row: row[0].year):
        yield "".join([f"{d.isoformat()},{rate!r}\n" for d, rate in rows])
