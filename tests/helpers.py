"""Shared fixture builders for the test suite."""

import math
import random
from datetime import timedelta

from xmasjump import (
    BilinearJump,
    DailyRateSeries,
    HolidayCalendar,
    SyntheticSpec,
    generate_synthetic_series,
)
from xmasjump.errors import (
    DomainError,
    IncompleteWindow,
    InsufficientData,
    MissingFixing,
    RankDeficient,
    TooFewRows,
)
from xmasjump.market_calendar import (
    NOMINAL_POST_COUNT,
    NOMINAL_PRE_SPAN_DAYS,
    POST_WINDOW_MIN,
    PRE_WINDOW_DAYS,
    PRE_WINDOW_MIN,
    event_date,
)
from xmasjump.regression_core import MIN_DESIGN_ROWS, N_PARAMETERS, RANK_TOLERANCE


def day_offset(d, year):
    """Signed whole days from December 25 of ``year`` to ``d``.

    For December dates of the same year this is day-of-month minus 25;
    years outside 1..9999 are a DomainError, as in ``event_date``.
    """
    return (d - event_date(year)).days


def line_value(fit, x):
    """The fitted line ``fit`` (a ``LineFit``) evaluated at offset ``x``."""
    return fit.slope * x + fit.intercept


def distinct_trends(first_year, last_year, seed=20231225):
    """Per-year (slope, intercept) pairs over realistic magnitudes."""
    rng = random.Random(seed)
    return {
        year: (rng.uniform(-0.02, 0.02), rng.uniform(0.5, 5.0))
        for year in range(first_year, last_year + 1)
    }


def constant_jump(value):
    """The jump rule that adds ``value`` to every post-event rate."""
    return BilinearJump((value, 0.0, 0.0, 0.0))


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
    """Banking-day offsets of December 27-31 from December 25."""
    event = event_date(year)
    days = reference_banking_days(event + timedelta(days=2), event + timedelta(days=6), cal)
    return tuple((d - event).days for d in days)


def reference_post_window(year, series, cal):
    """``post_window``: the covered post-event banking days and their rates."""
    event = event_date(year)
    picked = []
    for x in reference_post_window_offsets(year, cal):
        d = event + timedelta(days=x)
        if series.covers(d):
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
        warning = f"post-window has {len(picked)} observations, nominal {NOMINAL_POST_COUNT}"
    return tuple(x for x, _ in picked), tuple(r for _, r in picked), warning


# --- generator-expression reference for the bilinear fit -------------------
# ``regression_core.fit_bilinear`` and ``_back_substitute`` as they were with
# generator expressions and element-wise loops. The rewrite over lists,
# ``map`` and slice assignment must pass the same terms to every ``fsum`` and
# round every step the same way: results equal bit for bit, and errors equal
# in type and message.


def reference_fit_bilinear(trends, targets):
    """``fit_bilinear``: ``(coefficients, rss, variance_factors)``."""
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
