"""Shared fixture builders for the test suite."""

import random
from datetime import timedelta

from xmasjump import (
    DailyRateSeries,
    HolidayCalendar,
    SyntheticSpec,
    generate_synthetic_series,
)
from xmasjump.market_calendar import event_date


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
