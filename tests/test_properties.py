"""Property tests for the walk-forward backtest.

The backtest must never let data from a target year's own post-event
window, or from any later year, into that target's model or prediction;
and on a complete series its target step must agree with ``predict_next``.
"""

from datetime import date

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import distinct_trends
from xmasjump import (
    BilinearJump,
    DailyRateSeries,
    HolidayCalendar,
    SyntheticSpec,
    backtest,
    generate_synthetic_series,
    predict_next,
)

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
