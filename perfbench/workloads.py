"""Seeded inputs, command lines and output checks for the benchmark workloads.

All workloads run on one generated 201-year series (1900-2100, about 5000
fixings): per-year trends drawn from ``random.Random(seed)``, uniform noise
of amplitude ``NOISE`` from the generator's own LCG (seeded with the same
seed), and the planted bilinear jump of ``fixtures/demo_spec.json``. The
program only ever sees the files written here and an argv.

The checks do not compare against stored outputs of any one version of the
program. They recompute what the planted data implies, with a banking-day
calendar written out here from its definition (weekdays minus Dec 25, Dec 26
and Jan 1), and accept any output within a stated bound of it.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path
from typing import Callable

from xmasjump.data_io import (
    generate_synthetic_series,
    serialize_rate_series,
    synthetic_spec_from_json,
)
from xmasjump.market_calendar import HolidayCalendar

FIRST_YEAR, LAST_YEAR = 1900, 2100
WINDOW_LEN = 15  # the CLI's default fitting window
FIRST_TARGET = FIRST_YEAR + WINDOW_LEN
PRE_DAYS = 15  # the CLI's default pre-event window
NOISE = 0.01
JUMP_COEFFICIENTS = (0.005, -9.0, -0.002, 2.0)  # as in fixtures/demo_spec.json
SLOPES = (-0.02, 0.02)
INTERCEPTS = (0.5, 5.0)
TENOR = "SYN-BENCH"
# Slack for float rounding when comparing values the program derives from
# each other, and on top of every noise bound.
TOLERANCE = 1e-9

_HOLIDAYS = frozenset({(12, 25), (12, 26), (1, 1)})


@dataclass(frozen=True)
class Inputs:
    """Files written for one seed, plus what the checks need to know."""

    seed: int
    series_path: Path
    spec_path: Path
    out_path: Path
    trends: dict  # year -> (slope, intercept)
    entries: tuple  # the generated series as ((date, rate), ...)
    series_bytes: int
    spec_bytes: int

    @property
    def predict_target(self) -> int:
        return FIRST_TARGET + self.seed % (LAST_YEAR - FIRST_TARGET + 1)


def make_inputs(seed: int, directory: Path) -> Inputs:
    """Write the seed's spec and series into ``directory``."""
    rng = random.Random(seed)
    trends = {
        year: (rng.uniform(*SLOPES), rng.uniform(*INTERCEPTS))
        for year in range(FIRST_YEAR, LAST_YEAR + 1)
    }
    spec_text = json.dumps(
        {
            "tenor": TENOR,
            "seed": seed,
            "noise": NOISE,
            "jump": {"coefficients": list(JUMP_COEFFICIENTS)},
            "years": {str(year): list(trend) for year, trend in trends.items()},
        }
    )
    spec, years = synthetic_spec_from_json(spec_text)
    series = generate_synthetic_series(spec, years, HolidayCalendar())
    series_text = serialize_rate_series(series)
    spec_path = directory / "spec.json"
    series_path = directory / "series.csv"
    spec_path.write_text(spec_text)
    series_path.write_text(series_text)
    return Inputs(
        seed=seed,
        series_path=series_path,
        spec_path=spec_path,
        out_path=directory / "generated.csv",
        trends=trends,
        entries=series.entries,
        series_bytes=len(series_text.encode()),
        spec_bytes=len(spec_text.encode()),
    )


@dataclass(frozen=True)
class Workload:
    """One CLI command line and how to judge what it produced.

    ``observe`` turns an op's stdout into everything the op produced (for
    ``generate`` also the written file); ``check`` lists what is wrong
    with an observation, empty when it is correct.
    """

    name: str
    argv: list
    observe: Callable[[str], tuple]
    check: Callable[[tuple], list]


def build_workload(name: str, inputs: Inputs) -> Workload:
    data = ["--data", str(inputs.series_path), "--format", "json-like"]
    if name == "backtest-200y":
        argv = ["backtest", str(FIRST_TARGET), str(LAST_YEAR)] + data
        return Workload(name, argv, _stdout_only, lambda obs: check_backtest(inputs, obs[0]))
    if name == "predict-200y":
        argv = ["predict", str(inputs.predict_target)] + data
        return Workload(name, argv, _stdout_only, lambda obs: check_predict(inputs, obs[0]))
    if name == "generate-200y":
        argv = ["generate", "--spec", str(inputs.spec_path), "--out", str(inputs.out_path)]

        def observe(stdout: str) -> tuple:
            return stdout, inputs.out_path.read_text()

        return Workload(name, argv, observe, lambda obs: check_generate(inputs, *obs))
    raise ValueError(f"unknown workload {name!r}")


WORKLOAD_NAMES = ("backtest-200y", "predict-200y", "generate-200y")


def _stdout_only(stdout: str) -> tuple:
    return (stdout,)


# --- the independent oracle -------------------------------------------------


def is_banking_day(d: date) -> bool:
    return d.weekday() < 5 and (d.month, d.day) not in _HOLIDAYS


def pre_offsets(year: int) -> list:
    """Offsets from Dec 25 of the last PRE_DAYS banking days before it."""
    offsets = []
    x = -1
    while len(offsets) < PRE_DAYS:
        if is_banking_day(date(year, 12, 25) + timedelta(days=x)):
            offsets.append(x)
        x -= 1
    return offsets[::-1]


def post_offsets(year: int) -> list:
    """Offsets 2..6 (Dec 27-31) that fall on banking days."""
    return [x for x in range(2, 7) if is_banking_day(date(year, 12, 25) + timedelta(days=x))]


def planted_jump(slope: float, intercept: float) -> float:
    c0, c1, c2, c3 = JUMP_COEFFICIENTS
    return c0 + c1 * slope + c2 * intercept + c3 * slope * intercept


def line_weights(xs: list) -> tuple:
    """Weights that give a least-squares line's slope and intercept at 0.

    Both estimates are linear in the observed rates, so noise bounded by
    NOISE moves each by at most NOISE times the L1 norm of its weights.
    """
    n = len(xs)
    mean = sum(xs) / n
    sxx = sum((x - mean) ** 2 for x in xs)
    slope = [(x - mean) / sxx for x in xs]
    intercept = [1.0 / n - mean * w for w in slope]
    return slope, intercept


def jump_bound(year: int) -> float:
    """Largest error the noise can put into the year's measured jump.

    The jump is mean(post rate - slope * x) - intercept: the post rates
    enter with total weight 1, each pre rate through the fitted line.
    """
    slope_w, intercept_w = line_weights(pre_offsets(year))
    post = post_offsets(year)
    post_mean = sum(post) / len(post)
    pre = sum(abs(s * post_mean + i) for s, i in zip(slope_w, intercept_w))
    return NOISE * (1.0 + pre) + TOLERANCE


def _close(a: float, b: float, scale: float = 1.0) -> bool:
    return abs(a - b) <= TOLERANCE * max(1.0, abs(scale))


def _json_document(stdout: str, problems: list):
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        problems.append(f"stdout is not JSON: {exc}")
        return None
    if json.dumps(doc, indent=2) + "\n" != stdout:
        problems.append("stdout JSON does not round-trip")
    return doc


def check_backtest(inputs: Inputs, stdout: str) -> list:
    problems: list = []
    doc = _json_document(stdout, problems)
    if doc is None:
        return problems
    try:
        rows, models = doc["rows"], doc["models"]
        targets = list(range(FIRST_TARGET, LAST_YEAR + 1))
        if [row["target_year"] for row in rows] != targets:
            problems.append(f"expected one row per target {targets[0]}-{targets[-1]}")
        if len(models) != len(rows):
            problems.append(f"{len(models)} models for {len(rows)} rows")
        rates = dict(inputs.entries)
        for row, model in zip(rows, models):
            year = row["target_year"]
            if model["window_years"] != [year - WINDOW_LEN, year - 1]:
                problems.append(f"{year}: model years {model['window_years']}")
            if not _close(row["error"], row["predicted_jump"] - row["realized_jump"]):
                problems.append(f"{year}: error != predicted_jump - realized_jump")
            if not _close(row["error"], row["corrected_mean_estimate"] - row["realized_mean"]):
                problems.append(f"{year}: error != mean estimate - realized mean")
            planted = planted_jump(*inputs.trends[year])
            if abs(row["realized_jump"] - planted) > jump_bound(year):
                problems.append(
                    f"{year}: realized jump {row['realized_jump']} is more than"
                    f" {jump_bound(year):.4g} from the planted {planted}"
                )
            post = [rates[date(year, 12, 25) + timedelta(days=x)] for x in post_offsets(year)]
            if not _close(row["realized_mean"], math.fsum(post) / len(post)):
                problems.append(f"{year}: realized mean is not the post-window mean")
    except (KeyError, TypeError, IndexError) as exc:
        problems.append(f"malformed backtest document: {exc!r}")
    return problems


def check_predict(inputs: Inputs, stdout: str) -> list:
    problems: list = []
    doc = _json_document(stdout, problems)
    if doc is None:
        return problems
    year = inputs.predict_target
    try:
        forecast, model = doc["forecast"], doc["model"]
        if forecast["target_year"] != year:
            problems.append(f"forecast for {forecast['target_year']}, asked for {year}")
        if model["window_years"] != [year - WINDOW_LEN, year - 1]:
            problems.append(f"model years {model['window_years']}")
        slope, intercept = forecast["slope_a"], forecast["intercept_b"]
        planted_slope, planted_intercept = inputs.trends[year]
        slope_w, intercept_w = line_weights(pre_offsets(year))
        slope_bound = NOISE * sum(map(abs, slope_w)) + TOLERANCE
        intercept_bound = NOISE * sum(map(abs, intercept_w)) + TOLERANCE
        if abs(slope - planted_slope) > slope_bound:
            problems.append(f"trend slope {slope} not within {slope_bound:.3g} of {planted_slope}")
        if abs(intercept - planted_intercept) > intercept_bound:
            problems.append(
                f"trend intercept {intercept} not within {intercept_bound:.3g}"
                f" of {planted_intercept}"
            )
        c0, c1, c2, c3 = model["coefficients"]
        terms = (c0, c1 * slope, c2 * intercept, c3 * slope * intercept)
        if not _close(forecast["predicted_jump"], math.fsum(terms), sum(map(abs, terms))):
            problems.append("predicted jump is not the model surface at the trend")
        post = post_offsets(year)
        trend_mean = math.fsum(slope * x + intercept for x in post) / len(post)
        expected_mean = trend_mean + forecast["predicted_jump"]
        if not _close(forecast["corrected_mean_estimate"], expected_mean, expected_mean):
            problems.append("mean estimate is not trend mean plus predicted jump")
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"malformed predict document: {exc!r}")
    return problems


def check_generate(inputs: Inputs, stdout: str, written: str) -> list:
    problems: list = []
    expected_dates = [
        d
        for year in range(FIRST_YEAR, LAST_YEAR + 1)
        for d in (date(year, 11, 25) + timedelta(days=k) for k in range(37))
        if is_banking_day(d)
    ]
    summary = {k: v.strip() for k, _, v in (line.partition(" ") for line in stdout.splitlines())}
    expected_summary = {
        "written": str(inputs.out_path),
        "tenor": TENOR,
        "years": f"{FIRST_YEAR}-{LAST_YEAR}",
        "fixings": str(len(expected_dates)),
    }
    if summary != expected_summary:
        problems.append(f"summary {summary!r}, expected {expected_summary!r}")
    lines = [line for line in written.splitlines() if line and not line.startswith("#")]
    if f"# tenor: {TENOR}" not in written.splitlines()[:1] or lines[:1] != ["date,rate"]:
        problems.append("written file lacks the tenor comment or the date,rate header")
    try:
        parsed = [(date.fromisoformat(d), float(r)) for d, r in (ln.split(",") for ln in lines[1:])]
    except ValueError as exc:
        return problems + [f"written file does not parse: {exc}"]
    if [d for d, _ in parsed] != expected_dates:
        return problems + ["written dates are not the banking days of Nov 25 - Dec 31"]
    if tuple(parsed) != inputs.entries:
        problems.append("written file does not parse back to the generated series")
    for d, rate in parsed:
        slope, intercept = inputs.trends[d.year]
        x = (d - date(d.year, 12, 25)).days
        planted = slope * x + intercept + (planted_jump(slope, intercept) if x >= 1 else 0.0)
        if abs(rate - planted) > NOISE + TOLERANCE:
            problems.append(f"{d}: rate {rate} outside the noise band around {planted}")
            break
    return problems
