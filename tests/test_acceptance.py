"""Acceptance gate: one test per criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s``. Criterion 5 needs a
user-supplied USD 2M rate series (1999-2018) via $XMASJUMP_LIBOR_CSV and
is skipped (waived) when none is present. Only criteria 4 and 6 need scipy
and numpy, which they import themselves.
"""

import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from helpers import distinct_trends, planted_series
from xmasjump import backtest, fit_window_model, parse_rate_series
from xmasjump.regression_core import fit_intercept_fixed_slope, fit_simple_ols
from xmasjump.stat_inference import student_t_two_sided_p

LIBOR_ENV_VAR = "XMASJUMP_LIBOR_CSV"

# Published walk-forward results for USD 2M, targets 2015-2018, and the
# 2004-2018 model coefficients. Checked only against user-supplied data.
PUBLISHED_PREDICTED = {2015: -0.0709, 2016: -0.0306, 2017: -0.0548, 2018: -0.0180}
PUBLISHED_REALIZED = {2015: -0.0599, 2016: -0.0269, 2017: -0.0291, 2018: -0.0228}
PUBLISHED_ERROR = {2015: -0.0110, 2016: -0.0037, 2017: -0.0257, 2018: 0.0048}
PUBLISHED_COEFFICIENTS = (0.00473, -9.265, -0.00238, 2.016)


def _report(number: int, label: str) -> None:
    print(f"\nCRITERION {number} ({label}): PASS")


def test_criterion_1_planted_model_recovery(cal):
    started = time.perf_counter()
    planted = (0.005, -9.0, -0.002, 2.0)
    series, _ = planted_series(2000, 2014, planted, noise=0.0)
    model = fit_window_model(2000, 2014, series, cal)
    for got, want in zip(model.coefficients, planted):
        assert abs(got - want) < 1e-9, (got, want)
    assert model.adjusted_r2 >= 1.0 - 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _report(1, "planted-model recovery within 1e-9")


def test_criterion_2_intercept_gap_equals_mean_difference():
    started = time.perf_counter()
    rng = random.Random(41225)
    for _ in range(1000):
        slope = rng.uniform(-0.05, 0.05)
        intercept = rng.uniform(0.0, 5.0)
        k = rng.randint(2, 5)
        offsets = sorted(rng.sample(range(2, 7), k))
        rates = [rng.uniform(0.0, 6.0) for _ in offsets]
        delta = fit_intercept_fixed_slope(offsets, rates, slope) - intercept
        mean_rate = math.fsum(rates) / k
        mean_trend = math.fsum(slope * x + intercept for x in offsets) / k
        assert abs(delta - (mean_rate - mean_trend)) < 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _report(2, "intercept-gap identity on 1000 fixtures within 1e-12")


def test_criterion_3_error_identity(cal):
    series, _ = planted_series(
        1999, 2019, (0.005, -9.0, -0.002, 2.0), noise=0.02, seed=14
    )
    reports = [backtest(series, cal, 2015, 2018)]
    real_path = os.environ.get(LIBOR_ENV_VAR)
    if real_path:
        real = parse_rate_series(Path(real_path).read_text())
        reports.append(backtest(real, cal, 2015, 2018))
    for report in reports:
        for row in report.rows:
            assert abs(row.error - (row.predicted_jump - row.realized_jump)) < 1e-12
            assert (
                abs(row.error - (row.corrected_mean_estimate - row.realized_mean))
                < 1e-12
            )
    _report(3, "backtest error identity within 1e-12")


def test_criterion_4_t_distribution_accuracy():
    def density(u, df):
        log_norm = (
            math.lgamma((df + 1) / 2.0)
            - math.lgamma(df / 2.0)
            - 0.5 * math.log(df * math.pi)
        )
        return math.exp(log_norm - (df + 1) / 2.0 * math.log(1.0 + u * u / df))

    from scipy import integrate  # here, so the other criteria run without scipy

    started = time.perf_counter()
    t_grid = (0.1, 0.5, 1.0, 1.5, 2.0, 2.201, 3.0, 4.0, 5.0, 6.0)
    for df in range(1, 31):
        for t in t_grid:
            tail, _ = integrate.quad(density, t, math.inf, args=(df,))
            assert abs(student_t_two_sided_p(t, df) - 2.0 * tail) < 1e-8, (t, df)
    assert abs(student_t_two_sided_p(2.201, 11) - 0.050) < 0.0005
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _report(4, "two-sided p vs adaptive quadrature within 1e-8")


@pytest.mark.skipif(
    not os.environ.get(LIBOR_ENV_VAR),
    reason=(
        "waived: no licensed USD 2M series available; set $XMASJUMP_LIBOR_CSV "
        "to a 1999-2018 rate file to run the published-table reproduction"
    ),
)
def test_criterion_5_published_table_reproduction(cal):
    series = parse_rate_series(Path(os.environ[LIBOR_ENV_VAR]).read_text())
    report = backtest(series, cal, 2015, 2018, window_len=15)
    for row in report.rows:
        year = row.target_year
        assert abs(row.predicted_jump - PUBLISHED_PREDICTED[year]) <= 0.003, year
        assert abs(row.realized_jump - PUBLISHED_REALIZED[year]) <= 0.003, year
        assert abs(row.error - PUBLISHED_ERROR[year]) <= 0.003, year
    model = fit_window_model(2004, 2018, series, cal)
    for got, want in zip(model.coefficients, PUBLISHED_COEFFICIENTS):
        assert abs(got - want) <= 0.02 * abs(want), (got, want)
    _report(5, "published walk-forward table reproduced")


def test_criterion_6_ols_matches_grid_refinement_oracle():
    import numpy as np  # here, so the other criteria run without numpy

    def grid_minimizer(xs, ys):
        """Brute-force refinement over a box guaranteed to hold the optimum.

        |slope*| <= sqrt(Syy/Sxx) by Cauchy-Schwarz, and the optimal
        intercept is mean(y) - slope * mean(x).
        """
        xs = np.asarray(xs)
        ys = np.asarray(ys)
        x_mean = xs.mean()
        sxx = float(((xs - x_mean) ** 2).sum())
        syy = float(((ys - ys.mean()) ** 2).sum())
        half_a = math.sqrt(syy / sxx) + 1.0
        half_b = half_a * abs(x_mean) + 1.0
        best_a, best_b = 0.0, float(ys.mean())
        for _ in range(18):
            a_grid = np.linspace(best_a - half_a, best_a + half_a, 21)
            b_grid = np.linspace(best_b - half_b, best_b + half_b, 21)
            surface = a_grid[:, None, None] * xs + b_grid[None, :, None]
            loss = ((surface - ys) ** 2).sum(axis=-1)
            i, j = np.unravel_index(np.argmin(loss), loss.shape)
            best_a, best_b = float(a_grid[i]), float(b_grid[j])
            half_a = 2.0 * (a_grid[1] - a_grid[0])
            half_b = 2.0 * (b_grid[1] - b_grid[0])
        return best_a, best_b

    started = time.perf_counter()
    rng = random.Random(606)
    for _ in range(200):
        n = rng.randint(2, 10)
        xs = [rng.uniform(-10.0, 10.0) for _ in range(n)]
        while max(xs) - min(xs) < 0.5:
            xs = [rng.uniform(-10.0, 10.0) for _ in range(n)]
        ys = [rng.uniform(-5.0, 5.0) for _ in range(n)]
        slope, intercept = fit_simple_ols(xs, ys)
        a_ref, b_ref = grid_minimizer(xs, ys)
        assert abs(slope - a_ref) < 1e-6, (slope, a_ref)
        assert abs(intercept - b_ref) < 1e-6, (intercept, b_ref)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"took {elapsed:.3f}s"
    _report(6, "closed-form line fit vs grid refinement within 1e-6")


def test_criterion_7_backtest_output_is_byte_identical(tmp_path):
    spec_doc = {
        "tenor": "SYN-2M",
        "seed": 3,
        "noise": 0.01,
        "jump": {"coefficients": [0.005, -9.0, -0.002, 2.0]},
        "years": {str(y): list(ab) for y, ab in distinct_trends(1999, 2019).items()},
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_doc))
    data_path = tmp_path / "rates.csv"
    generate = subprocess.run(
        [sys.executable, "-m", "xmasjump", "generate", "--spec", str(spec_path), "--out", str(data_path)],
        capture_output=True,
    )
    assert generate.returncode == 0, generate.stderr
    command = [
        sys.executable,
        "-m",
        "xmasjump",
        "backtest",
        "2015",
        "2018",
        "--data",
        str(data_path),
        "--format",
        "json-like",
    ]
    first = subprocess.run(command, capture_output=True)
    second = subprocess.run(command, capture_output=True)
    assert first.returncode == 0, first.stderr
    assert second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.strip(), "no output produced"
    _report(7, "repeated machine-readable backtests byte-identical")
