"""Command-line behavior: rendering, exit codes, round-trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import distinct_trends
from xmasjump import HolidayCalendar, backtest, parse_rate_series
from xmasjump.cli import EXIT_BROKEN_PIPE, EXIT_DATA_ERROR, EXIT_OK, EXIT_USAGE, main

PLANTED = (0.005, -9.0, -0.002, 2.0)
DEMO_RATES = Path(__file__).resolve().parents[1] / "fixtures" / "demo_rates.csv"


def write_spec(path, first_year, last_year, jump=None, noise=0.0, seed=3):
    doc = {
        "tenor": "SYN-2M",
        "seed": seed,
        "noise": noise,
        "jump": jump if jump is not None else {"coefficients": list(PLANTED)},
        "years": {
            str(y): list(ab)
            for y, ab in distinct_trends(first_year, last_year).items()
        },
    }
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture()
def fixture_csv(tmp_path):
    spec = write_spec(tmp_path / "spec.json", 1999, 2019)
    out = tmp_path / "rates.csv"
    assert main(["generate", "--spec", str(spec), "--out", str(out)]) == EXIT_OK
    return out


class TestGenerate:
    def test_writes_deterministic_fixture(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "spec.json", 2017, 2018, jump={"fixed": 0.1})
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["generate", "--spec", str(spec), "--out", str(out_a)]) == EXIT_OK
        assert main(["generate", "--spec", str(spec), "--out", str(out_b)]) == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()
        summary = capsys.readouterr().out
        assert str(out_b) in summary
        assert "SYN-2M" in summary

    def test_malformed_spec(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = tmp_path / "out.csv"
        assert main(["generate", "--spec", str(bad), "--out", str(out)]) == EXIT_DATA_ERROR
        assert "error:" in capsys.readouterr().err

    def test_missing_spec_file(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        missing = tmp_path / "nope.json"
        assert (
            main(["generate", "--spec", str(missing), "--out", str(out)])
            == EXIT_DATA_ERROR
        )
        assert str(missing) in capsys.readouterr().err

    def test_unwritable_output(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "spec.json", 2018, 2018)
        out = tmp_path / "no-such-dir" / "out.csv"
        assert main(["generate", "--spec", str(spec), "--out", str(out)]) == EXIT_DATA_ERROR


class TestFitYear:
    def test_planted_jump_prints_4_decimals(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "spec.json", 2018, 2018, jump={"fixed": 0.25})
        out = tmp_path / "rates.csv"
        main(["generate", "--spec", str(spec), "--out", str(out)])
        capsys.readouterr()
        assert main(["fit-year", "2018", "--data", str(out)]) == EXIT_OK
        text = capsys.readouterr().out
        assert "0.2500" in text
        assert "jump" in text

    def test_missing_data_file_names_the_path(self, tmp_path, capsys):
        missing = tmp_path / "absent.csv"
        assert main(["fit-year", "2018", "--data", str(missing)]) == EXIT_DATA_ERROR
        assert str(missing) in capsys.readouterr().err

    def test_insufficient_pre_window(self, fixture_csv, capsys):
        # 1999 is the first generated year; its window has no 1998 data
        assert main(["fit-year", "1998", "--data", str(fixture_csv)]) == EXIT_DATA_ERROR
        err = capsys.readouterr().err
        assert "error:" in err

    @pytest.mark.parametrize("year", ["0", "10000"])
    def test_year_outside_the_date_range(self, year, fixture_csv, capsys):
        assert main(["fit-year", year, "--data", str(fixture_csv)]) == EXIT_DATA_ERROR
        assert capsys.readouterr().err == f"error: year {year} lies outside 1..9999\n"

    def test_data_file_that_is_not_utf8(self, tmp_path, capsys):
        data = tmp_path / "rates.csv"
        data.write_bytes(b"date,rate\n2018-12-24,\xff\n")
        assert main(["fit-year", "2018", "--data", str(data)]) == EXIT_DATA_ERROR
        assert capsys.readouterr().err.startswith("error:")

    def test_json_like_format(self, fixture_csv, capsys):
        assert (
            main(["fit-year", "2018", "--data", str(fixture_csv), "--format", "json-like"])
            == EXIT_OK
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["year"] == 2018
        assert abs(doc["jump_delta"] - (doc["post_intercept"] - doc["intercept_b"])) < 1e-12


class TestBacktestCommand:
    def test_table_structure(self, fixture_csv, capsys):
        assert main(["backtest", "2015", "2018", "--data", str(fixture_csv)]) == EXIT_OK
        out = capsys.readouterr().out
        lines = out.splitlines()
        labels = [
            "Model years",
            "Target year",
            "beta0 (1)",
            "beta1 (a)",
            "beta2 (b)",
            "beta3 (a*b)",
            "Adj R^2",
            "Predicted jump",
            "Realized jump",
            "Mean estimate",
            "Realized mean",
            "Error",
        ]
        assert [line.split("  ")[0].strip() for line in lines] == labels
        assert "2000-2014" in lines[0]
        # p-values accompany the final column's coefficients only
        assert lines[2].count("(p=") == 1
        # exact planted model: the error row is all zeros at 4 decimals
        assert "0.0000" in lines[-1]
        assert "," not in out  # locale-independent rendering

    def test_json_round_trips_to_the_in_memory_report(self, fixture_csv, capsys):
        assert (
            main(
                [
                    "backtest",
                    "2015",
                    "2018",
                    "--data",
                    str(fixture_csv),
                    "--format",
                    "json-like",
                ]
            )
            == EXIT_OK
        )
        parsed = json.loads(capsys.readouterr().out)
        series = parse_rate_series(fixture_csv.read_text())
        report = backtest(series, HolidayCalendar(), 2015, 2018)
        assert parsed == report.to_dict()

    def test_repeated_runs_are_identical(self, fixture_csv, capsys):
        main(["backtest", "2015", "2018", "--data", str(fixture_csv), "--format", "json-like"])
        first = capsys.readouterr().out
        main(["backtest", "2015", "2018", "--data", str(fixture_csv), "--format", "json-like"])
        second = capsys.readouterr().out
        assert first == second

    def test_target_beyond_coverage(self, fixture_csv, capsys):
        assert main(["backtest", "2015", "2030", "--data", str(fixture_csv)]) == EXIT_DATA_ERROR
        assert "error:" in capsys.readouterr().err

    def test_window_len_flag(self, fixture_csv, capsys):
        assert (
            main(
                [
                    "backtest",
                    "2015",
                    "2015",
                    "--window-len",
                    "10",
                    "--data",
                    str(fixture_csv),
                ]
            )
            == EXIT_OK
        )
        assert "2005-2014" in capsys.readouterr().out


class TestPredictCommand:
    def test_pinned_model_years_and_self_consistency(self, fixture_csv, capsys):
        rc = main(
            [
                "predict",
                "2019",
                "--data",
                str(fixture_csv),
                "--model-years",
                "2004-2018",
                "--format",
                "json-like",
            ]
        )
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["model"]["window_years"] == [2004, 2018]
        c0, c1, c2, c3 = doc["model"]["coefficients"]
        a = doc["forecast"]["slope_a"]
        b = doc["forecast"]["intercept_b"]
        want = c0 + c1 * a + c2 * b + c3 * a * b
        assert abs(doc["forecast"]["predicted_jump"] - want) < 1e-12
        # the fixture was planted from PLANTED, so the forecast matches it
        planted = PLANTED[0] + PLANTED[1] * a + PLANTED[2] * b + PLANTED[3] * a * b
        assert abs(doc["forecast"]["predicted_jump"] - planted) < 1e-8

    def test_default_window_precedes_the_target(self, fixture_csv, capsys):
        assert main(["predict", "2019", "--data", str(fixture_csv)]) == EXIT_OK
        assert "2004-2018" in capsys.readouterr().out

    def test_truncated_series(self, tmp_path, fixture_csv, capsys):
        # cut the series before the 2019 pre-window completes
        kept = [
            line
            for line in fixture_csv.read_text().splitlines()
            if not line.startswith("2019-12-1") and not line.startswith("2019-12-2")
            and not line.startswith("2019-12-3")
        ]
        short = tmp_path / "short.csv"
        short.write_text("\n".join(kept) + "\n")
        assert main(["predict", "2019", "--data", str(short)]) == EXIT_DATA_ERROR
        assert "error:" in capsys.readouterr().err

    def test_target_year_without_post_window_banking_days(self, tmp_path, capsys):
        # Dec 27, 30 and 31 closed in 2019; Dec 28-29 is a weekend
        override = tmp_path / "cal.txt"
        override.write_text("2019-12-27\n2019-12-30\n2019-12-31\n--12-25\n--12-26\n--01-01\n")
        argv = ["predict", "2019", "--data", str(DEMO_RATES), "--calendar", str(override)]
        assert main(argv) == EXIT_DATA_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: 0 banking days with offsets 2..6 after Dec 25 2019\n"

    def test_truncated_series_same_error_for_backtest(self, tmp_path, fixture_csv, capsys):
        kept = [
            line
            for line in fixture_csv.read_text().splitlines()
            if not line.startswith("2019-12") or line[5:10] <= "12-09"
        ]
        short = tmp_path / "short.csv"
        short.write_text("\n".join(kept) + "\n")
        errors = []
        for argv in (["predict", "2019"], ["backtest", "2019", "2019"], ["fit-year", "2019"]):
            assert main(argv + ["--data", str(short)]) == EXIT_DATA_ERROR
            errors.append(capsys.readouterr().err)
        want = (
            "error: pre-window for 2019 runs through 2019-12-24,"
            " but the series ends at 2019-12-09\n"
        )
        assert errors == [want] * 3


class TestJsonKeyOrder:
    """``--format json-like`` keys follow the records' declared field order."""

    def test_fit_year(self, capsys):
        argv = ["fit-year", "2018", "--data", str(DEMO_RATES), "--format", "json-like"]
        assert main(argv) == EXIT_OK
        assert list(json.loads(capsys.readouterr().out)) == [
            "year",
            "slope_a",
            "intercept_b",
            "post_intercept",
            "jump_delta",
            "post_offsets",
            "post_mean",
            "pre_warning",
            "post_warning",
        ]

    def test_predict(self, capsys):
        argv = ["predict", "2019", "--data", str(DEMO_RATES), "--format", "json-like"]
        assert main(argv) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == ["model", "forecast"]
        assert list(doc["model"]) == [
            "window_years",
            "coefficients",
            "inference",
            "adjusted_r2",
        ]
        assert [list(ci) for ci in doc["model"]["inference"]] == [
            ["estimate", "standard_error", "t_statistic", "p_value"]
        ] * 4
        assert list(doc["forecast"]) == [
            "target_year",
            "slope_a",
            "intercept_b",
            "predicted_jump",
            "corrected_mean_estimate",
        ]


class TestUsageErrors:
    def test_bad_model_years(self, fixture_csv):
        assert (
            main(["predict", "2019", "--data", str(fixture_csv), "--model-years", "oops"])
            == EXIT_USAGE
        )

    def test_reversed_model_years(self, fixture_csv):
        assert (
            main(
                [
                    "predict",
                    "2019",
                    "--data",
                    str(fixture_csv),
                    "--model-years",
                    "2018-2004",
                ]
            )
            == EXIT_USAGE
        )

    def test_model_years_span_too_short(self, fixture_csv, capsys):
        argv = ["predict", "2019", "--data", str(fixture_csv), "--model-years", "2016-2018"]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "at least 5 years" in err
        assert "usage: xmasjump predict" in err

    @pytest.mark.parametrize("target, years", [("2019", "2005-2019"), ("2015", "2004-2018")])
    def test_model_years_must_precede_the_target(self, fixture_csv, capsys, target, years):
        argv = ["predict", target, "--data", str(fixture_csv), "--model-years", years]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"must end before the target year {target}" in captured.err
        assert "usage: xmasjump predict" in captured.err

    def test_window_len_too_small(self, fixture_csv, capsys):
        assert (
            main(["backtest", "2015", "2018", "--data", str(fixture_csv), "--window-len", "4"])
            == EXIT_USAGE
        )
        assert "usage: xmasjump backtest" in capsys.readouterr().err

    def test_pre_days_too_small(self, fixture_csv):
        assert (
            main(["fit-year", "2018", "--data", str(fixture_csv), "--pre-days", "1"])
            == EXIT_USAGE
        )

    def test_unknown_command(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_no_data_source(self, monkeypatch, capsys):
        monkeypatch.delenv("XMASJUMP_DATA", raising=False)
        assert main(["fit-year", "2018"]) == EXIT_USAGE
        assert "usage: xmasjump fit-year" in capsys.readouterr().err

    def test_help_exits_zero(self):
        assert main(["--help"]) == EXIT_OK

    def test_help_lists_every_exit_code(self, capsys):
        main(["--help"])
        epilog = " ".join(capsys.readouterr().out.split())
        for code in (EXIT_OK, EXIT_DATA_ERROR, EXIT_USAGE, EXIT_BROKEN_PIPE):
            assert f" {code} " in epilog


class TestEnvironmentAndCalendar:
    def test_env_var_supplies_the_data_path(self, fixture_csv, monkeypatch, capsys):
        monkeypatch.setenv("XMASJUMP_DATA", str(fixture_csv))
        assert main(["fit-year", "2018"]) == EXIT_OK
        assert "jump" in capsys.readouterr().out

    def test_calendar_override_changes_the_post_window(self, fixture_csv, tmp_path, capsys):
        # closing Dec 27 recurring leaves 2018 with two post observations
        override = tmp_path / "cal.txt"
        override.write_text("--12-26\n--01-01\n--12-27\n")
        rc = main(
            [
                "fit-year",
                "2018",
                "--data",
                str(fixture_csv),
                "--calendar",
                str(override),
                "--format",
                "json-like",
            ]
        )
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["post_warning"] is not None and "2" in doc["post_warning"]

    def test_bad_calendar_file(self, fixture_csv, tmp_path, capsys):
        override = tmp_path / "cal.txt"
        override.write_text("garbage\n")
        rc = main(["fit-year", "2018", "--data", str(fixture_csv), "--calendar", str(override)])
        assert rc == EXIT_DATA_ERROR
        assert "error:" in capsys.readouterr().err


class TestClosedOutput:
    """Output that cannot be written: a reader that stops early is not a
    data error, a full device is."""

    @pytest.fixture(scope="class")
    def backtest_command(self, tmp_path_factory):
        # 186 targets print about 250 KB of JSON, several times a pipe's
        # buffer, so the writer is still writing when the reader leaves.
        directory = tmp_path_factory.mktemp("long")
        spec = write_spec(directory / "spec.json", 1900, 2100)
        data = directory / "rates.csv"
        assert main(["generate", "--spec", str(spec), "--out", str(data)]) == EXIT_OK
        command = [sys.executable, "-m", "xmasjump", "backtest", "1915", "2100"]
        return command + ["--data", str(data), "--format", "json-like"]

    @staticmethod
    def buffered_env():
        return {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}

    def test_reader_closing_the_pipe_exits_141_silently(self, backtest_command):
        with subprocess.Popen(
            backtest_command,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=self.buffered_env(),
        ) as process:
            assert process.stdout.readline() == b"{\n"
            process.stdout.close()
            stderr = process.stderr.read()
        assert process.returncode == EXIT_BROKEN_PIPE
        assert stderr == b""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device_is_a_data_error(self, backtest_command):
        with open("/dev/full", "w") as full:
            done = subprocess.run(
                backtest_command, stdout=full, stderr=subprocess.PIPE, env=self.buffered_env()
            )
        assert done.returncode == EXIT_DATA_ERROR
        assert done.stderr.startswith(b"error: [Errno 28] ")
        assert done.stderr.count(b"\n") == 1

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device_under_a_short_output_is_one_data_error(self):
        # the output fits in stdout's buffer, so only the final flush fails;
        # the exit-time flush must not fail again on the bytes it kept
        command = [sys.executable, "-m", "xmasjump", "fit-year", "2019", "--data", str(DEMO_RATES)]
        with open("/dev/full", "w") as full:
            done = subprocess.run(
                command, stdout=full, stderr=subprocess.PIPE, env=self.buffered_env()
            )
        assert done.returncode == EXIT_DATA_ERROR
        assert done.stderr.startswith(b"error: [Errno 28] ")
        assert done.stderr.count(b"\n") == 1
