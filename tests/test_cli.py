"""Command-line behavior: rendering, exit codes, round-trips."""

import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from helpers import distinct_trends
from xmasjump import (
    backtest,
    cli,
    data_io,
    fit_window_model,
    parse_rate_series,
    predict_next,
    yearly_observation,
)
from xmasjump.cli import EXIT_BROKEN_PIPE, EXIT_DATA_ERROR, EXIT_OK, EXIT_USAGE, main

PLANTED = (0.005, -9.0, -0.002, 2.0)
FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
DEMO_RATES = FIXTURES / "demo_rates.csv"
GOLDEN = Path(__file__).resolve().parent / "golden"
# The commands that read a rate series, with their positional arguments.
DATA_COMMANDS = [["fit-year", "2018"], ["backtest", "2015", "2018"], ["predict", "2019"]]


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

    @staticmethod
    def euro_tenor_spec(path):
        doc = json.loads((FIXTURES / "demo_spec.json").read_text())
        path.write_text(json.dumps(dict(doc, tenor="\u20acSTR")))
        return path

    @pytest.mark.parametrize("existing", [None, b"kept\n"], ids=["absent", "present"])
    def test_unprintable_summary_leaves_the_output_untouched(self, tmp_path, existing):
        # the summary names the tenor, which an ASCII stdout cannot print
        spec, out = self.euro_tenor_spec(tmp_path / "spec.json"), tmp_path / "out.csv"
        if existing is not None:
            out.write_bytes(existing)
        done = subprocess.run(
            [sys.executable, "-m", "xmasjump", "generate", "--spec", str(spec), "--out", str(out)],
            capture_output=True,
            env=dict(os.environ, PYTHONIOENCODING="ascii"),
        )
        assert done.returncode == EXIT_DATA_ERROR
        assert done.stdout == b""
        assert done.stderr.startswith(b"error: 'ascii' codec can't encode character '\\u20ac'")
        if existing is None:
            assert not out.exists()
        else:
            assert out.read_bytes() == existing

    def test_summary_goes_through_the_stdout_error_handler(self, tmp_path):
        spec, out = self.euro_tenor_spec(tmp_path / "spec.json"), tmp_path / "out.csv"
        done = subprocess.run(
            [sys.executable, "-m", "xmasjump", "generate", "--spec", str(spec), "--out", str(out)],
            capture_output=True,
            env=dict(os.environ, PYTHONIOENCODING="ascii:backslashreplace"),
        )
        assert done.returncode == EXIT_OK
        assert b"tenor    \\u20acSTR\n" in done.stdout
        assert parse_rate_series(out.read_text(encoding="utf-8")).tenor_label == "\u20acSTR"

    @staticmethod
    def surrogate_tenor_spec(path):
        doc = json.loads((FIXTURES / "demo_spec.json").read_text())
        path.write_text(json.dumps(dict(doc, tenor="\udcff")))  # as the escape "\\udcff"
        return path

    @pytest.mark.parametrize("existing", [None, b"previous\n"], ids=["absent", "present"])
    def test_a_tenor_label_utf8_cannot_encode_leaves_the_output_untouched(
        self, tmp_path, existing, monkeypatch, capsys
    ):
        # A lone surrogate passes a stdout that escapes it, and one without an
        # encoding, but could not be written to --out: the spec is refused.
        spec, out = self.surrogate_tenor_spec(tmp_path / "spec.json"), tmp_path / "out.csv"
        if existing is not None:
            out.write_bytes(existing)
        argv = ["generate", "--spec", str(spec), "--out", str(out)]
        done = subprocess.run(
            [sys.executable, "-m", "xmasjump", *argv],
            capture_output=True,
            env=dict(os.environ, PYTHONIOENCODING="utf-8:surrogateescape"),
        )
        monkeypatch.setattr(sys, "stdout", CountingSink())  # no encoding
        code = main(argv)
        message = "error: tenor label '\\udcff' cannot be written as UTF-8\n"
        assert (done.returncode, done.stdout, done.stderr) == (
            EXIT_DATA_ERROR, b"", message.encode())
        assert (code, sys.stdout.written, capsys.readouterr().err) == (
            EXIT_DATA_ERROR, 0, message)
        if existing is None:
            assert not out.exists()
        else:
            assert out.read_bytes() == existing

    def test_stdout_without_an_encoding_takes_any_summary(self, tmp_path, monkeypatch):
        spec, out = self.euro_tenor_spec(tmp_path / "spec.json"), tmp_path / "out.csv"
        monkeypatch.setattr(sys, "stdout", io.StringIO())  # encoding None
        assert main(["generate", "--spec", str(spec), "--out", str(out)]) == EXIT_OK
        assert "\u20acSTR" in sys.stdout.getvalue()
        assert out.exists()


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

    def test_one_post_window_banking_day_fails_on_every_path(self, tmp_path, capsys):
        # Dec 27 and 30 closed every year: 2019 keeps only Dec 31
        override = tmp_path / "cal.txt"
        override.write_text("--12-25\n--12-26\n--01-01\n--12-27\n--12-30\n")
        data = ["--data", str(DEMO_RATES), "--calendar", str(override)]
        errors = []
        for argv in (
            ["predict", "2019", "--window-len", "5"],
            ["backtest", "2019", "2019", "--window-len", "5"],
            ["fit-year", "2019"],
        ):
            assert main(argv + data) == EXIT_DATA_ERROR
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append(captured.err)
        assert errors == ["error: 1 banking days with offsets 2..6 after Dec 25 2019\n"] * 3

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


def _in_memory_tree(command, series, cal):
    """What ``command``'s ``--format json-like`` output should parse back to."""
    if command == "fit-year":
        return yearly_observation(2019, series, cal).to_dict()
    if command == "backtest":
        return backtest(series, cal, 2015, 2018).to_dict()
    model = fit_window_model(2004, 2018, series, cal)
    return {"model": model.to_dict(), "forecast": predict_next(series, cal, 2019, model).to_dict()}


@pytest.mark.parametrize(
    "argv",
    [["fit-year", "2019"], ["backtest", "2015", "2018"], ["predict", "2019"]],
    ids=["fit-year", "backtest", "predict"],
)
def test_json_round_trips_to_the_in_memory_report(argv, fixture_csv, cal, capsys):
    assert main(argv + ["--data", str(fixture_csv), "--format", "json-like"]) == EXIT_OK
    parsed = json.loads(capsys.readouterr().out)
    series = parse_rate_series(fixture_csv.read_text())
    assert parsed == _in_memory_tree(argv[0], series, cal)


DEMO_COMMANDS = pytest.mark.parametrize(
    "argv, golden",
    [
        (["fit-year", "2019"], "demo_fit_year_2019"),
        (["backtest", "2015", "2019"], "demo_backtest_2015_2019"),
        (
            ["predict", "2019", "--model-years", "2004-2018"],
            "demo_predict_2019_model_years_2004_2018",
        ),
    ],
    ids=["fit-year", "backtest", "predict"],
)


class TestDemoFixture:
    """The bundled fixture and its outputs, in both formats, byte for byte."""

    def test_generate_writes_the_demo_fixture(self, tmp_path):
        out = tmp_path / "rates.csv"
        argv = ["generate", "--spec", str(FIXTURES / "demo_spec.json"), "--out", str(out)]
        assert main(argv) == EXIT_OK
        assert out.read_bytes() == DEMO_RATES.read_bytes()

    @DEMO_COMMANDS
    def test_table_output_is_unchanged(self, argv, golden, capsys):
        assert main(argv + ["--data", str(DEMO_RATES)]) == EXIT_OK
        assert capsys.readouterr().out == (GOLDEN / f"{golden}.txt").read_text()

    @DEMO_COMMANDS
    def test_json_like_output_is_unchanged(self, argv, golden, capsys):
        assert main(argv + ["--data", str(DEMO_RATES), "--format", "json-like"]) == EXIT_OK
        assert capsys.readouterr().out == (GOLDEN / f"{golden}.json").read_text()

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
    def test_a_series_piped_in_reads_as_the_file_does(self, tmp_path):
        # A pipe cannot seek, so its text is read whole: the output is the
        # golden one, and a file at fault gives the error its path gives.
        argv = [sys.executable, "-m", "xmasjump", "predict", "2019", "--model-years", "2004-2018"]
        piped = subprocess.run(
            argv + ["--data", "/dev/stdin"], input=DEMO_RATES.read_bytes(), capture_output=True
        )
        assert (piped.returncode, piped.stderr) == (EXIT_OK, b"")
        assert piped.stdout == (GOLDEN / "demo_predict_2019_model_years_2004_2018.txt").read_bytes()
        lines = DEMO_RATES.read_bytes().split(b"\n")
        lines[5] = b"2000-02-30,1.0"  # a bad row, then a bad byte past the first 8 KiB
        lines[-2] += b"\xff"
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\n".join(lines))
        piped = subprocess.run(
            argv + ["--data", "/dev/stdin"], input=bad.read_bytes(), capture_output=True
        )
        named = subprocess.run(argv + ["--data", str(bad)], capture_output=True)
        assert piped.returncode == named.returncode == EXIT_DATA_ERROR
        assert piped.stderr == named.stderr
        assert piped.stderr.startswith(b"error: 'utf-8' codec can't decode byte 0xff in position ")

    def test_the_cli_module_runs_as_the_package_does(self):
        argv = ["fit-year", "2019", "--data", str(DEMO_RATES)]
        package, module = (
            subprocess.run([sys.executable, "-m", name, *argv], capture_output=True)
            for name in ("xmasjump", "xmasjump.cli")
        )
        assert package.returncode == module.returncode == EXIT_OK
        assert package.stdout == module.stdout == (GOLDEN / "demo_fit_year_2019.txt").read_bytes()
        assert package.stderr == module.stderr == b""


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

    def test_model_years_are_checked_before_the_calendar(self, tmp_path, capsys):
        override = tmp_path / "cal.txt"
        override.write_text("garbage\n")
        argv = ["predict", "2019", "--model-years", "2004-2019", "--calendar", str(override)]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: xmasjump predict ")
        assert "must end before the target year 2019" in captured.err
        assert "bad calendar entry" not in captured.err

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

    @pytest.mark.parametrize("argv", DATA_COMMANDS, ids=lambda argv: argv[0])
    def test_no_data_source(self, argv, monkeypatch, capsys):
        monkeypatch.delenv("XMASJUMP_DATA", raising=False)
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: xmasjump {argv[0]} ")
        assert "no data file: pass --data or set $XMASJUMP_DATA" in captured.err

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

    @pytest.mark.parametrize("argv", DATA_COMMANDS, ids=lambda argv: argv[0])
    def test_bad_calendar_file(self, argv, tmp_path, capsys):
        # the calendar is read first, so its error wins over the data file's
        override = tmp_path / "cal.txt"
        override.write_text("garbage\n")
        broken = tmp_path / "rates.csv"
        broken.write_text("not a csv\n")
        assert main(argv + ["--data", str(broken), "--calendar", str(override)]) == EXIT_DATA_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 1: bad calendar entry 'garbage'\n"

    @pytest.mark.parametrize("argv", DATA_COMMANDS, ids=lambda argv: argv[0])
    def test_bad_calendar_file_without_a_data_source(self, argv, tmp_path, monkeypatch, capsys):
        # the calendar is read before the data source is looked for
        monkeypatch.delenv("XMASJUMP_DATA", raising=False)
        override = tmp_path / "cal.txt"
        override.write_text("garbage\n")
        assert main(argv + ["--calendar", str(override)]) == EXIT_DATA_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 1: bad calendar entry 'garbage'\n"


class TestUtf8Files:
    """Every file is read and written as UTF-8, whatever the locale: no
    command opens one with the default encoding."""

    def test_no_command_uses_the_default_encoding(self, tmp_path):
        spec = json.loads((FIXTURES / "demo_spec.json").read_text(encoding="utf-8"))
        spec["tenor"] = "\u20acSTR-\u00e9t\u00e9"
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec, ensure_ascii=False), encoding="utf-8")
        calendar = tmp_path / "cal.txt"
        calendar.write_text("# f\u00eates\n--12-26\n--01-01\n", encoding="utf-8")
        out = tmp_path / "rates.csv"
        data = ["--data", str(DEMO_RATES)]
        for argv in [
            ["fit-year", "2019", *data],
            ["backtest", "2015", "2019", *data],
            ["predict", "2019", *data],
            ["generate", "--spec", str(spec_path), "--out", str(out)],
            ["fit-year", "2019", "--data", str(out), "--calendar", str(calendar)],
        ]:
            done = subprocess.run(
                [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
                 "-m", "xmasjump", *argv],
                capture_output=True,
            )
            assert done.returncode == EXIT_OK, (argv, done.stderr)
        assert out.read_bytes().startswith("# tenor: \u20acSTR-\u00e9t\u00e9\n".encode("utf-8"))

    @pytest.mark.parametrize("kind", ["data", "calendar", "spec"])
    def test_a_leading_byte_order_mark_is_skipped(self, kind, tmp_path, capsys):
        # as spreadsheets write "CSV UTF-8": the mark changes nothing
        texts = {
            "data": DEMO_RATES.read_text(encoding="utf-8"),
            "calendar": "--12-26\n--01-01\n--12-27\n",
            "spec": (FIXTURES / "demo_spec.json").read_text(encoding="utf-8"),
        }
        paths = {name: tmp_path / f"{name}.txt" for name in texts}
        out = tmp_path / "rates.csv"
        outcomes = []
        for mark in ("", "\ufeff"):
            for name, text in texts.items():
                paths[name].write_text(mark + text if name == kind else text, encoding="utf-8")
            if kind == "spec":
                code = main(["generate", "--spec", str(paths["spec"]), "--out", str(out)])
                written = out.read_bytes()
            else:
                argv = ["--data", str(paths["data"]), "--calendar", str(paths["calendar"])]
                code = main(["fit-year", "2019", *argv])
                written = None
            captured = capsys.readouterr()
            outcomes.append((code, captured.out, captured.err, written))
        assert outcomes[0][0] == EXIT_OK
        assert outcomes[1] == outcomes[0]


class CountingSink:
    """A stdout that keeps the count of the characters written, not them."""

    written = 0

    def write(self, text):
        self.written += len(text)
        return len(text)

    def flush(self):
        pass


def test_rendering_a_backtest_adds_little_beyond_its_report(tmp_path, monkeypatch):
    # A json-like report is written one row or model at a time: while it is
    # written, the command holds little beyond the report itself, however
    # many targets it has. The sink holds none of the written output.
    spec = write_spec(tmp_path / "spec.json", 1900, 2100, noise=0.01)
    data = tmp_path / "rates.csv"
    assert main(["generate", "--spec", str(spec), "--out", str(data)]) == EXIT_OK
    argv = ["backtest", "1915", "2100", "--data", str(data), "--format", "json-like"]
    sink = CountingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    assert main(argv) == EXIT_OK  # a first run, so that lazy imports and caches are filled
    held = []
    json_pieces = cli._json_pieces

    def reset_peak_then_render(report):
        held.append(tracemalloc.get_traced_memory()[0])  # the report, and what main holds
        tracemalloc.reset_peak()  # so that the peak is the rendering's
        return json_pieces(report)

    monkeypatch.setattr(cli, "_json_pieces", reset_peak_then_render)
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.written > 200_000  # the report's text, many times the bound below
    assert peak - held[0] <= 16 * 1024, (peak, held)


def test_parse_peaks_near_its_series(tmp_path, capsys):
    # The parse holds one piece's lines and rows at a time, not the whole
    # text's, next to the text its caller holds and the arrays it builds:
    # what it holds beyond the series it returns is bounded by the piece
    # size, not by the file's. The bulk step turns each row's date straight
    # into its day ordinal and drops a piece's lists before it reads the
    # next, so 8 pieces' worth is enough.
    spec = write_spec(tmp_path / "spec.json", 1900, 2100, noise=0.01)
    data = tmp_path / "rates.csv"
    assert main(["generate", "--spec", str(spec), "--out", str(data)]) == EXIT_OK
    capsys.readouterr()
    text = data.read_text(encoding="utf-8")
    parse_rate_series(text)  # a first run, so that lazy imports and caches are filled
    tracemalloc.start()
    try:
        series = parse_rate_series(text)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(series) > 5000
    assert len(text) > 32 * data_io._PIECE_CHARS
    assert peak - size <= 8 * data_io._PIECE_CHARS, (peak, size)


def test_loading_a_series_holds_little_beyond_it(tmp_path, monkeypatch):
    # predict reads and parses its file a piece at a time: beyond the series
    # it loads, it holds a few pieces' text and lines and the file's buffer,
    # however long the file, and never the file's whole text or bytes. Its
    # pieces are read in bulk, one at a time, so 11 pieces' worth is enough.
    assert_loads_a_piece_at_a_time(tmp_path, monkeypatch, "\n", 11)


def test_a_file_with_other_line_breaks_loads_a_piece_at_a_time(tmp_path, monkeypatch):
    # Every line break that str.splitlines honours ends a piece, so a file
    # whose lines end in U+2028 is not carried into one piece and held whole.
    # Its pieces are read line by line, 2 bytes a character.
    assert_loads_a_piece_at_a_time(tmp_path, monkeypatch, "\u2028", 16)


def assert_loads_a_piece_at_a_time(tmp_path, monkeypatch, line_end, pieces):
    """``predict`` of a generated 201-year file, its lines ending in
    ``line_end``, holds at most ``pieces`` pieces' worth of characters and a
    file buffer beyond the series while it loads the file."""
    spec = write_spec(tmp_path / "spec.json", 1900, 2100, noise=0.01)
    data = tmp_path / "rates.csv"
    monkeypatch.setattr(sys, "stdout", CountingSink())
    assert main(["generate", "--spec", str(spec), "--out", str(data)]) == EXIT_OK
    data.write_bytes(data.read_bytes().replace(b"\n", line_end.encode()))
    argv = ["predict", "2100", "--data", str(data)]
    assert main(argv) == EXIT_OK  # a first run, so that lazy imports and caches are filled
    loaded = []
    load_series = cli._load_series

    def reset_peak_then_load(args):
        tracemalloc.reset_peak()  # so that the peak is the load's
        series = load_series(args)
        loaded.append(tracemalloc.get_traced_memory())  # the series and what main holds
        return series

    monkeypatch.setattr(cli, "_load_series", reset_peak_then_load)
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
    finally:
        tracemalloc.stop()
    ((size, peak),) = loaded
    assert data.stat().st_size > 32 * data_io._PIECE_CHARS
    assert peak - size <= pieces * data_io._PIECE_CHARS + io.DEFAULT_BUFFER_SIZE, (peak, size)


def test_generate_holds_little_beyond_its_series_while_it_writes(tmp_path, monkeypatch):
    # The file is written a few hundred rows at a time: beyond the series,
    # generate holds a piece's rows and the file's buffer, however long the
    # series, and never the file's whole text.
    spec = write_spec(tmp_path / "spec.json", 1900, 2100, noise=0.01)
    out = tmp_path / "rates.csv"
    argv = ["generate", "--spec", str(spec), "--out", str(out)]
    monkeypatch.setattr(sys, "stdout", CountingSink())
    assert main(argv) == EXIT_OK  # a first run, so that lazy imports and caches are filled
    held = []
    generate = cli.generate_synthetic_series

    def generate_then_reset_peak(*args):
        series = generate(*args)
        held.append(tracemalloc.get_traced_memory()[0])  # the series, and what main holds
        tracemalloc.reset_peak()  # so that the peak is the writing's
        return series

    monkeypatch.setattr(cli, "generate_synthetic_series", generate_then_reset_peak)
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.stat().st_size > 32 * data_io._PIECE_CHARS
    assert peak - held[0] <= 16 * data_io._PIECE_CHARS + io.DEFAULT_BUFFER_SIZE, (peak, held)


def test_a_parsed_series_stores_each_fixing_once(tmp_path, capsys):
    # Two arrays, of day ordinals and of rates: 12 bytes per fixing, a 4-byte
    # C int and an 8-byte double, plus the arrays' growth room. Ordinals kept
    # as 8-byte C longs, 17 bytes per fixing, would not pass 14, nor would a
    # dict from date to rate, about 85.
    spec = write_spec(tmp_path / "spec.json", 1900, 2100, noise=0.01)
    data = tmp_path / "rates.csv"
    assert main(["generate", "--spec", str(spec), "--out", str(data)]) == EXIT_OK
    capsys.readouterr()
    text = data.read_text(encoding="utf-8")
    parse_rate_series(text)  # a first run, so that lazy imports and caches are filled
    tracemalloc.start()
    try:
        series = parse_rate_series(text)
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(series) > 5000
    assert size <= 14 * len(series), size / len(series)


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
