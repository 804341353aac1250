"""The contract every record shares, and what importing the CLI loads."""

import copy
import inspect
import math
import pickle
import re
import subprocess
import sys
from datetime import date, datetime
from pathlib import Path

import pytest

import xmasjump
from xmasjump import (
    BacktestReport,
    BacktestRow,
    DailyRateSeries,
    HolidayCalendar,
    JumpForecast,
    JumpModel,
    SyntheticSpec,
    YearObservation,
)
from xmasjump.errors import DomainError
from xmasjump.record import Record
from xmasjump.stat_inference import CoefficientInference

COEFFICIENT = dict(estimate=1.0, standard_error=0.5, t_statistic=2.0, p_value=0.1)

# Per record type: the arguments of one value, then changes that make another.
CASES = [
    (
        DailyRateSeries,
        dict(entries=((date(2018, 1, 2), 1.0),), tenor_label="X"),
        dict(entries=((date(2018, 1, 2), 1.5),)),
    ),
    (
        SyntheticSpec,
        dict(year_trends={2018: (0.01, 2.5)}, jump=(0.1, 0.0, 0.0, 0.0), seed=3),
        dict(seed=4),
    ),
    (HolidayCalendar, dict(holidays=frozenset({(1, 1)})), dict(holidays=frozenset())),
    (CoefficientInference, COEFFICIENT, dict(p_value=0.2)),
    (
        YearObservation,
        dict(
            year=2018,
            slope_a=0.01,
            intercept_b=2.5,
            post_intercept=2.75,
            jump_delta=0.25,
            post_offsets=(2, 3, 6),
            post_mean=2.8,
        ),
        dict(post_warning="post-window has 2 observations, nominal 3"),
    ),
    (
        JumpModel,
        dict(
            window_years=(2004, 2018),
            coefficients=(0.0, 1.0, 0.0, 0.0),
            inference=(CoefficientInference(**COEFFICIENT),),
            adjusted_r2=0.5,
        ),
        dict(window_years=(2003, 2018)),
    ),
    (
        BacktestRow,
        dict(
            target_year=2019,
            predicted_jump=0.5,
            realized_jump=0.25,
            corrected_mean_estimate=2.75,
            realized_mean=2.5,
            error=0.25,
        ),
        dict(target_year=2020),
    ),
    (BacktestReport, dict(window_len=15, rows=(), models=()), dict(window_len=5)),
    (
        JumpForecast,
        dict(
            target_year=2019,
            slope_a=0.01,
            intercept_b=2.5,
            predicted_jump=0.25,
            corrected_mean_estimate=2.8,
        ),
        dict(predicted_jump=0.5),
    ),
]


def declared_fields(cls):
    """The constructor's parameter names: the record's fields, in order."""
    return list(inspect.signature(cls.__init__).parameters)[1:]


def test_every_record_type_is_covered():
    assert {cls for cls, _, _ in CASES} == set(Record.__subclasses__())


@pytest.mark.parametrize("cls, args, changes", CASES, ids=[c[0].__name__ for c in CASES])
class TestRecordContract:
    def test_fields_refuse_assignment(self, cls, args, changes):
        record = cls(**args)
        for name in declared_fields(cls) + ["unknown"]:
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert record == cls(**args)

    def test_equal_fields_are_equal_records(self, cls, args, changes):
        first, second = cls(**args), cls(**args)
        assert first == second and not first != second
        if cls is SyntheticSpec:  # a dict field, as in a tuple holding a dict
            with pytest.raises(TypeError):
                hash(first)
        else:
            assert hash(first) == hash(second)

    def test_different_fields_are_different_records(self, cls, args, changes):
        assert cls(**args) != cls(**{**args, **changes})
        assert cls(**args) != tuple(cls(**args).to_dict().values())

    def test_to_dict_keys_follow_the_declared_fields(self, cls, args, changes):
        assert list(cls(**args).to_dict()) == declared_fields(cls)

    def test_repr_names_every_field_in_order(self, cls, args, changes):
        record = cls(**args)
        shown = ", ".join(f"{name}={getattr(record, name)!r}" for name in declared_fields(cls))
        assert repr(record) == f"{cls.__name__}({shown})"

    def test_copies_are_equal(self, cls, args, changes):
        record = cls(**args)
        assert copy.deepcopy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record


TRENDS = {2018: (0.01, 2.5)}


@pytest.mark.parametrize(
    "cls, args, kwargs, field",
    [
        (DailyRateSeries, ((),), dict(tenor_label=None), "tenor_label"),
        (DailyRateSeries, (((date(2018, 1, 2), True),),), {}, "rate on 2018-01-02"),
        (SyntheticSpec, (TRENDS,), dict(jump=("x", 0.0, 0.0, 0.0)), "jump coefficients"),
        (SyntheticSpec, (TRENDS,), dict(jump="abcd"), "jump coefficients"),
        (SyntheticSpec, ({2018: (1.0,)},), {}, "year_trends[2018]"),
        (SyntheticSpec, ({2018: (True, 1.0)},), {}, "year_trends[2018]"),
        (SyntheticSpec, ({"abc": (1.0, 2.0)},), {}, "year_trends key 'abc'"),
        (SyntheticSpec, ({True: (0.0, 1.0)},), {}, "year_trends key True"),
        (SyntheticSpec, (TRENDS,), dict(seed=1.5), "seed"),
        (SyntheticSpec, (TRENDS,), dict(seed=True), "seed"),
        (SyntheticSpec, (TRENDS,), dict(noise_amplitude=True), "noise amplitude"),
        (SyntheticSpec, (TRENDS,), dict(jump=(True, 0.0, 0.0, 0.0)), "jump coefficients"),
        (SyntheticSpec, (TRENDS,), dict(jump=None), "jump"),
        (SyntheticSpec, (TRENDS,), dict(tenor_label=5), "tenor_label"),
        (HolidayCalendar, (None,), {}, "holidays"),
        (HolidayCalendar, ({datetime(2018, 12, 27)},), {}, "holiday entries"),
        (JumpModel, ((2004, 2018), ("0.1", 0, 0, 0)), {}, "coefficients"),
        (JumpModel, ((2004, 2018), (math.nan, 0, 0, 0)), {}, "coefficients"),
        (JumpModel, ((2004, 2018), (0.1, 0.0)), {}, "coefficients"),
        (JumpModel, ((2004.5, 2018), (0.1, 0, 0, 0)), {}, "window_years"),
        (JumpModel, ((True, 2018), (0.1, 0, 0, 0)), {}, "window_years"),
        (JumpModel, (("2004", "2018"), (0.1, 0, 0, 0)), {}, "window_years"),
    ],
    ids=[
        "series_tenor_none",
        "boolean_rate",
        "fixed_jump_text",
        "bilinear_jump_text",
        "trend_of_one_number",
        "boolean_trend",
        "year_key_text",
        "boolean_year_key",
        "float_seed",
        "boolean_seed",
        "boolean_noise",
        "boolean_coefficient",
        "no_jump_rule",
        "spec_tenor_number",
        "calendar_none",
        "calendar_datetime_entry",
        "model_coefficient_text",
        "model_coefficient_nan",
        "model_two_coefficients",
        "model_fractional_year",
        "model_boolean_year",
        "model_year_text",
    ],
)
def test_wrongly_typed_argument_is_a_domain_error_naming_it(cls, args, kwargs, field):
    with pytest.raises(DomainError, match=f"^{re.escape(field)}"):
        cls(*args, **kwargs)


def test_importing_the_cli_loads_no_heavy_modules():
    """``dataclasses`` (with ``inspect``, ``ast``), ``pathlib``, ``typing``,
    ``json`` and ``__future__`` stay out of a fresh interpreter's start-up;
    modules are counted, not timed, so the check cannot flake."""
    package_root = str(Path(xmasjump.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {package_root!r}); import xmasjump.cli;"
        " print(' '.join(sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-E", "-S", "-c", code], capture_output=True, text=True, check=True
    )
    loaded = set(done.stdout.split())
    assert "xmasjump.cli" in loaded
    assert loaded.isdisjoint({"dataclasses", "pathlib", "typing", "inspect", "json",
                              "__future__"})


def test_only_generate_loads_json(tmp_path):
    """In a fresh interpreter, ``backtest`` and ``predict`` in both formats
    run without loading ``json``; ``generate``, which parses a JSON spec,
    loads it and still works."""
    package_root = str(Path(xmasjump.__file__).resolve().parents[1])
    fixtures = Path(package_root).parent / "fixtures"
    data = ["--data", str(fixtures / "demo_rates.csv")]
    runs = [
        [command, *years, *data, "--format", fmt]
        for command, years in (("backtest", ["2015", "2018"]), ("predict", ["2019"]))
        for fmt in ("table", "json-like")
    ]
    generate = ["generate", "--spec", str(fixtures / "demo_spec.json"),
                "--out", str(tmp_path / "out.csv")]
    code = f"""
import contextlib, io, sys
sys.path.insert(0, {package_root!r})
from xmasjump import cli

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)

codes = [run(argv) for argv in {runs!r}]
loaded = "json" in sys.modules
print((codes, loaded, run({generate!r}), "json" in sys.modules))
"""
    done = subprocess.run(
        [sys.executable, "-E", "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "([0, 0, 0, 0], False, 0, True)"
    assert (tmp_path / "out.csv").stat().st_size > 0
