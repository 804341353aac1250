"""A differential corpus: command lines of all four commands over generated
inputs, each reduced to one SHA-256 of what it gives.

The inputs are seeded ``generate_synthetic_series`` output and named text
edits of it, written by ``write_inputs`` into the working directory, so no
large file is committed and the generator's own bit-for-bit pins keep them
stable. Each case is a command line, which is also its id; its digest covers
the exit code, stdout, stderr and the file that ``--out`` names, if any.
``golden/corpus.sha256`` holds one digest per case, as ``sha256sum`` lists
them, and ``test_corpus.py`` compares every case against it.

    PYTHONPATH=src python tests/corpus.py           # list the cases that differ
    PYTHONPATH=src python tests/corpus.py --write   # rewrite the digest file

A change that rewrites the digest file names the ids that changed and why.
"""

import contextlib
import hashlib
import io
import os
import random
import sys
import tempfile
from pathlib import Path
from unittest import mock

from xmasjump import cli
from xmasjump.data_io import SyntheticSpec, generate_synthetic_series, serialize_rate_series
from xmasjump.market_calendar import HolidayCalendar

DIGESTS = Path(__file__).resolve().parent / "golden" / "corpus.sha256"

FIRST_YEAR, LAST_YEAR = 1995, 2025
JUMP = (0.005, -9.0, -0.002, 2.0)


def _base_lines() -> list[str]:
    """The base series' lines: 1995-2025, a seeded trend per year, noise 0.01."""
    rng = random.Random(20261220)
    trends = {year: (rng.uniform(-0.02, 0.02), rng.uniform(0.5, 5.0))
              for year in range(FIRST_YEAR, LAST_YEAR + 1)}
    spec = SyntheticSpec(trends, JUMP, noise_amplitude=0.01, seed=11, tenor_label="SYN-2M")
    text = serialize_rate_series(generate_synthetic_series(spec, trends, HolidayCalendar()))
    return text.splitlines(keepends=True)


def _index(lines: list[str], day: str) -> int:
    """The index of ``day``'s row; the day must have one."""
    return next(i for i, line in enumerate(lines) if line.startswith(day + ","))


def _without(*days: str):
    """An edit that drops the rows of ``days``: gaps in the series."""
    def edit(lines):
        return [line for line in lines if line[:10] not in days]
    return edit


def _repeated(day: str):
    """An edit that writes ``day``'s row twice."""
    def edit(lines):
        i = _index(lines, day)
        return lines[:i + 1] + lines[i:]
    return edit


def _shuffled(first: str, last: str):
    """An edit that shuffles the rows from ``first`` through ``last``."""
    def edit(lines):
        i, j = _index(lines, first), _index(lines, last) + 1
        middle = lines[i:j]
        random.Random(7).shuffle(middle)
        return lines[:i] + middle + lines[j:]
    return edit


def _with_fixings(*days: str):
    """An edit that adds a fixing on each of ``days``, such as a weekend or a
    holiday, after the last row before it."""
    def edit(lines):
        for day in days:
            i = max(k for k, line in enumerate(lines) if line[:10] < day)
            lines = lines[:i + 1] + [f"{day},2.5\n"] + lines[i + 1:]
        return lines
    return edit


def _through(day: str):
    """An edit that cuts the series after ``day``."""
    def edit(lines):
        return lines[:_index(lines, day) + 1]
    return edit


def _line_ends(end: str, every: int = 1):
    """An edit that ends every ``every``-th line with ``end``."""
    def edit(lines):
        return [line[:-1] + end if i % every == 0 else line for i, line in enumerate(lines)]
    return edit


def _comment_before(day: str, comment: str):
    """An edit that puts a comment line before ``day``'s row."""
    def edit(lines):
        i = _index(lines, day)
        return lines[:i] + [f"# {comment}\n"] + lines[i:]
    return edit


# Series files: the base and its named edits. A name ending in ".latin1"
# is written in Latin-1, so its one non-ASCII character is a byte that is
# not UTF-8.
SERIES = {
    "base.csv": lambda lines: lines,
    "gap-pre.csv": _without("2010-12-20"),
    "gap-post.csv": _without("2012-12-27"),
    "gap-nov.csv": _without("2015-11-30"),
    "repeat.csv": _repeated("2005-12-15"),
    "shuffle.csv": _shuffled("2000-11-27", "2003-12-31"),
    "weekend.csv": _with_fixings("2016-12-17", "2016-12-18", "2018-12-25"),
    "cut-post.csv": _through("2025-12-29"),
    "cut-pre.csv": _through("2025-12-19"),
    "crlf.csv": _line_ends("\r\n"),
    "u2028.csv": _line_ends("\u2028", every=5),
    "bad-byte.latin1": _comment_before("2024-12-02", "source: café"),
    "bom.csv": lambda lines: ["\ufeff" + lines[0]] + lines[1:],  # a byte-order mark
}

CALENDARS = {
    # one-off closures: 2012's post window keeps one day, 2015's three of four
    "closures.cal": "2010-12-23\n2012-12-28\n2012-12-31\n2015-12-28\n2019-12-24\n2020-12-10\n",
    "bad.cal": "2019-12-24\nnot a date\n",
}

SPECS = {
    "small.json": '{"tenor": "SYN-1M", "seed": 5, "noise": 0.02,'
                  ' "jump": {"coefficients": [0.01, -8.0, -0.001, 1.5]},'
                  ' "years": {"2001": [0.004, 2.1], "2002": [-0.011, 3.4],'
                  ' "2003": [0.017, 0.9], "2004": [-0.002, 4.2]}}',
    "fixed.json": '{"jump": {"fixed": 0.25}, "years": {"1999": [0.01, 1.0], "2000": [-0.003, 2.7]}}',
    "bad-year.json": '{"years": {"02001": [0.01, 1.0]}}',
}
SPECS["bom.json"] = "\ufeff" + SPECS["fixed.json"]  # a byte-order mark


def _fit_year_cases() -> list[str]:
    cases = []
    for fmt in ("table", "json-like"):
        cases += [f"fit-year {year} --data base.csv --format {fmt}"
                  for year in (1995, 2000, 2010, 2016, 2019, 2025)]
        cases += [
            f"fit-year 2019 --data base.csv --pre-days 2 --format {fmt}",
            f"fit-year 2010 --data gap-pre.csv --format {fmt}",
            f"fit-year 2001 --data shuffle.csv --format {fmt}",
            f"fit-year 2016 --data weekend.csv --format {fmt}",
            f"fit-year 2019 --data crlf.csv --format {fmt}",
            f"fit-year 2019 --data u2028.csv --format {fmt}",
            f"fit-year 2010 --data base.csv --calendar closures.cal --format {fmt}",
            f"fit-year 2015 --data base.csv --calendar closures.cal --format {fmt}",
        ]
    return cases + [
        "fit-year 1994 --data base.csv",
        "fit-year 2026 --data base.csv",
        "fit-year 0 --data base.csv",
        "fit-year 10000 --data base.csv",
        "fit-year 2019 --data base.csv --pre-days 300",
        "fit-year 2015 --data base.csv --pre-days 20",
        "fit-year 2011 --data gap-pre.csv",
        "fit-year 2012 --data gap-post.csv",
        "fit-year 2013 --data gap-post.csv --format json-like",
        "fit-year 2015 --data gap-nov.csv",
        "fit-year 2015 --data gap-nov.csv --pre-days 20",
        "fit-year 2019 --data repeat.csv",
        "fit-year 2018 --data weekend.csv --format json-like",
        "fit-year 2024 --data cut-post.csv",
        "fit-year 2025 --data cut-post.csv",
        "fit-year 2025 --data cut-pre.csv",
        "fit-year 2019 --data bad-byte.latin1",
        "fit-year 2012 --data base.csv --calendar closures.cal",
        "fit-year 2019 --data base.csv --calendar closures.cal",
        "fit-year 2020 --data base.csv --calendar closures.cal --format json-like",
        "fit-year 2019 --data base.csv --calendar bad.cal",
        "fit-year 2019 --data base.csv --pre-days 1",
        "fit-year 2019",
        "fit-year 2019 --data missing.csv",
    ]


CASES = _fit_year_cases() + [
    "backtest 2010 2025 --data base.csv",
    "backtest 2010 2025 --data base.csv --format json-like",
    "backtest 2001 2025 --data base.csv --window-len 5 --format json-like",
    "backtest 2015 2025 --data base.csv --pre-days 2",
    "backtest 2015 2025 --data base.csv --pre-days 300",
    "backtest 2005 2025 --data base.csv",
    "backtest 2025 2010 --data base.csv",
    "backtest 2005 2025 --data gap-pre.csv --window-len 5",
    "backtest 2018 2025 --data base.csv --calendar closures.cal --window-len 5",
    "backtest 2013 2025 --data base.csv --calendar closures.cal --window-len 5",
    "backtest 2020 2025 --data cut-post.csv",
    "backtest 2010 2025 --data crlf.csv --format json-like",
    "backtest 2017 2025 --data weekend.csv",
    "backtest 2010 2025 --data u2028.csv",
    "backtest 2010 2025 --data base.csv --window-len 4",
    "predict 2025 --data base.csv",
    "predict 2025 --data base.csv --format json-like",
    "predict 2025 --data base.csv --model-years 2005-2019",
    "predict 2025 --data base.csv --model-years 2005-2019 --format json-like",
    "predict 2020 --data base.csv --window-len 5 --format json-like",
    "predict 2026 --data base.csv",
    "predict 2019 --data base.csv --model-years 2010-2019",
    "predict 2021 --data base.csv --calendar closures.cal --window-len 5",
    "predict 2025 --data cut-post.csv",
    "predict 2025 --data cut-pre.csv",
    "predict 2013 --data gap-post.csv --model-years 1997-2011",
    "generate --spec small.json --out small.csv",
    "generate --spec small.json --out small-closures.csv --calendar closures.cal",
    "generate --spec fixed.json --out fixed.csv",
    "generate --spec bad-year.json --out bad-year.csv",
    "generate --spec missing.json --out missing.csv",
    "generate --spec small.json --out bad-calendar.csv --calendar bad.cal",
    # a leading byte-order mark is dropped: each output is its unmarked case's
    "backtest 2010 2025 --data bom.csv",
    "backtest 2010 2025 --data bom.csv --format json-like",
    "predict 2025 --data bom.csv",
    "predict 2025 --data bom.csv --format json-like",
    "generate --spec bom.json --out fixed.csv",
]


def write_inputs() -> None:
    """Write every series, calendar and spec file into the working directory."""
    base = _base_lines()
    for name, edit in SERIES.items():
        text = "".join(edit(list(base)))
        encoding = "latin-1" if name.endswith(".latin1") else "utf-8"
        Path(name).write_bytes(text.encode(encoding))
    for name, text in {**CALENDARS, **SPECS}.items():
        Path(name).write_bytes(text.encode("utf-8"))


def run_case(case: str) -> str:
    """The SHA-256 of ``case``'s exit code, stdout, stderr and written file,
    run in process in the working directory, with no ``$XMASJUMP_DATA`` and
    an 80-column terminal for argparse's usage lines."""
    argv = case.split()
    stdout, stderr = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS="80"), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        os.environ.pop(cli.DATA_ENV_VAR, None)
        code = cli.main(argv)
    out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    written = out.read_bytes() if out is not None and out.exists() else b""
    return hashlib.sha256(repr((code, stdout.getvalue(), stderr.getvalue(), written))
                          .encode()).hexdigest()


def recorded() -> dict[str, str]:
    """The digest file as ``{case: digest}``."""
    lines = DIGESTS.read_text(encoding="utf-8").splitlines()
    return {case: digest for digest, case in (line.split("  ", 1) for line in lines)}


def main(argv: list[str]) -> int:
    write = argv == ["--write"]
    if argv and not write:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as directory:
        here = os.getcwd()
        os.chdir(directory)
        try:
            write_inputs()
            digests = {case: run_case(case) for case in CASES}
        finally:
            os.chdir(here)
    if write:
        DIGESTS.write_text("".join(f"{d}  {c}\n" for c, d in digests.items()), encoding="utf-8")
        print(f"wrote {len(digests)} digests to {DIGESTS}")
        return 0
    old = recorded()
    changed = [case for case in CASES if old.get(case) != digests[case]]
    changed += [case for case in old if case not in digests]
    for case in changed:
        print(case)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
