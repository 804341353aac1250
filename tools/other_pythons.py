"""Run the repository's checks on every pyenv interpreter from 3.10 on.

    python tools/other_pythons.py

For each ``~/.pyenv/versions/3.1x`` present, it reports:

- imports: how many modules a fresh ``-E -S`` import of ``xmasjump.cli``
  loads, and which of the modules that ``tests/test_records.py`` keeps out
  of start-up it loaded, if any;
- golden: how many of the demo fixture's outputs in ``tests/golden`` the
  commands reproduce byte for byte, ``generate``'s file included;
- corpus: how many of ``tests/corpus.py``'s cases give another digest;
- tier-1: pytest's counts, each failed test below them, or why pytest cannot
  start there.

Run it with an interpreter that has pytest, hypothesis and mpmath. The
other interpreters get a directory of symlinks to its pure-Python test
packages on ``PYTHONPATH``; nothing is installed. numpy and scipy cannot be
linked that way, so tier-1 elsewhere fails the tests that import them.
Exits 1 if an import, a golden output or a corpus case is at fault on some
interpreter; tier-1 failures are reported only.
"""

import importlib.metadata
import importlib.util
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"
GOLDEN = ROOT / "tests" / "golden"

# the pure-Python packages tier-1 needs, linked from the running interpreter
TEST_PACKAGES = ("pytest", "_pytest", "py", "pluggy", "iniconfig", "packaging", "pygments",
                 "hypothesis", "attr", "attrs", "sortedcontainers", "mpmath")
HEAVY = {"dataclasses", "pathlib", "typing", "inspect", "json", "__future__"}
DEMO_COMMANDS = {
    "demo_fit_year_2019": ["fit-year", "2019"],
    "demo_backtest_2015_2019": ["backtest", "2015", "2019"],
    "demo_predict_2019_model_years_2004_2018": ["predict", "2019", "--model-years", "2004-2018"],
}
# in each interpreter: the requirements of pytest's (argv) that apply there
# and cannot be imported
MISSING_REQUIREMENTS = """
import sys
from packaging.requirements import Requirement
missing = []
for line in sys.argv[1:]:
    req = Requirement(line)
    if req.marker is None or req.marker.evaluate({"extra": ""}):
        try:
            __import__(req.name.replace("-", "_"))
        except ImportError:
            missing.append(req.name)
print(" ".join(missing))
"""


def interpreters() -> dict[str, Path]:
    """Each pyenv ``python`` of version 3.10 or later by its version, oldest first."""
    versions = Path.home() / ".pyenv" / "versions"
    found = [p for p in versions.glob("3.*") if re.fullmatch(r"3\.1\d\.\d+", p.name)]
    found.sort(key=lambda p: tuple(map(int, p.name.split("."))))
    return {p.name: p / "bin" / "python" for p in found if (p / "bin" / "python").exists()}


def link_test_packages(directory: Path) -> None:
    """Symlink ``TEST_PACKAGES`` and hypothesis's ``_hypothesis_*`` modules,
    as the running interpreter has them, into ``directory``."""
    paths = []
    for name in TEST_PACKAGES:
        spec = importlib.util.find_spec(name)
        if spec is None:
            sys.exit(f"{name} is not installed for {sys.executable}")
        locations = spec.submodule_search_locations
        paths.append(Path(locations[0] if locations else spec.origin))
    paths += Path(importlib.util.find_spec("hypothesis").origin).parents[1].glob("_hypothesis_*.py")
    for path in paths:
        (directory / path.name).symlink_to(path)


def run(python: Path, *args: str, pythonpath: str = str(SRC), **kwargs):
    env = {**os.environ, "PYTHONPATH": pythonpath, "COLUMNS": "80"}
    env.pop("XMASJUMP_DATA", None)
    return subprocess.run([str(python), *args], cwd=ROOT, env=env, capture_output=True, **kwargs)


def check_imports(python: Path) -> tuple[str, bool]:
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import xmasjump.cli;"
            " print(' '.join(sys.modules))")
    loaded = set(run(python, "-E", "-S", "-c", code, text=True, check=True).stdout.split())
    heavy = sorted(loaded & HEAVY)
    return f"imports {len(loaded)} modules, heavy: {', '.join(heavy) or 'none'}", not heavy


def check_golden(python: Path, scratch: Path) -> tuple[str, bool]:
    same = total = 0
    data = ["--data", str(FIXTURES / "demo_rates.csv")]
    for name, argv in DEMO_COMMANDS.items():
        for suffix, fmt in ((".txt", []), (".json", ["--format", "json-like"])):
            out = run(python, "-m", "xmasjump", *argv, *data, *fmt).stdout
            same += out == (GOLDEN / (name + suffix)).read_bytes()
            total += 1
    written = scratch / "demo_rates.csv"
    run(python, "-m", "xmasjump", "generate", "--spec", str(FIXTURES / "demo_spec.json"),
        "--out", str(written))
    same += written.exists() and written.read_bytes() == (FIXTURES / "demo_rates.csv").read_bytes()
    total += 1
    return f"golden {same}/{total} identical", same == total


def check_corpus(python: Path) -> tuple[str, bool]:
    done = run(python, str(ROOT / "tests" / "corpus.py"), text=True)
    cases = len((GOLDEN / "corpus.sha256").read_text(encoding="utf-8").splitlines())
    changed = done.stdout.splitlines()
    if done.returncode != bool(changed):  # it exits 1 exactly when it lists cases
        error = done.stderr.strip().rsplit("\n", 1)[-1]
        return f"corpus did not run: {error}", False
    return f"corpus {len(changed)} of {cases} differ", not changed


def tier1(python: Path, links: Path) -> str:
    pythonpath = f"{links}{os.pathsep}{SRC}"
    requirements = importlib.metadata.requires("pytest") or []
    missing = run(python, "-c", MISSING_REQUIREMENTS, *requirements, pythonpath=pythonpath,
                  text=True, check=True).stdout.split()
    if missing:
        return f"tier-1 not run: pytest cannot start without {', '.join(missing)}"
    done = run(python, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
               "--continue-on-collection-errors", pythonpath=pythonpath, text=True)
    lines = done.stdout.strip().splitlines()
    summary = re.sub(r" in [\d.]+s.*$", "", lines[-1].strip("= ")) if lines else done.stderr
    failed = [line.split(" - ")[0] for line in lines if line.startswith("FAILED ")]
    return "\n    ".join([f"tier-1 {summary}", *failed])


def main(argv: list[str]) -> int:
    if argv:
        print(__doc__, file=sys.stderr)
        return 2
    ok = True
    with tempfile.TemporaryDirectory() as directory:
        links = Path(directory) / "links"
        links.mkdir()
        link_test_packages(links)
        for version, python in interpreters().items():
            scratch = Path(directory) / version
            scratch.mkdir()
            reports = [check_imports(python), check_golden(python, scratch), check_corpus(python)]
            ok &= all(passed for _, passed in reports)
            line = "; ".join(text for text, _ in reports)
            print(f"{version}: {line}\n  {tier1(python, links)}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
