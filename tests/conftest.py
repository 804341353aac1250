import os
from pathlib import Path

import pytest

import xmasjump
from xmasjump import HolidayCalendar


@pytest.fixture(scope="session")
def cal():
    return HolidayCalendar()


@pytest.fixture(scope="session", autouse=True)
def package_importable_in_subprocesses():
    """Let ``python -m xmasjump`` in a subprocess import the package under
    test, also from a checkout where it is not installed."""
    package_root = str(Path(xmasjump.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(
            "PYTHONPATH", os.pathsep.join(p for p in (package_root, inherited) if p)
        )
        yield
