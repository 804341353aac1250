"""A fixed reference kernel that measures how fast the machine runs right now.

On a virtual machine that shares its cores with other tenants (measured on
a 2-vCPU Firecracker VM), the same op can take 0.013 s in one second and
0.025 s a few seconds later, and CPU time slows just as much as wall time. The kernel does the kind of work the program
does (split text, parse ISO dates and floats, fill a dict, date arithmetic,
``math.fsum``) and never changes, so its duration tracks the machine's
current speed. Scaling an op time by ``REFERENCE_S / kernel time`` gives
seconds at the speed at which the kernel takes ``REFERENCE_S``. On one idle
core of a 2-vCPU Firecracker VM with Python 3.11 the kernel takes a little
under that, so calibrated times there read close to wall times.

Importing the package slows less than that kernel when the machine is busy:
calibrated by it, the import time of a fresh interpreter spread by about
±12% between quiet and busy moments. A second kernel shaped like an import
(compile source, round-trip the code through ``marshal`` as loading a .pyc
does, execute it, build frozen dataclasses) kept it within about ±4%; it
calibrates against ``IMPORT_REFERENCE_S`` in the same way.
"""

from __future__ import annotations

import dataclasses
import marshal
import math
import statistics
from datetime import date, timedelta
from time import perf_counter

REFERENCE_S = 0.001
IMPORT_REFERENCE_S = 0.004

_LINES = tuple(
    f"{date(2000, 1, 1) + timedelta(days=3 * k)},{k * 0.37 % 5:.6f}" for k in range(1500)
)
_ONE_DAY = timedelta(days=1)
_SOURCE = "".join(
    f"def f{i}(a, b=1, *c, **d):\n    x = [a + b for _ in range({i})]\n"
    f"    return {{'k': x, 'c': c, 'd': d}}\n"
    for i in range(40)
)
_FIELDS = [
    ("a", int),
    ("b", float, dataclasses.field(default=0.0)),
    ("c", str, dataclasses.field(default="")),
]


def kernel_seconds(passes: int = 3) -> float:
    """Median wall time of ``passes`` passes of the fixed kernel."""
    return statistics.median(_one_pass() for _ in range(passes))


def _one_pass() -> float:
    start = perf_counter()
    table = {}
    for line in _LINES:
        day, rate = line.split(",")
        table[date.fromisoformat(day)] = float(rate)
    picked = [r for d, r in table.items() if d + _ONE_DAY not in table and d.weekday() < 5]
    math.fsum(r * 2.0 - 1.0 for r in picked)
    return perf_counter() - start


def import_kernel_seconds(passes: int = 7) -> float:
    """Median wall time of ``passes`` passes of the import-shaped kernel,
    after one pass to warm it up."""
    _import_pass()
    return statistics.median(_import_pass() for _ in range(passes))


def _import_pass() -> float:
    start = perf_counter()
    code = compile(_SOURCE, "<reference>", "exec")
    exec(marshal.loads(marshal.dumps(code)), {})
    for i in range(4):
        dataclasses.make_dataclass(f"Reference{i}", _FIELDS, frozen=True)
    return perf_counter() - start
