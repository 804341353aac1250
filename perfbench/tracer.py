"""Spans around the public functions of each layer, installed from outside.

The program has no tracing of its own, so the tracer wraps each listed
function at every place it is bound: its defining module, and every module
of the package that imported it by name (``from .x import f`` makes a second
binding that patching ``x`` alone would miss). ``installed()`` puts the
wrappers in and always takes them out again.

Each span is a (op, span, parent, name, start_ns, end_ns) record. A
generator function (``banking_days``) is timed only while it runs: every
resumption is a separate record under the same span id, so the caller's
loop body between two yields is not charged to it. Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from contextlib import contextmanager
from time import perf_counter_ns

from xmasjump.errors import XmasJumpError

PACKAGE = "xmasjump"

# The six layers and the public functions of each that the benchmark times.
LAYERS = {
    "cli": ("main", "build_parser"),
    "data_io": (
        "parse_rate_series",
        "serialize_rate_series",
        "generate_synthetic_series",
        "synthetic_spec_from_json",
    ),
    "market_calendar": (
        "pre_window",
        "post_window",
        "post_window_offsets",
        "banking_days",
        "is_banking_day",
    ),
    "regression_core": (
        "fit_simple_ols",
        "fit_intercept_fixed_slope",
        "fit_bilinear",
        "solve_linear_system",
    ),
    "stat_inference": ("inference_for_fit", "student_t_two_sided_p"),
    "jump_pipeline": ("yearly_observation", "fit_window_model", "backtest", "predict_next"),
}
SPAN_NAMES = tuple(f"{module}.{fn}" for module, fns in LAYERS.items() for fn in fns)
# The year of each call is recorded too, to count distinct years extracted.
EXTRACT = SPAN_NAMES.index("jump_pipeline.yearly_observation")


class Tracer:
    """Counts, self times and errors per span name, plus a span log.

    Aggregates cover every traced op. The span records of an op are kept
    only while ``log_spans`` is true, so memory stays bounded on long runs.
    A listed function the package no longer has is named in ``missing`` and
    counts nothing.
    """

    def __init__(self):
        self.calls = [0] * len(SPAN_NAMES)
        self.self_ns = [0] * len(SPAN_NAMES)
        self.errors = [0] * len(SPAN_NAMES)
        self.years: set = set()  # (op, year) of each yearly_observation call
        self.spans: list = []
        self.log_spans = False
        self.op = -1
        self.missing: list = []
        self._stack: list = []
        self._next_span = 0
        self._wrappers: dict = {}  # id(original) -> (original, wrapper)
        for index, name in enumerate(SPAN_NAMES):
            module_name, fn_name = name.split(".")
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            fn = getattr(module, fn_name, None)
            if fn is None:
                self.missing.append(name)
                continue
            self._wrappers[id(fn)] = (fn, self._wrap(index, fn))

    @contextmanager
    def installed(self):
        """Replace every binding of a listed function by its wrapper."""
        patched = []
        try:
            for module_name in sorted(sys.modules):
                if module_name != PACKAGE and not module_name.startswith(PACKAGE + "."):
                    continue
                module = sys.modules[module_name]
                for attr, value in list(vars(module).items()):
                    entry = self._wrappers.get(id(value))
                    if entry is not None and entry[0] is value:
                        setattr(module, attr, entry[1])
                        patched.append((module, attr, value))
            yield self
        finally:
            for module, attr, value in reversed(patched):
                setattr(module, attr, value)

    def distinct_years(self) -> int:
        """Distinct years extracted by ``yearly_observation``, summed over ops."""
        return len(self.years)

    def _wrap(self, index, fn):
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                span = self._begin_call(index, args)
                return self._resumptions(index, span, fn(*args, **kwargs))

            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(self._begin_call(index, args))
            try:
                return fn(*args, **kwargs)
            except XmasJumpError:
                self.errors[index] += 1
                raise
            finally:
                self._exit(index, frame)

        return wrapper

    def _resumptions(self, index, span, generator):
        while True:
            frame = self._enter(span)
            try:
                value = next(generator)
            except StopIteration:
                return
            except XmasJumpError:
                self.errors[index] += 1
                raise
            finally:
                self._exit(index, frame)
            yield value

    def _begin_call(self, index, args) -> int:
        self.calls[index] += 1
        if index == EXTRACT and args:
            self.years.add((self.op, args[0]))
        span = self._next_span
        self._next_span += 1
        return span

    def _enter(self, span) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        frame = [span, parent, 0, perf_counter_ns()]
        self._stack.append(frame)
        return frame

    def _exit(self, index, frame) -> None:
        end = perf_counter_ns()
        self._stack.pop()
        span, parent, child_ns, start = frame
        duration = end - start
        self.self_ns[index] += duration - child_ns
        if self._stack:
            self._stack[-1][2] += duration
        if self.log_spans:
            self.spans.append((self.op, span, parent, SPAN_NAMES[index], start, end))

    def write_spans(self, path) -> None:
        with open(path, "w") as out:
            out.write("op,span,parent,name,start_ns,end_ns\n")
            for record in self.spans:
                out.write(",".join(map(str, record)) + "\n")
