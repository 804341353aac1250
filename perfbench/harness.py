"""Closed-loop timing of the xmasjump CLI, and the traced per-layer run.

One client, one process, one thread, no think time: each op is one real CLI
invocation, ``xmasjump.cli.main(argv)`` called in process with stdout and
stderr captured, so it covers reading and parsing the file, the pipeline
and rendering. A fresh interpreter per op is not used, because interpreter
start-up, with whatever site hooks the installation runs, would swamp the
program's own time; what a fresh process pays for this program is
``setup_s``.

Every op's output is checked (see ``workloads``) and every op after the
first must produce byte-identical output. Op times are calibrated against
a fixed reference kernel run between ops (see ``reference``).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
import traceback
from pathlib import Path
from time import perf_counter

import xmasjump.cli

from reference import IMPORT_REFERENCE_S, REFERENCE_S, kernel_seconds
from tracer import LAYERS, SPAN_NAMES, Tracer
from workloads import FIRST_YEAR, LAST_YEAR, WORKLOAD_NAMES, build_workload, make_inputs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

WARMUP_OPS = 2
SETUP_INTERPRETERS = 15
PROBLEMS_SHOWN = 5

END_TO_END_UNITS = {
    "op_s.p50": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "op_peak_mib": "MiB",
}

# Timed inside a fresh interpreter (-E -S: no site hooks, no PYTHON* env),
# then calibrated by the same interpreter's import-shaped kernel time.
SETUP_CODE = """\
import sys, time
sys.path[:0] = sys.argv[1:3]
start = time.perf_counter()
import xmasjump.cli
xmasjump.cli.HolidayCalendar()
elapsed = time.perf_counter() - start
from reference import import_kernel_seconds
print(elapsed, import_kernel_seconds())
"""


class OpRunner:
    """Runs one workload's op in process and judges each result.

    The first op's output is checked in full; every later op must match it
    byte for byte. ``attempted`` and ``failed`` count every op run.
    """

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.last = None
        self._reference = None
        self._reference_ok = False

    def run(self) -> float:
        """Run one op and return its wall time in seconds."""
        stdout, stderr = io.StringIO(), io.StringIO()
        self.attempted += 1
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = xmasjump.cli.main(list(self.workload.argv))
        except Exception:  # an op that raises is a failed op; the loop goes on
            elapsed = perf_counter() - start
            self._fail(traceback.format_exc(limit=4))
            return elapsed
        elapsed = perf_counter() - start
        if code != 0:
            self._fail(f"exit code {code}: {stderr.getvalue().strip()}")
            return elapsed
        self.last = self.workload.observe(stdout.getvalue())
        if self._reference is None:
            self._reference = self.last
            problems = self.workload.check(self.last)
            self._reference_ok = not problems
            self.problems.extend(problems)
        if self.last != self._reference:
            self._fail("output differs from the first op's output")
        elif not self._reference_ok:
            self.failed += 1
        return elapsed

    def _fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def closed_loop(seconds: float, kinds: dict) -> tuple:
    """Run ops back to back for ``seconds``, cycling through ``kinds``.

    ``kinds`` maps a label to a function that runs one op and returns its
    wall time; every label runs at least once. The reference kernel runs
    after every op, and an op is scaled by the mean of the kernel times
    just before and after it: a run-wide kernel median would not follow
    the machine's speed from op to op. Returns the kernel times and
    ``{label: [(op_s, iteration_s, scale), ...]}``: wall times of the op and
    of its iteration (the op plus its check and bookkeeping), and the factor
    that calibrates both.
    """
    samples: dict = {label: [] for label in kinds}
    kernels = []
    before = kernel_seconds()
    deadline = perf_counter() + seconds
    while True:
        for label, run_op in kinds.items():
            start = perf_counter()
            op_s = run_op()
            iteration_s = perf_counter() - start
            after = kernel_seconds()
            scale = REFERENCE_S / ((before + after) / 2)
            samples[label].append((op_s, iteration_s, scale))
            kernels.append(after)
            before = after
        if perf_counter() >= deadline:
            return samples, kernels


def setup_seconds() -> float:
    """Calibrated import-and-calendar time of one fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-E", "-S", "-c", SETUP_CODE, str(ROOT / "src"), str(BENCH_DIR)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    elapsed, kernel = map(float, done.stdout.split())
    return elapsed * IMPORT_REFERENCE_S / kernel


def peak_mib(runner: OpRunner) -> float:
    """tracemalloc peak of one untimed op."""
    gc.collect()
    tracemalloc.start()
    try:
        runner.run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def warm_up(runner: OpRunner) -> None:
    kernel_seconds()
    for _ in range(WARMUP_OPS):
        runner.run()
    gc.collect()


def timed_run(runner: OpRunner, seconds: float) -> tuple:
    """End-to-end metrics, tracing off. Returns (metrics, notes).

    The fresh interpreters that measure ``setup_s`` are spread over the
    loop, so their median follows the machine's speed over the whole run
    rather than at one moment of it.
    """
    warm_up(runner)
    memory = peak_mib(runner)
    gc.collect()
    setup, plain, kernels = [], [], []
    for _ in range(SETUP_INTERPRETERS):
        setup.append(setup_seconds())
        samples, part_kernels = closed_loop(seconds / SETUP_INTERPRETERS, {"plain": runner.run})
        plain += samples["plain"]
        kernels += part_kernels
    ops = [op * scale for op, _, scale in plain]
    p90 = statistics.quantiles(ops, n=10)[-1]
    metrics = {
        "op_s.p50": statistics.median(ops),
        "ops_per_s": len(ops) / sum(it * scale for _, it, scale in plain),
        "setup_s": statistics.median(setup),
        "op_peak_mib": memory,
    }
    notes = {
        "op_s.p50": f"{len(ops)} ops",
        "wall p50": f"{statistics.median(op for op, _, _ in plain):.6g} s uncalibrated",
        # Reported, not bounded: across seeds it spread too far to gate on.
        "op_s.p90": f"{p90:.6g} s, {len(ops)} ops, {sum(op > p90 for op in ops)} above",
        "ops_per_s": f"{len(ops)} ops",
        "setup_s": f"median of {len(setup)} interpreters",
        "op_peak_mib": f"1 op after {WARMUP_OPS} warm-up ops",
        "reference kernel": f"median {statistics.median(kernels):.6f} s",
    }
    return metrics, notes


def traced_run(runner: OpRunner, seconds: float, spans_path: Path) -> tuple:
    """Per-layer metrics per traced op. Traced and untraced ops alternate,
    so their p50 ratio is the tracing overhead. Returns (metrics, notes)."""
    tracer = Tracer()
    self_ns_per_op = []
    warm_up(runner)

    def traced_op() -> float:
        tracer.op += 1
        tracer.log_spans = tracer.op == 0
        before = list(tracer.self_ns)
        with tracer.installed():
            elapsed = runner.run()
        self_ns_per_op.append([a - b for a, b in zip(tracer.self_ns, before)])
        return elapsed

    samples, _ = closed_loop(seconds, {"plain": runner.run, "traced": traced_op})
    tracer.write_spans(spans_path)
    ops = tracer.op + 1
    scales = [scale for _, _, scale in samples["traced"]]
    self_s = [
        sum(op[index] * scale for op, scale in zip(self_ns_per_op, scales)) * 1e-9 / ops
        for index in range(len(SPAN_NAMES))
    ]
    metrics = {}
    for index, name in enumerate(SPAN_NAMES):
        metrics[f"{name}.calls"] = tracer.calls[index] / ops
        metrics[f"{name}.self_s"] = self_s[index]
        metrics[f"{name}.errors"] = tracer.errors[index] / ops
    for module, functions in LAYERS.items():
        metrics[f"{module}.self_s"] = sum(metrics[f"{module}.{fn}.self_s"] for fn in functions)
    # Self times add up to the time inside cli.main.
    metrics["trace.op_s"] = sum(self_s)
    extracted = metrics["jump_pipeline.yearly_observation.calls"]
    distinct = tracer.distinct_years() / ops
    metrics["jump_pipeline.yearly_observation.distinct_years"] = distinct
    metrics["jump_pipeline.extract_useful_ratio"] = distinct / extracted if extracted else 1.0
    models = metrics["regression_core.fit_bilinear.calls"]
    solves = metrics["regression_core.solve_linear_system.calls"]
    metrics["regression_core.solves_per_model"] = solves / models if models else 0.0
    metrics["trace.overhead_ratio"] = statistics.median(
        op * scale for op, _, scale in samples["traced"]
    ) / statistics.median(op * scale for op, _, scale in samples["plain"])
    notes = {
        "traced ops": f"{ops} traced, {len(samples['plain'])} untraced",
        "span log": f"{len(tracer.spans)} spans of the first traced op in {spans_path}",
    }
    if tracer.missing:
        notes["absent functions"] = ", ".join(tracer.missing)
    return metrics, notes


def run_benchmark(name: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Run one workload; returns (result, summary lines)."""
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="inputs-", dir=OUT_DIR) as tmp:
        inputs = make_inputs(seed, Path(tmp))
        runner = OpRunner(build_workload(name, inputs))
        if trace:
            metrics, notes = traced_run(runner, seconds, OUT_DIR / f"spans-{name}.csv")
        else:
            metrics, notes = timed_run(runner, seconds)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {key: {"value": value, "unit": unit_of(key)} for key, value in metrics.items()},
    }
    lines = [
        f"workload {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}",
        f"inputs   years {LAST_YEAR - FIRST_YEAR + 1} ({FIRST_YEAR}-{LAST_YEAR}),"
        f" fixings {len(inputs.entries)}, series {inputs.series_bytes} bytes,"
        f" spec {inputs.spec_bytes} bytes; argv {' '.join(runner.workload.argv)}",
        f"env      python {sys.version.split()[0]}, nproc {len(os.sched_getaffinity(0))},"
        f" git {git_sha(ROOT)}",
    ]
    for key, value in metrics.items():
        lines.append(f"{key:<48} {value:<14.6g} {unit_of(key):<6} {notes.get(key, '')}")
    lines.append(
        f"{'error_rate':<48} {runner.failed / runner.attempted:<14.6g} {'ratio':<6}"
        f" {runner.failed} failed / {runner.attempted} attempted"
    )
    lines.extend(f"{key}: {text}" for key, text in notes.items() if key not in metrics)
    lines.extend(f"problem: {p}" for p in runner.problems[:PROBLEMS_SHOWN])
    return result, lines


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric == "trace.op_s" or metric.endswith(".self_s"):
        return "s"
    if metric.endswith(("_ratio", "solves_per_model")):
        return "ratio"
    return "count"


def git_sha(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description="Benchmark one xmasjump CLI workload."
    )
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float, help="length of the timed loop")
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: per-layer metrics from a traced run instead of end-to-end metrics",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    result, lines = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0
