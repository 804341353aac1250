"""Self-tests of the benchmark, stdlib unittest only:

    python3 perfbench/selftest.py

They check that tracing does not change what the program prints, that the
traced counts repeat exactly, that a corrupted output is counted as a
failed op, and that the printed metrics are the ones BENCHMARK.json lists.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import workloads  # noqa: E402
import xmasjump.data_io  # noqa: E402
import xmasjump.jump_pipeline  # noqa: E402
import xmasjump.market_calendar  # noqa: E402
from tracer import SPAN_NAMES, Tracer  # noqa: E402
from xmasjump.errors import WindowTooShort  # noqa: E402

SEED = 7


def calls_of(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items() if k.endswith(".calls")}


class WithInputs(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        harness.OUT_DIR.mkdir(exist_ok=True)
        cls.tmp = tempfile.TemporaryDirectory(prefix="selftest-", dir=harness.OUT_DIR)
        cls.inputs = workloads.make_inputs(SEED, Path(cls.tmp.name))

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def run_op(self, name: str, corrupt=None) -> harness.OpRunner:
        workload = workloads.build_workload(name, self.inputs)
        if corrupt is not None:
            observe = workload.observe
            workload = dataclasses.replace(workload, observe=lambda out: corrupt(observe(out)))
        runner = harness.OpRunner(workload)
        runner.run()
        return runner


class TracingTest(WithInputs):
    def test_traced_and_untraced_ops_print_the_same(self):
        for name in workloads.WORKLOAD_NAMES:
            with self.subTest(name):
                runner = self.run_op(name)
                plain = runner.last
                tracer = Tracer()
                with tracer.installed():
                    runner.run()
                self.assertEqual(runner.last, plain)
                self.assertEqual((runner.attempted, runner.failed), (2, 0), runner.problems)
                self.assertEqual(tracer.calls[SPAN_NAMES.index("cli.main")], 1)

    def test_every_binding_is_wrapped_and_restored(self):
        original = xmasjump.market_calendar.pre_window
        with Tracer().installed():
            self.assertIsNot(xmasjump.market_calendar.pre_window, original)
            self.assertIs(xmasjump.jump_pipeline.pre_window, xmasjump.market_calendar.pre_window)
        self.assertIs(xmasjump.market_calendar.pre_window, original)
        self.assertIs(xmasjump.jump_pipeline.pre_window, original)

    def test_raised_errors_are_counted(self):
        tracer = Tracer()
        series = xmasjump.data_io.parse_rate_series(self.inputs.series_path.read_text())
        cal = xmasjump.market_calendar.HolidayCalendar()
        with tracer.installed(), self.assertRaises(WindowTooShort):
            xmasjump.jump_pipeline.fit_window_model(2000, 2002, series, cal)
        self.assertEqual(tracer.errors[SPAN_NAMES.index("jump_pipeline.fit_window_model")], 1)

    def test_traced_calls_repeat_exactly(self):
        first, _ = harness.run_benchmark("backtest-200y", SEED, 0.1, trace=True)
        second, _ = harness.run_benchmark("backtest-200y", SEED, 0.1, trace=True)
        self.assertEqual(calls_of(first), calls_of(second))
        self.assertTrue(first["correct"])

    def test_ratios_are_quotients_of_their_counts(self):
        result, _ = harness.run_benchmark("backtest-200y", SEED, 0.1, trace=True)
        value = {k: v["value"] for k, v in result["metrics"].items()}
        extract = "jump_pipeline.yearly_observation"
        self.assertEqual(
            value["jump_pipeline.extract_useful_ratio"],
            value[f"{extract}.distinct_years"] / value[f"{extract}.calls"],
        )
        self.assertEqual(
            value["regression_core.solves_per_model"],
            value["regression_core.solve_linear_system.calls"]
            / value["regression_core.fit_bilinear.calls"],
        )


class OutputCheckTest(WithInputs):
    def assert_fails(self, runner: harness.OpRunner, phrase: str) -> None:
        self.assertEqual(runner.failed, 1)
        self.assertTrue(any(phrase in p for p in runner.problems), runner.problems)

    def test_correct_outputs_pass(self):
        for name in workloads.WORKLOAD_NAMES:
            with self.subTest(name):
                runner = self.run_op(name)
                self.assertEqual(runner.failed, 0, runner.problems)

    def test_perturbed_predicted_jump_fails(self):
        def corrupt(observation):
            doc = json.loads(observation[0])
            doc["rows"][5]["predicted_jump"] += 1e-3
            return (json.dumps(doc, indent=2) + "\n",)

        self.assert_fails(self.run_op("backtest-200y", corrupt), "predicted_jump")

    def test_realized_jump_off_the_planted_jump_fails(self):
        def corrupt(observation):
            doc = json.loads(observation[0])
            row = doc["rows"][7]
            row["realized_jump"] += 0.2
            row["error"] -= 0.2
            row["realized_mean"] += 0.2
            return (json.dumps(doc, indent=2) + "\n",)

        self.assert_fails(self.run_op("backtest-200y", corrupt), "planted")

    def test_predicted_trend_off_the_planted_trend_fails(self):
        def corrupt(observation):
            doc = json.loads(observation[0])
            doc["forecast"]["slope_a"] += 0.01
            return (json.dumps(doc, indent=2) + "\n",)

        self.assert_fails(self.run_op("predict-200y", corrupt), "trend slope")

    def test_rate_shifted_past_the_noise_band_fails(self):
        def corrupt(observation):
            stdout, written = observation
            lines = written.splitlines()
            day, rate = lines[100].split(",")
            lines[100] = f"{day},{float(rate) + 2.5 * workloads.NOISE!r}"
            return stdout, "\n".join(lines) + "\n"

        self.assert_fails(self.run_op("generate-200y", corrupt), "noise band")

    def test_output_that_changes_between_ops_fails(self):
        outputs = iter(["first", "second"])
        runner = self.run_op("predict-200y", lambda observation: (next(outputs),))
        runner.run()
        self.assertIn("output differs from the first op's output", runner.problems)


class ContractTest(unittest.TestCase):
    def test_printed_metrics_are_the_listed_ones(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, listed in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            with self.subTest(trace=trace):
                result, _ = harness.run_benchmark("predict-200y", SEED, 0.1, trace)
                printed = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(printed, {m["name"]: m["unit"] for m in listed})
                if not trace:
                    self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()))

    def test_refuses_to_run_without_the_program(self):
        with tempfile.TemporaryDirectory(prefix="bare-", dir=harness.OUT_DIR) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(
                BENCH_DIR, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
            )
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "predict-200y",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=120,
            )
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
