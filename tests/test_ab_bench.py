"""The table and the flags of ``tools/ab_bench.py``, on canned result lines;
no benchmark runs here."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ab_bench", ROOT / "tools" / "ab_bench.py")
ab_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_bench)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
UNITS = {m["name"]: m["unit"] for m in END_TO_END}


def result(op_s=0.010, ops_per_s=100.0, setup_s=0.015, peak=0.180, failed=0, attempted=1000):
    """A last JSON line of ``perfbench/run.py --trace 0``."""
    values = {"op_s.p50": op_s, "ops_per_s": ops_per_s, "setup_s": setup_s, "op_peak_mib": peak}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}}


def runs_of(workload, base_results, change_results):
    """``BENCH_*.json`` run records of alternating pairs."""
    runs = []
    for pair, (base, change) in enumerate(zip(base_results, change_results)):
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        for side in order:
            runs.append({"workload": workload, "pair": pair, "seed": 100 + pair, "side": side,
                         "first": side == order[0],
                         "result": base if side == "base" else change})
    return runs


def test_a_tree_against_itself_flags_nothing():
    same = [result(op_s=0.010 + i * 1e-4, peak=0.18 + i * 1e-4) for i in range(10)]
    summary = ab_bench.summarize(runs_of("predict-200y", same, same), END_TO_END)
    assert ab_bench.verdicts(summary, END_TO_END) == ([], [], [])
    metric = summary["predict-200y"]["metrics"]["op_s.p50"]
    assert (metric["won"], metric["percent"], metric["worse"], metric["gain"]) == (0, 0.0, False,
                                                                                   False)


def test_the_table_row_gives_quartiles_change_and_wins():
    base = [result(op_s=v, setup_s=0.0150, peak=0.1803) for v in (0.0100, 0.0110, 0.0120)]
    change = [result(op_s=v, setup_s=0.0150, peak=0.1505) for v in (0.0090, 0.0115, 0.0096)]
    summary = ab_bench.summarize(runs_of("predict-200y", base, change), END_TO_END)
    text = ab_bench.table(summary, END_TO_END).splitlines()
    assert text[0] == ("| workload | pairs | `op_s.p50` (ms) | `ops_per_s` | `setup_s` (ms)"
                       " | `op_peak_mib` |")
    assert text[1] == "| --- | --- | --- | --- | --- | --- |"
    cells = text[2].split(" | ")
    assert cells[:2] == ["| `predict-200y`", "3"]
    # medians 11.0 and 9.6 ms; inclusive quartiles 10.5-11.5 and 9.3-10.55
    assert cells[2] == "11 [10.5-11.5] → 9.6 [9.3-10.55], -12.7%, 2/3"
    assert cells[3] == "100 [100-100] → 100 [100-100], +0.0%, 0/3"
    assert cells[5] == "0.1803 [0.1803-0.1803] → 0.1505 [0.1505-0.1505], -16.5%, 3/3 |"


def test_a_metric_worse_beyond_its_bound_is_flagged():
    # op_peak_mib's bound is 5% and op_s.p50's 20%: +10% flags only the peak
    base = [result(op_s=0.010, peak=0.180) for _ in range(4)]
    change = [result(op_s=0.011, peak=0.198) for _ in range(4)]
    summary = ab_bench.summarize(runs_of("backtest-200y", base, change), END_TO_END)
    worse, unresolved, gains = ab_bench.verdicts(summary, END_TO_END)
    assert worse == ["backtest-200y op_peak_mib: +10.0%, beyond its bound of 5%"]
    assert unresolved == gains == []
    # higher is better for ops_per_s: a 25% fall is worse beyond 20%
    change = [result(ops_per_s=75.0) for _ in range(4)]
    summary = ab_bench.summarize(runs_of("backtest-200y", base, change), END_TO_END)
    assert ab_bench.verdicts(summary, END_TO_END)[0] == [
        "backtest-200y ops_per_s: -25.0%, beyond its bound of 20%"]


def test_a_gain_needs_nine_pairs_of_ten_and_a_gap_past_the_spread():
    base = [result(peak=0.180 + i * 1e-4) for i in range(10)]  # quartile spread 4.5e-4
    won_all = [result(peak=0.150) for _ in range(10)]
    summary = ab_bench.summarize(runs_of("predict-200y", base, won_all), END_TO_END)
    assert ab_bench.verdicts(summary, END_TO_END)[2] == [
        "predict-200y op_peak_mib: -16.9%, 10/10 pairs"]
    # two pairs lost: 8 of 10 is too few
    won_eight = won_all[:8] + [result(peak=0.200)] * 2
    summary = ab_bench.summarize(runs_of("predict-200y", base, won_eight), END_TO_END)
    assert summary["predict-200y"]["metrics"]["op_peak_mib"]["won"] == 8
    assert ab_bench.verdicts(summary, END_TO_END)[2] == []
    # better in every pair, but by less than the base's quartile spread
    close = [result(peak=0.180 + i * 1e-4 - 2e-5) for i in range(10)]
    summary = ab_bench.summarize(runs_of("predict-200y", base, close), END_TO_END)
    assert summary["predict-200y"]["metrics"]["op_peak_mib"]["won"] == 10
    assert ab_bench.verdicts(summary, END_TO_END)[2] == []


def test_failed_ops_and_runs_without_a_result_are_flagged():
    base = [result() for _ in range(3)]
    change = [result(failed=5), result(), {"error": "exit 1: Traceback"}]
    summary = ab_bench.summarize(runs_of("generate-200y", base, change), END_TO_END)
    assert summary["generate-200y"]["pairs"] == 2
    worse, _, _ = ab_bench.verdicts(summary, END_TO_END)
    assert worse == ["generate-200y: 1 pair(s) without a result",
                     "generate-200y: failed ops 0.000% → 0.250%"]


def test_a_gain_counts_the_pairs_without_a_result():
    # 9 wins of 9 whole pairs, but 10 pairs run: 9 of 10 still carries it;
    # 7 wins of 7 whole pairs with 3 broken is too few
    base = [result(peak=0.180 + i * 1e-4) for i in range(10)]
    change = [result(peak=0.150) for _ in range(9)] + [{"error": "exit 1: Traceback"}]
    summary = ab_bench.summarize(runs_of("predict-200y", base, change), END_TO_END)
    assert ab_bench.verdicts(summary, END_TO_END)[2] == [
        "predict-200y op_peak_mib: -16.9%, 9/10 pairs"]
    change = [result(peak=0.150) for _ in range(7)] + [{"error": "exit 1: Traceback"}] * 3
    summary = ab_bench.summarize(runs_of("predict-200y", base, change), END_TO_END)
    assert summary["predict-200y"]["metrics"]["op_peak_mib"]["won"] == 7
    assert ab_bench.verdicts(summary, END_TO_END)[2] == []


def test_a_base_spread_past_the_bound_is_unresolved_unless_every_run_is_better():
    # op_peak_mib's bound is 5%: a base with quartiles 10% apart cannot tell
    # a change whose runs fall among its own
    base = [result(peak=v) for v in (0.16, 0.17, 0.18, 0.19, 0.20)]
    change = [result(peak=v) for v in (0.17, 0.18, 0.18, 0.18, 0.19)]
    summary = ab_bench.summarize(runs_of("predict-200y", base, change), END_TO_END)
    worse, unresolved, gains = ab_bench.verdicts(summary, END_TO_END)
    assert unresolved == ["predict-200y op_peak_mib: the base's quartiles spread past"
                          " its bound of 5%"]
    assert worse == gains == []
    # the same spread with every change run better than every base run is
    # resolved; every change run worse is not
    change = [result(peak=0.12) for _ in range(5)]
    summary = ab_bench.summarize(runs_of("predict-200y", base, change), END_TO_END)
    assert ab_bench.verdicts(summary, END_TO_END)[1] == []
    change = [result(peak=0.21) for _ in range(5)]
    summary = ab_bench.summarize(runs_of("predict-200y", base, change), END_TO_END)
    assert len(ab_bench.verdicts(summary, END_TO_END)[1]) == 1
