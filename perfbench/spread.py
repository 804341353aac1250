"""Run the benchmark once per seed and report how far each metric spreads.

    python3 perfbench/spread.py --workload predict-200y --seeds 1-10
    python3 perfbench/spread.py --seeds 1-10 --write perfbench/out/spread.json

For each workload and end-to-end metric it prints the median of the runs,
their first and third quartiles (``statistics.quantiles(values, n=4)``) and
the spread (Q3 - Q1) / median next to a third of the metric's bound from
BENCHMARK.json, the level a steady metric should stay under. Runs are
sequential, one process at a time, so they do not slow each other.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}: {done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--write", type=Path, help="also write the summary as JSON here")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {}
    for workload in workloads:
        runs = [run_once(workload, seed, args.seconds) for seed in seed_range(args.seeds)]
        failed = sum(run["failed"] for run in runs)
        print(f"{workload}: {len(runs)} runs, {failed} failed ops of"
              f" {sum(run['attempted'] for run in runs)}")
        report[workload] = {}
        for name in runs[0]["metrics"]:
            stats = summarize([run["metrics"][name]["value"] for run in runs])
            report[workload][name] = stats
            bound = bounds.get(name)
            limit = f"bound/3 {bound / 3:.4f}" if bound else ""
            print(f"  {name:<48} median {stats['median']:<12.6g} q1 {stats['q1']:<12.6g}"
                  f" q3 {stats['q3']:<12.6g} spread {stats['spread']:.4f} {limit}")
    if args.write:
        args.write.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
