"""Compare the working tree with a base commit on the benchmark, in pairs.

    python3 tools/ab_bench.py BASE [--pairs 10] [--seconds 30] [--first-seed N]
                                   [--out-dir bench]

BASE is a git revision, usually the parent of the change. Its committed
files are extracted with ``git archive BASE | tar -x -C DIR`` into a
temporary directory, and each workload of ``BENCHMARK.json`` is run as
alternating pairs of ``perfbench/run.py --trace 0``, one run in the base's
copy and one in the working tree, both on the same seed. Every pair takes a
fresh seed, and the side that goes first switches from pair to pair, the
base first in the first pair. The runs go one after another, never at once.

It writes ``BENCH_<short base sha>.json`` to the output directory: the
shas, the Python version, ``nproc``, the seeds and every run's last JSON
line. It prints a table of the end-to-end metrics in CHANGES.md's layout:
per workload and metric, the base's median [first-third quartile] → the
change's, the change in percent and the pairs that the change won. Under
it, it names each metric worse than the base's median by more than its
``BENCHMARK.json`` bound, or with a larger share of failed ops; each too
spread to tell, where the base's quartile spread is wider than the bound
and not every run of the change beats every run of the base; and each that would carry a claimed gain:
better in at least nine of every ten pairs run, by a median gap larger
than the base's quartile spread. ``BENCHMARK.json`` is read, never
written. Exits 1 if a metric is flagged worse or too spread to tell, or a
run failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("base", "change")
GAIN_SHARE = 0.9  # of the pairs, for a claimed gain


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def extract(sha: str, directory: Path) -> None:
    """The files of commit ``sha`` in ``directory``, as ``git archive`` gives them."""
    directory.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(directory)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"git archive {sha} failed")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its last JSON line, or the
    reason it gave none as ``{"error": ...}``."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", f"{seconds:g}", "--trace", "0"]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        if done.returncode == 0 and lines:
            return json.loads(lines[-1])
    except json.JSONDecodeError:
        pass
    tail = (done.stderr.strip() or done.stdout.strip()).splitlines()[-1:]
    return {"error": f"exit {done.returncode}: {' '.join(tail)}"}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """The first quartile, the median and the third quartile of ``values``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload, its pairs, failed-op shares and, per end-to-end metric,
    each side's quartiles, the change in percent, the pairs the change won
    and the flags. ``runs`` are the records ``BENCH_*.json`` keeps; a pair
    with a run that gave no result counts in no metric, but still in the
    pairs run that a gain is measured against."""
    pairs: dict[str, dict[int, dict]] = {}
    for run in runs:
        pairs.setdefault(run["workload"], {}).setdefault(run["pair"], {})[run["side"]] = run
    summary = {}
    for workload, by_pair in pairs.items():
        whole = [p for p in by_pair.values()
                 if all(side in p and "error" not in p[side]["result"] for side in SIDES)]
        entry = {"pairs": len(whole), "broken": len(by_pair) - len(whole), "metrics": {}}
        entry["failed_share"] = {
            side: (sum(p[side]["result"]["failed"] for p in whole)
                   / max(1, sum(p[side]["result"]["attempted"] for p in whole)))
            for side in SIDES}
        for metric in end_to_end if whole else ():
            name = metric["name"]
            values = {side: [p[side]["result"]["metrics"][name]["value"] for p in whole]
                      for side in SIDES}
            base, change = quartiles(values["base"]), quartiles(values["change"])
            # times sign, a change for the worse is positive
            sign = 1.0 if metric["better"] == "lower" else -1.0
            percent = 100.0 * (change[1] - base[1]) / base[1] if base[1] else 0.0
            won = sum(sign * (c - b) < 0 for b, c in zip(values["base"], values["change"]))
            gain = (won >= GAIN_SHARE * len(by_pair)
                    and sign * (base[1] - change[1]) > base[2] - base[0])
            # too spread to tell, unless every change run beats every base run
            unresolved = (base[2] - base[0] > metric["bound"] * abs(base[1])
                          and max(sign * v for v in values["change"])
                          >= min(sign * v for v in values["base"]))
            entry["metrics"][name] = {
                "unit": metric["unit"], "base": base, "change": change, "percent": percent,
                "won": won, "worse": sign * percent > 100.0 * metric["bound"], "gain": gain,
                "unresolved": unresolved}
        summary[workload] = entry
    return summary


def cell(metric: dict, pairs: int) -> str:
    """One table cell: base median [q1-q3] → change median [q1-q3], change, wins."""
    scale = 1000.0 if metric["unit"] == "s" else 1.0

    def side(q):
        q1, median, q3 = (v * scale for v in q)
        return f"{median:.4g} [{q1:.4g}-{q3:.4g}]"

    return (f"{side(metric['base'])} → {side(metric['change'])},"
            f" {metric['percent']:+.1f}%, {metric['won']}/{pairs}")


def table(summary: dict, end_to_end: list[dict]) -> str:
    """The CHANGES.md table of ``summarize``'s result, times in ms."""
    heads = [f"`{m['name']}`" + (" (ms)" if m["unit"] == "s" else "") for m in end_to_end]
    lines = ["| workload | pairs | " + " | ".join(heads) + " |",
             "| --- | --- |" + " --- |" * len(heads)]
    for workload, entry in summary.items():
        cells = [cell(entry["metrics"][m["name"]], entry["pairs"])
                 if m["name"] in entry["metrics"] else "no result" for m in end_to_end]
        lines.append(f"| `{workload}` | {entry['pairs']} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def verdicts(summary: dict, end_to_end: list[dict]) -> tuple[list[str], list[str], list[str]]:
    """The lines that name what is worse beyond its bound (or broken), the
    metrics too spread to tell, and those whose change would carry a
    claimed gain."""
    bounds = {m["name"]: m["bound"] for m in end_to_end}
    worse, unresolved, gains = [], [], []
    for workload, entry in summary.items():
        if entry["broken"]:
            worse.append(f"{workload}: {entry['broken']} pair(s) without a result")
        shares = entry["failed_share"]
        if shares["change"] > shares["base"]:
            worse.append(f"{workload}: failed ops {shares['base']:.3%} → {shares['change']:.3%}")
        for name, metric in entry["metrics"].items():
            if metric["worse"]:
                worse.append(f"{workload} {name}: {metric['percent']:+.1f}%,"
                             f" beyond its bound of {bounds[name]:.0%}")
            if metric["unresolved"]:
                unresolved.append(f"{workload} {name}: the base's quartiles spread past"
                                  f" its bound of {bounds[name]:.0%}")
            if metric["gain"]:
                gains.append(f"{workload} {name}: {metric['percent']:+.1f}%,"
                             f" {metric['won']}/{entry['pairs'] + entry['broken']} pairs")
    return worse, unresolved, gains


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="tools/ab_bench.py", description=__doc__.split("\n")[0])
    parser.add_argument("base", help="git revision to compare the working tree with")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of each run's timed loop; default BENCHMARK.json's")
    parser.add_argument("--first-seed", type=int, default=None,
                        help="seed of the first pair; default from the clock")
    parser.add_argument("--out-dir", type=Path, default=ROOT / "bench")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = benchmark["end_to_end"]
    workloads = [w["name"] for w in benchmark["workloads"]]
    seconds = args.seconds or benchmark["run_seconds"]
    first_seed = args.first_seed if args.first_seed is not None else int(time.time()) % 10**6 * 10
    base = git("rev-parse", "--verify", args.base + "^{commit}")
    record = {
        "base": base, "head": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain")),
        "python": sys.version.split()[0], "nproc": len(os.sched_getaffinity(0)),
        "seconds": seconds, "pairs": args.pairs, "seeds": {}, "runs": [],
    }
    with tempfile.TemporaryDirectory() as scratch:
        base_tree = Path(scratch) / f"base-{base[:7]}"
        extract(base, base_tree)
        trees = {"base": base_tree, "change": ROOT}
        for w, workload in enumerate(workloads):
            seeds = [first_seed + w * args.pairs + i for i in range(args.pairs)]
            record["seeds"][workload] = seeds
            for pair, seed in enumerate(seeds):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    result = run_once(trees[side], workload, seed, seconds)
                    record["runs"].append({"workload": workload, "pair": pair, "seed": seed,
                                           "side": side, "first": order[0] == side,
                                           "result": result})
                    print(f"{workload} pair {pair + 1}/{args.pairs} seed {seed} {side}:"
                          f" {result.get('error', 'done')}", file=sys.stderr, flush=True)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    out = args.out_dir / f"BENCH_{base[:7]}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    summary = summarize(record["runs"], end_to_end)
    worse, unresolved, gains = verdicts(summary, end_to_end)
    print(f"{out}: base {base[:7]}, working tree on {record['head'][:7]}"
          f"{' with changes' if record['dirty'] else ''}; python {record['python']},"
          f" nproc {record['nproc']}, {seconds:g} s a run\n")
    print(table(summary, end_to_end))
    print("\nworse beyond the bound: " + ("; ".join(worse) or "none"))
    print("too spread to tell: " + ("; ".join(unresolved) or "none"))
    print("gains a claim could rest on: " + ("; ".join(gains) or "none"))
    return 1 if worse or unresolved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
