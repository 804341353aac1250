"""Benchmark of the xmasjump CLI, run from the root of a checkout:

    python3 perfbench/run.py --workload backtest-200y --seed 1 --seconds 30 --trace 0

Workloads: backtest-200y, predict-200y, generate-200y. ``--trace 0`` prints
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. See perfbench/README.md.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    if not (ROOT / "src" / "xmasjump" / "cli.py").is_file():
        print(f"perfbench: no xmasjump sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
