"""Compare two sets of benchmark results, or show the spread of one.

    python3 perfbench/compare.py A_DIR [B_DIR]

Each directory holds the per-run records run.py writes (``--results``).
For every (workload, end-to-end metric) the report gives each side's median,
quartiles and run count, the spread (quartile distance over median) and,
with two sides, B's change against A in the metric's worse direction.  A row
is "unresolved" when either side's spread is wider than the metric's bound
in BENCHMARK.json.  The report gates nothing: it always exits 0.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str) -> dict:
    """(workload, metric) -> values, over the untraced runs in a directory."""
    values = defaultdict(list)
    for path in sorted(Path(directory).glob("*-trace0.json")):
        rec = json.loads(path.read_text())
        for name, m in rec["metrics"].items():
            values[(rec["workload"], name)].append(m["value"])
    return values


def summary(vals: list) -> tuple:
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv: list) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__)
        return 2
    spec = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    sides = [load(d) for d in argv]
    keys = sorted({k for side in sides for k in side})
    head = f"{'workload':<11} {'metric':<12} {'bound':>5}"
    for label in "AB"[:len(sides)]:
        head += f" | {label + ' median':>10} {'q1':>9} {'q3':>9} {'n':>3} {'spread':>6}"
    print(head + (" | change  status" if len(sides) == 2 else " | status"))
    for workload, metric in keys:
        m = spec.get(metric)
        if m is None:
            continue
        row = f"{workload:<11} {metric:<12} {m['bound']:>5.2f}"
        stats = []
        for side in sides:
            vals = side.get((workload, metric), [])
            if not vals:
                row += f" | {'-':>10} {'':>9} {'':>9} {0:>3} {'':>6}"
                continue
            s = summary(vals)
            stats.append(s)
            row += f" | {s[0]:>10.4f} {s[1]:>9.4f} {s[2]:>9.4f} {len(vals):>3} {s[3]:>6.3f}"
        if len(stats) < len(sides):
            print(row + " | missing")
            continue
        worst = max(s[3] for s in stats)
        status = "unresolved" if worst > m["bound"] else "resolved"
        if len(sides) == 2:
            sign = 1 if m["better"] == "lower" else -1
            change = sign * (stats[1][0] / stats[0][0] - 1.0)
            if status == "resolved":
                status = "worse beyond bound" if change > m["bound"] else "within bound"
            row += f" | {change:>+6.3f}  {status}"
        else:
            row += f" | {status}"
        print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
