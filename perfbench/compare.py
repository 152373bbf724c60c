"""Compare two sets of benchmark results, parent against change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds results files written by run.py (perfbench/results/
by default; copy it aside between the two checkouts).  For every workload
and metric the table shows the median and quartiles of each side, the
change of the median, and for end-to-end metrics whether the change is
worse than the parent by more than the bound in BENCHMARK.json.  A metric
whose parent spread (quartile distance over median) exceeds its bound is
marked unresolved instead.  Per-layer metrics come from traced runs and
carry no bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str) -> dict:
    """{(workload, trace, metric): [value per run]} from every results file."""
    out = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text())
        if "workload" not in rec:
            continue
        section = rec.get("per_layer", {}) if rec["trace"] else rec["metrics"]
        for name, m in section.items():
            out[(rec["workload"], rec["trace"], name)].append(m["value"])
        if not rec["trace"]:
            for name, value in rec.get("workload_metrics", {}).items():
                out[(rec["workload"], 0, name)].append(value)
    return out


def quartiles(xs: list) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def summary(q: tuple, n: int) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}] {n}"


def verdict(spec: dict | None, parent: list, change: list) -> str:
    if spec is None:
        return ""
    q1, med, q3 = quartiles(parent)
    if med == 0:
        return "zero parent median"
    if (q3 - q1) / abs(med) > spec["bound"]:
        return "unresolved (parent spread above bound)"
    worse = (statistics.median(change) - med) / abs(med)
    if spec["better"] == "higher":
        worse = -worse
    return "WORSE beyond bound" if worse > spec["bound"] else "within bound"


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    parent, change = load(argv[0]), load(argv[1])
    keys = sorted(set(parent) & set(change))
    if not keys:
        print("no metric appears on both sides", file=sys.stderr)
        return 2
    crossed = 0
    print(f"{'workload':14} {'metric':42} {'parent median [q1, q3] n':32} "
          f"{'change median [q1, q3] n':32} {'delta':>8}  verdict")
    for workload, trace, name in keys:
        p, c = parent[(workload, trace, name)], change[(workload, trace, name)]
        pq, cq = quartiles(p), quartiles(c)
        delta = (cq[1] - pq[1]) / abs(pq[1]) if pq[1] else float("nan")
        v = verdict(bounds.get(name) if not trace else None, p, c)
        crossed += v.startswith("WORSE")
        print(f"{workload:14} {name:42} {summary(pq, len(p)):32} {summary(cq, len(c)):32} "
              f"{100 * delta:+7.1f}%  {v}")
    return 1 if crossed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
