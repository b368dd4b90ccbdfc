"""Compare two benchmark record files, e.g. a parent commit's and a change's.

    python3 bench/compare.py PARENT_RUNS.jsonl CHANGE_RUNS.jsonl

Each file holds the records bench/run.py appends to .bench_results/runs.jsonl
(untraced runs only are compared).  For every workload and end-to-end metric
it prints both medians with their quartiles, the change's median as a share
of the parent's, and a verdict:

  improved    the change wins at least nine tenths of the pairs (run i of
              one file against run i of the other, ties counting for
              neither) and the medians differ by more than the distance
              between the parent's quartiles;
  unresolved  the parent's quartile distance, as a share of its median, is
              wider than the metric's bound, and not every run of the change
              reads better than every run of the parent;
  worse       the change's median is worse than the parent's by more than
              the bound;
  unchanged   otherwise.

A gain does not count when the change fails more operations than the parent:
each workload's row shows failed/attempted operations on both sides.

Bounds and directions come from BENCHMARK.json.  Run both sides with the
same --seconds, at least ten runs each, alternating which side runs first.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    """{workload: {metric: [values in file order]}} of untraced runs, and
    {workload: [failed, attempted]}."""
    out, ops = {}, {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec.get("trace"):
                continue
            per = out.setdefault(rec["workload"], {})
            tally = ops.setdefault(rec["workload"], [0, 0])
            tally[0] += rec["failed"]
            tally[1] += rec["attempted"]
            for name, m in rec["metrics"].items():
                per.setdefault(name, []).append(m["value"])
    return out, ops


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, bound, lower_is_better):
    def better(a, b):
        return a < b if lower_is_better else a > b

    mp, mc = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    pairs = list(zip(parent, change))
    wins = sum(better(c, p) for p, c in pairs)
    if pairs and wins >= 0.9 * len(pairs) and better(mc, mp) and abs(mc - mp) > q3 - q1:
        return "improved"
    all_better = all(better(c, p) for c in change for p in parent)
    if mp and (q3 - q1) / abs(mp) > bound and not all_better:
        return "unresolved"
    worse_by = (mc - mp) if lower_is_better else (mp - mc)
    if worse_by > bound * abs(mp):
        return "worse"
    return "unchanged"


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    metrics = [(m["name"], m["bound"], m["better"] == "lower") for m in spec["end_to_end"]]
    (parent, parent_ops), (change, change_ops) = load(argv[0]), load(argv[1])
    print(f"{'workload':<20} {'metric':<12} {'parent median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'change/parent':>13}  verdict")
    for workload in sorted(set(parent) | set(change)):
        pf, pa = parent_ops.get(workload, [0, 0])
        cf, ca = change_ops.get(workload, [0, 0])
        more_failures = ca and pa and cf / ca > pf / pa
        print(f"{workload:<20} {'failed ops':<12} {f'{pf}/{pa}':<34} {cf}/{ca}")
        for name, bound, lower in metrics:
            p = parent.get(workload, {}).get(name, [])
            c = change.get(workload, {}).get(name, [])
            if not p or not c:
                print(f"{workload:<20} {name:<12} missing runs on one side")
                continue
            cells = []
            for values in (p, c):
                q1, q3 = quartiles(values)
                cells.append(f"{statistics.median(values):.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}")
            ratio = statistics.median(c) / statistics.median(p)
            v = verdict(p, c, bound, lower)
            if v == "improved" and more_failures:
                v = "not counted: more failures"
            print(f"{workload:<20} {name:<12} {cells[0]:<34} {cells[1]:<34} {ratio:>13.3f}  {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
