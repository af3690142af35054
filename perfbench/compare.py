"""Compare two result sets made by collect.py: parent first, change second.

    python3 perfbench/compare.py parent.json change.json

For each workload and end-to-end metric it prints both medians and
quartiles, how many seed-matched pairs the change won, and a verdict:

- better: the change wins at least nine tenths of the pairs (ties count
  for neither) and the medians differ by more than the parent's quartile
  distance;
- unresolved: the parent's spread (quartile distance over median) is wider
  than the metric's bound, unless every change run beats every parent run;
- worse: the change's median is worse than the parent's by more than the
  bound, as a share of the parent's median;
- within bound: none of the above.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from collect import quartiles

WIN_SHARE = 0.9


def by_seed(result_set: dict, workload: str, metric: str) -> dict[int, float]:
    return {r["seed"]: r["result"]["metrics"][metric]["value"] for r in result_set["runs"]
            if r["workload"] == workload and r["result"] and metric in r["result"]["metrics"]}


def verdict(parent: list[float], change: list[float], wins: int, pairs: int,
            bound: float, lower_is_better: bool) -> str:
    sign = 1 if lower_is_better else -1
    q1, med_p, q3 = quartiles(parent)
    med_c = quartiles(change)[1]
    gain = sign * (med_p - med_c)
    if pairs and wins >= WIN_SHARE * pairs and gain > q3 - q1:
        return "better"
    if (q3 - q1) / med_p > bound:
        best_parent = min(parent) if lower_is_better else max(parent)
        if all(sign * (best_parent - c) > 0 for c in change):
            return "better"
        return "unresolved"
    if -gain > bound * med_p:
        return "worse"
    return "within bound"


def compare(parent: dict, change: dict) -> list[str]:
    lines = []
    for workload in sorted({r["workload"] for r in parent["runs"]}):
        for m in parent["benchmark"]["end_to_end"]:
            name, lower = m["name"], m["better"] == "lower"
            pa, pb = by_seed(parent, workload, name), by_seed(change, workload, name)
            a, b = list(pa.values()), list(pb.values())
            if len(a) < 2 or len(b) < 2:
                lines.append(f"{workload:<13} {name:<12} too few runs")
                continue
            seeds = sorted(set(pa) & set(pb))
            wins = sum((pb[s] < pa[s]) if lower else (pb[s] > pa[s]) for s in seeds)
            qa, qb = quartiles(a), quartiles(b)
            lines.append(
                f"{workload:<13} {name:<12} parent {qa[1]:.5g} [{qa[0]:.5g}, {qa[2]:.5g}]  "
                f"change {qb[1]:.5g} [{qb[0]:.5g}, {qb[2]:.5g}]  wins {wins}/{len(seeds)}  "
                f"bound {m['bound']:.2f}  {verdict(a, b, wins, len(seeds), m['bound'], lower)}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args()
    parent, change = (json.loads(p.read_text()) for p in (args.parent, args.change))
    for label, s in (("parent", parent), ("change", change)):
        print(f"{label}: {s['root']} environment {json.dumps(s['environment'])}")
    for line in compare(parent, change):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
