"""Collect a result set: end-to-end runs of the benchmark over workloads and seeds.

    python3 perfbench/collect.py --out set.json --runs 10
    python3 perfbench/collect.py --root ../parent --out parent.json \\
        --root . --out change.json --runs 10

With several checkouts, each (workload, seed) runs once in every checkout
before the next starts, and the order of the checkouts alternates from
seed to seed. Each result set records the environment and every run's
result line, and the spread of every end-to-end metric is printed as the
distance between its quartiles over its median, next to its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run
import workloads as wl


def run_once(root: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
    return {"workload": workload, "seed": seed, "exit_code": proc.returncode, "result": result}


def values(runs: list[dict], workload: str, metric: str) -> list[float]:
    return [r["result"]["metrics"][metric]["value"] for r in runs
            if r["workload"] == workload and r["result"] and metric in r["result"]["metrics"]]


def quartiles(xs: list[float]) -> list[float]:
    return statistics.quantiles(xs, n=4)


def spread_report(result_set: dict) -> list[str]:
    lines = []
    for workload in sorted({r["workload"] for r in result_set["runs"]}):
        for m in result_set["benchmark"]["end_to_end"]:
            xs = values(result_set["runs"], workload, m["name"])
            if len(xs) < 2:
                continue
            q1, med, q3 = quartiles(xs)
            spread = (q3 - q1) / med
            flag = "ok" if spread < m["bound"] / 3 else "WIDE"
            lines.append(f"{workload:<13} {m['name']:<12} median {med:<10.5g} "
                         f"q1 {q1:<10.5g} q3 {q3:<10.5g} spread {spread:6.3f} "
                         f"bound {m['bound']:.2f} {flag} (n={len(xs)})")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", action="append", type=Path,
                        help="checkout to benchmark (repeatable; default: this one)")
    parser.add_argument("--out", action="append", type=Path, required=True,
                        help="result set file, one per --root")
    parser.add_argument("--runs", type=int, default=10, help="seeds 1..RUNS per workload")
    args = parser.parse_args()
    roots = [r.resolve() for r in (args.root or [wl.ROOT])]
    if len(roots) != len(args.out):
        parser.error("give one --out per --root")
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    sets = [{"root": str(root), "environment": run.environment(), "benchmark": spec,
             "seconds": seconds, "runs": []} for root in roots]
    order = list(range(len(roots)))
    for workload in wl.WORKLOADS:
        for seed in range(1, args.runs + 1):
            for i in order:
                record = run_once(roots[i], workload, seed, seconds)
                sets[i]["runs"].append(record)
                metrics = record["result"]["metrics"] if record["result"] else {}
                print(f"{Path(roots[i]).name} {workload} seed {seed} exit {record['exit_code']} "
                      + " ".join(f"{k}={v['value']:.5g}" for k, v in metrics.items()
                                 if k in {m["name"] for m in spec["end_to_end"]}), flush=True)
            order.reverse()
    for result_set, out in zip(sets, args.out):
        out.write_text(json.dumps(result_set, indent=1) + "\n")
        print(f"{out}:")
        for line in spread_report(result_set):
            print("  " + line)
    return 0 if all(r["exit_code"] == 0 for s in sets for r in s["runs"]) else 1


if __name__ == "__main__":
    sys.exit(main())
