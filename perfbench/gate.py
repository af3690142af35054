"""Byte-identity gate: recorded SHA-256 digests of every artifact.

The gate covers each bundled scenario over a fixed seed set, plus each
workload at the default seed. The benchmark re-checks it on every run;
a mismatch counts as a failed command.

Record new digests only when a change alters outputs on purpose:

    python3 perfbench/gate.py --record
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import traceback
from pathlib import Path

import workloads as wl

GATE_SEEDS = (1, 2, 3, 4, 5)
CRASHED = -1


def run_main(argv: list[str]) -> int:
    """`mesoped.cli.main` in this process, its console output discarded.

    An exception escaping the program is printed and returned as CRASHED.
    """
    from mesoped.cli import main
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main(argv)
    except Exception:
        traceback.print_exc()
        return CRASHED


def bundled_names() -> list[str]:
    return sorted(p.stem for p in wl.BUNDLED.glob("*.scenario"))


def bundled_runs(work_dir: Path):
    """Yield (key, exit code, digests) for each bundled scenario and gate seed."""
    for name in bundled_names():
        for seed in GATE_SEEDS:
            out = wl.reset_dir(work_dir / "out")
            rc = run_main(["run", name, "--seed", str(seed), "--out", str(out)])
            yield f"{name}/seed{seed}", rc, wl.digest_dir(out, wl.RUN_ARTIFACTS)


def workload_run(workload: str, work_dir: Path) -> tuple[int, Path]:
    """Run the workload once at the default seed; return exit code and output dir."""
    scenarios = wl.write_inputs(workload, wl.DEFAULT_SEED, work_dir / "inputs")
    out = wl.reset_dir(work_dir / "out")
    return run_main(wl.cli_args(workload, scenarios, out)), out


def check(workload: str, work_dir: Path, recorded: dict) -> tuple[int, list[str]]:
    """Re-run the gate for one workload: (commands attempted, one line per failed command)."""
    failures = []
    attempted = 0
    for key, rc, digests in bundled_runs(work_dir):
        attempted += 1
        want = recorded["bundled"].get(key)
        if rc != 0:
            failures.append(f"gate {key}: exit code {rc}")
        elif digests != want:
            bad = sorted(n for n in digests if want is None or digests[n] != want.get(n))
            failures.append(f"gate {key}: digest mismatch in {', '.join(bad)}")
    attempted += 1
    rc, out = workload_run(workload, work_dir)
    key = f"gate {workload}/seed{wl.DEFAULT_SEED}"
    problems = [f"exit code {rc}"] if rc else wl.check_outputs(
        workload, out, recorded["workloads"][workload])
    if problems:
        failures.append(f"{key}: {'; '.join(problems)}")
    return attempted, failures


def record(work_dir: Path) -> dict:
    bundled = {}
    for key, rc, digests in bundled_runs(work_dir):
        if rc != 0:
            raise SystemExit(f"{key} exited {rc}; not recording")
        bundled[key] = digests
    workloads = {}
    for workload in wl.WORKLOADS:
        rc, out = workload_run(workload, work_dir)
        problems = wl.check_outputs(workload, out, None)
        if rc != 0 or problems:
            raise SystemExit(f"{workload} exited {rc} with {problems}; not recording")
        workloads[workload] = wl.digest_dir(out, wl.ARTIFACTS[workload])
    return {"seeds": list(GATE_SEEDS), "default_seed": wl.DEFAULT_SEED,
            "bundled": bundled, "workloads": workloads}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true", required=True,
                        help=f"rewrite {wl.DIGESTS.name} from the current program")
    parser.parse_args()
    wl.use_source()
    work_dir = wl.scratch_dir("gate")
    try:
        wl.DIGESTS.write_text(json.dumps(record(work_dir), indent=1, sort_keys=True) + "\n")
    finally:
        wl.remove_dir(work_dir)
    print(f"wrote {wl.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
