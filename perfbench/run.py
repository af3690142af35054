"""Benchmark one mesoped workload: end-to-end metrics, or a traced run.

    python3 perfbench/run.py --workload big_hall --seed 1 --seconds 35 --trace 0

Each command runs in a fresh single-threaded interpreter, one at a time.
`--trace 0` times plain commands and reports the end-to-end metrics;
`--trace 1` alternates plain and traced commands and reports the per-layer
metrics. Both re-check the byte-identity gate and every command's outputs.
Readable lines come first; the last line is one JSON object. The exit code
is 1 when a command or an output check failed, 2 on bad usage or when the
mesoped sources are missing.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import gate
import tracer
import workloads as wl

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
COMMAND_TIMEOUT_S = 150
# Each set-up command repeats set-up for this long, at least once.
SETUP_WINDOW_S = 0.3
# The traced run makes at least this many plain/traced pairs.
TRACED_MIN_PAIRS = 3
# Artifacts that do not depend on the seed, checked against the recorded
# default-seed digest on every seed.
SEED_FREE = ("field.csv",)
PERCENTILES = (99.9, 99, 95, 90, 75, 50)
# The speed probe sorts this many seeded random floats and bins PROBE_WALKERS
# objects, PROBE_REPS times, before and after each command.
PROBE_FLOATS = 100_000
PROBE_WALKERS = 20_000
PROBE_REPS = 3
# Seconds the speed probe takes at the reference speed that times are scaled to.
PROBE_REFERENCE_S = 0.040

PLAIN = ["-c", "import sys; from mesoped.cli import main; sys.exit(main())"]
TRACED = [str(Path(tracer.__file__).resolve())]
SETUP = [str(Path(__file__).resolve().with_name("setup_time.py"))]


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": importlib.metadata.version("numpy")}


class _Walker:
    __slots__ = ("row", "col", "value")

    def __init__(self, row: int, col: int, value: float) -> None:
        self.row, self.col, self.value = row, col, value


def probe_kernel(values: list[float]) -> int:
    """Fixed work the machine's slow phases slow about as they slow the commands:
    a sort of `values`, then small objects binned by cell in a dict and sorted
    by a key, like the engine's work."""
    walkers = [_Walker(i % 97, i % 89, v) for i, v in enumerate(values[:PROBE_WALKERS])]
    cells: dict[tuple[int, int], float] = {}
    for w in walkers:
        cells[w.row, w.col] = cells.get((w.row, w.col), 0.0) + w.value
    order = sorted(range(len(walkers)), key=lambda i: walkers[i].value)
    return len(sorted(values)) + len(cells) + order[0]


def probe(values: list[float]) -> float:
    """Fastest of PROBE_REPS runs of the probe kernel: how fast the machine is now."""
    best = math.inf
    for _ in range(PROBE_REPS):
        t = perf_counter()
        probe_kernel(values)
        best = min(best, perf_counter() - t)
    return best


def tail(samples: list[float]) -> tuple[float, float] | None:
    """Highest listed percentile with at least ten samples above it, and its value."""
    xs = sorted(samples)
    for p in PERCENTILES:
        k = math.ceil(p / 100 * len(xs))
        if len(xs) - k >= 10:
            return p, xs[k - 1]
    return None


class Runner:
    """Runs commands one at a time and keeps one line per failed command.

    A child's ru_maxrss starts from its parent's high-water mark, so this
    process runs every command before it imports mesoped itself.
    """

    def __init__(self, workload: str, work: Path, expected: dict[str, str]) -> None:
        self.workload = workload
        self.work = work
        self.expected = expected
        self.reference: dict[str, str] | None = None
        self.env = dict(os.environ, PYTHONPATH=str(wl.SRC), **dict.fromkeys(THREAD_VARS, "1"))
        self.attempted = 0
        self.failures: list[str] = []

    def command(self, prefix: list[str], argv: list[str],
                out: Path | None) -> tuple[float, float, bool]:
        """(wall seconds, peak RSS in MB, passed) of one fresh-interpreter command.

        With `out`, the command's artifacts there are checked too.
        """
        self.attempted += 1
        log = self.work / "stderr.txt"
        with log.open("w") as err:
            start = perf_counter()
            proc = subprocess.Popen([sys.executable, *prefix, *argv], env=self.env,
                                    cwd=wl.ROOT, stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            problems = [f"exit code {proc.returncode}: {log.read_text()[-300:].strip()}"]
        else:
            problems = self.check(out) if out is not None else []
        if problems:
            self.failures.append(f"command {self.attempted}: {'; '.join(problems)}")
        return wall, usage.ru_maxrss / 1024, not problems

    def check(self, out: Path) -> list[str]:
        """Full check of the first outputs; later ones must repeat them byte for byte."""
        if self.reference is None:
            problems = wl.check_outputs(self.workload, out, self.expected)
            if not problems:
                self.reference = wl.digest_dir(out, wl.ARTIFACTS[self.workload])
            return problems
        if wl.digest_dir(out, wl.ARTIFACTS[self.workload]) != self.reference:
            return ["artifacts differ from the first command's"]
        return []


def repeat_for(seconds: float, fn, min_calls: int = 1) -> None:
    """Call fn until the next call would likely end after `seconds`; at least min_calls times."""
    start = perf_counter()
    durations: list[float] = []
    while (len(durations) < min_calls
           or perf_counter() - start + statistics.median(durations) <= seconds):
        t = perf_counter()
        fn()
        durations.append(perf_counter() - t)


def end_to_end(runner: Runner, args, scenarios: list[Path]) -> tuple[dict, list[str]]:
    """Plain commands, each followed by a set-up command; every metric is a median.

    On a shared 2-vCPU virtual machine the CPU's speed drifts by up to 2x in
    phases of seconds to minutes, longer than a run, so raw times follow the
    machine more than the program (see README.md). A fixed probe (`probe_kernel`)
    is timed before and after each command,
    and each time is scaled by PROBE_REFERENCE_S over the mean of the two
    probes around it: the time the command would take on a machine where the
    probe takes PROBE_REFERENCE_S. Raw times are printed too. Set-up is timed
    in its own fresh interpreter: this process imports no mesoped while it
    launches commands, since a child's ru_maxrss starts from its parent's
    high-water mark.
    """
    walls, raw_walls, rss, setups, raw_setups = [], [], [], [], []
    out = runner.work / "out"
    samples_path = runner.work / "setup.json"
    argv = wl.cli_args(args.workload, scenarios, out)
    rng = random.Random(1)
    probe_input = [rng.random() for _ in range(PROBE_FLOATS)]
    probes = [probe(probe_input)]

    def scaled(times: list[float]) -> list[float]:
        """Times of the command just run, scaled by the probes around it."""
        probes.append(probe(probe_input))
        return [t * 2 * PROBE_REFERENCE_S / (probes[-2] + probes[-1]) for t in times]

    def plain() -> None:
        wl.reset_dir(out)
        wall, peak, _ = runner.command(PLAIN, argv, out)
        raw_walls.append(wall)
        walls.extend(scaled([wall]))
        rss.append(peak)
        samples_path.unlink(missing_ok=True)
        passed = runner.command(SETUP, [str(samples_path), str(SETUP_WINDOW_S),
                                        *map(str, scenarios)], None)[2]
        samples = json.loads(samples_path.read_text()) if passed else []
        raw_setups.extend(samples)
        setups.extend(scaled(samples))

    repeat_for(args.seconds, plain)
    samples = {"wall_s": walls, "setup_s": setups, "peak_rss_mb": rss,
               "raw wall_s": raw_walls, "raw setup_s": raw_setups, "probe_s": probes}
    lines = []
    for name, xs in samples.items():
        if not xs:
            continue
        t = tail(xs)
        tail_text = f"p{t[0]:g} {t[1]:.6g}" if t else "no percentile has 10 samples above it"
        lines.append(f"{name:<12} median {statistics.median(xs):.6g}  min {min(xs):.6g}  "
                     f"max {max(xs):.6g}  {tail_text}  (n={len(xs)})")
    lines.append("raw wall_s samples " + " ".join(f"{x:.4f}" for x in raw_walls))
    lines.append("wall_s samples " + " ".join(f"{x:.4f}" for x in walls))
    values = {name: statistics.median(samples[name])
              for name in ("wall_s", "setup_s", "peak_rss_mb") if samples[name]}
    return values, lines


def traced(runner: Runner, args, scenarios: list[Path]) -> tuple[dict, list[str]]:
    """Per-layer metrics: the field-size ladder, then plain and traced commands in turn."""
    spans_path = runner.work / "spans.json"
    out = runner.work / "out"
    argv = wl.cli_args(args.workload, scenarios, out)
    plain_walls, traced_walls, layers, missing = [], [], [], set()

    if runner.command(TRACED, [str(spans_path), "--ladder", str(runner.work / "ladder")], None)[2]:
        ladder = json.loads(spans_path.read_text())
        missing.update(ladder["missing"])
    else:
        ladder = {"ladder": {}}

    def pair() -> None:
        wl.reset_dir(out)
        plain_walls.append(runner.command(PLAIN, argv, out)[0])
        wl.reset_dir(out)
        spans_path.unlink(missing_ok=True)
        wall, _, passed = runner.command(TRACED, [str(spans_path), "--", *argv], out)
        traced_walls.append(wall)
        if passed:
            trace = json.loads(spans_path.read_text())
            missing.update(trace["missing"])
            m = tracer.layer_metrics(trace)
            m["cli.artifact_bytes"] = sum(p.stat().st_size for p in out.iterdir())
            layers.append(m)

    repeat_for(args.seconds, pair, TRACED_MIN_PAIRS)
    metrics = dict(ladder["ladder"])
    names = set().union(*layers)
    varying = sorted(name for name in names if not all(name in m for m in layers)
                     or isinstance(layers[0][name], int) and len({m[name] for m in layers}) > 1)
    if varying:
        runner.failures.append(f"counts vary between traced commands: {', '.join(varying)}")
    for name in names:
        values = [m[name] for m in layers if name in m]
        # counts are equal in every command, and stay whole numbers
        metrics[name] = values[0] if isinstance(values[0], int) else statistics.median(values)
    metrics["trace.overhead_s"] = min(traced_walls) - min(plain_walls)
    lines = [f"{len(layers)} traced commands checked and {len(plain_walls)} plain; "
             "times are medians over the traced ones, and metrics that do not apply "
             "to the workload are left out"]
    lines += [f"{name:<34} {value:.6g}" for name, value in sorted(metrics.items())]
    lines += [f"{name:<34} not measured" for name in tracer.not_measured(sorted(missing))]
    return metrics, lines


def main() -> int:
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    wl.use_source()
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    recorded = wl.load_digests()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("environment " + json.dumps(environment()))

    want = recorded["workloads"][args.workload]
    expected = want if args.seed == wl.DEFAULT_SEED else {
        k: v for k, v in want.items() if k in SEED_FREE}
    work = wl.scratch_dir(args.workload)
    try:
        runner = Runner(args.workload, work, expected)
        scenarios = wl.write_inputs(args.workload, args.seed, work / "inputs")
        values, lines = (traced if args.trace else end_to_end)(runner, args, scenarios)
        gate_attempted, gate_failures = gate.check(args.workload, work / "gate", recorded)
    finally:
        wl.remove_dir(work)

    attempted = gate_attempted + runner.attempted
    failures = gate_failures + runner.failures
    print(f"gate: {gate_attempted} commands, {len(gate_failures)} failed "
          f"({len(recorded['bundled'])} bundled runs + {args.workload} at seed {wl.DEFAULT_SEED})")
    for line in lines:
        print(line)
    print(f"failed_share {len(failures) / attempted:.6g} ({len(failures)} of {attempted} commands)")
    for line in failures:
        print(f"FAILED {line}")

    listed = spec["per_layer" if args.trace else "end_to_end"]
    for m in listed:
        if m["name"] not in values:
            print(f"{m['name']} is left out of the result: not measured")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed if m["name"] in values}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
