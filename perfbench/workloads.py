"""Workload inputs, the CLI commands that run them, and their output checks.

Every input is generated from the workload seed into a scratch directory;
the program sees only those files. Bundled layouts are copied, never edited.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUNDLED = SRC / "mesoped" / "scenarios"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
WORK_ROOT = Path(__file__).resolve().parent / ".work"

DEFAULT_SEED = 1
WORKLOADS = ("paired_sweep", "big_hall", "crowd_run")
RUN_ARTIFACTS = ("events.csv", "metrics.csv", "field.csv")
ARTIFACTS = {
    "paired_sweep": ("comparison.csv",),
    "big_hall": RUN_ARTIFACTS,
    "crowd_run": RUN_ARTIFACTS,
}

# big_hall: an open square hall, 1 m cells, one 4-cell exit centred on the
# east wall and a line of walkers on the west wall.
HALL_SIZE = 200
HALL_EXIT_WIDTH = 4
HALL_WALKERS = 40
HALL_GAMMA = 0.9
HALL_MAX_STEPS = 2000

# crowd_run: cinema_a's floor plan, exits and gamma with 200 agents per door
# cell (2,400 in all); the last agent leaves at step 673 on the default seed.
CROWD_PER_DOOR_CELL = 200
CROWD_MAX_STEPS = 5000

PAIRED_POP = "1..50"
PAIRED_SEEDS = 1


def hall_layout(size: int) -> str:
    """Layout text of a size x size closed hall with an east exit and west sources."""
    top, right, bottom, left = 8, 4, 2, 1
    exit_rows = range(size // 2 - HALL_EXIT_WIDTH // 2,
                      size // 2 - HALL_EXIT_WIDTH // 2 + HALL_EXIT_WIDTH)
    lines = [f"{size} {size} 1.0"]
    for r in range(size):
        row = []
        for c in range(size):
            code = 0
            if r == 0:
                code |= top
            if r == size - 1:
                code |= bottom
            if c == 0:
                code |= left
            if c == size - 1 and r not in exit_rows:
                code |= right
            row.append(str(code))
        lines.append(" ".join(row))
    lines += [f"sink {r} {size - 1} 1.0" for r in exit_rows]
    lines += [f"source {r} 0" for r in hall_source_rows(size)]
    return "\n".join(lines) + "\n"


def hall_source_rows(size: int) -> range:
    walkers = min(HALL_WALKERS, size)
    first = (size - walkers) // 2
    return range(first, first + walkers)


def hall_scenario(size: int, seed: int, layout_name: str) -> str:
    spawn = "\n".join(f"{r},0 = 1@0" for r in hall_source_rows(size))
    return (f"[run]\nmode = meso\ndt_s = 0.5\nmax_steps = {HALL_MAX_STEPS}\nseed = {seed}\n\n"
            f"[layout]\npath = {layout_name}\n\n"
            f"[field]\ngamma = {HALL_GAMMA}\nbase_reward = 100\n\n"
            f"[spawn]\n{spawn}\n")


def write_hall(size: int, seed: int, work_dir: Path) -> Path:
    work_dir.mkdir(parents=True, exist_ok=True)
    layout_name = f"hall{size}.layout"
    (work_dir / layout_name).write_text(hall_layout(size))
    path = work_dir / f"hall{size}.scenario"
    path.write_text(hall_scenario(size, seed, layout_name))
    return path


def copy_bundled(name: str, work_dir: Path, **run_keys) -> configparser.ConfigParser:
    """Read a bundled scenario, copy its layout next to the copy, set [run] keys."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    parser.read_string((BUNDLED / f"{name}.scenario").read_text())
    layout = parser.get("layout", "path")
    work_dir.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(BUNDLED / layout, work_dir / layout)
    for key, value in run_keys.items():
        parser.set("run", key, str(value))
    return parser


def write_scenario(parser: configparser.ConfigParser, path: Path) -> Path:
    with path.open("w") as fh:
        parser.write(fh)
    return path


def write_inputs(workload: str, seed: int, work_dir: Path) -> list[Path]:
    """Generate the workload's scenario files; return them in command order."""
    if workload == "paired_sweep":
        return [write_scenario(copy_bundled(name, work_dir, seed=seed),
                               work_dir / f"{name}.scenario")
                for name in ("compare_10x15", "compare_10x15_micro")]
    if workload == "big_hall":
        return [write_hall(HALL_SIZE, seed, work_dir)]
    if workload == "crowd_run":
        parser = copy_bundled("cinema_a", work_dir, seed=seed, max_steps=CROWD_MAX_STEPS)
        for key in parser.options("spawn"):
            parser.set("spawn", key, f"{CROWD_PER_DOOR_CELL}@0")
        return [write_scenario(parser, work_dir / "crowd.scenario")]
    raise ValueError(f"unknown workload {workload!r}")


def cli_args(workload: str, scenarios: list[Path], out_dir: Path) -> list[str]:
    """Arguments to `mesoped.cli.main` for one command of the workload."""
    if workload == "paired_sweep":
        return ["compare", *map(str, scenarios), "--pop", PAIRED_POP,
                "--seeds", str(PAIRED_SEEDS), "--out", str(out_dir)]
    return ["run", str(scenarios[0]), "--out", str(out_dir)]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digest_dir(out_dir: Path, names) -> dict[str, str]:
    return {name: sha256(out_dir / name) for name in names if (out_dir / name).is_file()}


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text())


def expected_agents(workload: str) -> int:
    if workload == "big_hall":
        return len(hall_source_rows(HALL_SIZE))
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    parser.read_string((BUNDLED / "cinema_a.scenario").read_text())
    return CROWD_PER_DOOR_CELL * len(parser.options("spawn"))


def check_outputs(workload: str, out_dir: Path, expected: dict[str, str] | None) -> list[str]:
    """Problems with one command's artifacts; an empty list means they are correct.

    `expected` maps artifact names to recorded SHA-256 digests; names it
    lacks are checked for content only.
    """
    missing = [n for n in ARTIFACTS[workload] if not (out_dir / n).is_file()]
    if missing:
        return [f"missing artifact {n}" for n in missing]
    problems = [f"{name} digest {got[:12]} != recorded {expected[name][:12]}"
                for name, got in digest_dir(out_dir, ARTIFACTS[workload]).items()
                if expected and name in expected and got != expected[name]]
    try:
        if workload == "paired_sweep":
            problems += _check_comparison(out_dir / "comparison.csv")
        else:
            problems += _check_run(out_dir, expected_agents(workload),
                                   all_reached=workload == "big_hall")
    except (ValueError, KeyError, IndexError) as exc:
        problems.append(f"malformed artifact: {exc!r}")
    return problems


def _check_comparison(path: Path) -> list[str]:
    lines = path.read_text().splitlines()
    start, _, stop = PAIRED_POP.partition("..")
    want = list(range(int(start), int(stop) + 1))
    rows = [ln.split(",") for ln in lines[1:]]
    if [int(r[0]) for r in rows] != want:
        return [f"comparison.csv populations are not {PAIRED_POP}"]
    problems = []
    for r in rows:
        if r[3] != "true" or r[6] != "true":
            problems.append(f"comparison.csv population {r[0]} not completed")
        elif not (float(r[1]) > 0 and float(r[4]) > 0):
            problems.append(f"comparison.csv population {r[0]} has a non-positive travel time")
    return problems


def _check_run(out_dir: Path, agents: int, all_reached: bool) -> list[str]:
    """Conservation and adjacency from the event log, completion from metrics.csv."""
    problems = []
    spawned: dict[str, tuple[int, int]] = {}
    exited = 0
    with (out_dir / "events.csv").open() as fh:
        next(fh)
        for line in fh:
            _, _, aid, kind, r, c = line.rstrip("\n").split(",")
            cell = (int(r), int(c))
            if kind == "spawn":
                spawned[aid] = cell
            elif kind == "move":
                pr, pc = spawned[aid]
                if max(abs(cell[0] - pr), abs(cell[1] - pc)) != 1:
                    problems.append(f"agent {aid} jumps from {(pr, pc)} to {cell}")
                    break
                spawned[aid] = cell
            elif kind == "exit":
                exited += 1
    if len(spawned) != agents or exited != agents:
        problems.append(f"events.csv spawns {len(spawned)} and exits {exited}, expected {agents}")
    header, row = (out_dir / "metrics.csv").read_text().splitlines()[:2]
    fields = dict(zip(header.split(","), row.split(",")))
    exit_total = sum(int(v) for k, v in fields.items() if k.startswith("exit_"))
    if fields.get("completed") != "true" or exit_total != agents:
        problems.append(f"metrics.csv: completed={fields.get('completed')} exits={exit_total}")
    if all_reached:
        field_text = (out_dir / "field.csv").read_text()
        unreached = sum(1 for v in field_text.replace("\n", ",").split(",") if v and float(v) <= 0)
        if unreached:
            problems.append(f"field.csv has {unreached} cells with value <= 0")
    return problems


def use_source() -> None:
    """Import `mesoped` from this checkout's `src/`, or exit with code 2."""
    if not (SRC / "mesoped" / "cli.py").is_file():
        print(f"perfbench: no mesoped sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


def scratch_dir(tag: str) -> Path:
    """A fresh directory for one benchmark process; remove it with `remove_dir`."""
    return reset_dir(WORK_ROOT / f"{tag}-{os.getpid()}")


def remove_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
        WORK_ROOT.rmdir()


def reset_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
