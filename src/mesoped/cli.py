"""Command-line front end: run scenarios, export fields, sweep populations.

Exit codes: 0 on a completed run, 2 on configuration or usage errors or when
the C kernel cannot be compiled (every command needs it, `export-field`
included, since the field is solved in it), 3 when agents or scheduled
spawns were still waiting at the step limit.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterable, Iterator
from dataclasses import replace
from pathlib import Path

from .engine import MAX_AGENTS, EventLog, events_csv_blocks
from .floorfield import field_csv_blocks
from .kernel import KernelBuildError
from .layout import LayoutError, LayoutGrid, render_snapshot
from .metrics import check_sweep, comparison_csv, metrics_csv, occupancy, run_metrics, sweep
from .scenario import (ConfigError, ScenarioConfig, build_runtime,
                       load_scenario, make_simulation)

OUT_ENV = "MESOPED_OUT"


class DimensionMismatch(ConfigError):
    """Paired meso/micro layouts do not describe the same floor plan."""


def check_refinement(meso_grid, micro_grid) -> None:
    """The micro grid must be the meso grid at twice the resolution."""
    if micro_grid.rows != 2 * meso_grid.rows or micro_grid.cols != 2 * meso_grid.cols:
        raise DimensionMismatch(
            f"micro grid {micro_grid.rows}x{micro_grid.cols} is not twice the "
            f"meso grid {meso_grid.rows}x{meso_grid.cols}")
    if abs(micro_grid.cell_size_m * 2 - meso_grid.cell_size_m) > 1e-12:
        raise DimensionMismatch(
            f"micro cell size {micro_grid.cell_size_m} is not half the meso "
            f"cell size {meso_grid.cell_size_m}")


def parse_populations(spec: str) -> list[int]:
    """Population specs: '25', '1,5,10', or '1..50'. The largest is checked
    against `MAX_AGENTS` before a range's list is built."""
    spec = spec.strip()
    try:
        if ".." in spec:
            lo_s, hi_s = spec.split("..", 1)
            lo, top = int(lo_s), int(hi_s)
            if lo < 0 or top < lo:
                raise ValueError
            populations = range(lo, top + 1)
        else:
            populations = [int(tok) for tok in spec.split(",") if tok.strip()]
            if not populations or min(populations) < 0:
                raise ValueError
            top = max(populations)
    except ValueError:
        raise ConfigError(f"bad population spec {spec!r}; use N, A,B,C, or LO..HI") from None
    if top > MAX_AGENTS:
        raise ConfigError(f"--pop {top} is more agents than a run holds: agent ids are int32, "
                          f"so at most {MAX_AGENTS}")
    return list(populations)


def _with_seed(config: ScenarioConfig, seed: int | None) -> ScenarioConfig:
    if seed is not None and seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {seed}")
    return config if seed is None else replace(config, seed=seed)


def _require_writable(path: Path, name: str) -> None:
    """Raise unless `path`, or else its nearest existing ancestor, is a
    writable directory; `name` says in the message what would be written."""
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir() or not os.access(existing, os.W_OK | os.X_OK):
        raise ConfigError(f"cannot write {name}: {existing} is not a writable directory")


def _out_dir(out: str | None, default_name: str) -> Path:
    """The output directory, checked before any work. Nothing is created yet,
    so a command that fails later leaves nothing behind."""
    path = Path(out) if out else Path(os.environ.get(OUT_ENV, "out")) / default_name
    _require_writable(path, f"to output directory {path}")
    return path


def _out_file(out: str) -> Path:
    """The output file, checked before any work like `_out_dir`; an existing
    directory is not a file to write."""
    path = Path(out)
    if path.is_dir():
        raise ConfigError(f"cannot write {path}: it is a directory")
    _require_writable(path.parent, str(path))
    return path


def _write(path: Path, chunks: Iterable[bytes]) -> None:
    """Write the chunks one after another, as they come."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("wb") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None


def snapshot_pictures(grid: LayoutGrid, log: EventLog) -> Iterator[bytes]:
    """`snapshots.txt` replayed from the log, one chunk per logged step: a
    `# step s clock t` header over the step's picture, with a blank line
    between pictures."""
    for s, density in occupancy(log, grid.rows * grid.cols):
        gap = "\n" if s else ""
        yield f"{gap}# step {s} clock {s * log.dt!r}\n{render_snapshot(grid, density)}".encode()


def cmd_run(args) -> int:
    config = _with_seed(load_scenario(args.scenario), args.seed)
    max_steps = config.max_steps if args.steps is None else args.steps
    if max_steps < 0:
        raise ConfigError(f"--steps must be non-negative, got {max_steps}")
    out_dir = _out_dir(args.out, f"{config.name}-seed{config.seed}")
    runtime = build_runtime(config)
    sim = make_simulation(runtime)
    sim.run(max_steps)

    sinks = [cell for cell, _ in runtime.grid.sinks]
    _write(out_dir / "events.csv", events_csv_blocks(sim.state.log))
    _write(out_dir / "metrics.csv", [metrics_csv([run_metrics(sim)], sinks).encode()])
    _write(out_dir / "field.csv", field_csv_blocks(runtime.field))
    if args.snapshots:
        _write(out_dir / "snapshots.txt", snapshot_pictures(runtime.grid, sim.state.log))

    print(f"{config.name}: spawned {sim.state.spawned}, "
          f"exited {sim.state.spawned - len(sim.state.present)}, "
          f"steps {sim.state.step_index}, clock {sim.state.clock:g} s -> {out_dir}")
    if sim.state.pending_count > 0:
        print(f"warning: {sim.state.pending_count} scheduled agents never spawned "
              "within the step limit", file=sys.stderr)
    return 0 if sim.completed else 3


def cmd_export_field(args) -> int:
    config = load_scenario(args.scenario)
    out = _out_file(args.out)
    runtime = build_runtime(config)
    _write(out, field_csv_blocks(runtime.field))
    print(f"{config.name}: field {runtime.grid.rows}x{runtime.grid.cols} -> {out}")
    return 0


def cmd_sweep(args) -> int:
    config = _with_seed(load_scenario(args.scenario), args.seed)
    populations = parse_populations(args.pop)
    check_sweep(config, args.seeds)
    out_dir = _out_dir(args.out, f"{config.name}-sweep")
    runtime = build_runtime(config)
    points = sweep(runtime, populations, args.seeds)
    sinks = [cell for cell, _ in runtime.grid.sinks]
    _write(out_dir / "metrics.csv", [metrics_csv(points, sinks).encode()])
    print(f"{config.name}: {len(points)} population points x {args.seeds} seeds -> {out_dir}")
    return 0 if all(p.completed for p in points) else 3


def cmd_compare(args) -> int:
    meso_config = load_scenario(args.meso)
    micro_config = load_scenario(args.micro)
    populations = parse_populations(args.pop)
    check_sweep(meso_config, args.seeds)
    check_sweep(micro_config, args.seeds)
    out_dir = _out_dir(args.out, f"{meso_config.name}-vs-{micro_config.name}")
    meso_runtime = build_runtime(meso_config)
    micro_runtime = build_runtime(micro_config)
    check_refinement(meso_runtime.grid, micro_runtime.grid)
    meso_points = sweep(meso_runtime, populations, args.seeds)
    micro_points = sweep(micro_runtime, populations, args.seeds)
    _write(out_dir / "comparison.csv", [comparison_csv(meso_points, micro_points).encode()])
    print(f"{meso_config.name} vs {micro_config.name}: {len(populations)} population "
          f"points x {args.seeds} seeds -> {out_dir}")
    ok = all(p.completed for p in meso_points) and all(p.completed for p in micro_points)
    return 0 if ok else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mesoped",
        description="Mesoscopic pedestrian simulator with exact Q-learning navigation fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario and write its artifacts")
    p_run.add_argument("scenario", help="scenario file path or bundled scenario name")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--steps", type=int, default=None, help="override max steps")
    p_run.add_argument("--snapshots", action="store_true", help="write per-step density pictures")
    p_run.add_argument("--out", default=None, help=f"output directory (default ${OUT_ENV} or ./out)")
    p_run.set_defaults(func=cmd_run)

    p_field = sub.add_parser("export-field", help="write the navigation field as CSV")
    p_field.add_argument("scenario")
    p_field.add_argument("--out", required=True)
    p_field.set_defaults(func=cmd_export_field)

    p_sweep = sub.add_parser("sweep", help="average metrics over populations and seeds")
    p_sweep.add_argument("scenario")
    p_sweep.add_argument("--pop", required=True, help="population spec: N, A,B,C, or LO..HI")
    p_sweep.add_argument("--seeds", type=int, default=10, help="runs per population")
    p_sweep.add_argument("--seed", type=int, default=None, help="override base seed")
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_cmp = sub.add_parser("compare", help="paired meso/micro population sweep")
    p_cmp.add_argument("meso")
    p_cmp.add_argument("micro")
    p_cmp.add_argument("--pop", required=True)
    p_cmp.add_argument("--seeds", type=int, default=10)
    p_cmp.add_argument("--out", default=None)
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, LayoutError, KernelBuildError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
