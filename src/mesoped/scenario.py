"""Scenario files: flat key = value sections describing one runnable setup.

A scenario names a layout file, field parameters, sink-weight multipliers,
and a spawn schedule. Bundled scenarios ship inside the package and can be
addressed by bare name.
"""

from __future__ import annotations

import configparser
import math
import sys
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .engine import MESO_TABLE, MICRO_TABLE, Simulation, SpawnEntry, SpeedDensityTable
from .floorfield import DEFAULT_BASE_REWARD, DEFAULT_GAMMA, FloorField, compute_field
from .layout import Cell, LayoutGrid, parse_layout


class ConfigError(Exception):
    """Malformed or inconsistent scenario configuration."""


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    layout_path: Path
    dt_s: float = 0.5
    max_steps: int = 1000
    seed: int = 0
    gamma: float = DEFAULT_GAMMA
    base_reward: float = DEFAULT_BASE_REWARD
    sink_multipliers: tuple[tuple[Cell, float], ...] = ()
    schedule: tuple[SpawnEntry, ...] = ()
    table: SpeedDensityTable = MESO_TABLE


def redistribute(schedule: tuple[SpawnEntry, ...], population: int) -> tuple[SpawnEntry, ...]:
    """Spread `population` agents round-robin over the schedule's entries:
    agent k goes to entry k mod len(schedule)."""
    if not schedule:
        raise ConfigError("cannot set a population on an empty spawn schedule")
    if population < 0:
        raise ConfigError(f"population must be non-negative, got {population}")
    q, r = divmod(population, len(schedule))
    return tuple(SpawnEntry(e.cell, q + (k < r), e.release_step) for k, e in enumerate(schedule))


def _parse_cell(key: str, where: str) -> Cell:
    parts = [p.strip() for p in key.split(",")]
    if len(parts) != 2:
        raise ConfigError(f"{where}: expected 'row,col', got {key!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise ConfigError(f"{where}: expected integer coordinates, got {key!r}") from None


def _parse_spawn_terms(value: str, where: str) -> list[tuple[int, int]]:
    """Terms like '20@0, 5@12' meaning count at release step."""
    out = []
    for term in value.split(","):
        term = term.strip()
        if not term:
            continue
        count_s, sep, step_s = term.partition("@")
        try:
            count = int(count_s.strip())
            step = int(step_s.strip()) if sep else 0
        except ValueError:
            raise ConfigError(f"{where}: bad spawn term {term!r}, expected COUNT@STEP") from None
        if count < 0 or step < 0:
            raise ConfigError(f"{where}: spawn counts and steps must be non-negative")
        out.append((count, step))
    if not out:
        raise ConfigError(f"{where}: empty spawn value")
    return out


def parse_scenario(text: str, name: str, base_dir: Path) -> ScenarioConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    try:
        parser.read_string(text, source=name)
    except configparser.Error as exc:
        raise ConfigError(f"{name}: {exc}") from None

    known = {"run", "layout", "field", "sinks", "spawn", "table"}
    for section in parser.sections():
        if section not in known:
            raise ConfigError(f"{name}: unknown section [{section}]")

    def get(section: str, key: str, cast, default):
        if not parser.has_option(section, key):
            return default
        raw = parser.get(section, key)
        try:
            value = cast(raw)
        except ValueError:
            raise ConfigError(f"{name}: [{section}] {key} = {raw!r} is not a {cast.__name__}") from None
        if cast is float and not math.isfinite(value):
            raise ConfigError(f"{name}: [{section}] {key} = {raw!r} is not a finite number")
        return value

    if not parser.has_option("layout", "path"):
        raise ConfigError(f"{name}: missing [layout] path")
    raw_path = parser.get("layout", "path")
    try:
        layout_path = (base_dir / raw_path).resolve()
    except ValueError as exc:  # an embedded NUL byte
        raise ConfigError(f"{name}: [layout] path = {raw_path!r}: {exc}") from None

    mode = get("run", "mode", str, "meso").strip().lower()
    if mode not in ("meso", "micro"):
        raise ConfigError(f"{name}: mode must be 'meso' or 'micro', got {mode!r}")
    dt_s = get("run", "dt_s", float, 0.5)
    max_steps = get("run", "max_steps", int, 1000)
    seed = get("run", "seed", int, 0)
    if dt_s <= 0:
        raise ConfigError(f"{name}: dt_s must be positive")
    if max_steps < 0:
        raise ConfigError(f"{name}: max_steps must be non-negative")
    if seed < 0:
        raise ConfigError(f"{name}: [run] seed must be non-negative, got {seed}")

    gamma = get("field", "gamma", float, DEFAULT_GAMMA)
    base_reward = get("field", "base_reward", float, DEFAULT_BASE_REWARD)
    for key in ("epsilon", "max_sweeps"):
        if parser.has_option("field", key):
            raise ConfigError(f"{name}: [field] {key} is no longer accepted: "
                              "the field is solved exactly, with no stop threshold")
    if not 0 < gamma < 1:
        raise ConfigError(f"{name}: gamma must be in (0, 1), got {gamma}")
    if base_reward <= 0:
        raise ConfigError(f"{name}: base_reward must be positive")

    multipliers = []
    if parser.has_section("sinks"):
        for key, raw in parser.items("sinks"):
            cell = _parse_cell(key, f"{name}: [sinks] {key}")
            try:
                factor = float(raw)
            except ValueError:
                raise ConfigError(f"{name}: [sinks] {key} = {raw!r} is not a float") from None
            if not 0 < factor < math.inf:
                raise ConfigError(f"{name}: [sinks] {key}: multiplier must be positive and finite")
            multipliers.append((cell, factor))

    schedule = []
    if parser.has_section("spawn"):
        for key, raw in parser.items("spawn"):
            cell = _parse_cell(key, f"{name}: [spawn] {key}")
            for count, step in _parse_spawn_terms(raw, f"{name}: [spawn] {key}"):
                schedule.append(SpawnEntry(cell=cell, count=count, release_step=step))

    table = MICRO_TABLE if mode == "micro" else MESO_TABLE
    if parser.has_section("table"):
        rows = []
        for key, raw in parser.items("table"):
            try:
                density = int(key)
                speed_s, prob_s = raw.split()
                rows.append((density, float(speed_s), float(prob_s)))
            except ValueError:
                raise ConfigError(
                    f"{name}: [table] rows must be 'DENSITY = SPEED PROB', got {key} = {raw!r}"
                ) from None
        rows.sort()
        try:
            table = SpeedDensityTable(tuple(rows))
        except ValueError as exc:
            raise ConfigError(f"{name}: [table]: {exc}") from None

    return ScenarioConfig(
        name=name, layout_path=layout_path, dt_s=dt_s,
        max_steps=max_steps, seed=seed, gamma=gamma, base_reward=base_reward,
        sink_multipliers=tuple(multipliers), schedule=tuple(schedule), table=table,
    )


def bundled_scenarios() -> list[str]:
    root = resources.files("mesoped") / "scenarios"
    return sorted(p.name[:-len(".scenario")] for p in root.iterdir()
                  if p.name.endswith(".scenario"))


def load_scenario(source: str | Path) -> ScenarioConfig:
    """Load a scenario from a file path or a bundled scenario name.

    A source ending in `.scenario`, or naming an existing file, is a path.
    Anything else is the bare name of a bundled scenario, with no directory
    part, so a directory of that name in the working directory does not
    shadow it.
    """
    path = Path(source)
    if path.suffix == ".scenario" or path.is_file():
        try:
            text = path.read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read scenario file {path}: {exc}") from None
        return parse_scenario(text, path.stem, path.parent)
    root = resources.files("mesoped") / "scenarios"
    candidate = root / f"{path.name}.scenario"
    if path.name != str(source) or not candidate.is_file():
        raise ConfigError(
            f"{source!r} is neither a scenario file nor a bundled scenario "
            f"(bundled: {', '.join(bundled_scenarios())})")
    return parse_scenario(candidate.read_text(), str(source), Path(str(root)))


def apply_sink_multipliers(grid: LayoutGrid,
                           multipliers: tuple[tuple[Cell, float], ...]) -> LayoutGrid:
    """The grid with its sink weights multiplied; the same grid, whose
    cached tables are then reused, when there are no multipliers."""
    if not multipliers:
        return grid
    weights = dict(grid.sinks)
    for cell, factor in multipliers:
        if cell not in weights:
            raise ConfigError(f"sink multiplier targets {cell}, which is not a sink")
        weights[cell] *= factor
    return replace(grid, sinks=tuple((cell, weights[cell]) for cell, _ in grid.sinks))


@dataclass(frozen=True)
class Runtime:
    """Everything reusable across runs of one scenario."""

    grid: LayoutGrid
    field: FloorField
    table: SpeedDensityTable

    # perfbench/tracer.py reads this; it stays until the tracer reads field.rounds.
    @property
    def sweeps(self) -> int:
        """Frontier rounds the field solve took."""
        return self.field.rounds


def build_runtime(config: ScenarioConfig) -> Runtime:
    """Parse the layout, apply multipliers, solve the navigation field, and
    reject a source at field value 0, whose agents could only stay."""
    try:
        text = config.layout_path.read_text()
    except OSError as exc:
        raise ConfigError(f"{config.name}: cannot read layout {config.layout_path}: {exc}") from None
    grid = parse_layout(text)
    grid = apply_sink_multipliers(grid, config.sink_multipliers)
    for entry in config.schedule:
        if entry.cell not in grid.source_set:
            raise ConfigError(
                f"{config.name}: spawn cell {entry.cell} is not a source in the layout")
    for cell, weight in grid.sinks:
        if not math.isfinite(config.base_reward * weight):
            raise ConfigError(
                f"{config.name}: sink {cell}: base_reward {config.base_reward!r} times "
                f"weight {weight!r} (multipliers applied) overflows")
    field = compute_field(grid, gamma=config.gamma, base_reward=config.base_reward)
    for cell in grid.sources:
        if field.values[cell] <= 0.0:
            raise ConfigError(
                f"{config.name}: source {cell} has navigation value 0, so its agents "
                f"cannot find a sink (walled off, or too far at gamma {config.gamma})")
    # A non-sink cell no lower than its best neighbour is a plateau where
    # agents find no ascent. With gamma < 1 that only happens once repeated
    # gamma * x sticks at subnormal values, so only those cells are checked.
    values = field.values.ravel()
    tiny = np.flatnonzero((values > 0.0) & (values < sys.float_info.min))
    if tiny.size:
        nbr = grid.neighbours.T
        best = np.append(values, 0.0).take(nbr.take(tiny, axis=1)).max(axis=0)
        for i in tiny[values[tiny] >= best].tolist():
            cell = divmod(i, grid.cols)
            if cell not in grid.sink_set:
                raise ConfigError(
                    f"{config.name}: cell {cell} lies on a plateau of the navigation "
                    f"field at {values[i]!r}, with no higher neighbour (too far from "
                    f"every sink at gamma {config.gamma})")
    return Runtime(grid=grid, field=field, table=config.table)


def make_simulation(runtime: Runtime, config: ScenarioConfig,
                    seed: int | np.random.SeedSequence | None = None,
                    population: int | None = None) -> Simulation:
    schedule = config.schedule
    if population is not None:
        schedule = redistribute(schedule, population)
    return Simulation(runtime.grid, runtime.field, runtime.table, schedule,
                      dt=config.dt_s, seed=config.seed if seed is None else seed)

