"""Scenario files: flat key = value sections describing one runnable setup.

A scenario names a layout file, field parameters, sink-weight multipliers,
and a spawn schedule. Bundled scenarios ship inside the package and can be
addressed by bare name.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from pathlib import Path

from .engine import (MAX_AGENTS, MESO_TABLE, MICRO_TABLE, Simulation, SpawnEntry,
                     SpeedDensityTable)
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


# A bound a number must meet: how messages name it, and the test.
POSITIVE = ("positive", lambda v: v > 0)
NON_NEGATIVE = ("non-negative", lambda v: v >= 0)

# The scalar keys: section, key (the ScenarioConfig field it sets), type and
# bound. A key left out keeps the field's default.
KEYS = (
    ("run", "dt_s", float, POSITIVE),
    ("run", "max_steps", int, NON_NEGATIVE),
    ("run", "seed", int, NON_NEGATIVE),
    ("field", "gamma", float, ("in (0, 1)", lambda v: 0 < v < 1)),
    ("field", "base_reward", float, POSITIVE),
)
# Every key of [run], [layout] and [field]; [sinks] and [spawn] are keyed by
# cell and [table] by density.
KNOWN_KEYS = {("run", "mode"), ("layout", "path"), *((s, k) for s, k, _, _ in KEYS)}
SECTIONS = ("run", "layout", "field", "sinks", "spawn", "table")
MODE_TABLES = {"meso": MESO_TABLE, "micro": MICRO_TABLE}

SCENARIOS_DIR = Path(__file__).parent / "scenarios"


def _number(raw: str, cast, bound: tuple, where: str):
    """`raw` as a finite `cast` that meets `bound`; `where` names the key."""
    try:
        value = cast(raw)
    except ValueError:
        raise ConfigError(f"{where} = {raw!r} is not a {cast.__name__}") from None
    if cast is float and not math.isfinite(value):
        raise ConfigError(f"{where} = {raw!r} is not a finite number")
    if not bound[1](value):
        raise ConfigError(f"{where} must be {bound[0]}, got {value!r}")
    return value


def _read_ini(text: str, name: str) -> dict[str, dict[str, str]]:
    """The sections of an INI text, each a dict of its keys and values, in
    the order given.

    Lines end at "\n" only. A line whose first non-blank character is `#`
    or `;` is a comment, and so is the rest of a line from a `#` that follows
    whitespace. `[section]` opens a section; text after its last `]` is
    dropped. `key = value` or `key: value` splits at the first `=` or `:`,
    and the key is lower-cased. A line indented deeper than its key's line
    continues the value, and blank lines inside a value are kept; trailing
    ones are dropped. A section or key given twice, a key before the first
    header and a line with no delimiter are refused, naming the line.
    `tests/oracle.py` holds the standard library's reader of the same
    grammar, which this one must match.
    """
    sections: dict[str, dict[str, str]] = {}
    section = keys = key = None
    indent = 0
    for number, line in enumerate(text.split("\n"), 1):
        bare = line.strip()
        if not bare:
            if key is not None:
                keys[key] += "\n"
            continue
        if bare[0] in "#;":
            continue
        cut = line.find("#")
        while cut > 0 and not line[cut - 1].isspace():
            cut = line.find("#", cut + 1)
        value = line[:cut].strip() if cut > 0 else bare
        level = len(line) - len(line.lstrip())
        if key is not None and level > indent:
            keys[key] += "\n" + value
            continue
        indent = level
        end = value.rfind("]")
        if value[0] == "[" and end > 1:
            section, key = value[1:end], None
            if section in sections:
                raise ConfigError(f"{name}: line {number}: section [{section}] is given twice")
            keys = sections[section] = {}
            continue
        if keys is None:
            raise ConfigError(f"{name}: line {number}: {value!r} comes before any [section]")
        head = value.split("=", 1)[0].split(":", 1)[0]
        if not head or head == value:
            raise ConfigError(f"{name}: line {number}: expected KEY = VALUE, got {value!r}")
        key = head.rstrip().lower()
        if key in keys:
            raise ConfigError(f"{name}: line {number}: [{section}] {key} is given twice")
        keys[key] = value[len(head) + 1:].strip()
    return {section: {key: value.rstrip() for key, value in keys.items()}
            for section, keys in sections.items()}


def _cells(keys: dict[str, str], section: str, name: str):
    """(key, cell, value) for each key of a cell-keyed section; two keys
    naming one cell, such as `8,29` and `8, 29`, are rejected."""
    seen: dict[Cell, str] = {}
    for key, raw in keys.items():
        try:
            row, col = map(int, key.split(","))
        except ValueError:
            raise ConfigError(f"{name}: [{section}] {key}: expected integer 'row,col', "
                              f"got {key!r}") from None
        cell = row, col
        if cell in seen:
            raise ConfigError(f"{name}: [{section}] {seen[cell]} and {key} name the same cell {cell}")
        seen[cell] = key
        yield key, cell, raw


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
        if not (0 <= count < 2**63 and 0 <= step < 2**63):
            raise ConfigError(f"{where}: spawn counts and steps must be non-negative "
                              "and below 2**63")
        out.append((count, step))
    if not out:
        raise ConfigError(f"{where}: empty spawn value")
    return out


def parse_scenario(text: str, name: str, base_dir: Path) -> ScenarioConfig:
    ini = _read_ini(text, name)
    for section, keys in ini.items():
        if section not in SECTIONS:
            raise ConfigError(f"{name}: unknown section [{section}]")
        if section in ("run", "layout", "field"):
            for key in keys:
                if (section, key) not in KNOWN_KEYS:
                    raise ConfigError(f"{name}: unknown key [{section}] {key}")

    raw_path = ini.get("layout", {}).get("path")
    if raw_path is None:
        raise ConfigError(f"{name}: missing [layout] path")
    try:
        layout_path = (base_dir / raw_path).resolve()
    except ValueError as exc:  # an embedded NUL byte
        raise ConfigError(f"{name}: [layout] path = {raw_path!r}: {exc}") from None

    values = {key: _number(ini[section][key], cast, bound, f"{name}: [{section}] {key}")
              for section, key, cast, bound in KEYS if key in ini.get(section, ())}

    mode = ini.get("run", {}).get("mode")
    if mode is not None:
        mode = mode.strip().lower()
        if mode not in MODE_TABLES:
            raise ConfigError(f"{name}: [run] mode must be 'meso' or 'micro', got {mode!r}")
        values["table"] = MODE_TABLES[mode]
    if "table" in ini:
        rows, seen = {}, {}
        for key, raw in ini["table"].items():
            try:
                density = int(key)
                speed_s, prob_s = raw.split()
                rows[density] = float(speed_s), float(prob_s)
            except ValueError:
                raise ConfigError(
                    f"{name}: [table] rows must be 'DENSITY = SPEED PROB', got {key} = {raw!r}"
                ) from None
            if density in seen:
                raise ConfigError(f"{name}: [table] {seen[density]} and {key} name the "
                                  f"same density {density}")
            seen[density] = key
        if sorted(rows) != list(range(len(rows))):
            raise ConfigError(f"{name}: [table] densities must run 0..{len(rows) - 1}, "
                              f"got {', '.join(map(str, sorted(rows)))}")
        speeds, probs = (tuple(rows[d][k] for d in range(len(rows))) for k in (0, 1))
        try:
            values["table"] = SpeedDensityTable(speeds, probs)
        except ValueError as exc:
            raise ConfigError(f"{name}: [table]: {exc}") from None

    multipliers = tuple((cell, _number(raw, float, POSITIVE, f"{name}: [sinks] {key}"))
                        for key, cell, raw in _cells(ini.get("sinks", {}), "sinks", name))
    schedule = tuple(SpawnEntry(cell=cell, count=count, release_step=step)
                     for key, cell, raw in _cells(ini.get("spawn", {}), "spawn", name)
                     for count, step in _parse_spawn_terms(raw, f"{name}: [spawn] {key}"))
    total = sum(entry.count for entry in schedule)
    if total > MAX_AGENTS:
        raise ConfigError(f"{name}: [spawn] totals {total} agents; agent ids are int32, "
                          f"so at most {MAX_AGENTS} fit")
    return ScenarioConfig(name=name, layout_path=layout_path, sink_multipliers=multipliers,
                          schedule=schedule, **values)


def bundled_scenarios() -> list[str]:
    return sorted(p.stem for p in SCENARIOS_DIR.glob("*.scenario"))


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
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read scenario file {path}: {exc}") from None
        return parse_scenario(text, path.stem, path.parent)
    candidate = SCENARIOS_DIR / f"{path.name}.scenario"
    if path.name != str(source) or not candidate.is_file():
        bundled = (f"bundled: {', '.join(bundled_scenarios())}" if SCENARIOS_DIR.is_dir() else
                   f"bundled scenarios are not installed as files: {SCENARIOS_DIR} "
                   "is not a directory")
        raise ConfigError(f"{source!r} is neither a scenario file nor a bundled scenario "
                          f"({bundled})")
    return parse_scenario(candidate.read_text(), str(source), SCENARIOS_DIR)


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
        if not 0 < weights[cell] < math.inf:
            raise ConfigError(f"sink multiplier {factor!r} takes the weight of sink {cell} to "
                              f"{weights[cell]!r}, which is not positive and finite")
    return replace(grid, sinks=tuple((cell, weights[cell]) for cell, _ in grid.sinks))


@dataclass(frozen=True)
class Runtime:
    """A scenario with its grid (multipliers applied) and solved field:
    everything reusable across runs of it."""

    config: ScenarioConfig
    grid: LayoutGrid
    field: FloorField

    # perfbench/tracer.py reads this; it stays until the tracer reads field.rounds.
    @property
    def sweeps(self) -> int:
        """Frontier rounds the field solve took."""
        return self.field.rounds


def build_runtime(config: ScenarioConfig) -> Runtime:
    """Parse the layout, apply multipliers, solve the field (a refusal is a
    ConfigError), and reject a source at value 0, whose agents could only stay."""
    try:
        text = config.layout_path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{config.name}: cannot read layout {str(config.layout_path)!r}: "
                          f"{exc}") from None
    grid = parse_layout(text)
    grid = apply_sink_multipliers(grid, config.sink_multipliers)
    for entry in config.schedule:
        if entry.cell not in grid.source_set:
            raise ConfigError(
                f"{config.name}: spawn cell {entry.cell} is not a source in the layout")
    try:
        field = compute_field(grid, gamma=config.gamma, base_reward=config.base_reward)
    except ValueError as exc:  # a sink's reward out of range, or a field no run can use
        raise ConfigError(f"{config.name}: {exc}") from None
    for cell in grid.sources:
        if field.values[cell] <= 0.0:
            raise ConfigError(
                f"{config.name}: source {cell} has navigation value 0, so its agents "
                f"cannot find a sink (walled off, or too far at gamma {config.gamma})")
    return Runtime(config=config, grid=grid, field=field)


def make_simulation(runtime: Runtime, seed: int | Sequence[int] | None = None,
                    population: int | None = None) -> Simulation:
    """A run of the runtime's scenario, with the seed or the population
    (spread by `redistribute`) overridden when given."""
    config = runtime.config
    schedule = config.schedule
    if population is not None:
        schedule = redistribute(schedule, population)
    return Simulation(runtime.grid, runtime.field, config.table, schedule,
                      dt=config.dt_s, seed=config.seed if seed is None else seed)
