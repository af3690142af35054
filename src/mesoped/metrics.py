"""Run metrics recomputed from event logs, plus population sweeps.

Working from the log rather than live engine state means any stored run can
be re-audited without replaying it.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, replace

from .engine import EXIT, MOVE, SPAWN, STAY, EventLog
from .kernel import kernel
from .layout import Cell
from .scenario import ConfigError, Runtime, ScenarioConfig, make_simulation


def _fmean(xs) -> float | None:
    """The float mean, as `statistics.fmean` computes it: `fsum(xs) / len(xs)`,
    or None for no values."""
    return math.fsum(xs) / len(xs) if xs else None


@dataclass(frozen=True)
class RunMetrics:
    """Aggregates for one run, or for one sweep point averaged over seeds.

    `n_agents` is the number of agents spawned for a run, and the population
    swept for a sweep point, whose exit counts are seed means. Averages cover
    exited agents only.
    """

    n_agents: int
    avg_travel_time_s: float | None
    avg_distance_m: float | None
    per_exit_counts: dict[Cell, int | float]
    completed: bool


def summarize(log: EventLog, cell_size_m: float) -> RunMetrics:
    """Travel times, walked distances, and exit usage from one event log.

    A run with agents still inside is flagged incomplete and summarized over
    the agents that made it out (`run_metrics` also counts those never
    spawned). A travel time is the exit clock minus the spawn clock, and a
    walked distance is the sum of the agent's hops in the order it made them
    (a hop is diagonal when both row and column change), so every average is
    the same float the event-by-event sums give, from one walk of the log in
    the kernel. A malformed log raises ValueError, naming the fault.
    """
    kinds = log.kinds
    if {len(log._agents), len(log._cells)} != {len(kinds)}:
        raise ValueError("the event log's agent, kind and cell columns differ in length")
    n_agents, n_exits = kinds.count(SPAWN), kinds.count(EXIT)
    # per agent: spawn step (-1: not yet), cell, distance; per exit: travel time, distance, cell
    cols = (array("q", [-1]) * n_agents, array("i", [0]) * n_agents, array("d", [0.0]) * n_agents,
            array("d", [0.0]) * n_exits, array("d", [0.0]) * n_exits, array("i", [0]) * n_exits)
    if kernel().summarize(log._starts.buffer_info()[0], len(log._starts),
                          log._agents.buffer_info()[0], kinds, log._cells.buffer_info()[0],
                          len(kinds), log.cols, log.dt, cell_size_m, cell_size_m * math.sqrt(2.0),
                          n_agents, *(col.buffer_info()[0] for col in cols)) < 0:
        raise ValueError("the event log holds an event of an agent id that has not spawned")
    travel, distance, exit_cells = cols[3:]
    return RunMetrics(
        n_agents=n_agents,
        avg_travel_time_s=_fmean(travel),
        avg_distance_m=_fmean(distance),
        per_exit_counts={divmod(c, log.cols): k for c, k in Counter(exit_cells).items()},
        completed=n_exits == n_agents,
    )


def occupancy(log: EventLog, n_cells: int) -> Iterator[tuple[int, list[int]]]:
    """Each logged step s, step 0 included, with the count of agents in each
    flat cell after its events: a spawn adds 1 at its cell, a move moves 1
    from the agent's previous cell to its new one, an exit takes 1 from its
    cell. One list is updated in place and yielded each step; copy it to keep it.
    """
    density = [0] * n_cells
    at: dict[int, int] = {}  # each agent's cell
    for s, (lo, hi) in enumerate(log.spans()):
        for agent, kind, cell in zip(log._agents[lo:hi], log._kinds[lo:hi], log._cells[lo:hi]):
            if kind == MOVE:
                density[at[agent]] -= 1
            if kind == EXIT:
                density[cell] -= 1
            elif kind != STAY:
                density[cell] += 1
                at[agent] = cell
        yield s, density


def run_metrics(sim) -> RunMetrics:
    """`summarize` of a finished simulation's log; the run is complete only
    when nobody is inside and nobody is still waiting to spawn."""
    return replace(summarize(sim.state.log, sim.grid.cell_size_m), completed=sim.completed)


def check_sweep(config: ScenarioConfig, seeds_per_point: int) -> None:
    """Raise unless `config` can be swept at `seeds_per_point` seeds a
    population; it needs no runtime, so it can run before the field solve."""
    if seeds_per_point < 1:
        raise ConfigError(f"seeds per population must be at least 1, got {seeds_per_point}")
    if not config.schedule:
        raise ConfigError(f"{config.name}: cannot sweep populations: [spawn] is empty")


def sweep(runtime: Runtime, populations: list[int], seeds_per_point: int) -> list[RunMetrics]:
    """Average metrics across seeded repeats for each population size.

    Every run reuses the layout and navigation field of `runtime`; only the
    spawn schedule and the generator change.
    """
    config = runtime.config
    check_sweep(config, seeds_per_point)
    points = []
    for population in populations:
        metrics = []
        for run_i in range(seeds_per_point):
            # Its own reproducible stream per (scenario seed, population, run).
            sim = make_simulation(runtime, seed=(config.seed, population, run_i),
                                  population=population)
            sim.run(config.max_steps)
            metrics.append(run_metrics(sim))
        travels = [m.avg_travel_time_s for m in metrics if m.avg_travel_time_s is not None]
        dists = [m.avg_distance_m for m in metrics if m.avg_distance_m is not None]
        counts = {cell: _fmean([m.per_exit_counts.get(cell, 0) for m in metrics])
                  for cell, _ in runtime.grid.sinks}
        points.append(RunMetrics(
            n_agents=population,
            avg_travel_time_s=_fmean(travels),
            avg_distance_m=_fmean(dists),
            per_exit_counts=counts,
            completed=all(m.completed for m in metrics),
        ))
    return points


def _fmt(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def metrics_csv(rows: list[RunMetrics], sinks: list[Cell]) -> str:
    """Shared CSV shape for single runs and sweeps: one line per population.

    An exit count is written with `str`: an int for a run, the float's repr
    for a seed mean.
    """
    header = ["population", "avg_travel_time_s", "avg_distance_m"]
    header += [f"exit_{r}_{c}_count" for r, c in sinks]
    header.append("completed")
    lines = [",".join(header)]
    for m in rows:
        cells = [str(m.n_agents), _fmt(m.avg_travel_time_s), _fmt(m.avg_distance_m)]
        cells += [str(m.per_exit_counts.get(cell, 0)) for cell in sinks]
        cells.append("true" if m.completed else "false")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def comparison_csv(meso: list[RunMetrics], micro: list[RunMetrics]) -> str:
    header = ("population,meso_avg_travel_time_s,meso_avg_distance_m,meso_completed,"
              "micro_avg_travel_time_s,micro_avg_distance_m,micro_completed")
    lines = [header]
    for a, b in zip(meso, micro):
        cells = [str(a.n_agents)]
        for m in (a, b):
            cells += [_fmt(m.avg_travel_time_s), _fmt(m.avg_distance_m),
                      "true" if m.completed else "false"]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
