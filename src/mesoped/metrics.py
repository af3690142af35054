"""Run metrics recomputed from event logs, plus population sweeps.

Working from the log rather than live engine state means any stored run can
be re-audited without replaying it.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .engine import EXIT, MOVE, SPAWN, STAY, EventLog
from .layout import Cell
from .scenario import ConfigError, Runtime, ScenarioConfig, make_simulation


def _fmean(xs) -> float:
    """The float mean, as `statistics.fmean` computes it: `fsum(xs) / len(xs)`."""
    return math.fsum(xs) / len(xs)


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
    the same float the event-by-event sums give.
    """
    n = len(log.kinds)
    starts = np.frombuffer(log.starts, dtype=np.intc)
    kinds = np.frombuffer(log.kinds, dtype=np.uint8)
    agents = np.frombuffer(log.agents, dtype=np.intc)
    cells = np.frombuffer(log.cells, dtype=np.intc)
    is_spawn = kinds == SPAWN
    spawns = np.flatnonzero(is_spawn)
    exits = np.flatnonzero(kinds == EXIT)
    n_agents = len(spawns)
    if not len(exits):
        return RunMetrics(n_agents=n_agents, avg_travel_time_s=None, avg_distance_m=None,
                          per_exit_counts={}, completed=n_agents == 0)
    size = int(agents.max()) + 1
    # The step of event k is the last step whose first event is at k or before.
    spawn_step = np.zeros(size, dtype=np.int64)
    spawn_step[agents[spawns]] = np.searchsorted(starts, spawns, side="right") - 1
    exit_agents = agents[exits]
    exit_step = np.searchsorted(starts, exits, side="right") - 1
    travel = exit_step * log.dt - spawn_step[exit_agents] * log.dt

    # Each agent's cells in the order it reached them, spawn cell first: the
    # spawns and moves sorted in place by the unique key agent * n + index,
    # which gives the stable order. Each temporary is freed once used, so the
    # peak stays near 20 bytes an event.
    key = np.flatnonzero(is_spawn | (kinds == MOVE))
    del is_spawn
    key += np.multiply(agents[key], n, dtype=np.int64)
    key.sort()
    rows, cols = np.divmod(cells[key % n], log.cols)
    key //= n  # now each event's agent, an int64 that bincount takes as it is
    # A hop is diagonal when both the row and the column change.
    diagonal = (rows[1:] != rows[:-1]) & (cols[1:] != cols[:-1])
    del rows, cols
    hop_len = np.where(diagonal, cell_size_m * math.sqrt(2.0), cell_size_m)
    hop_len[key[1:] != key[:-1]] = 0.0  # an agent's first cell is no hop
    # bincount adds the weights one by one in input order, so each agent's
    # distance is a running total of its hops in the order it made them;
    # adding 0.0 changes no total.
    distance = np.bincount(key[1:], weights=hop_len, minlength=size)

    exit_rows, exit_cols = np.divmod(cells[exits], log.cols)
    return RunMetrics(
        n_agents=n_agents,
        avg_travel_time_s=_fmean(travel.tolist()),
        avg_distance_m=_fmean(distance[exit_agents].tolist()),
        per_exit_counts=dict(Counter(zip(exit_rows.tolist(), exit_cols.tolist()))),
        completed=len(exits) == n_agents,
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
        for agent, kind, cell in zip(log.agents[lo:hi], log.kinds[lo:hi], log.cells[lo:hi]):
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
            avg_travel_time_s=_fmean(travels) if travels else None,
            avg_distance_m=_fmean(dists) if dists else None,
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
