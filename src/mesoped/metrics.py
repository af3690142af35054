"""Run metrics recomputed from event logs, plus population sweeps.

Working from the log rather than live engine state means any stored run can
be re-audited without replaying it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .engine import EXIT, MOVE, SPAWN, EventLog
from .layout import Cell
from .scenario import ConfigError, Runtime, make_simulation


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
    bounds = log.bounds()
    kinds = np.frombuffer(log.kinds, dtype=np.uint8)
    agents = np.frombuffer(log.agents, dtype=np.intc)
    cells = np.frombuffer(log.cells, dtype=np.intc)
    steps = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
    is_spawn = kinds == SPAWN
    spawns = np.flatnonzero(is_spawn)
    exits = np.flatnonzero(kinds == EXIT)
    n_agents = len(spawns)
    if not len(exits):
        return RunMetrics(n_agents=n_agents, avg_travel_time_s=None, avg_distance_m=None,
                          per_exit_counts={}, completed=n_agents == 0)
    size = int(agents.max()) + 1
    spawn_step = np.zeros(size, dtype=np.int64)
    spawn_step[agents[spawns]] = steps[spawns]
    exit_agents = agents[exits]
    travel = steps[exits] * log.dt - spawn_step[exit_agents] * log.dt

    # Each agent's cells in the order it reached them, spawn cell first. A
    # hop is diagonal when both the row and the column change.
    walk = np.flatnonzero(is_spawn | (kinds == MOVE))
    # Keys agent * len(kinds) + index are unique, so this is the stable order.
    walk = walk[np.argsort(agents[walk].astype(np.int64) * len(kinds) + walk)]
    who = agents[walk]
    rows, cols = np.divmod(cells[walk], log.cols)
    hop = who[1:] == who[:-1]
    diagonal = (rows[1:] != rows[:-1]) & (cols[1:] != cols[:-1])
    hop_len = np.where(diagonal, cell_size_m * math.sqrt(2.0), cell_size_m)
    # bincount adds the weights one by one in input order, so each agent's
    # distance is a running total of its hops in the order it made them.
    distance = np.bincount(who[1:][hop], weights=hop_len[hop], minlength=size)

    exit_rows, exit_cols = np.divmod(cells[exits], log.cols)
    return RunMetrics(
        n_agents=n_agents,
        avg_travel_time_s=_fmean(travel.tolist()),
        avg_distance_m=_fmean(distance[exit_agents].tolist()),
        per_exit_counts=dict(Counter(zip(exit_rows.tolist(), exit_cols.tolist()))),
        completed=len(exits) == n_agents,
    )


def run_metrics(sim) -> RunMetrics:
    """`summarize` of a finished simulation's log; the run is complete only
    when nobody is inside and nobody is still waiting to spawn."""
    return replace(summarize(sim.state.log, sim.grid.cell_size_m), completed=sim.completed)


def sweep(runtime: Runtime, populations: list[int], seeds_per_point: int) -> list[RunMetrics]:
    """Average metrics across seeded repeats for each population size.

    Every run reuses the layout and navigation field of `runtime`; only the
    spawn schedule and the generator change.
    """
    config = runtime.config
    if seeds_per_point < 1:
        raise ConfigError(f"seeds per population must be at least 1, got {seeds_per_point}")
    points = []
    for population in populations:
        metrics = []
        for run_i in range(seeds_per_point):
            # A distinct, reproducible stream per (scenario seed, population, run).
            seed = np.random.SeedSequence([config.seed, population, run_i])
            sim = make_simulation(runtime, seed=seed, population=population)
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
        lines.append(",".join([
            str(a.n_agents),
            _fmt(a.avg_travel_time_s), _fmt(a.avg_distance_m),
            "true" if a.completed else "false",
            _fmt(b.avg_travel_time_s), _fmt(b.avg_distance_m),
            "true" if b.completed else "false",
        ]))
    return "\n".join(lines) + "\n"
