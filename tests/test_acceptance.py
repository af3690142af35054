"""Acceptance gate: one end-to-end test per stated criterion.

The terminal summary prints one PASS/FAIL line per criterion (see conftest).
Tolerances are part of each criterion and are asserted here, not loosened.
"""

import dataclasses

import numpy as np
from scipy import stats

from gridgen import random_grid, random_schedule
from mesoped.cli import main
from mesoped.engine import EXIT, MESO_TABLE, MICRO_TABLE, SPAWN, Simulation
from mesoped.floorfield import compute_field
from mesoped.metrics import summarize, sweep
from mesoped.scenario import build_runtime, load_scenario, make_simulation
from oracle import DIR_VECTORS, distance_field, greedy_descent, moves_of

# The four main-exit cells of the cinema hall; everything else is a side exit.
CINEMA_MAIN = {(8, 29), (9, 29), (10, 29), (11, 29)}


def test_criterion_1_speed_density_table():
    """All six density rows, exactly, and no seventh; capacity follows from
    the zero row."""
    expect = [(0, 1.44, 1.0), (1, 1.12, 0.8), (2, 0.84, 0.6),
              (3, 0.56, 0.4), (4, 0.28, 0.2), (5, 0.00, 0.0)]
    assert len(MESO_TABLE.speeds) == len(MESO_TABLE.probs) == 6
    for density, speed, prob in expect:
        assert MESO_TABLE.speeds[density] == speed
        assert MESO_TABLE.probs[density] == prob
    assert MESO_TABLE.capacity == 5
    assert MICRO_TABLE.speeds == (1.44, 0.0) and MICRO_TABLE.probs == (1.0, 0.0)
    assert MICRO_TABLE.capacity == 1


def test_criterion_2_field_descent_and_shortest_paths():
    """50 random connected layouts: strict descent; greedy matches BFS."""
    for seed in range(50):
        single = seed % 2 == 1
        grid = random_grid(np.random.default_rng(seed),
                           max_sinks=1 if single else 5,
                           uniform_weights=single)
        field = compute_field(grid)
        dist = distance_field(grid)
        assert np.isfinite(dist).all(), f"seed {seed}: generator left gaps"
        assert (field.values > 0.0).all(), f"seed {seed}: reachable cell at 0"
        for r in range(grid.rows):
            for c in range(grid.cols):
                if (r, c) in grid.sink_set:
                    continue
                best = max(field.values[r + dr, c + dc]
                           for dr, dc in (DIR_VECTORS[d]
                                          for d in moves_of(grid, (r, c))))
                assert best > field.values[r, c], f"seed {seed}: no descent at {(r, c)}"
        if single:
            for r in range(grid.rows):
                for c in range(grid.cols):
                    path = greedy_descent(field, grid, (r, c))
                    assert len(path) - 1 == dist[r, c], \
                        f"seed {seed}: greedy from {(r, c)} took {len(path) - 1}, bfs {dist[r, c]}"


def test_criterion_3_sink_weight_scaling():
    """Scaling all sink weights by c scales N by c and changes no decision."""
    for name, seed in (("cinema_b", 123), ("compare_10x15", 123)):
        config = load_scenario(name)
        runtime = build_runtime(config)
        base = Simulation(runtime.grid, runtime.field, runtime.config.table,
                          config.schedule, dt=config.dt_s, seed=seed)
        base.run(config.max_steps)
        assert base.completed
        for c in (0.5, 3.0, 10.0):
            scaled_grid = dataclasses.replace(
                runtime.grid,
                sinks=tuple((cell, w * c) for cell, w in runtime.grid.sinks))
            scaled_field = compute_field(scaled_grid, gamma=config.gamma,
                                         base_reward=config.base_reward)
            np.testing.assert_allclose(scaled_field.values,
                                       runtime.field.values * c, rtol=1e-6)
            rerun = Simulation(scaled_grid, scaled_field, runtime.config.table,
                               config.schedule, dt=config.dt_s, seed=seed)
            rerun.run(config.max_steps)
            assert rerun.events == base.events, f"{name}: c={c} changed a move"


def _cinema_shares(name):
    config = load_scenario(name)
    runtime = build_runtime(config)
    shares, pluralities = [], []
    for seed in range(10):
        sim = make_simulation(runtime, seed=seed)
        sim.run(config.max_steps)
        m = summarize(sim.state.log, runtime.grid.cell_size_m)
        assert m.completed, f"{name} seed {seed} did not finish"
        assert m.n_agents == 60
        main_count = sum(n for cell, n in m.per_exit_counts.items()
                         if cell in CINEMA_MAIN)
        side_max = max((n for cell, n in m.per_exit_counts.items()
                        if cell not in CINEMA_MAIN), default=0)
        shares.append(main_count / m.n_agents)
        pluralities.append(main_count > side_max)
    return shares, pluralities


def test_criterion_4_exit_choice_shares():
    """Main exit dominates at weight x3; halving the boost lowers its share."""
    shares_a, _ = _cinema_shares("cinema_a")
    shares_b, plural_b = _cinema_shares("cinema_b")
    assert sum(s > 0.5 for s in shares_a) >= 9, shares_a
    lower = [b < a for a, b in zip(shares_a, shares_b)]
    assert all(lower), (shares_a, shares_b)
    assert sum(plural_b) >= 8, plural_b


def test_criterion_5_escalator_preference():
    """The narrow strong-sink corridor outvalues the wide weak one everywhere."""
    runtime = build_runtime(load_scenario("escalator_stair"))
    n = runtime.field.values
    for col in range(9, 15):
        assert n[3, col] > n[5, col], f"column {col}"
        assert n[3, col] > n[6, col], f"column {col}"


def test_criterion_6_resolution_comparison():
    """Pop-1 parity within one dt; both models' curves rise with population."""
    populations = list(range(1, 51))
    meso_config = load_scenario("compare_10x15")
    micro_config = load_scenario("compare_10x15_micro")
    meso = sweep(build_runtime(meso_config), populations, 10)
    micro = sweep(build_runtime(micro_config), populations, 10)
    assert all(p.completed for p in meso)
    assert all(p.completed for p in micro)
    assert abs(meso[0].avg_travel_time_s - micro[0].avg_travel_time_s) <= 0.5 + 1e-9
    for points, label in ((meso, "meso"), (micro, "micro")):
        travel = [p.avg_travel_time_s for p in points]
        dist = [p.avg_distance_m for p in points]
        rho_t = stats.spearmanr(populations, travel).statistic
        rho_d = stats.spearmanr(populations, dist).statistic
        assert rho_t >= 0.9, f"{label} travel trend rho={rho_t}"
        assert rho_d >= 0.9, f"{label} distance trend rho={rho_d}"


def test_criterion_7_conservation_and_capacity():
    """100 fuzzed scenarios: headcount and per-cell capacity at every step."""
    for seed in range(100):
        rng = np.random.default_rng(10_000 + seed)
        grid = random_grid(rng, max_rows=18, max_cols=18)
        schedule = random_schedule(rng, grid)
        table = MESO_TABLE if seed % 2 == 0 else MICRO_TABLE
        field = compute_field(grid)
        sim = Simulation(grid, field, table, schedule, dt=0.5, seed=seed)

        def check(state):
            kinds = state.log.kinds
            assert kinds.count(SPAWN) == len(state.present) + kinds.count(EXIT), \
                f"seed {seed} step {state.step_index}: headcount drifted"
            assert max(state.density) <= table.capacity, \
                f"seed {seed} step {state.step_index}: capacity exceeded"
            recount = [0] * (grid.rows * grid.cols)
            for agent in state.present:
                recount[state.at[agent]] += 1
            assert recount == state.density.tolist(), \
                f"seed {seed} step {state.step_index}: density desynced"

        check(sim.state)
        for _ in range(300):
            if sim.completed:
                break
            check(sim.step())
        assert sim.state.spawned == sum(e.count for e in schedule) or \
            sim.state.pending_count > 0


def test_criterion_8_deterministic_artifacts(tmp_path):
    """The same scenario and seed yield byte-identical CSV artifacts."""
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["run", "cinema_b", "--seed", "5", "--out", str(out_a)]) == 0
    assert main(["run", "cinema_b", "--seed", "5", "--out", str(out_b)]) == 0
    for name in ("events.csv", "metrics.csv", "field.csv"):
        a = (out_a / name).read_bytes()
        b = (out_b / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    assert (out_a / "events.csv").read_bytes().startswith(
        b"step,clock_s,agent_id,event,row,col\n")
