"""Event-log summaries, population sweeps, and metrics CSV output.

`summarize` and `events_csv_blocks` read the log's columns; on real runs they
must equal, exactly, the event-by-event versions in `oracle.py`.
"""

import math
import os
import tracemalloc
from array import array
from dataclasses import replace
from itertools import accumulate
from statistics import fmean

import numpy as np
import pytest

import oracle
from gridgen import closed_room, random_schedule
from mesoped import engine, kernel, metrics
from mesoped.cli import snapshot_pictures
from mesoped.engine import (EXIT, KINDS, MESO_TABLE, MICRO_TABLE, MOVE, SPAWN, EventLog,
                            Simulation, SpawnEntry, events_csv_blocks)
from mesoped.floorfield import compute_field
from mesoped.layout import parse_layout, render_snapshot
from mesoped.metrics import (RunMetrics, comparison_csv, metrics_csv, summarize,
                             sweep)
from mesoped.scenario import build_runtime, bundled_scenarios, load_scenario

CORRIDOR_EVENTS = [
    (0, 0, "spawn", 0, 0),
    (2, 0, "move", 0, 1),
    (4, 0, "move", 0, 2),
    (5, 0, "exit", 0, 2),
]


def log_of(events, dt=0.5, cols=3):
    """An event log of (step, agent, kind, row, col) events; clock = step x dt."""
    log = EventLog(dt, cols)
    for step, agent, kind, r, c in events:
        oracle.log_events(log, step, (agent, KINDS.index(kind), r * cols + c))
    return log


def test_summarize_corridor_oracle():
    m = summarize(log_of(CORRIDOR_EVENTS), cell_size_m=1.0)
    assert m.n_agents == 1
    assert sum(m.per_exit_counts.values()) == 1
    assert m.avg_travel_time_s == 2.5
    assert m.avg_distance_m == 2.0
    assert m.per_exit_counts == {(0, 2): 1}
    assert m.completed


def test_summarize_scales_distance_with_cell_size():
    m = summarize(log_of(CORRIDOR_EVENTS), cell_size_m=0.5)
    assert m.avg_distance_m == 1.0


def test_summarize_counts_diagonal_moves():
    events = [
        (0, 0, "spawn", 0, 0),
        (2, 0, "move", 1, 1),
        (3, 0, "exit", 1, 1),
    ]
    m = summarize(log_of(events), cell_size_m=1.0)
    assert m.avg_distance_m == math.sqrt(2.0)


def test_summarize_empty_log():
    m = summarize(log_of([]), cell_size_m=1.0)
    assert m.n_agents == 0
    assert m.avg_travel_time_s is None
    assert m.avg_distance_m is None
    assert m.per_exit_counts == {}
    assert m.completed


def test_summarize_ignores_stays_and_averages_pairs():
    events = [
        (0, 0, "spawn", 0, 0),
        (0, 1, "spawn", 0, 0),
        (2, 0, "move", 0, 1),
        (2, 1, "stay", 0, 0),
        (4, 0, "move", 0, 2),
        (4, 1, "move", 0, 1),
        (5, 0, "exit", 0, 2),
        (6, 1, "move", 0, 2),
        (7, 1, "exit", 0, 2),
    ]
    m = summarize(log_of(events), cell_size_m=1.0)
    assert m.n_agents == 2
    assert m.avg_travel_time_s == 3.0
    assert m.avg_distance_m == 2.0
    assert m.per_exit_counts == {(0, 2): 2}
    assert m.completed


def test_summarize_flags_incomplete_runs():
    m = summarize(log_of(CORRIDOR_EVENTS[:-1]), cell_size_m=1.0)
    assert not m.completed
    assert m.n_agents == 1 and sum(m.per_exit_counts.values()) == 0
    assert m.avg_travel_time_s is None


def test_summarize_travel_time_is_a_difference_of_clocks():
    """Exit clock minus spawn clock, each one step x dt: in doubles
    3 x 0.1 - 1 x 0.1 is not (3 - 1) x 0.1."""
    m = summarize(log_of([(1, 0, "spawn", 0, 0), (3, 0, "exit", 0, 0)], dt=0.1), 1.0)
    assert m.avg_travel_time_s == 3 * 0.1 - 1 * 0.1
    assert m.avg_travel_time_s != (3 - 1) * 0.1


@pytest.mark.parametrize("later", [[], [(4, 0, "spawn", 0, 0)]])
def test_summarize_rejects_an_agent_without_a_spawn(later):
    """An agent that moves and exits with no spawn before it has no travel
    time to count: an error, whether nobody spawns or its spawn comes later."""
    events = [(2, 0, "move", 0, 1), (3, 0, "exit", 0, 1)] + later
    with pytest.raises(ValueError, match="agent id that has not spawned"):
        summarize(log_of(events), cell_size_m=1.0)


def test_summarize_rejects_columns_of_different_lengths():
    """The kernel walks as many agents and cells as there are kinds."""
    log = log_of(CORRIDOR_EVENTS)
    log._kinds.append(EXIT)
    with pytest.raises(ValueError, match="columns differ in length"):
        summarize(log, cell_size_m=1.0)


def walk(agent, start_row, hops, first_step=1):
    """Move events of one agent going east, one row down on each 'd' hop."""
    r, c, events = start_row, 0, []
    for step, hop in enumerate(hops, start=first_step):
        r, c = r + (hop == "d"), c + 1
        events.append((step, agent, "move", r, c))
    return events


def test_summarize_sums_each_walk_in_hop_order():
    """An agent's distance adds its hops one at a time in the order made. For
    these 12 hops a pairwise (numpy), sorted or exact sum gives other doubles.
    A second agent, its hops interleaved, has its own sum."""
    hops = ("sssdssddsssd", "dsssddsssdss")
    lengths = [[math.sqrt(2.0) if h == "d" else 1.0 for h in w] for w in hops]
    sums = []
    for w in lengths:
        total = 0.0
        for x in w:
            total += x
        sums.append(total)
    assert sums[0] != float(np.sum(lengths[0]))
    assert sums[0] != sum(sorted(lengths[0])) and sums[0] != math.fsum(lengths[0])
    moves = sorted(walk(0, 0, hops[0]) + walk(1, 20, hops[1]), key=lambda e: e[0])
    events = ([(0, 0, "spawn", 0, 0), (0, 1, "spawn", 20, 0)] + moves
              + [(13, 1, "exit", *moves[-1][3:]), (13, 0, "exit", *moves[-2][3:])])
    m = summarize(log_of(events, cols=20), cell_size_m=1.0)
    assert m.avg_distance_m == fmean(sums)
    assert summarize(log_of(events[:-1], cols=20), 1.0).avg_distance_m == sums[1]


def assert_log_outputs_match_oracle(sim, cell_size_m):
    """Column-reading `summarize`/`events_csv_blocks` equal the event-by-event ones."""
    events = sim.events
    assert summarize(sim.state.log, cell_size_m) == oracle.summarize(events, cell_size_m)
    assert b"".join(events_csv_blocks(sim.state.log)) == oracle.events_to_csv(events).encode()


@pytest.mark.parametrize("table", [MESO_TABLE, MICRO_TABLE], ids=["meso", "micro"])
def test_log_outputs_match_oracle_on_random_grids(random_grids, table):
    """At dt 0.3 neither clocks nor their differences are exact in doubles."""
    for k, grid in enumerate(random_grids):
        sim = Simulation(grid, compute_field(grid), table,
                         random_schedule(np.random.default_rng(k), grid), dt=0.3, seed=k)
        sim.run(max_steps=1000)
        assert_log_outputs_match_oracle(sim, grid.cell_size_m)


@pytest.mark.parametrize("name", bundled_scenarios())
def test_log_outputs_match_oracle_on_bundled_scenarios(name):
    config = load_scenario(name)
    runtime = build_runtime(config)
    for dt in (config.dt_s, 0.3):
        sim = Simulation(runtime.grid, runtime.field, runtime.config.table, config.schedule,
                         dt=dt, seed=config.seed)
        sim.run(config.max_steps)
        assert_log_outputs_match_oracle(sim, runtime.grid.cell_size_m)


def assert_csv_matches_oracle(log):
    assert b"".join(events_csv_blocks(log)) == oracle.events_to_csv(list(log)).encode()


def test_events_csv_of_an_empty_log_is_the_header():
    assert list(events_csv_blocks(EventLog(0.5, 3))) == [b"step,clock_s,agent_id,event,row,col\n"]
    assert_csv_matches_oracle(oracle.log_events(EventLog(0.5, 3), 40))


def test_events_csv_agent_ids_cross_digit_widths():
    """Ids 0-1000 (widths 1 to 4) in one step and interleaved across steps,
    in rooms whose rows and columns also cross a digit width."""
    ids = list(range(1001))
    log = log_of([(1, a, "spawn", a % 11, a % 101) for a in ids], cols=101)
    assert_csv_matches_oracle(log)
    events = [(s, a, kind, (a * 7) % 12, a % 13)
              for s in range(2, 40) for a in (9, 10, 99, 100, 999, 1000)
              for kind in ("move", "stay") if (a + s) % 3]
    assert_csv_matches_oracle(log_of(events, dt=0.25, cols=13))


@pytest.mark.parametrize("dt", [0.1, 0.3, 0.5, 1e-9, 7.0])
def test_events_csv_clocks_are_reprs(dt):
    """Step s's clock is `repr(s * dt)`: 17 significant digits at dt 0.1 and
    0.3 (3 * 0.1 is 0.30000000000000004), exponents at dt 1e-9."""
    events = [(s, s % 5, ("spawn", "move", "stay", "exit")[s % 4], 0, s % 3)
              for s in range(0, 400, 3)]
    assert_csv_matches_oracle(log_of(events, dt=dt))
    text = b"".join(events_csv_blocks(log_of(events, dt=0.1)))
    assert b"\n3,0.30000000000000004,3," in text


def test_events_csv_skips_thousands_of_empty_steps():
    events = [(0, 0, "spawn", 0, 0), (2500, 0, "move", 0, 1), (9999, 0, "exit", 0, 1),
              (10000, 1, "stay", 0, 2)]
    log = log_of(events)
    assert len(log.starts) == 10001
    assert_csv_matches_oracle(log)
    grid = parse_layout("1 3 1.0\n11 10 14\nsink 0 2 1\nsource 0 0\n")
    sim = Simulation(grid, compute_field(grid), MESO_TABLE, dt=0.1, seed=0,
                     schedule=(SpawnEntry((0, 0), 1, 3000), SpawnEntry((0, 0), 1, 4500)))
    sim.run(max_steps=6000)
    assert sim.completed and len(sim.state.log.kinds) == 8
    assert_csv_matches_oracle(sim.state.log)


def test_events_csv_spans_many_blocks():
    """A log several blocks long: every block but the last is whole lines
    that fill it to within one line, and the last is short."""
    n = 3 * kernel.CSV_BLOCK_BYTES // 16
    events = [(k // 50, k % 777, ("move", "stay")[k % 2], k % 9, k % 31) for k in range(n)]
    log = log_of(events, dt=0.1, cols=31)
    header, *blocks = events_csv_blocks(log)
    assert header == engine.CSV_HEADER and len(blocks) >= 4
    longest = max(map(len, b"".join(blocks).splitlines(keepends=True)))
    for block in blocks[:-1]:
        assert kernel.CSV_BLOCK_BYTES - longest < len(block) <= kernel.CSV_BLOCK_BYTES
        assert block.endswith(b"\n")
    assert len(blocks[-1]) < kernel.CSV_BLOCK_BYTES and blocks[-1].endswith(b"\n")
    assert_csv_matches_oracle(log)


def test_events_csv_in_tiny_blocks_matches_oracle(monkeypatch):
    """Blocks far smaller than the default: hundreds of them, each of whole
    lines, one filled to its last byte and the last one short; an empty log
    is the header alone at any block size. A block holds at least the
    longest line the log could have: its longest `step,clock,` and
    `engine.CSV_LINE_TAIL` bytes."""
    events = [(s, a, KINDS[(s + a) % 4], (s * a) % 13, a % 17)
              for s in range(0, 1200, 2) for a in range(s % 7)]
    log = log_of(events, dt=0.3, cols=17)
    text = oracle.events_to_csv(list(log)).encode()
    lines = text.splitlines(keepends=True)[1:]
    prefix = max(len(line) - len(line.split(b",", 2)[2]) for line in lines)
    # the first block ends on its last byte
    size = next(n for n in accumulate(map(len, lines)) if n >= prefix + engine.CSV_LINE_TAIL)
    monkeypatch.setattr(kernel, "CSV_BLOCK_BYTES", size)
    header, *blocks = events_csv_blocks(log)
    assert header + b"".join(blocks) == text
    assert len(blocks) > 300 and len(blocks[0]) == size
    assert all(b.endswith(b"\n") and len(b) <= size for b in blocks)
    assert all(len(a) + len(b.split(b"\n", 1)[0]) + 1 > size for a, b in zip(blocks, blocks[1:]))
    assert len(blocks[-1]) < size
    assert list(events_csv_blocks(EventLog(0.3, 17))) == [header]


def test_a_log_cannot_grow_while_its_csv_is_drawn():
    """The writer holds the buffers of the log's columns, `starts` among them,
    until its last block is drawn: a step taken meanwhile raises BufferError
    before it begins, and the text is that of the log when it was begun."""
    grid = parse_layout("1 3 1.0\n11 10 14\nsink 0 2 1\nsource 0 0\n")
    sim = Simulation(grid, compute_field(grid), MESO_TABLE, schedule=(SpawnEntry((0, 0), 3),))
    sim.run(3)
    log = sim.state.log
    expected = oracle.events_to_csv(list(log)).encode()
    blocks = events_csv_blocks(log)
    drawn = next(blocks) + next(blocks)
    for grow in (sim.step, lambda: log._starts.append(len(log._kinds))):
        with pytest.raises(BufferError):
            grow()
    assert drawn + b"".join(blocks) == expected
    sim.step()
    assert len(log.starts) == 5


def test_events_csv_rejects_a_malformed_log():
    for event in ((0, 4, 0), (-1, MOVE, 0), (0, MOVE, -1)):
        log = oracle.log_events(EventLog(0.5, 3), 0, (0, SPAWN, 0), event)
        with pytest.raises(ValueError, match="event 1 of the log"):
            b"".join(events_csv_blocks(log))


def walking_log(agents, moves, cols=40):
    """A complete run's log built straight into its private columns: every agent
    spawns at step 0, moves once a step, diagonally every other step, and
    exits the step after its last move. Step s holds each agent's s-th event
    in agent order."""
    steps = moves + 2
    step, agent = np.divmod(np.arange(agents * steps), agents)
    kind = np.where(step == 0, SPAWN, np.where(step == steps - 1, EXIT, MOVE))
    at = np.minimum(step, steps - 2)  # an exit is logged at the last cell
    cells = (agent + at // 2) % 50 * cols + at % cols
    log = EventLog(0.5, cols)
    log._starts = array("i", range(0, len(step), agents))
    log._agents = array("i", agent.astype(np.intc).tobytes())
    log._kinds = array("B", kind.astype(np.uint8).tobytes())
    log._cells = array("i", cells.astype(np.intc).tobytes())
    return log


def traced_peak(fn) -> int:
    """The most memory traced at once while `fn()` runs, after one warm-up call."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_events_csv_memory_does_not_grow_with_the_log():
    """Writing a log the way the CLI does peaks no higher than writing one
    an eighth as long, up to a fixed slack well below the shorter log's
    text (~330 kB): the steps' `step,clock,` texts, a few kB."""
    def drain(log):
        with open(os.devnull, "wb") as fh:
            fh.writelines(events_csv_blocks(log))

    one, eight = walking_log(1024, 14), walking_log(1024, 126)
    assert 8 * len(one.kinds) == len(eight.kinds) == 8 * 16384
    assert traced_peak(lambda: drain(eight)) - traced_peak(lambda: drain(one)) <= 128 * 1024


def test_snapshots_memory_does_not_grow_with_the_log():
    """Writing `snapshots.txt` for a 128-step log the way the CLI does peaks
    no higher than for a 16-step one, up to a few pictures (about 12 kB
    each): the replay updates one density list in place, and each step's
    picture is written before the next is drawn."""
    grid = closed_room(50, 40)

    def drain(log):
        with open(os.devnull, "wb") as fh:
            fh.writelines(snapshot_pictures(grid, log))

    short, long = walking_log(1024, 14), walking_log(1024, 126)
    assert 8 * len(short.starts) == len(long.starts) == 128
    picture = len(render_snapshot(grid, [0] * (grid.rows * grid.cols)))
    assert traced_peak(lambda: drain(long)) - traced_peak(lambda: drain(short)) <= 3 * picture


def test_summarize_memory_is_a_few_bytes_per_event():
    """The peak over the log's own columns is a copy of the kinds, one byte
    an event, and the walk's columns, a few per agent and per exit; the
    bound is that of a per-event int64 sort key plus a float hop length."""
    small = walking_log(7, 5)
    assert summarize(small, 1.0) == oracle.summarize(list(small), 1.0)
    assert_csv_matches_oracle(small)
    log = walking_log(1500, 98)
    n = len(log.kinds)
    assert n == 150_000
    m = summarize(log, 1.0)
    assert m.n_agents == 1500 and m.completed and m.avg_travel_time_s == 99 * 0.5
    assert traced_peak(lambda: summarize(log, 1.0)) <= 24 * n


def test_seed_sequences_are_distinct_and_stable(monkeypatch):
    """Each run of a sweep draws its own stream, keyed by the scenario seed,
    the population and the run index; sweeping again replays the same runs."""
    config = load_scenario("compare_10x15")
    runtime = build_runtime(config)
    make_simulation = metrics.make_simulation
    sims = []

    def recording(*args, **kwargs):
        sims.append(make_simulation(*args, **kwargs))
        return sims[-1]

    monkeypatch.setattr(metrics, "make_simulation", recording)
    for seed in (config.seed, config.seed, config.seed + 1):
        sweep(replace(runtime, config=replace(config, seed=seed)), [20], 3)
    logs = [b"".join(events_csv_blocks(sim.state.log)) for sim in sims]
    assert len(set(logs[:3])) == 3, "runs of one population must differ"
    assert logs[3:6] == logs[:3], "the same seed must replay the same runs"
    assert not set(logs[6:]) & set(logs[:3]), "another seed must give other runs"
    direct = make_simulation(runtime, seed=(config.seed, 20, 1), population=20)
    direct.run(config.max_steps)
    assert b"".join(events_csv_blocks(direct.state.log)) == logs[1]


def test_sweep_is_deterministic():
    config = load_scenario("compare_10x15")
    a = sweep(build_runtime(config), [1, 3], 2)
    b = sweep(build_runtime(config), [1, 3], 2)
    assert a == b
    assert [p.n_agents for p in a] == [1, 3]
    assert all(p.completed for p in a)
    assert a[0].avg_travel_time_s == 14.5


@pytest.mark.parametrize("counts, row", [
    ({(0, 2): 2}, "2,2.5,2.0,2,true"),
    ({(0, 2): 0.5, (1, 0): 0.1 + 0.2, (2, 2): 2.0},
     "2,2.5,2.0,0.5,0.30000000000000004,2.0,true"),
], ids=["run", "seed-mean"])
def test_metrics_csv_layout(counts, row):
    """A run's int count and a seed mean's float count both print as `str`."""
    m = RunMetrics(n_agents=2, avg_travel_time_s=2.5, avg_distance_m=2.0,
                   per_exit_counts=counts, completed=True)
    sinks = list(counts)
    text = metrics_csv([m], sinks=sinks)
    assert text == ("population,avg_travel_time_s,avg_distance_m,"
                    + "".join(f"exit_{r}_{c}_count," for r, c in sinks)
                    + f"completed\n{row}\n")


def test_metrics_csv_handles_missing_values():
    m = RunMetrics(n_agents=1, avg_travel_time_s=None, avg_distance_m=None,
                   per_exit_counts={}, completed=False)
    text = metrics_csv([m], sinks=[(0, 2)])
    assert text.splitlines()[1] == "1,,,0,false"


def test_comparison_csv_pairs_rows():
    a = RunMetrics(1, 14.5, 14.0, {}, True)
    b = RunMetrics(1, 15.0, 14.5, {}, True)
    text = comparison_csv([a], [b])
    lines = text.splitlines()
    assert lines[0].startswith("population,meso_avg_travel_time_s")
    assert lines[1] == "1,14.5,14.0,true,15.0,14.5,true"
