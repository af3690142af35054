"""Speed-density tables, dwell timing, move choice, and the step loop.

Dwell, scoring and tie rules are checked through `Simulation.step`; the
C step kernel must also reproduce the reference loop in `oracle.py`
event for event, and its two draws must equal numpy's.
"""

import ctypes
import math
import re
from array import array
from dataclasses import replace
from operator import setitem

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridgen import open_hall, random_grid, random_schedule
from mesoped import engine
from mesoped.engine import (DIAMETER_FACTOR, EXIT, FULL_LOG, MAX_EVENTS, MESO_TABLE,
                            MICRO_TABLE, PCG64, ROOM, SPAWN, Simulation, SpawnEntry,
                            SpeedDensityTable, events_csv_blocks)
from mesoped.floorfield import compute_field
from mesoped.kernel import kernel
from mesoped.layout import ParseError, parse_layout, render_snapshot
from mesoped.metrics import occupancy, summarize
from mesoped.scenario import build_runtime, bundled_scenarios, load_scenario
import oracle
from oracle import ReferenceSimulation

CORRIDOR_1X3 = "1 3 1.0\n11 10 14\nsink 0 2 1\nsource 0 0\n"
CORRIDOR_1X4 = "1 4 1.0\n11 10 10 14\nsink 0 3 1\nsource 0 0\n"
# Source in the middle of five cells, a sink at each end; the west sink's
# weight is the first format field.
TWO_EXITS_1X5 = "1 5 1.0\n11 10 10 10 14\nsink 0 0 {}\nsink 0 4 1\nsource 0 2\n"
# Agents placed with this entry clock never finish crossing their cell.
NEVER = 1e12


def corridor(text=CORRIDOR_1X3):
    grid = parse_layout(text)
    return grid, compute_field(grid)


def lone_agent(text=CORRIDOR_1X3, dt=0.5, seed=0, source=(0, 0)):
    grid, field = corridor(text)
    return Simulation(grid, field, MESO_TABLE, schedule=(SpawnEntry(source, 1),),
                      dt=dt, seed=seed)


def place(state, grid, cell, t_in=0.0):
    """Put a new agent, the next id in spawn order, in `cell` as if it had
    entered at `t_in`, without logging a spawn, writing the state's private
    columns as the kernel does; on a sink it is due to exit."""
    state._present.append(state.spawned)
    state._at.append(grid.index(cell))
    state._t_in.append(t_in)
    state._density[grid.index(cell)] += 1


def first_move(sim, max_steps=50):
    """Step until agent 0 moves; return that step's index and destination."""
    for _ in range(max_steps):
        sim.step()
        moves = [e for e in sim.events if e[3] == "move" and e[2] == 0]
        if moves:
            return moves[0][0], moves[0][4:]
    return None


def test_meso_table_rows():
    expect = [(0, 1.44, 1.0), (1, 1.12, 0.8), (2, 0.84, 0.6),
              (3, 0.56, 0.4), (4, 0.28, 0.2), (5, 0.00, 0.0)]
    assert len(MESO_TABLE.speeds) == len(MESO_TABLE.probs) == len(expect)
    for d, speed, prob in expect:
        assert MESO_TABLE.speeds[d] == speed
        assert MESO_TABLE.probs[d] == prob
    assert MESO_TABLE.capacity == 5


def test_micro_table_rows():
    assert MICRO_TABLE.speeds == (1.44, 0.0)
    assert MICRO_TABLE.probs == (1.0, 0.0)
    assert MICRO_TABLE.capacity == 1


# Each case: the speeds, then the entry probabilities. Densities that do not
# run 0..n-1 can only come from a [table] section; test_scenario rejects them.
@pytest.mark.parametrize("entries", [
    ((), ()),                                        # empty
    ((1.0, 0.5), (1.0,)),                            # a speed with no probability
    ((1.0,), (1.0, 0.0)),                            # a probability with no speed
    ((1.0, -0.5), (1.0, 0.0)),                       # negative speed
    ((1.0, 0.5), (1.0, 1.5)),                        # probability above 1
    ((1.0, 1.2), (0.5, 0.0)),                        # speed increases
    ((1.0, 0.5), (0.5, 0.8)),                        # probability increases
    ((1.0, 0.5), (1.0, 0.2)),                        # final probability not 0
    ((1.0, 0.5), (0.0, 0.0)),                        # nothing can ever enter
    ((1.0, math.nan), (1.0, 0.0)),                   # NaN speed
    ((math.inf, 0.5), (1.0, 0.0)),                   # infinite speed
    ((0.0, 0.0), (1.0, 0.0)),                        # a lone agent never moves
    ((1.0, 0.0, 0.0), (1.0, 0.5, 0.0)),              # two agents freeze in a cell
])
def test_table_validation_rejects(entries):
    with pytest.raises(ValueError):
        SpeedDensityTable(*entries)


def test_cell_geometry_diameter():
    """The dwell time is cell size x DIAMETER_FACTOR over the speed."""
    assert math.isclose(DIAMETER_FACTOR, (1 + math.sqrt(2)) / 2)
    # At 1.44 m/s a lone agent needs 0.838 s to cross a 1 m cell, 0.419 s a 0.5 m one.
    assert first_move(lone_agent(dt=0.1)) == (9, (0, 1))
    half = CORRIDOR_1X3.replace("1 3 1.0", "1 3 0.5")
    assert first_move(lone_agent(half, dt=0.1)) == (5, (0, 1))


def test_dwell_lone_agent_finishes_after_0p84_seconds():
    sim = lone_agent(dt=0.5)
    sim.step()  # clock 0.5
    assert [e[3] for e in sim.events] == ["spawn"]
    sim.step()  # clock 1.0
    assert sim.events[-1] == (2, 1.0, 0, "move", 0, 1)


def test_dwell_exact_boundary_counts_as_elapsed():
    sim = lone_agent(dt=DIAMETER_FACTOR / 1.44)
    sim.step()
    assert sim.state.clock == DIAMETER_FACTOR / 1.44
    assert sim.events[-1][:4] == (1, sim.state.clock, 0, "move")


def test_dwell_slows_with_company():
    """Two occupants walk at 1.12 m/s, not 1.44: nobody moves at clock 1.0."""
    grid, field = corridor()
    sim = Simulation(grid, field, MESO_TABLE, schedule=(SpawnEntry((0, 0), 2),),
                     dt=0.5, seed=0)
    sim.step()
    sim.step()  # clock 1.0, short of 1.08 s
    assert [e[3] for e in sim.events] == ["spawn", "spawn"]
    sim.step()  # clock 1.5
    assert [e[3] for e in sim.events[2:]] == ["move", "move"]
    # Exactly at the 1.12 m/s crossing time the pair may leave.
    sim = Simulation(grid, field, MESO_TABLE, schedule=(SpawnEntry((0, 0), 2),),
                     dt=DIAMETER_FACTOR / 1.12, seed=0)
    sim.step()
    assert [e[3] for e in sim.events[2:]] == ["move", "move"]


def test_dwell_full_cell_never_elapses():
    grid, field = corridor()
    sim = Simulation(grid, field, MESO_TABLE, schedule=(), dt=1e8, seed=0)
    for _ in range(6):
        place(sim.state, grid, (0, 0))
    for _ in range(10):
        sim.step()
    assert sim.state.clock == 1e9
    assert sim.state.density[grid.index((0, 0))] == 6
    assert sim.events == [], "six occupants have speed 0: no move and no stay"


def test_score_is_entry_probability_times_navigation():
    """East has the higher value (80) but one occupant: 0.8 x 80 = 64. West
    holds 0.8 x max(100 x weight, 64): 72 at weight 0.9, 51.2 at 0.5."""
    for west_weight, dest in ((0.9, (0, 1)), (0.5, (0, 3))):
        grid, field = corridor(TWO_EXITS_1X5.format(west_weight))
        assert field.values[0, 3] == 80.0
        sim = Simulation(grid, field, MESO_TABLE, schedule=(SpawnEntry((0, 2), 1),),
                         dt=0.5, seed=0)
        place(sim.state, grid, (0, 3), t_in=NEVER)
        assert first_move(sim) == (2, dest), west_weight
    assert MESO_TABLE.probs[1] == 0.8


def test_score_full_cell_is_zero():
    """A full east cell scores 0, so a poorer open west cell wins."""
    grid, field = corridor(TWO_EXITS_1X5.format(0.1))
    sim = Simulation(grid, field, MESO_TABLE, schedule=(SpawnEntry((0, 2), 1),),
                     dt=0.5, seed=0)
    for _ in range(5):
        place(sim.state, grid, (0, 3), t_in=NEVER)
    assert first_move(sim) == (2, (0, 1))


def test_choose_move_argmax_and_stay():
    grid, field = corridor(TWO_EXITS_1X5.format(0.5))
    sim = Simulation(grid, field, MESO_TABLE, schedule=(SpawnEntry((0, 2), 1),),
                     dt=0.5, seed=0)
    assert first_move(sim) == (2, (0, 3)), "the higher score wins"
    sim = Simulation(grid, field, MESO_TABLE, schedule=(SpawnEntry((0, 2), 1),),
                     dt=0.5, seed=0)
    for cell in [(0, 1)] * 5 + [(0, 3)] * 5:
        place(sim.state, grid, cell, t_in=NEVER)
    sim.step()
    sim.step()
    assert sim.events[-1] == (2, 1.0, 0, "stay", 0, 2), "nothing scores above 0"


# A closed 3x2 room: the agent starts at (1, 0), west of three east cells.
ROOM_3X2 = "3 2 1.0\n9 12\n1 4\n3 6\n{}source 1 0\n"


def test_choose_move_tie_prefers_orthogonal():
    """East, north-east and south-east sinks all score 100: east wins every time."""
    text = ROOM_3X2.format("sink 0 1 1\nsink 1 1 1\nsink 2 1 1\n")
    for seed in range(20):
        sim = lone_agent(text, seed=seed, source=(1, 0))
        assert first_move(sim) == (2, (1, 1))
    text = "2 2 1.0\n9 12\n3 6\nsink 0 1 1\nsink 1 1 1\nsource 1 0\n"
    assert first_move(lone_agent(text, source=(1, 0))) == (2, (1, 1))


def test_choose_move_tie_uses_seeded_generator():
    text = "1 3 1.0\n11 10 14\nsink 0 0 1\nsink 0 2 1\nsource 0 1\n"

    def picks():
        return [first_move(lone_agent(text, seed=s, source=(0, 1)))[1] for s in range(30)]

    picks_a = picks()
    assert picks_a == picks()
    assert set(picks_a) == {(0, 0), (0, 2)}, "both options must be reachable"


def rng_draws_by_step(sim, max_steps=10):
    """Step a run to its end; for each step, whether it drew from the generator."""
    drew = []
    for _ in range(max_steps):
        if sim.completed:
            break
        before = sim.state.rng.state
        sim.step()
        drew.append(sim.state.rng.state != before)
    return drew


def test_orthogonal_move_tying_a_diagonal_draws_nothing():
    """East ties north-east and south-east at 100: the orthogonal move is taken
    without a draw, so a lone agent's run never touches the generator."""
    text = ROOM_3X2.format("sink 0 1 1\nsink 1 1 1\nsink 2 1 1\n")
    sim = lone_agent(text, seed=4, source=(1, 0))
    assert rng_draws_by_step(sim) == [False] * 3
    assert [e[3:] for e in sim.events] == [("spawn", 1, 0), ("move", 1, 1), ("exit", 1, 1)]


def test_diagonals_only_tie_draws():
    """North-east and south-east tie at 100 above every orthogonal move (80):
    the tie is broken by one draw, at the step of the move."""
    text = ROOM_3X2.format("sink 0 1 1\nsink 2 1 1\n")
    picks = set()
    for seed in range(20):
        sim = lone_agent(text, seed=seed, source=(1, 0))
        assert rng_draws_by_step(sim) == [False, True, False]
        picks.add(sim.events[1][4:])
    assert picks == {(0, 1), (2, 1)}


def c_shuffle(rng, items):
    """`items` shuffled by the kernel's `shuffle`, drawing from `rng`."""
    ids = array("i", items)
    kernel().shuffle(ids.buffer_info()[0], len(ids), ctypes.byref(rng))
    return ids.tolist()


def test_c_shuffle_equals_generator_shuffle():
    """On twin generators the kernel's shuffle orders a list as
    `Generator.shuffle` does and leaves the same generator state, at every
    length up to 300 and at each 2**k and 2**k + 1 up to 65,537, where the
    rejection mask of numpy's `random_interval` widens."""
    lengths = sorted({*range(301), *(2**k + d for k in range(17) for d in (0, 1))})
    for seed in range(3):
        ours, theirs = PCG64.from_seed(seed), np.random.default_rng(seed)
        for n in lengths:
            items = list(range(n))
            theirs.shuffle(items)
            assert c_shuffle(ours, range(n)) == items, f"seed {seed}, length {n}"
        assert ours.state == theirs.bit_generator.state


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 10**40, 2**128 - 1,
                                  (1, 20, 0), (2**40, 1, 2), [7, 50, 9], [1, 2, 3, 4, 5, 6],
                                  range(3), [], np.int64(7)])
def test_seeded_generator_equals_default_rng(seed):
    """The run's generator starts in the state `default_rng(seed)` starts in,
    for each int and sequence of ints numpy takes, and draws numpy's PCG64
    outputs: each 64-bit word as two 32-bit draws, low half first."""
    ours, theirs = PCG64.from_seed(seed), np.random.default_rng(seed)
    assert ours.state == theirs.bit_generator.state
    draws = [kernel().draw(2**32, ctypes.byref(ours)) for _ in range(100)]
    words = theirs.bit_generator.random_raw(50).tolist()
    assert draws == [w >> k & 0xFFFFFFFF for w in words for k in (0, 32)]
    assert ours.state["state"] == theirs.bit_generator.state["state"]


@pytest.mark.parametrize("seed, error, named", [
    (-1, ValueError, "-1"),
    ((3, -2), ValueError, "(3, -2)"),
    (1.5, TypeError, "1.5"),
    ([1, 2.0], TypeError, "[1, 2.0]"),
    ("7", TypeError, "'7'"),
    (b"\x07", TypeError, "b'\\x07'"),
    (np.random.SeedSequence(1234), TypeError, "pass its entropy, 1234, as the seed"),
], ids=["negative", "negative-item", "float", "float-item", "str", "bytes", "SeedSequence"])
def test_bad_seed_is_rejected_by_name(seed, error, named):
    with pytest.raises(error, match=re.escape(named)):
        lone_agent(seed=seed)


def test_unseeded_runs_draw_fresh_entropy():
    assert lone_agent(seed=None).state.rng.state != lone_agent(seed=None).state.rng.state


@pytest.mark.parametrize("sizes", [
    range(1, 9),
    [2**31 - 1, 2**31, 2**31 + 1, 3 * 2**30, 2**32 - 2, 2**32 - 1, 2**32],
], ids=["ties", "near-2**32"])
def test_c_draw_equals_generator_integers(sizes):
    """On twin generators the kernel's tie draw gives
    `int(Generator.integers(n))`, draw for draw, interleaved with list
    shuffles as in the step loop, and leaves the same generator state.
    Bounds just above 2**31 reject nearly half their 32-bit draws;
    2**32 - 1 rejects almost none."""
    draw = kernel().draw
    plan = np.random.default_rng(2024)
    for seed in range(10):
        ours, theirs = PCG64.from_seed(seed), np.random.default_rng(seed)
        for _ in range(400):
            if plan.random() < 0.2:
                items = list(range(int(plan.integers(2, 40))))
                theirs.shuffle(items)
                assert c_shuffle(ours, range(len(items))) == items
            else:
                n = int(plan.choice(sizes))
                assert draw(n, ctypes.byref(ours)) == int(theirs.integers(n)), f"seed {seed}, n {n}"
        assert ours.state == theirs.bit_generator.state


def test_sink_arrivals_exit_next_step_in_ascending_id_order():
    """Four agents step onto four sinks in one step, in the shuffled order of
    that step, and exit together at the next step, lowest id first."""
    text = ("4 2 1.0\n9 8\n1 0\n1 0\n3 2\n"
            + "".join(f"sink {r} 1 1\n" for r in range(4))
            + "".join(f"source {r} 0\n" for r in range(4)))
    grid, field = corridor(text)
    shuffled = 0
    for seed in range(10):
        sim = Simulation(grid, field, MESO_TABLE, dt=0.5, seed=seed,
                         schedule=tuple(SpawnEntry((r, 0), 1) for r in (2, 0, 3, 1)))
        sim.run(max_steps=10)
        moves = [e for e in sim.events if e[3] == "move"]
        exits = [e for e in sim.events if e[3] == "exit"]
        assert {e[0] for e in moves} == {2} and {e[0] for e in exits} == {3}
        assert [e[2] for e in exits] == [0, 1, 2, 3]
        shuffled += [e[2] for e in moves] != [0, 1, 2, 3]
    assert shuffled, "no seed moved the agents out of id order"


def test_corridor_single_agent_event_log():
    """One agent, three cells: the full frozen trace of its run."""
    grid, field = corridor()
    sim = Simulation(grid, field, MESO_TABLE,
                     schedule=(SpawnEntry((0, 0), 1),), dt=0.5, seed=42)
    sim.run(max_steps=100)
    assert sim.events == [
        (0, 0.0, 0, "spawn", 0, 0),
        (2, 1.0, 0, "move", 0, 1),
        (4, 2.0, 0, "move", 0, 2),
        (5, 2.5, 0, "exit", 0, 2),
    ]
    assert sim.completed
    assert sim.state.present.tolist() == [] and sim.state.at.tolist() == [grid.index((0, 2))]
    m = summarize(sim.state.log, grid.cell_size_m)
    assert m.per_exit_counts == {(0, 2): 1}
    assert m.avg_travel_time_s == 2.5
    assert m.avg_distance_m == 2.0


def test_corridor_csv_golden():
    grid, field = corridor()
    sim = Simulation(grid, field, MESO_TABLE,
                     schedule=(SpawnEntry((0, 0), 1),), dt=0.5, seed=0)
    sim.run(max_steps=100)
    assert b"".join(events_csv_blocks(sim.state.log)) == (
        b"step,clock_s,agent_id,event,row,col\n"
        b"0,0.0,0,spawn,0,0\n"
        b"2,1.0,0,move,0,1\n"
        b"4,2.0,0,move,0,2\n"
        b"5,2.5,0,exit,0,2\n"
    )


def test_diagonal_move_adds_diagonal_distance():
    text = "2 2 1.0\n9 12\n3 2\nsink 1 1 1\nsource 0 0\n"
    grid = parse_layout(text)
    field = compute_field(grid)
    sim = Simulation(grid, field, MESO_TABLE,
                     schedule=(SpawnEntry((0, 0), 1),), dt=0.5, seed=0)
    sim.run(max_steps=50)
    assert sim.completed
    assert summarize(sim.state.log, grid.cell_size_m).avg_distance_m == pytest.approx(math.sqrt(2))


def test_stay_event_only_for_blocked_movable_agents():
    """A movable agent boxed in by full cells logs a stay, not a move."""
    grid, field = corridor()
    sim = Simulation(grid, field, MESO_TABLE,
                     schedule=(SpawnEntry((0, 0), 1),), dt=0.5, seed=0)
    state = sim.state
    for _ in range(5):
        place(state, grid, (0, 1), t_in=0.0)
    sim.step()  # clock 0.5: dwell not elapsed, no stay logged
    sim.step()  # clock 1.0: movable but blocked
    stays = [e for e in sim.events if e[3] == "stay"]
    assert stays == [(2, 1.0, 0, "stay", 0, 0)]
    assert state.t_in[0] == 0.0, "waiting must not reset the dwell clock"


def test_spawn_defers_when_cell_is_full():
    grid, field = corridor()
    sim = Simulation(grid, field, MESO_TABLE,
                     schedule=(SpawnEntry((0, 0), 7),), dt=0.5, seed=0)
    spawned_at = [e for e in sim.events if e[3] == "spawn"]
    assert len(spawned_at) == 5, "capacity caps the initial release"
    assert sim.state.pending_count == 2
    sim.run(max_steps=200)
    assert sim.completed
    assert sim.state.spawned == 7
    late = [e for e in sim.events if e[3] == "spawn" and e[1] > 0.0]
    assert len(late) == 2, "deferred agents are logged at their actual entry time"


def test_release_step_delays_spawn():
    grid, field = corridor()
    sim = Simulation(grid, field, MESO_TABLE,
                     schedule=(SpawnEntry((0, 0), 1, release_step=4),),
                     dt=0.5, seed=0)
    assert sim.events == []
    sim.run(max_steps=100)
    spawn = [e for e in sim.events if e[3] == "spawn"][0]
    assert spawn[0] == 4 and spawn[1] == 2.0
    assert sim.completed


def test_schedule_overflow_flag():
    """A spawn released after the step limit is still pending: nothing was
    logged and the run is not complete."""
    grid, field = corridor()
    sim = Simulation(grid, field, MESO_TABLE,
                     schedule=(SpawnEntry((0, 0), 1, release_step=50),),
                     dt=0.5, seed=0)
    sim.run(max_steps=10)
    assert sim.state.pending_count == 1
    assert sim.events == []
    assert not sim.completed


def test_schedule_of_2_31_agents_or_more_is_rejected():
    """Agent ids are int32 in the kernel: a schedule totalling 2**31 agents
    or more is rejected when the run is built, naming the total; one agent
    fewer is accepted, and room is made only for the agents spawned."""
    grid, field = corridor()
    half = SpawnEntry((0, 0), 2**30)
    with pytest.raises(ValueError, match=f"schedule totals {2**31} agents"):
        Simulation(grid, field, MESO_TABLE, schedule=(half, half))
    sim = Simulation(grid, field, MESO_TABLE, schedule=(half, replace(half, count=2**30 - 1)))
    assert sim.state.spawned == MESO_TABLE.capacity == len(sim.state.at)
    assert sim.state.pending_count == 2**31 - 1 - MESO_TABLE.capacity


def test_spawn_rejects_non_source_cells():
    """A spawn cell must be a source. No source can be a sink, since no grid
    listing a sink as a source can be built, so the sink is refused as a
    spawn cell for not being a source."""
    grid, field = corridor()
    for cell in ((0, 1), (0, 2), (5, 5), (-1, 0)):
        with pytest.raises(ValueError, match=re.escape(f"spawn cell {cell} is not a layout source")):
            Simulation(grid, field, MESO_TABLE, schedule=(SpawnEntry(cell, 1),))
    with pytest.raises(ParseError, match=re.escape("cell (0, 2) is both source and sink")):
        replace(grid, sources=((0, 0), (0, 2)))


@pytest.mark.parametrize("args, named", [
    ({"dt": 0.0}, r"dt must be positive and finite, got 0.0"),
    ({"dt": math.inf}, r"dt must be positive and finite, got inf"),
    ({"schedule": (SpawnEntry((0, 0), -1),)},
     r"bad spawn entry SpawnEntry\(cell=\(0, 0\), count=-1, release_step=0\)"),
    ({"schedule": (SpawnEntry((0, 0), 1, 2**63),)},
     rf"bad spawn entry SpawnEntry\(cell=\(0, 0\), count=1, release_step={2**63}\)"),
    ({"field": compute_field(parse_layout(CORRIDOR_1X4))}, r"field of shape \(1, 4\) on a 1x3 grid"),
], ids=["dt_zero", "dt_infinite", "negative_count", "release_step_2**63", "field_shape"])
def test_simulation_refuses_bad_construction(args, named):
    """A non-positive or infinite `dt`, a spawn entry with a negative count or
    a release step of 2**63 or more, and a field of another grid's shape are
    refused when the run is built, naming the value, the entry's cell or the
    shapes."""
    grid, field = corridor()
    with pytest.raises(ValueError, match=named):
        Simulation(grid, **({"field": field, "table": MESO_TABLE} | args))


def test_step_with_no_agents_only_advances_clock():
    grid, field = corridor()
    sim = Simulation(grid, field, MESO_TABLE, schedule=(), dt=0.5, seed=0)
    sim.step()
    assert sim.state.clock == 0.5
    assert sim.state.step_index == 1
    assert sim.events == []


def test_absorption_happens_before_movement():
    """An agent on a sink exits at the next step's clock and frees the cell."""
    grid, field = corridor()
    sim = Simulation(grid, field, MESO_TABLE, schedule=(), dt=0.5, seed=0)
    state = sim.state
    place(state, grid, (0, 2), t_in=0.0)
    sim.step()
    assert state.present.tolist() == []
    assert state.density[grid.index((0, 2))] == 0
    assert sim.events == [(1, 0.5, 0, "exit", 0, 2)]


def test_same_seed_reproduces_event_log():
    grid = random_grid(np.random.default_rng(5), max_rows=12, max_cols=12)
    field = compute_field(grid)
    schedule = random_schedule(np.random.default_rng(5), grid)

    def run(seed):
        sim = Simulation(grid, field, MESO_TABLE, schedule=schedule,
                         dt=0.5, seed=seed)
        sim.run(max_steps=500)
        return sim

    assert run(11).events == run(11).events
    assert (b"".join(events_csv_blocks(run(7).state.log))
            == b"".join(events_csv_blocks(run(7).state.log)))


def test_random_runs_conserve_agents_and_respect_capacity():
    for seed in range(5):
        rng = np.random.default_rng(300 + seed)
        grid = random_grid(rng, max_rows=12, max_cols=12)
        field = compute_field(grid)
        schedule = random_schedule(rng, grid)
        sim = Simulation(grid, field, MESO_TABLE, schedule=schedule,
                         dt=0.5, seed=seed)

        def check(state):
            exits = state.log.kinds.count(EXIT)
            assert state.log.kinds.count(SPAWN) == state.spawned == len(state.present) + exits
            assert max(state.density) <= MESO_TABLE.capacity
            recount = [0] * (grid.rows * grid.cols)
            for a in state.present:
                recount[state.at[a]] += 1
            assert recount == state.density.tolist()

        check(sim.state)
        for _ in range(800):
            if sim.completed:
                break
            check(sim.step())
        assert sim.completed, f"seed {seed} left agents stranded"


def test_render_snapshot_shows_occupancy():
    grid, field = corridor()
    sim = Simulation(grid, field, MESO_TABLE,
                     schedule=(SpawnEntry((0, 0), 2),), dt=0.5, seed=0)
    art = render_snapshot(grid, sim.state.density)
    assert "2" in art and "." in art
    assert "+" in art and "-" in art and "|" in art
    # Open sides are blank, and a count above 9 is drawn as 9.
    room = parse_layout("2 2 1.0\n9 12\n3 6\nsink 0 1 1\nsink 1 1 1\nsource 1 0\n")
    assert render_snapshot(room, [10, 0, 1, 9]) == "+--+--+\n|9   .|\n+  +  +\n|1  9 |\n+--+--+\n"


def assert_matches_reference(make, max_steps):
    """The flat step loop and the reference loop log the same events and
    leave the same densities after every step."""
    runs = []
    for cls in (Simulation, ReferenceSimulation):
        sim = make(cls)
        densities = [list(sim.state.density)]
        for _ in range(max_steps):
            if sim.completed:
                break
            densities.append(list(sim.step().density))
        runs.append((sim.events, densities))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("table", [MESO_TABLE, MICRO_TABLE], ids=["meso", "micro"])
def test_step_matches_reference_loop_on_random_grids(random_grids, table):
    for k, grid in enumerate(random_grids):
        field = compute_field(grid)
        schedule = random_schedule(np.random.default_rng(k), grid)
        assert_matches_reference(
            lambda cls: cls(grid, field, table, schedule, dt=0.5, seed=k), max_steps=1000)


@pytest.mark.parametrize("name", bundled_scenarios())
def test_step_matches_reference_loop_on_bundled_scenarios(name):
    config = load_scenario(name)
    runtime = build_runtime(config)
    assert_matches_reference(
        lambda cls: cls(runtime.grid, runtime.field, runtime.config.table, config.schedule,
                        dt=config.dt_s, seed=config.seed),
        max_steps=config.max_steps)


@st.composite
def fuzzed_runs(draw):
    """A random room of 1-7 rows and columns (1- and 2-wide ones included),
    with equal sink weights half the time so that ties are common, a
    schedule with late releases and counts above a cell's capacity, a
    table, a step length and a seed."""
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    if rows * cols < 2:
        cols = 2
    grid = random_grid(np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                       min_rows=rows, max_rows=rows, min_cols=cols, max_cols=cols,
                       uniform_weights=draw(st.booleans()))
    schedule = []
    for cell in grid.sources:
        for _ in range(draw(st.integers(1, 3))):
            schedule.append(SpawnEntry(cell, draw(st.integers(0, 12)), draw(st.integers(0, 40))))
    table = draw(st.sampled_from([MESO_TABLE, MICRO_TABLE]))
    dt = draw(st.sampled_from([0.1, 0.3, 0.5]))
    return grid, tuple(schedule), table, dt, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=100, deadline=None)
@given(fuzzed_runs())
def test_step_matches_reference_loop_under_fuzzing(run):
    """Stepped side by side, the flat loop and the reference loop log the
    same events and hold the same densities after every step, and the
    headcount counted from the log and the capacity hold throughout. The
    log's replay (`occupancy`) gives the live density of every step."""
    grid, schedule, table, dt, seed = run
    field = compute_field(grid)
    sim = Simulation(grid, field, table, schedule, dt=dt, seed=seed)
    ref = ReferenceSimulation(grid, field, table, schedule, dt=dt, seed=seed)
    scheduled = sum(e.count for e in schedule)
    seen = 0
    live = [list(sim.state.density)]
    for _ in range(600):
        log, state = sim.state.log, sim.state
        assert ref.state.log.kinds[seen:] == log.kinds[seen:]
        assert ref.state.log.agents[seen:] == log.agents[seen:]
        assert ref.state.log.cells[seen:] == log.cells[seen:]
        assert ref.state.density == state.density.tolist()
        seen = len(log.kinds)
        spawns, exits = log.kinds.count(SPAWN), log.kinds.count(EXIT)
        assert spawns == state.spawned == len(state.present) + exits
        assert spawns + state.pending_count == scheduled
        assert max(state.density) <= table.capacity
        recount = [0] * (grid.rows * grid.cols)
        for a in state.present:
            recount[state.at[a]] += 1
        assert recount == state.density.tolist()
        assert sim.completed == ref.completed
        if sim.completed:
            break
        sim.step()
        ref.step()
        live.append(list(state.density))
    assert ref.state.log.starts == log.starts
    replayed = [list(density) for _, density in occupancy(log, grid.rows * grid.cols)]
    assert replayed == live and len(live) == state.step_index + 1
    assert b"".join(events_csv_blocks(log)) == oracle.events_to_csv(ref.events).encode()


class CountingKernel:
    """The kernel, counting the calls of its `run`."""

    def __init__(self, lib):
        self.lib, self.calls = lib, 0

    def run(self, *args):
        self.calls += 1
        return self.lib.run(*args)


def run_state(sim):
    """Everything a run leaves, copied: the log's columns, the agents, the
    schedule and the generator."""
    state, log = sim.state, sim.state.log
    return (*(col[:] for col in (log.starts, log.agents, log.kinds, log.cells, state.at,
                                 state.t_in, state.present, state.pending)),
            state.density.tolist(), state.step_index, state.clock, state.rng.state)


@settings(max_examples=60, deadline=None)
@given(fuzzed_runs(), st.integers(1, 8), st.integers(0, 80))
def test_log_headroom_reentry_and_stepping_equal_one_call(run, headroom, steps):
    """With the log's headroom cut to a few events, the kernel returns to
    Python to grow the columns many times in one `run`, and the run still
    leaves what a single call leaves; `run(n)` leaves what n calls of
    `step()` leave, up to the step where the run completes."""
    grid, schedule, table, dt, seed = run
    field = compute_field(grid)

    def make():
        return Simulation(grid, field, table, schedule, dt=dt, seed=seed)

    whole = make()
    whole.run(600)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "LOG_HEADROOM", headroom)
        parts = make()
        parts._kernel = counting = CountingKernel(parts._kernel)
        parts.run(600)
    assert run_state(parts) == run_state(whole)
    # A return grows the log by the next step's need, at most twice the
    # agents scheduled, or by the headroom, so it returned at least this often.
    grown = len(whole.state.log.kinds) - len(make().state.log.kinds)
    assert counting.calls > grown / (2 * sum(e.count for e in schedule) + headroom)

    short, stepped = make(), make()
    short.run(steps)
    for _ in range(min(steps, whole.state.step_index)):
        stepped.step()
    assert run_state(short) == run_state(stepped)


def test_density_array_outlives_every_view_of_it():
    """The kernel keeps the address of `density`'s array, so no view a caller
    is given owns it: each read is a copy, releasing one neither frees the
    array nor stops the run, and the attribute cannot be rebound or deleted.
    Were a view the array's only owner, a release would free it and the next
    step would count into freed memory (AddressSanitizer aborts)."""
    grid, field = corridor(CORRIDOR_1X4)
    sim = Simulation(grid, field, MESO_TABLE, (SpawnEntry((0, 0), 2),), dt=0.5, seed=0)
    with sim.state.density as view:  # released on leaving
        assert view.tolist() == [2, 0, 0, 0] and isinstance(view.obj, bytes)
    sim.step()
    with pytest.raises(ValueError):
        view.tolist()
    for change in (lambda s: setattr(s, "density", None), lambda s: delattr(s, "density")):
        with pytest.raises(AttributeError):
            change(sim.state)
    assert sim._run.density == sim.state._density.buffer_info()[0]
    sim.run(100)
    assert sim.completed and sim.state.density.tolist() == [0, 0, 0, 0]


# The columns the kernel writes, by the names of their public reads.
COLUMNS = ("at", "t_in", "present", "density", "pending", "log.starts", "log.agents",
           "log.kinds", "log.cells")


def holder(sim, column):
    """The state or the log that holds `column`, and the column's name there."""
    return (sim.state.log, column[4:]) if column.startswith("log.") else (sim.state, column)


# Rebindings and writes of what the kernel keeps from `Simulation.__init__`
# and of the columns it writes, and the error that refuses each.
REBINDINGS = {
    "grid": (lambda sim: setattr(sim, "grid", open_hall(6)), AttributeError),
    "state": (lambda sim: setattr(sim, "state", None), AttributeError),
    "log": (lambda sim: setattr(sim.state, "log", engine.EventLog(0.5, 6)), AttributeError),
    "rng": (lambda sim: setattr(sim.state, "rng", PCG64.from_seed(7)), AttributeError),
    "step_index": (lambda sim: setattr(sim.state, "step_index", -2), AttributeError),
    **{f"{name}_item": (lambda sim, name=name: setitem(getattr(*holder(sim, name)), 0, 1),
                        TypeError) for name in COLUMNS},
    **{name: (lambda sim, name=name: setattr(*holder(sim, name), array("q", [0, -50, 3])),
              AttributeError) for name in COLUMNS},
    "density_obj": (lambda sim: setitem(sim.state.density.obj, 0, 7), TypeError),
    "log.starts_append": (lambda sim: sim.state.log.starts.append(10**6), AttributeError),
}


@pytest.mark.parametrize("change", REBINDINGS)
def test_what_the_kernel_keeps_cannot_be_rebound(change):
    """The kernel keeps the addresses of the grid's tables, the state's
    generator and the schedule from construction. The grid, the state and
    the generator cannot be rebound, so none is freed while the kernel reads
    it: before they were read-only, rebinding one had the kernel read freed
    memory (AddressSanitizer aborts). `step_index` is the log's and cannot be
    set. Every column the kernel writes is read as a read-only copy, whose
    `.obj` is a `bytes`, so no item can be written, no column rebound or
    grown, and a copy held across the run pins nothing. After each attempt
    the run goes on as an undisturbed one. The field and the table are not
    public."""
    grid = open_hall(6)
    field = compute_field(grid)
    schedule = (SpawnEntry(grid.sources[0], 12), SpawnEntry(grid.sources[0], 5, 3))

    def make():
        sim = Simulation(grid, field, MESO_TABLE, schedule, dt=0.5, seed=7)
        sim.run(2)
        return sim

    sim, undisturbed = make(), make()
    attempt, error = REBINDINGS[change]
    held = sim.state.pending
    unspent = held.tolist()
    with pytest.raises(error):
        attempt(sim)
    sim.run(600)
    undisturbed.run(600)
    assert sim.completed and run_state(sim) == run_state(undisturbed)
    assert held.tolist() == unspent and not sim.state.pending
    assert not hasattr(sim, "field") and not hasattr(sim, "table")


class LogNearTheLimit:
    """The kernel, whose `call`-th `run` is told that `events` events are
    logged already, with no room past them, so that it can only return; the
    log's own count and room are put back after that call."""

    def __init__(self, lib, call, events):
        self.lib, self.call, self.events, self.statuses = lib, call, events, []

    def run(self, r, until_done):
        self.call -= 1
        if self.call:
            return self.lib.run(r, until_done)
        run = r._obj
        kept = run.events, run.event_room
        run.events = run.event_room = self.events
        self.statuses.append(self.lib.run(r, until_done))
        run.events, run.event_room = kept
        return self.statuses[-1]


@pytest.mark.parametrize("logged, status", [(MAX_EVENTS - 1, ROOM), (MAX_EVENTS, FULL_LOG)])
def test_kernel_stops_before_a_step_that_could_log_past_int32_max(logged, status):
    """One agent inside and nobody waiting: the next step logs at most one
    event. With MAX_EVENTS - 1 logged the kernel only asks for room, and the
    step is made; with MAX_EVENTS logged it stops, and `step()` raises,
    naming the limit, with the state as the last whole step left it."""
    grid, field = corridor(CORRIDOR_1X4)

    def make():
        return Simulation(grid, field, MESO_TABLE, (SpawnEntry((0, 0), 1),), dt=0.5, seed=0)

    sim, undisturbed = make(), make()
    sim._kernel = near = LogNearTheLimit(sim._kernel, 1, logged)
    before = run_state(sim)
    if status == FULL_LOG:
        with pytest.raises(ValueError, match=f"past {MAX_EVENTS} events"):
            sim.step()
        assert run_state(sim) == before
    else:
        sim.step()
        undisturbed.step()
        assert run_state(sim) == run_state(undisturbed)
    assert near.statuses == [status]


def test_run_stopped_at_the_event_limit_keeps_its_whole_steps(monkeypatch):
    """A `run` whose kernel reaches the limit after some steps of the call
    leaves the state of its last whole step, as stepping to it does."""
    grid = open_hall(6)
    field = compute_field(grid)

    def make():
        return Simulation(grid, field, MESO_TABLE, (SpawnEntry(grid.sources[0], 30),),
                          dt=0.5, seed=5)

    monkeypatch.setattr(engine, "LOG_HEADROOM", 4)
    sim, stepped = make(), make()
    sim._kernel = near = LogNearTheLimit(sim._kernel, 4, MAX_EVENTS)
    with pytest.raises(ValueError, match=f"past {MAX_EVENTS} events") as refused:
        sim.run(600)
    last = sim.state.step_index
    assert near.statuses == [FULL_LOG] and last > 1
    assert str(refused.value).startswith(f"step {last + 1} could take the log past")
    for _ in range(last):
        stepped.step()
    assert run_state(sim) == run_state(stepped)
@pytest.mark.parametrize("column", ["at", "t_in", "present", "pending",
                                    "log.starts", "log.agents", "log.kinds", "log.cells"])
def test_held_column_view_fails_a_step_before_it_begins(column):
    """A numpy view of a column the kernel resizes holds a buffer export:
    `step()` raises BufferError before the kernel draws or writes anything,
    and once the view is dropped the run goes on as an undisturbed one. A
    view of `density`, which is never resized, may be held across a step.
    Public reads are copies that pin nothing, so each case views the
    private column the kernel writes, as `events_csv_blocks` does while it
    is drained."""
    grid = open_hall(6)
    field = compute_field(grid)
    schedule = (SpawnEntry(grid.sources[0], 12), SpawnEntry(grid.sources[0], 5, 3))

    def make():
        sim = Simulation(grid, field, MESO_TABLE, schedule, dt=0.5, seed=7)
        sim.run(2)
        return sim

    held, undisturbed = make(), make()
    owner, name = holder(held, column)
    view = np.frombuffer(getattr(owner, "_" + name), dtype=np.uint8)
    before = run_state(held)
    with pytest.raises(BufferError):
        held.step()
    assert run_state(held) == before
    del view
    density = np.frombuffer(held.state._density, dtype=np.intc)
    held.step()
    undisturbed.step()
    assert density.sum() == sum(undisturbed.state.density)
    del density
    held.run(600)
    undisturbed.run(600)
    assert held.completed and run_state(held) == run_state(undisturbed)


def test_kernel_reads_its_inputs_in_their_owners_buffers():
    """`Simulation` hands the kernel the move table, the sink flags, the
    field's values and the density column without copying them."""
    grid, field = corridor()
    sim = Simulation(grid, field, MESO_TABLE)
    assert sim._run.nbr == grid.neighbours.obj.buffer_info()[0]
    assert sim._run.sink == ctypes.cast(grid.sink_flags, ctypes.c_void_p).value
    assert sim._run.values == field.values.ctypes.data
    assert sim._run.density == sim.state._density.buffer_info()[0]


def test_stepping_a_hall_by_hand_equals_one_run():
    """The kernel writes the state's own columns, with no copy per call, and
    stepping a 100x100 hall to the end leaves what one `run` leaves."""
    grid = open_hall(100)
    field = compute_field(grid)
    schedule = (SpawnEntry(grid.sources[0], 200),)

    def make():
        return Simulation(grid, field, MESO_TABLE, schedule, dt=0.5, seed=4)

    whole, stepped = make(), make()
    whole.run(10_000)
    assert whole.completed
    stepped.step()
    assert stepped._run.density == stepped.state._density.buffer_info()[0]
    for _ in range(whole.state.step_index - 1):
        stepped.step()
    assert stepped.completed
    assert run_state(stepped) == run_state(whole)
