"""The exact field solve against its value-iteration, numpy frontier and
Q-learning oracles, and greedy descent of the field."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridgen import corridor_layout, keep_sinks, open_hall, random_grid, walled_hall
from mesoped import kernel
from mesoped.engine import EXIT, MESO_TABLE, SPAWN, Simulation, SpawnEntry
from mesoped.floorfield import (DEFAULT_BASE_REWARD, DEFAULT_GAMMA, FloorField,
                                compute_field, field_csv_blocks)
from mesoped.layout import (BOTTOM, LEFT, RIGHT, TOP, LayoutError, LayoutGrid, ParseError,
                            parse_layout)
from mesoped.scenario import (ConfigError, ScenarioConfig, apply_sink_multipliers,
                              build_runtime, bundled_scenarios, load_scenario)
from oracle import field_to_csv as field_to_csv_oracle
from oracle import (DIR_VECTORS, Stuck, distance_field, frontier_field, greedy_descent,
                    moves_of, q_learning, value_iteration)

CORRIDOR_1X3 = "1 3 1.0\n11 10 14\nsink 0 2 1\nsource 0 0\n"


def grid_of(walls, sinks=(), sources=(), cell_size=1.0):
    return LayoutGrid(rows=len(walls), cols=len(walls[0]), cell_size_m=cell_size,
                      wall_codes=bytes(code for row in walls for code in row),
                      sinks=tuple(sinks), sources=tuple(sources))


def assert_matches_oracle(grid, gamma=DEFAULT_GAMMA, base_reward=DEFAULT_BASE_REWARD):
    field = compute_field(grid, gamma, base_reward)
    assert np.array_equal(field.values, value_iteration(grid, gamma, base_reward))
    return field


def field_csv(field) -> str:
    return b"".join(field_csv_blocks(field)).decode()


def assert_csv_matches_oracle(field):
    assert field_csv(field) == field_to_csv_oracle(field)


def assert_bellman_fixed_point(field, grid, gamma):
    """Every reached non-sink cell is exactly gamma times its best neighbour."""
    values = field.values.ravel()
    best = gamma * np.append(values, 0.0)[np.asarray(grid.neighbours)].max(axis=0)
    free = values > 0
    free[[grid.index(cell) for cell, _ in grid.sinks]] = False
    assert np.array_equal(values[free], best[free])


def test_rewards_corridor_entries():
    """The sink holds its reward; a move onto it pays that reward and ends the walk."""
    grid = parse_layout(CORRIDOR_1X3)
    field = assert_matches_oracle(grid)
    assert field.values[0, 2] == 100.0
    assert field.values[0, 1] == DEFAULT_GAMMA * 100.0
    assert field.values[0, 0] == DEFAULT_GAMMA * field.values[0, 1]


def test_rewards_scale_with_weight_and_base():
    grid = parse_layout("1 3 1.0\n11 10 14\nsink 0 2 2.5\nsource 0 0\n")
    field = assert_matches_oracle(grid, base_reward=40.0)
    assert field.values.tolist() == [[64.0, 80.0, 100.0]]


def test_rewards_isolated_cells_have_self_loops_only():
    grid = grid_of([[15, 15]], sinks=(((0, 1), 1.0),), sources=((0, 0),))
    field = assert_matches_oracle(grid)
    assert field.values.tolist() == [[0.0, 100.0]]


def test_corridor_field_oracle():
    """Two plain cells and one sink: N must be exactly [64, 80, 100]."""
    grid = parse_layout(CORRIDOR_1X3)
    field = compute_field(grid)
    assert field.rounds == 3, "two rounds that raise a cell, one that raises none"
    assert field.values.tolist() == [[64.0, 80.0, 100.0]]
    assert value_iteration(grid).tolist() == [[64.0, 80.0, 100.0]]
    assert field_csv(field) == "64.0,80.0,100.0\n"


def test_solve_rejects_bad_gamma():
    grid = parse_layout(CORRIDOR_1X3)
    for gamma in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            compute_field(grid, gamma=gamma)


def test_long_corridor_field_reaches_every_cell():
    """199 hops at gamma 0.8 is 100 * 0.8**199, about 5e-18: small, not zero."""
    grid = parse_layout(corridor_layout(200))
    field = assert_matches_oracle(grid)
    assert (field.values > 0).all()
    assert np.all(np.diff(field.values[0]) > 0)


def test_matches_value_iteration_on_bundled_scenarios():
    for name in bundled_scenarios():
        config = load_scenario(name)
        grid = apply_sink_multipliers(parse_layout(config.layout_path.read_text()),
                                      config.sink_multipliers)
        field = assert_matches_oracle(grid, config.gamma, config.base_reward)
        assert_bellman_fixed_point(field, grid, config.gamma)
        assert_csv_matches_oracle(field)


@pytest.mark.parametrize("size", [50, 100])
def test_matches_value_iteration_on_halls(size):
    grid = open_hall(size)
    field = assert_same_solve(grid, gamma=0.9)
    assert (field.values > 0).all()
    assert_bellman_fixed_point(field, grid, 0.9)
    # A round per hop, from the exits on the east wall to the west wall, and
    # one more that raises nothing.
    assert field.rounds == size


@pytest.mark.parametrize("gamma", [0.5, 0.9])
def test_matches_value_iteration_on_walled_hall(gamma):
    """Wide frontiers that meet across interior walls, from exits of three
    weights on two walls."""
    grid = walled_hall(60)
    field = assert_same_solve(grid, gamma=gamma)
    assert (field.values > 0).all()
    assert_bellman_fixed_point(field, grid, gamma)
    for weight in {w for _, w in grid.sinks}:
        alone = keep_sinks(grid, [s for s in grid.sinks if s[1] == weight])
        owned = compute_field(alone, gamma).values == field.values
        assert owned.sum() > 500, weight


def test_overtaking_frontier_raises_cells_again_in_the_frontier_solve_rounds():
    """A 1 x 40 corridor with a weight-1000 sink at its west end and a
    weight-1 sink at its east end. The weak sink's frontier reaches the cells
    beside it first; the strong one's overtakes it where the two meet and
    raises every one of those cells again, up to the cell next to the weak
    sink. The rounds are the strong frontier's 38 hops and one that raises
    nothing, as in the numpy frontier solve; a solve that wrote each raise at
    once would let a cell raised early in a round offer its new value in the
    same round, and take fewer."""
    length, gamma = 40, 0.9
    text = (f"1 {length} 1.0\n11 " + "10 " * (length - 2)
            + f"14\nsink 0 0 1000\nsink 0 {length - 1} 1\nsource 0 {length // 2}\n")
    grid = parse_layout(text)
    field = assert_same_solve(grid, gamma)
    weak = compute_field(replace(grid, sinks=grid.sinks[1:]), gamma).values[0]
    values = field.values[0]
    assert values[length - 2] == pytest.approx(100_000 * gamma ** (length - 2))
    assert weak[length - 2] == 90.0
    assert (values[1:-1] > weak[1:-1]).all()
    assert field.rounds == length - 1


@pytest.mark.parametrize("base_reward,weight", [
    (0.0, 1.0), (-1.0, 1.0), (math.nan, 1.0), (math.inf, 1.0), (100.0, math.nan),
    (100.0, -2.0), (1e-300, 1e-100), (1e300, 1e10),
], ids=["base_0", "base_negative", "base_nan", "base_inf", "weight_nan", "weight_negative",
        "product_rounds_to_0", "product_overflows"])
def test_solve_rejects_a_sink_reward_not_positive_and_finite(base_reward, weight):
    """The solve's exactness needs every value at least +0 and none NaN.
    Before this check a NaN base reward gave [[0, 0, nan]] and an infinite
    one a field of inf. A NaN or negative weight once reached the solve on a
    grid built unchecked; now no grid holds one, as its construction refuses it."""
    corridor = parse_layout(CORRIDOR_1X3)
    if not 0 < weight < math.inf:
        with pytest.raises(ParseError, match=re.escape(
                f"sink (0, 2) has weight {weight}, which is not positive and finite")):
            replace(corridor, sinks=(((0, 2), weight),))
        return
    grid = replace(corridor, sinks=(((0, 2), weight),))
    message = (f"sink (0, 2) has reward {base_reward * weight!r} (base_reward {base_reward!r} "
               f"times weight {weight!r}), which is not positive and finite")
    with pytest.raises(ValueError, match=re.escape(message)):
        compute_field(grid, base_reward=base_reward)


@pytest.mark.parametrize("gamma", [0.5, 0.8, 0.9])
def test_matches_value_iteration_on_random_grids(gamma, random_grids):
    for k, grid in enumerate(random_grids):
        field = compute_field(grid, gamma)
        assert np.array_equal(field.values, value_iteration(grid, gamma)), k
        assert_bellman_fixed_point(field, grid, gamma)
        assert_csv_matches_oracle(field)


def plateau_message(cell, value, gamma):
    return (f"cell {cell} lies on a plateau of the navigation field at {value!r}, with no "
            f"higher neighbour (too far from every sink at gamma {gamma})")


def assert_same_solve(grid, gamma, base_reward=DEFAULT_BASE_REWARD):
    """The numpy frontier solve equals value iteration bit for bit. Where its
    scan finds a plateau cell, `compute_field` refuses the field, naming that
    cell and its value, and None is returned; elsewhere the kernel's solve
    equals the numpy one bit for bit, with the same rounds."""
    reference, plateau = frontier_field(grid, gamma, base_reward)
    bits = reference.values.view(np.int64)
    assert np.array_equal(bits, value_iteration(grid, gamma, base_reward).view(np.int64))
    if plateau is not None:
        message = plateau_message(plateau, float(reference.values[plateau]), gamma)
        with pytest.raises(ValueError, match=re.escape(message)):
            compute_field(grid, gamma, base_reward)
        return None
    field = compute_field(grid, gamma, base_reward)
    assert np.array_equal(field.values.view(np.int64), bits)
    assert field.rounds == reference.rounds
    return field


@st.composite
def solve_cases(draw):
    """A random room, gamma, and drawn sink rewards: either base reward 100
    times weights from 0.01 to 1,000, or base reward 1 times weights of 1 to
    64 subnormal steps, whose field rounds to 0 within a few hops at gamma
    0.5 and sticks on a plateau at 0.8 and 0.95."""
    grid = random_grid(np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                       wall_density=draw(st.sampled_from([0.0, 0.25, 0.5])))
    base_reward, weight = draw(st.sampled_from([
        (DEFAULT_BASE_REWARD, st.floats(0.01, 1e3)),
        (1.0, st.integers(1, 64).map(lambda k: k * 5e-324))]))
    weights = draw(st.lists(weight, min_size=len(grid.sinks), max_size=len(grid.sinks)))
    grid = replace(grid, sinks=tuple((cell, w) for (cell, _), w in zip(grid.sinks, weights)))
    return grid, draw(st.sampled_from([0.5, 0.8, 0.95])), base_reward


@settings(max_examples=60, deadline=None)
@given(solve_cases())
def test_solve_matches_numpy_frontier_rounds(case):
    assert_same_solve(*case)


@pytest.mark.parametrize("gamma,length,far", [(0.5, 1200, 0.0), (0.8, 3500, 1e-323)])
def test_long_corridor_solve_and_plateau_match_the_oracles(tmp_path, gamma, length, far):
    """At gamma 0.5 the far end of the corridor rounds to 0 and no plateau
    forms; at gamma 0.8 the values stick at 1e-323, and the solve and set-up
    name the plateau cell the numpy scan finds first."""
    text = corridor_layout(length)
    grid = parse_layout(text)
    reference, plateau = frontier_field(grid, gamma)
    assert reference.values[0, 0] == far
    assert (assert_same_solve(grid, gamma) is None) == (plateau is not None)
    (tmp_path / "long.layout").write_text(text)
    config = ScenarioConfig(name="long", layout_path=tmp_path / "long.layout", gamma=gamma)
    if plateau is None:
        with pytest.raises(ConfigError, match=r"source \(0, 0\) has navigation value 0"):
            build_runtime(config)
    else:
        with pytest.raises(ConfigError, match=re.escape(f"long: cell {plateau} lies on a plateau")):
            build_runtime(config)


def test_solve_refuses_a_subnormal_plateau():
    """3,499 hops at gamma 0.8 stick at 1e-323 well before the far end. The
    solve once returned such a field with the plateau marked, which only
    set-up refused; a library caller got a field that no run can use."""
    with pytest.raises(ValueError, match=re.escape(plateau_message((0, 0), 1e-323, 0.8))):
        compute_field(parse_layout(corridor_layout(3500)), 0.8)


@pytest.mark.parametrize("gamma", [0.5, 0.8, 0.95])
def test_matches_q_learning_on_random_rooms(gamma):
    """The paper's algorithm run as learning: epsilon-greedy episodes with
    learning rate 1 reach the field bit for bit."""
    for seed in range(5):
        grid = random_grid(np.random.default_rng(300 + seed), max_rows=8, max_cols=8)
        learned = q_learning(grid, gamma, seed=seed)
        values = compute_field(grid, gamma).values
        assert np.array_equal(learned.view(np.int64), values.view(np.int64)), seed


# Each symmetry of the grid: the wall bits it exchanges, and what it does
# to a (rows, cols) array.
SYMMETRIES = {
    "mirror-lr": (((LEFT, RIGHT),), np.fliplr),
    "mirror-ud": (((TOP, BOTTOM),), np.flipud),
    "transpose": (((TOP, LEFT), (BOTTOM, RIGHT)), np.transpose),
}


def transformed(grid: LayoutGrid, name: str) -> LayoutGrid:
    """`grid` mirrored or transposed: walls, sinks and sources alike."""
    pairs, on_array = SYMMETRIES[name]
    codes = np.frombuffer(grid.wall_codes, np.uint8).astype(int)
    walls = on_array(codes.reshape(grid.rows, grid.cols))
    swapped = walls.copy()
    for a, b in pairs:
        swapped &= ~(a | b)
        swapped |= np.where(walls & a, b, 0) | np.where(walls & b, a, 0)
    # Where each cell lands: read off the image of the flat cell indices.
    image = on_array(np.arange(grid.rows * grid.cols).reshape(grid.rows, grid.cols))
    lands = {i: divmod(k, image.shape[1]) for k, i in enumerate(image.ravel().tolist())}
    return grid_of(swapped.tolist(),
                   sinks=[(lands[grid.index(cell)], w) for cell, w in grid.sinks],
                   sources=[lands[grid.index(cell)] for cell in grid.sources],
                   cell_size=grid.cell_size_m)


@pytest.mark.parametrize("gamma", [0.5, 0.8, 0.95])
def test_field_is_equivariant_under_mirrors_and_transpose(gamma, random_grids):
    """The field of a mirrored or transposed layout is the mirrored or
    transposed field, bit for bit. (The engine is not equivariant: it draws
    ties in compass order.)"""
    for k, grid in enumerate(random_grids):
        values = compute_field(grid, gamma).values
        for name, (_, on_array) in SYMMETRIES.items():
            image = compute_field(transformed(grid, name), gamma).values
            assert np.array_equal(image.view(np.int64), on_array(values).view(np.int64)), (k, name)


def test_sink_value_is_base_times_weight():
    grid = parse_layout("1 3 1.0\n11 10 14\nsink 0 2 2.5\nsource 0 0\n")
    field = compute_field(grid, base_reward=40.0)
    assert field.values[0, 2] == 100.0


def test_all_sink_grid_holds_weights():
    """Sinks side by side each hold their own reward, though a neighbour
    offers more; the source behind them takes gamma times the best."""
    grid = grid_of([[10, 10, 14]], sinks=(((0, 0), 1.0), ((0, 1), 3.0)), sources=((0, 2),))
    field = compute_field(grid)
    assert field.values.tolist() == [[100.0, 300.0, DEFAULT_GAMMA * 300.0]]


def test_unreachable_cells_are_zero():
    grid = grid_of([[15, 11, 10]], sinks=(((0, 2), 1.0),), sources=((0, 1),))
    field = compute_field(grid)
    assert field.values[0, 0] == 0.0
    assert field.values[0, 1] > 0.0
    dist = distance_field(grid)
    assert np.isinf(dist[0, 0])
    assert dist[0, 1] == 1.0


def test_field_bounded_by_best_sink():
    for seed in range(6):
        grid = random_grid(np.random.default_rng(seed), max_rows=15, max_cols=15)
        field = compute_field(grid)
        top = DEFAULT_BASE_REWARD * max(w for _, w in grid.sinks)
        assert field.values.min() >= 0.0
        assert field.values.max() <= top + 1e-9
        for cell, w in grid.sinks:
            assert field.values[cell] == DEFAULT_BASE_REWARD * w


def test_weight_scaling_scales_field_linearly():
    for seed in range(4):
        grid = random_grid(np.random.default_rng(seed), max_rows=12, max_cols=12)
        base = compute_field(grid)
        for c in (0.5, 3.0, 10.0):
            scaled_grid = LayoutGrid(
                rows=grid.rows, cols=grid.cols, cell_size_m=grid.cell_size_m,
                wall_codes=grid.wall_codes,
                sinks=tuple((cell, w * c) for cell, w in grid.sinks),
                sources=grid.sources)
            scaled = compute_field(scaled_grid)
            np.testing.assert_allclose(scaled.values, base.values * c, rtol=1e-9)


def test_distance_field_open_room_is_chebyshev():
    grid = grid_of([[TOP | LEFT, TOP, TOP | RIGHT],
                      [LEFT, 0, RIGHT],
                      [BOTTOM | LEFT, BOTTOM, BOTTOM | RIGHT]],
                   sinks=(((0, 0), 1.0),), sources=((2, 2),))
    dist = distance_field(grid)
    expect = [[0, 1, 2], [1, 1, 2], [2, 2, 2]]
    assert dist.tolist() == expect


def test_greedy_descent_follows_corridor():
    grid = parse_layout(CORRIDOR_1X3)
    field = compute_field(grid)
    assert greedy_descent(field, grid, (0, 0)) == [(0, 0), (0, 1), (0, 2)]
    assert greedy_descent(field, grid, (0, 2)) == [(0, 2)]


def test_greedy_descent_prefers_orthogonal_on_ties():
    grid = grid_of([[TOP | LEFT, TOP, TOP | RIGHT],
                      [LEFT, 0, RIGHT],
                      [BOTTOM | LEFT, BOTTOM, BOTTOM | RIGHT]],
                   sinks=(((0, 2), 1.0),), sources=((2, 0),))
    field = compute_field(grid)
    # From (1, 1) both NE (diagonal) and E then N reach the sink in two values;
    # N and E tie with NE's target beaten only by the sink itself.
    path = greedy_descent(field, grid, (2, 0))
    assert path[0] == (2, 0) and path[-1] == (0, 2)
    assert len(path) == 3, "diagonal moves keep the path at Chebyshev length"


def test_greedy_descent_stuck_off_the_field():
    grid = grid_of([[15, 11, 10]], sinks=(((0, 2), 1.0),), sources=((0, 1),))
    field = compute_field(grid)
    with pytest.raises(Stuck):
        greedy_descent(field, grid, (0, 0))


def test_monotone_descent_on_random_grids():
    """Every reachable non-sink cell has a strictly better permitted neighbor."""
    for seed in range(6):
        grid = random_grid(np.random.default_rng(100 + seed))
        field = compute_field(grid)
        dist = distance_field(grid)
        for r in range(grid.rows):
            for c in range(grid.cols):
                if not np.isfinite(dist[r, c]) or (r, c) in grid.sink_set:
                    continue
                here = field.values[r, c]
                best = max(field.values[r + dr, c + dc]
                           for dr, dc in (DIR_VECTORS[d]
                                          for d in moves_of(grid, (r, c))))
                assert best > here, (seed, (r, c))


def test_greedy_matches_bfs_on_single_sink_grids():
    for seed in range(6):
        grid = random_grid(np.random.default_rng(200 + seed), max_rows=10,
                           max_cols=10, max_sinks=1, uniform_weights=True)
        field = compute_field(grid)
        dist = distance_field(grid)
        for r in range(grid.rows):
            for c in range(grid.cols):
                path = greedy_descent(field, grid, (r, c))
                assert len(path) - 1 == dist[r, c], (seed, (r, c))


def test_field_is_deterministic():
    grid = random_grid(np.random.default_rng(7))
    a = compute_field(grid)
    b = compute_field(grid)
    assert np.array_equal(a.values, b.values)
    assert field_csv(a) == field_csv(b)


@pytest.mark.parametrize("size", [50, 100, 200])
def test_field_csv_matches_oracle_on_halls(size):
    assert_csv_matches_oracle(compute_field(open_hall(size), gamma=0.9))


@pytest.mark.parametrize("given", [
    lambda values: values.astype(np.float32),
    np.asfortranarray,
    lambda values: np.repeat(values, 2, axis=1)[:, ::2],
    lambda values: values,
], ids=["float32", "fortran", "strided", "c_float64"])
def test_field_values_are_a_read_only_c_contiguous_float64_view(given):
    """`FloorField` stores any values it is given in the one format that the
    kernel and `field_csv_blocks` read as they are, through a view that
    leaves the caller's array writable; a field so made runs and writes as
    `compute_field`'s own. Gamma 0.5 keeps every value exact in float32."""
    grid = open_hall(6)
    own = compute_field(grid, gamma=0.5)
    values = given(np.array(own.values))
    field = FloorField(values=values, rounds=own.rounds)
    assert field.values.dtype == np.float64 and field.values.flags.c_contiguous
    assert not field.values.flags.writeable and values.flags.writeable
    assert np.shares_memory(field.values, values) == (values.dtype == np.float64
                                                      and values.flags.c_contiguous)
    assert np.array_equal(field.values, own.values)
    assert b"".join(field_csv_blocks(field)) == b"".join(field_csv_blocks(own))
    schedule = (SpawnEntry(grid.sources[0], 20),)
    logs = [Simulation(grid, f, MESO_TABLE, schedule, seed=2).run(500).log for f in (field, own)]
    assert [logs[0].starts, logs[0].agents, logs[0].kinds, logs[0].cells] == [
        logs[1].starts, logs[1].agents, logs[1].kinds, logs[1].cells]


def bare_field(values):
    return FloorField(values=np.asarray(values, dtype=np.float64), rounds=0)


def test_field_csv_matches_oracle_on_distinct_values():
    """40,000 distinct values: no value is formatted twice."""
    values = np.random.default_rng(11).random((200, 200)) * 100.0
    assert np.unique(values).size == values.size
    assert_csv_matches_oracle(bare_field(values))


def test_field_csv_keeps_signed_zero_and_subnormals_apart():
    field = bare_field([[0.0, -0.0, 5e-324], [1e-310, -0.0, 0.0]])
    assert_csv_matches_oracle(field)
    assert field_csv(field) == "0.0,-0.0,5e-324\n1e-310,-0.0,0.0\n"


def test_field_csv_blocks_hold_whole_cells(monkeypatch):
    """A field whose rows are longer than the default block, a single
    column, and tiny blocks: every block but the last is full to within one
    cell and ends on a whole cell, and the blocks join to the oracle's text.
    The values mix -0.0, 0.0, subnormals, infinities and repeats."""
    rng = np.random.default_rng(5)
    pool = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-310, np.inf, -np.inf, 1 / 3])
    wide = rng.choice(np.append(pool, rng.random(50) * 1e6), size=(3, 9100))
    longest = max(len(repr(v)) + 1 for v in wide.ravel().tolist())
    assert len(field_to_csv_oracle(bare_field(wide[:1]))) > kernel.CSV_BLOCK_BYTES
    for values, size in ((wide, kernel.CSV_BLOCK_BYTES), (wide.reshape(-1, 1)[:500], 64),
                         (wide[:, :40], 64), (wide.reshape(-1, 7)[:300], 1000)):
        monkeypatch.setattr(kernel, "CSV_BLOCK_BYTES", size)
        field = bare_field(values)
        blocks = list(field_csv_blocks(field))
        assert b"".join(blocks) == field_to_csv_oracle(field).encode()
        assert len(blocks) > 2
        for block, after in zip(blocks, blocks[1:]):
            assert size - longest < len(block) <= size and block[-1:] in b",\n"
            assert len(block) + len(re.split(rb"[,\n]", after, maxsplit=1)[0]) + 1 > size


@st.composite
def grid_fields(draw):
    """The fields of a hand-built grid of up to 6 x 6 cells: codes 0 to 15,
    either drawn one by one, which seldom agree on a shared edge, or a closed
    room with drawn inner walls and a bit or two flipped now and then; and
    up to three sinks and sources, each now and then off the grid (negative
    rows and columns included), some weights not positive or not finite."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    if draw(st.integers(0, 3)) == 0:
        codes = draw(st.lists(st.integers(0, 15), min_size=rows * cols, max_size=rows * cols))
    else:
        codes = [0] * (rows * cols)
        for r in range(rows):
            for c in range(cols):
                i = r * cols + c
                codes[i] |= ((TOP if r == 0 else 0) | (BOTTOM if r == rows - 1 else 0)
                             | (LEFT if c == 0 else 0) | (RIGHT if c == cols - 1 else 0))
                if c + 1 < cols and draw(st.integers(0, 3)) == 0:
                    codes[i] |= RIGHT
                    codes[i + 1] |= LEFT
                if r + 1 < rows and draw(st.integers(0, 3)) == 0:
                    codes[i] |= BOTTOM
                    codes[i + cols] |= TOP
        for _ in range(draw(st.sampled_from([0] * 6 + [1, 2]))):
            codes[draw(st.integers(0, rows * cols - 1))] ^= draw(
                st.sampled_from((TOP, RIGHT, BOTTOM, LEFT)))

    def cell():
        if draw(st.integers(0, 7)):
            return draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
        return draw(st.sampled_from([(-1, 0), (0, -1), (rows, 0), (0, cols), (5, 5), (-3, -3)]))

    def weight():
        return draw(st.sampled_from([1.0, 2.5, 0.5] if draw(st.integers(0, 7))
                                    else [0.0, -1.0, math.nan, math.inf]))

    counts = st.sampled_from([0, 1, 1, 1, 1, 2, 2, 3])
    sinks = tuple((cell(), weight()) for _ in range(draw(counts)))
    sources = tuple(cell() for _ in range(draw(counts)))
    return dict(rows=rows, cols=cols, cell_size_m=1.0, wall_codes=bytes(codes),
                sinks=sinks, sources=sources)


@settings(max_examples=200, deadline=None)
@given(grid_fields(), st.integers(0, 2**32 - 1))
def test_any_grid_that_is_built_solves_and_runs(fields, seed):
    """A hand-built grid is refused with a LayoutError, ValueError or
    TypeError, or else its field equals value iteration's bit for bit, and
    20 steps with one agent per source conserve the agents: each one spawned
    is inside or has exited, and the density counts those inside."""
    try:
        grid = LayoutGrid(**fields)
    except (LayoutError, ValueError, TypeError):
        return
    field = compute_field(grid)
    assert np.array_equal(field.values.view(np.int64), value_iteration(grid).view(np.int64))
    sim = Simulation(grid, field, MESO_TABLE, tuple(SpawnEntry(cell, 1) for cell in grid.sources),
                     seed=seed)
    state = sim.run(20)
    kinds = state.log.kinds
    assert state.spawned == kinds.count(SPAWN) == len(grid.sources) - state.pending_count
    assert len(state.present) == state.spawned - kinds.count(EXIT)
    assert sum(state.density) == len(state.present)
