"""Reference implementations that the package must match exactly.

Field solver: the paper's Q-learning update by value iteration. Synchronous
sweeps of Q(i, j) = R(i, j) + gamma * max_k Q(j, k) over a CSR
matrix holding each cell's permitted moves plus a self loop. Only moves into
a sink earn a reward, base_reward times the sink's weight, and they end the
walk, so sink rows hold only their self loop. The sweeps run until no entry
changes; the diagonal Q(i, i) is the navigation field. It costs one sweep
over every move per hop of grid diameter, so it serves only as the oracle
that `mesoped.floorfield.compute_field` must match bit for bit. The same
update run as learning, `q_learning`, over epsilon-greedy walks on small
rooms, reaches the same diagonal. `frontier_field` is the frontier solve
in numpy, round for round as the kernel's `solve` makes it, and
`plateau_cell` the scan for a subnormal plateau that `solve` must match.

Move permission: `moves_of` names, in compass order, the moves out of a
cell that `LayoutGrid.neighbours`, the package's one definition, permits.
`neighbour_table` builds that table in numpy, one direction at a time,
which the kernel's `neighbours` must match element for element.

Hop distances: `distance_field`, a breadth-first search over `moves_of`,
is the shortest-path reference that `greedy_descent` of the field must
follow (criterion 2), and the connectivity check of `gridgen.random_grid`.

Layout parse and checks: `parse_layout_reference` is the parser that read
every wall code in Python, and `validate_reference` the checks it ran on
the fields before it built the grid: `edge_conflicts`, a cell-by-cell scan
of the shared edges, and a walk of the perimeter. `mesoped.layout.parse_layout`,
whose wall codes and checks are the kernel's, must give the same grid or
raise the same error with the same message, and `LayoutGrid(...)` must name
the same first conflict or hole.

Step loop: the engine's movement rule written agent by agent over
`Agent` objects kept in a dict, through `Cell` tuples, `moves_of`,
`DIR_VECTORS` and the table's columns. `ReferenceSimulation` runs it
in place of `mesoped.engine.Simulation`, whose C step kernel (`step.c`)
must match its event logs and densities exactly. It fills an `EventLog`'s
columns through `log_events`, which the tests' hand-made logs use too.

Event log outputs: `summarize` and `events_to_csv` walk the log as
`(step, clock, agent, kind, row, col)` tuples (`Simulation.events`), one
event at a time with dicts and f-strings. `mesoped.metrics.summarize` and
`mesoped.engine.events_csv_blocks`, which read the log's columns, must equal
them exactly.

Field CSV: `field_to_csv` formats every cell with its own `repr`;
`mesoped.floorfield.field_csv_blocks`, which formats each distinct value
once, must equal its text exactly once its blocks are joined.

Scenario text: `read_ini` is configparser's read with the settings the
scenario parser once used: inline `#` comments, no interpolation, no
default section, strict. `mesoped.scenario._read_ini` must give the same
sections, keys and values in the same order, or refuse a text configparser
refuses.
"""

from __future__ import annotations

import configparser
import math
import random
import sys
from collections import Counter, deque
from dataclasses import dataclass
from statistics import fmean

import numpy as np

from mesoped.engine import (DIAMETER_FACTOR, EXIT, MOVE, SPAWN, STAY, EventLog,
                            SpawnEntry, SpeedDensityTable)
from mesoped.floorfield import DEFAULT_BASE_REWARD, DEFAULT_GAMMA, FloorField
from mesoped.layout import (BOTTOM, DIRECTIONS, LEFT, RIGHT, SIDE_NAMES, TOP,
                            BoundaryError, ConsistencyError, EmptyError, LayoutGrid,
                            ParseError, side_open)
from mesoped.metrics import RunMetrics

ORTHOGONAL = frozenset(("N", "E", "S", "W"))
# The (row, column) step of each move direction: the reference for step.c's `dr` and `dc`.
DIR_VECTORS = {
    "N": (-1, 0), "NE": (-1, 1), "E": (0, 1), "SE": (1, 1),
    "S": (1, 0), "SW": (1, -1), "W": (0, -1), "NW": (-1, -1),
}


def moves_of(grid: LayoutGrid, cell: tuple[int, int]) -> tuple[str, ...]:
    """The directions of the moves out of an in-grid `cell` that
    `grid.neighbours` permits, in DIRECTIONS order."""
    i = grid.index(cell)
    return tuple(d for k, d in enumerate(DIRECTIONS) if grid.neighbours[k, i] >= 0)


# Diagonal moves pass a cell corner: both flanking sides must be open at the
# source and at the destination, which together cover all four edges meeting
# at that corner (no corner cutting).
SIDE_OF = {"N": TOP, "E": RIGHT, "S": BOTTOM, "W": LEFT}
DIAG_SIDES = {
    "NE": ((TOP, RIGHT), (BOTTOM, LEFT)),
    "SE": ((BOTTOM, RIGHT), (TOP, LEFT)),
    "SW": ((BOTTOM, LEFT), (TOP, RIGHT)),
    "NW": ((TOP, LEFT), (BOTTOM, RIGHT)),
}


def window(size: int, step: int) -> slice:
    """The positions along an axis of `size` that stay on it after `step`."""
    return slice(max(-step, 0), size - max(step, 0))


def neighbour_table(grid: LayoutGrid) -> np.ndarray:
    """The (8, rows*cols) move table in numpy: entry (d, i) is the flat index
    of the destination of move d from cell i, or -1 where it is not permitted."""
    rows, cols = grid.rows, grid.cols
    walls = np.frombuffer(grid.wall_codes, np.uint8).reshape(rows, cols)
    flat = np.arange(rows * cols).reshape(rows, cols)
    table = np.full((len(DIRECTIONS), rows * cols), -1, dtype=np.int64)
    for k, d in enumerate(DIRECTIONS):
        dr, dc = DIR_VECTORS[d]
        # `here`: the cells with a cell next to them in direction d;
        # `there`: those next cells.
        here = (window(rows, dr), window(cols, dc))
        there = (window(rows, -dr), window(cols, -dc))
        if d in SIDE_OF:
            ok = (walls[here] & SIDE_OF[d]) == 0
        else:
            (s1, s2), (t1, t2) = DIAG_SIDES[d]
            ok = ((walls[here] & (s1 | s2)) == 0) & ((walls[there] & (t1 | t2)) == 0)
        np.copyto(table[k].reshape(rows, cols)[here], flat[there], where=ok)
    return table


def log_events(log: EventLog, step: int, *events: tuple[int, int, int]) -> EventLog:
    """Open step `step` of `log`, and the steps before it not yet opened, then
    log each `(agent, kind code, flat cell)` event into it, writing the log's
    private columns as the kernel does."""
    assert step >= len(log._starts) - 1, f"step {step} comes before step {len(log._starts) - 1}"
    while len(log._starts) <= step:
        log._starts.append(len(log._kinds))
    for agent, kind, at in events:
        log._agents.append(agent)
        log._kinds.append(kind)
        log._cells.append(at)
    return log


def q_entries(grid: LayoutGrid, base_reward: float = DEFAULT_BASE_REWARD):
    """The Q-table's entries in CSR form over flat cells.

    Cell i owns entries `indptr[i]` to `indptr[i + 1]`: a self loop plus,
    off a sink, its permitted moves, sorted by destination `dst`. An entry
    into a sink pays base_reward times the sink's weight (`rewards`) and ends
    the walk; every other entry pays 0 and bootstraps. `diag[i]` is the
    position of Q(i, i).
    """
    cols = grid.cols
    sink_w = {grid.index(cell): w for cell, w in grid.sinks}
    indptr, dst, diag = [0], [], []
    for r in range(grid.rows):
        for c in range(cols):
            i = r * cols + c
            row = [i]
            if i not in sink_w:
                row += [(r + dr) * cols + c + dc
                        for dr, dc in (DIR_VECTORS[d] for d in moves_of(grid, (r, c)))]
            row.sort()
            diag.append(len(dst) + row.index(i))
            dst += row
            indptr.append(len(dst))
    rewards = np.array([base_reward * sink_w[j] if j in sink_w else 0.0 for j in dst])
    bootstrap = np.array([j not in sink_w for j in dst], dtype=bool)
    return indptr, np.array(dst, dtype=np.int64), diag, rewards, bootstrap


def bellman_sweep(q: np.ndarray, entries, gamma: float) -> np.ndarray:
    """One synchronous sweep of Q(i, j) = R(i, j) + gamma * max_k Q(j, k)
    over the entries of `q_entries`."""
    indptr, dst, _, rewards, bootstrap = entries
    v = np.maximum.reduceat(q, indptr[:-1])
    new = rewards.copy()
    new[bootstrap] += gamma * v[dst[bootstrap]]
    return new


def value_iteration(grid: LayoutGrid, gamma: float = DEFAULT_GAMMA,
                    base_reward: float = DEFAULT_BASE_REWARD) -> np.ndarray:
    """The rows x cols field at the fixed point of synchronous value iteration."""
    entries = _, _, diag, q, _ = q_entries(grid, base_reward)
    while True:
        new = bellman_sweep(q, entries, gamma)
        if np.array_equal(new, q):
            return q[diag].reshape(grid.rows, grid.cols)
        q = new


def q_learning(grid: LayoutGrid, gamma: float = DEFAULT_GAMMA,
               base_reward: float = DEFAULT_BASE_REWARD, epsilon: float = 0.3,
               seed: int = 0, max_episodes: int = 100_000) -> np.ndarray:
    """The rows x cols field learned by episodic asynchronous Q-learning
    (Watkins & Dayan 1992) with learning rate 1.

    Q starts at 0, except that a sink's self loop holds its reward: no walk
    leaves a sink, so none learns it. Each episode starts at a random
    non-sink cell and walks epsilon-greedily (ties drawn at random),
    replacing Q(i, j) by R(i, j) + gamma * max_k Q(j, k) for the entry it
    takes, until it enters a sink. Learning stops once one synchronous sweep
    over every entry changes nothing: Q is then a fixed point, and since it
    rose from below, the one value iteration reaches. Every cell must reach
    a sink, as on `gridgen.random_grid` rooms, or a walk may never end.
    """
    entries = indptr, dst, diag, rewards, bootstrap = q_entries(grid, base_reward)
    # The walk reads one entry at a time, which Python lists do fastest.
    dst, rewards, bootstrap = dst.tolist(), rewards.tolist(), bootstrap.tolist()
    q = [0.0 if boot else reward for reward, boot in zip(rewards, bootstrap)]
    rng = random.Random(seed)
    starts = [i for i in range(grid.rows * grid.cols) if bootstrap[diag[i]]]
    for _ in range(max_episodes):
        i = rng.choice(starts)
        while True:
            lo, hi = indptr[i], indptr[i + 1]
            if rng.random() < epsilon:
                k = rng.randrange(lo, hi)
            else:
                best = max(q[lo:hi])
                k = rng.choice([k for k in range(lo, hi) if q[k] == best])
            if not bootstrap[k]:
                q[k] = rewards[k]
                break
            i = dst[k]
            q[k] = rewards[k] + gamma * max(q[indptr[i]:indptr[i + 1]])
        if np.array_equal(bellman_sweep(np.array(q), entries, gamma), q):
            return np.array(q)[diag].reshape(grid.rows, grid.cols)
    raise RuntimeError(f"Q-learning found no fixed point in {max_episodes} episodes")


def frontier_field(grid: LayoutGrid, gamma: float = DEFAULT_GAMMA,
                   base_reward: float = DEFAULT_BASE_REWARD) -> FloorField:
    """The frontier solve in numpy: the reference for the kernel's `solve`,
    its values, its rounds and its plateau cell.

    Each round recomputes only the non-sink cells next to a cell that rose
    in the previous round, and keeps a new value where it is larger; the
    solve ends when a round raises nothing.
    """
    n = grid.rows * grid.cols
    # Direction-major: gathering a cell set's neighbours with `take` along
    # axis 1 and reducing over axis 0 reads each direction contiguously.
    nbr = np.asarray(grid.neighbours)
    # One extra slot holding 0: a -1 entry of the move table indexes it.
    values = np.zeros(n + 1)
    free = np.ones(n + 1, dtype=bool)
    free[n] = False
    sinks = np.array([grid.index(cell) for cell, _ in grid.sinks], dtype=np.int64)
    values[sinks] = [base_reward * w for _, w in grid.sinks]
    free[sinks] = False
    # Dedupes a round's neighbours: each cell keeps the one position whose
    # write to slot[cell] lasted.
    slot = np.zeros(n + 1, dtype=np.int64)
    risen = sinks
    rounds = 0
    while risen.size:
        rounds += 1
        near = nbr.take(risen, axis=1).ravel()
        near = near[free.take(near)]
        order = np.arange(near.size)
        slot[near] = order
        cells = near[slot.take(near) == order]
        new = gamma * values.take(nbr.take(cells, axis=1)).max(axis=0)
        up = new > values.take(cells)
        risen = cells[up]
        values[risen] = new[up]
    values = values[:n].reshape(grid.rows, grid.cols)
    return FloorField(values=values, rounds=rounds, plateau=plateau_cell(grid, values))


def plateau_cell(grid: LayoutGrid, values: np.ndarray) -> tuple[int, int] | None:
    """The first non-sink cell, in row-major order, whose value is positive,
    subnormal and no lower than its best neighbour's; None if there is none.
    With gamma < 1 only subnormal values can stick, so only those are checked."""
    values = values.ravel()
    tiny = np.flatnonzero((values > 0.0) & (values < sys.float_info.min))
    if tiny.size:
        best = np.append(values, 0.0).take(np.asarray(grid.neighbours).take(tiny, axis=1)).max(axis=0)
        for i in tiny[values[tiny] >= best].tolist():
            cell = divmod(i, grid.cols)
            if cell not in grid.sink_set:
                return cell
    return None


def distance_field(grid: LayoutGrid) -> np.ndarray:
    """Hop distance to the nearest sink over permitted moves; inf if unreachable.

    Breadth-first from all sinks at once. Move permission is symmetric on a
    consistent grid, so expanding outward with each cell's own move list is
    equivalent to searching move-reversed edges.
    """
    dist = np.full((grid.rows, grid.cols), np.inf)
    queue: deque[tuple[int, int]] = deque()
    for cell, _ in grid.sinks:
        dist[cell] = 0.0
        queue.append(cell)
    while queue:
        r, c = queue.popleft()
        d = dist[r, c] + 1.0
        for name in moves_of(grid, (r, c)):
            dr, dc = DIR_VECTORS[name]
            nxt = (r + dr, c + dc)
            if d < dist[nxt]:
                dist[nxt] = d
                queue.append(nxt)
    return dist


class Stuck(Exception):
    """Greedy descent reached a local maximum: the field is not a valid guide."""


def greedy_descent(field: FloorField, grid: LayoutGrid,
                   start: tuple[int, int]) -> list[tuple[int, int]]:
    """Follow the steepest field increase from `start` to a sink.

    Ties prefer orthogonal moves, then first in compass order; this mirrors
    the engine's preference except that the engine randomizes the final tie.
    Raises Stuck at a local maximum or when no sink is reached within
    rows*cols moves.
    """
    if not (0 <= start[0] < grid.rows and 0 <= start[1] < grid.cols):
        raise Stuck(f"start {start} outside grid")
    path = [start]
    cell = start
    for _ in range(grid.rows * grid.cols):
        if cell in grid.sink_set:
            return path
        best_name = None
        best_cell = None
        best_val = -np.inf
        r, c = cell
        for name in moves_of(grid, cell):
            dr, dc = DIR_VECTORS[name]
            nxt = (r + dr, c + dc)
            val = float(field.values[nxt])
            if val > best_val or (val == best_val
                                  and name in ORTHOGONAL
                                  and best_name not in ORTHOGONAL):
                best_name, best_cell, best_val = name, nxt, val
        if best_cell is None or best_val <= field.values[cell]:
            raise Stuck(f"no ascent from {cell}")
        cell = best_cell
        path.append(cell)
    raise Stuck(f"no sink within {grid.rows * grid.cols} moves from {start}")


def edge_conflicts(walls) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Pairs whose shared edge the two cells encode differently, row-major,
    each cell's east edge before its south edge."""
    rows, cols = len(walls), len(walls[0])
    bad = []
    for r in range(rows):
        for c in range(cols):
            code = walls[r][c]
            if c + 1 < cols and bool(code & RIGHT) != bool(walls[r][c + 1] & LEFT):
                bad.append(((r, c), (r, c + 1)))
            if r + 1 < rows and bool(code & BOTTOM) != bool(walls[r + 1][c] & TOP):
                bad.append(((r, c), (r + 1, c)))
    return bad


def validate_reference(rows: int, cols: int, cell_size_m: float, wall_codes: bytes,
                       sinks: tuple, sources: tuple) -> LayoutGrid:
    """`LayoutGrid`'s construction checks in Python, check for check and
    message for message, but for the wall codes' type, length and range,
    and the cell count, which no grid of bytes that fit in memory fails.
    Every check runs on the fields before the grid is built, so none is the
    package's own; then the grid is built from them."""
    walls = [wall_codes[i:i + cols] for i in range(0, rows * cols, cols)]
    conflicts = edge_conflicts(walls)
    if conflicts:
        (a, b) = conflicts[0]
        raise ConsistencyError(f"shared edge between {a} and {b} disagrees")
    if not sinks:
        raise EmptyError("layout has no sinks")
    if not sources:
        raise EmptyError("layout has no sources")
    for r, c in [cell for cell, _ in sinks] + list(sources):
        if not (0 <= r < rows and 0 <= c < cols):
            raise ParseError(f"cell {(r, c)} outside {rows}x{cols} grid")
    sink_cells = {cell for cell, _ in sinks}
    last_r, last_c = rows - 1, cols - 1
    for r in range(rows):
        for c in range(cols) if r in (0, last_r) else sorted({0, last_c}):
            if (r, c) in sink_cells:
                continue
            for side, on_edge in ((TOP, r == 0), (BOTTOM, r == last_r),
                                  (LEFT, c == 0), (RIGHT, c == last_c)):
                if on_edge and side_open(walls[r][c], side):
                    raise BoundaryError(
                        f"open {SIDE_NAMES[side]} side on perimeter cell ({r}, {c}) "
                        "which is not a sink")
    for cell, w in sinks:
        if not 0 < w < math.inf:
            raise ParseError(f"sink {cell} has weight {w}, which is not positive and finite")
    overlap = sink_cells & set(sources)
    if overlap:
        raise ParseError(f"cell {sorted(overlap)[0]} is both source and sink")
    return LayoutGrid(rows=rows, cols=cols, cell_size_m=cell_size_m, wall_codes=wall_codes,
                      sinks=sinks, sources=sources)


def parse_layout_reference(text: str) -> LayoutGrid:
    """`parse_layout` with every wall code read by `int` in Python, and the
    grid built by `validate_reference`."""
    lines = [(i + 1, ln.split("#", 1)[0].strip())
             for i, ln in enumerate(text.splitlines())]
    lines = [(no, ln) for no, ln in lines if ln]
    if not lines:
        raise ParseError("empty layout file")

    no, header = lines[0]
    parts = header.split()
    if len(parts) != 3:
        raise ParseError(f"line {no}: header must be 'rows cols cell_size_m'")
    try:
        rows, cols = int(parts[0]), int(parts[1])
        cell_size = float(parts[2])
    except ValueError as exc:
        raise ParseError(f"line {no}: bad header value: {exc}") from None
    if rows < 1 or cols < 1 or not 0 < cell_size < math.inf:
        raise ParseError(f"line {no}: rows, cols, cell size must be positive and finite")
    if rows * cols >= 2**31:
        raise ParseError(f"line {no}: {rows}x{cols} grid has {rows * cols} cells; "
                         f"cell indices are int32, so at most {2**31 - 1} fit")

    if len(lines) - 1 < rows:
        raise ParseError(f"expected {rows} wall-code lines, found {len(lines) - 1}")
    walls = []
    for no, ln in lines[1:1 + rows]:
        tokens = ln.split()
        if len(tokens) != cols:
            raise ParseError(f"line {no}: expected {cols} wall codes, found {len(tokens)}")
        for tok in tokens:
            try:
                code = int(tok)
            except ValueError:
                raise ParseError(f"line {no}: wall code {tok!r} is not an integer") from None
            if not 0 <= code <= 15:
                raise ParseError(f"line {no}: wall code {code} outside [0, 15]")
            walls.append(code)

    sinks: dict[tuple[int, int], float] = {}
    sources: dict[tuple[int, int], None] = {}
    for no, ln in lines[1 + rows:]:
        tokens = ln.split()
        kind = tokens[0]
        try:
            if kind == "sink":
                if len(tokens) != 4:
                    raise ValueError("expected 'sink r c weight'")
                cell = (int(tokens[1]), int(tokens[2]))
                weight = float(tokens[3])
                if not 0 < weight < math.inf:
                    raise ValueError(f"sink weight must be positive and finite, got {weight}")
                if cell in sinks:
                    raise ValueError(f"duplicate sink {cell}")
                sinks[cell] = weight
            elif kind == "source":
                if len(tokens) != 3:
                    raise ValueError("expected 'source r c'")
                cell = (int(tokens[1]), int(tokens[2]))
                if cell in sources:
                    raise ValueError(f"duplicate source {cell}")
                sources[cell] = None
            else:
                raise ValueError(f"unknown directive {kind!r}")
        except ValueError as exc:
            raise ParseError(f"line {no}: {exc}") from None
        if not (0 <= cell[0] < rows and 0 <= cell[1] < cols):
            raise ParseError(f"line {no}: cell {cell} outside {rows}x{cols} grid")

    return validate_reference(rows=rows, cols=cols, cell_size_m=cell_size,
                              wall_codes=bytes(walls), sinks=tuple(sinks.items()),
                              sources=tuple(sources))


@dataclass(slots=True)
class Agent:
    """One pedestrian: its cell, that cell's flat index `at`, and the clock
    at which it entered the cell (`t_in`) and the grid (`spawn_time`)."""

    id: int
    cell: tuple[int, int]
    at: int
    t_in: float
    spawn_time: float


class ReferenceState:
    """Per-run state with one `Agent` object per agent inside, keyed by id."""

    def __init__(self, grid: LayoutGrid, rng: np.random.Generator,
                 schedule: tuple[SpawnEntry, ...], dt: float) -> None:
        self.clock = 0.0
        self.step_index = 0
        self.rng = rng
        self.density = [0] * (grid.rows * grid.cols)
        self.agents: dict[int, Agent] = {}
        self.exited: list[Agent] = []
        self.log = log_events(EventLog(dt, grid.cols), 0)  # step 0 opened
        self.next_id = 0
        self.spawned = 0
        self.pending = [[grid.index(e.cell), e.count, e.release_step] for e in schedule]

    @property
    def pending_count(self) -> int:
        return sum(rem for _, rem, _ in self.pending)


def dwell_elapsed(agent: Agent, state: ReferenceState, grid: LayoutGrid,
                  table: SpeedDensityTable) -> bool:
    """True when the agent has finished crossing its cell and may move.

    The walking speed comes from the count of other occupants of the agent's
    cell; a zero speed means the agent can never finish this step.
    """
    others = state.density[grid.index(agent.cell)] - 1
    u = table.speeds[others]
    if u <= 0.0:
        return False
    diameter_m = grid.cell_size_m * DIAMETER_FACTOR
    return state.clock >= agent.t_in + diameter_m / u


def score_candidates(agent: Agent, state: ReferenceState, grid: LayoutGrid,
                     field: FloorField, table: SpeedDensityTable) -> list[tuple[str, float]]:
    """Entry probability times navigation value for each permitted direction."""
    r, c = agent.cell
    scores = []
    for name in moves_of(grid, agent.cell):
        dr, dc = DIR_VECTORS[name]
        nxt = (r + dr, c + dc)
        p = table.probs[state.density[grid.index(nxt)]]
        scores.append((name, p * float(field.values[nxt])))
    return scores


def choose_move(scores: list[tuple[str, float]], rng: np.random.Generator) -> str | None:
    """Argmax direction, or None to stay when nothing scores above zero.

    Exact ties prefer orthogonal moves over diagonal ones; remaining ties are
    broken uniformly with the run's generator.
    """
    if not scores:
        return None
    best = max(s for _, s in scores)
    if best <= 0.0:
        return None
    top = [name for name, s in scores if s == best]
    ortho = [name for name in top if name in ORTHOGONAL]
    pool = ortho if ortho else top
    if len(pool) == 1:
        return pool[0]
    return pool[int(rng.integers(len(pool)))]


def spawn_pass(state: ReferenceState, grid: LayoutGrid, table: SpeedDensityTable) -> None:
    capacity = table.capacity
    for entry in state.pending:
        idx, remaining, release = entry
        if release > state.step_index or remaining == 0:
            continue
        cell = divmod(idx, grid.cols)
        while entry[1] > 0 and state.density[idx] < capacity:
            agent = Agent(id=state.next_id, cell=cell, at=idx,
                          t_in=state.clock, spawn_time=state.clock)
            state.next_id += 1
            state.spawned += 1
            state.agents[agent.id] = agent
            state.density[idx] += 1
            entry[1] -= 1
            log_events(state.log, state.step_index, (agent.id, SPAWN, idx))


def reference_step(state: ReferenceState, grid: LayoutGrid, field: FloorField,
                   table: SpeedDensityTable, dt: float) -> ReferenceState:
    """One interval, agent by agent: spawn, absorb sink-standing agents, move the rest."""
    state.step_index += 1
    state.clock = state.step_index * dt
    clock = state.clock
    log_events(state.log, state.step_index)

    spawn_pass(state, grid, table)

    sinks = grid.sink_set
    arrived = [aid for aid, a in state.agents.items() if a.cell in sinks]
    for aid in sorted(arrived):
        agent = state.agents.pop(aid)
        state.density[grid.index(agent.cell)] -= 1
        state.exited.append(agent)
        log_events(state.log, state.step_index, (aid, EXIT, grid.index(agent.cell)))

    ids = sorted(state.agents)
    if len(ids) > 1:
        ids = [ids[i] for i in state.rng.permutation(len(ids))]
    for aid in ids:
        agent = state.agents[aid]
        if not dwell_elapsed(agent, state, grid, table):
            continue
        scores = score_candidates(agent, state, grid, field, table)
        name = choose_move(scores, state.rng)
        if name is None:
            log_events(state.log, state.step_index, (aid, STAY, grid.index(agent.cell)))
            continue
        dr, dc = DIR_VECTORS[name]
        old = agent.cell
        new = (old[0] + dr, old[1] + dc)
        state.density[grid.index(old)] -= 1
        state.density[grid.index(new)] += 1
        agent.cell = new
        agent.at = grid.index(new)
        agent.t_in = clock
        log_events(state.log, state.step_index, (aid, MOVE, grid.index(new)))
    return state


class ReferenceSimulation:
    """A run stepped by `reference_step`, with the constructor, `run`,
    `events` and `completed` of `mesoped.engine.Simulation`."""

    def __init__(self, grid: LayoutGrid, field: FloorField, table: SpeedDensityTable,
                 schedule: tuple[SpawnEntry, ...] = (), dt: float = 0.5,
                 seed: int | None = 0, rng: np.random.Generator | None = None) -> None:
        self.grid, self.field, self.table, self.dt = grid, field, table, float(dt)
        if rng is None:
            rng = np.random.default_rng(seed)
        self.state = ReferenceState(grid, rng, schedule, self.dt)
        spawn_pass(self.state, grid, table)

    def step(self) -> ReferenceState:
        return reference_step(self.state, self.grid, self.field, self.table, self.dt)

    def run(self, max_steps: int) -> ReferenceState:
        for _ in range(max_steps):
            if self.completed:
                break
            self.step()
        return self.state

    @property
    def events(self) -> list[tuple[int, float, int, str, int, int]]:
        return list(self.state.log)

    @property
    def completed(self) -> bool:
        return not self.state.agents and self.state.pending_count == 0


def summarize(events, cell_size_m: float) -> RunMetrics:
    """Travel times, walked distances and exit usage, event by event."""
    diag = cell_size_m * math.sqrt(2.0)
    spawn_clock: dict[int, float] = {}
    position: dict[int, tuple[int, int]] = {}
    distance: dict[int, float] = {}
    travel: list[float] = []
    dist_done: list[float] = []
    exits: Counter[tuple[int, int]] = Counter()
    for _, clock, aid, kind, r, c in events:
        if kind == "spawn":
            spawn_clock[aid] = clock
            position[aid] = (r, c)
            distance[aid] = 0.0
        elif kind == "move":
            pr, pc = position[aid]
            distance[aid] += diag if (r != pr and c != pc) else cell_size_m
            position[aid] = (r, c)
        elif kind == "exit":
            travel.append(clock - spawn_clock[aid])
            dist_done.append(distance[aid])
            exits[(r, c)] += 1
    return RunMetrics(
        n_agents=len(spawn_clock),
        avg_travel_time_s=fmean(travel) if travel else None,
        avg_distance_m=fmean(dist_done) if dist_done else None,
        per_exit_counts=dict(exits),
        completed=len(travel) == len(spawn_clock),
    )


def events_to_csv(events) -> str:
    """One f-string per event."""
    lines = ["step,clock_s,agent_id,event,row,col"]
    for step_i, clock, aid, kind, r, c in events:
        lines.append(f"{step_i},{clock!r},{aid},{kind},{r},{c}")
    return "\n".join(lines) + "\n"


def field_to_csv(field: FloorField) -> str:
    """One `repr` per cell."""
    lines = [",".join(repr(float(v)) for v in row) for row in field.values]
    return "\n".join(lines) + "\n"


def read_ini(text: str) -> list[tuple[str, list[tuple[str, str]]]]:
    """Each section of `text` with its (key, value) pairs, in file order, as
    configparser reads them; raises `configparser.Error` on a text it refuses."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None,
                                       default_section="")
    parser.read_string(text)
    return [(section, parser.items(section)) for section in parser.sections()]
