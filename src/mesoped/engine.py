"""Discrete-time movement engine with density-coupled speeds and entry odds.

Agents dwell in a cell until the clock covers the cell diameter at the
density-dependent walking speed, then hop to the permitted neighbor with the
highest product of entry probability and navigation value. All decisions in
a step happen at the step's end-of-interval clock; an agent standing on a
sink is absorbed at the start of the following step.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .layout import Cell, LayoutGrid, TOP, RIGHT, BOTTOM, LEFT, side_open
from .floorfield import FloorField

# Mean of the inscribed and circumscribed circle diameters of a square cell.
DIAMETER_FACTOR = (1.0 + math.sqrt(2.0)) / 2.0

EVENT_SPAWN = "spawn"
EVENT_MOVE = "move"
EVENT_STAY = "stay"
EVENT_EXIT = "exit"
# Event kind codes as stored in `EventLog.kinds`: the index into KINDS.
KINDS = (EVENT_SPAWN, EVENT_MOVE, EVENT_STAY, EVENT_EXIT)
SPAWN, MOVE, STAY, EXIT = range(len(KINDS))


class OutOfRange(Exception):
    """Speed-density lookup outside the table's density range."""


@dataclass(frozen=True)
class SpeedDensityTable:
    """Lookup rows of (density, speed m/s, entry probability).

    Densities count the agents already in the cell being evaluated. Both
    columns must be non-increasing and the final row must have entry
    probability zero, so a cell fills up before it jams solid.
    """

    entries: tuple[tuple[int, float, float], ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("speed-density table is empty")
        for k, (d, u, p) in enumerate(self.entries):
            if d != k:
                raise ValueError(f"densities must run 0..{len(self.entries) - 1}, got {d}")
            if not 0 <= u < math.inf:
                raise ValueError(f"speed {u} at density {d} is not a finite non-negative number")
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"entry probability {p} at density {d} outside [0, 1]")
        speeds = [u for _, u, _ in self.entries]
        probs = [p for _, _, p in self.entries]
        if any(a < b for a, b in zip(speeds, speeds[1:])):
            raise ValueError("speed must be non-increasing in density")
        if any(a < b for a, b in zip(probs, probs[1:])):
            raise ValueError("entry probability must be non-increasing in density")
        if probs[-1] != 0.0:
            raise ValueError("entry probability must be 0 at the final row")
        if probs[0] <= 0.0:
            raise ValueError("entry probability at density 0 must be positive")
        for d, u, _ in self.entries[:self.capacity]:
            if u == 0.0:
                raise ValueError(f"speed 0 at density {d}, which a cell can reach, "
                                 "would hold its agents in place forever")

    @cached_property
    def speeds(self) -> tuple[float, ...]:
        """Walking speed (m/s) by density: the table's second column."""
        return tuple(u for _, u, _ in self.entries)

    @cached_property
    def probs(self) -> tuple[float, ...]:
        """Entry probability by density: the table's third column."""
        return tuple(p for _, _, p in self.entries)

    @cached_property
    def capacity(self) -> int:
        """Max occupancy a cell can reach: last enterable density plus one."""
        return max(d for d, _, p in self.entries if p > 0.0) + 1

    def speed(self, density: int) -> float:
        if not 0 <= density < len(self.entries):
            raise OutOfRange(f"density {density} outside table range")
        return self.speeds[density]

    def entry_probability(self, density: int) -> float:
        if not 0 <= density < len(self.entries):
            raise OutOfRange(f"density {density} outside table range")
        return self.probs[density]


MESO_TABLE = SpeedDensityTable((
    (0, 1.44, 1.0),
    (1, 1.12, 0.8),
    (2, 0.84, 0.6),
    (3, 0.56, 0.4),
    (4, 0.28, 0.2),
    (5, 0.00, 0.0),
))

# Half-meter cells hold a single agent; blocking, not slowdown, carries the
# congestion effect.
MICRO_TABLE = SpeedDensityTable((
    (0, 1.44, 1.0),
    (1, 0.00, 0.0),
))


@dataclass(frozen=True)
class SpawnEntry:
    cell: Cell
    count: int
    release_step: int = 0


class EventLog:
    """A run's events in order, as flat columns.

    Event k is agent `agents[k]` doing `KINDS[kinds[k]]` at flat cell
    `cells[k]` (row * cols + col). Events are logged step by step:
    `starts[s]` is the index of the first event of step s or later, so step
    s owns events `starts[s]` up to `starts[s + 1]` (or the end). No clock is
    stored, because the clock of step s is always `s * dt`.
    """

    def __init__(self, dt: float, cols: int) -> None:
        self.dt = dt
        self.cols = cols
        self.starts = array("i", [0])
        self.agents = array("i")
        self.kinds = bytearray()
        self.cells = array("i")

    def open_step(self, step: int) -> None:
        """Make `step` the step that events appended from now on belong to."""
        if step < len(self.starts) - 1:
            raise ValueError(f"step {step} comes before logged step {len(self.starts) - 1}")
        while len(self.starts) <= step:
            self.starts.append(len(self.kinds))

    def append(self, step: int, agent: int, kind: str, at: int) -> None:
        """Log agent `agent` doing `kind` (one of KINDS) at flat cell `at`."""
        self.open_step(step)
        self.agents.append(agent)
        self.kinds.append(KINDS.index(kind))
        self.cells.append(at)

    def bounds(self) -> list[int]:
        """Event index bounds of every step: step s owns `[b[s], b[s + 1])`."""
        bounds = self.starts.tolist()
        bounds.append(len(self.kinds))
        return bounds

    def __iter__(self):
        """Each event as a `(step, clock, agent, kind, row, col)` tuple."""
        bounds, cols = self.bounds(), self.cols
        for step in range(len(bounds) - 1):
            clock = step * self.dt
            for k in range(bounds[step], bounds[step + 1]):
                yield (step, clock, self.agents[k], KINDS[self.kinds[k]],
                       *divmod(self.cells[k], cols))


def bounded_draw(rng: np.random.Generator) -> Callable[[int], int]:
    """A function `draw(n)` equal to `int(rng.integers(n))` for 1 <= n <= 2**32:
    the same value from the same bit-generator calls, without the cost of a
    numpy call.

    It is the method numpy itself uses for such bounds (Lemire 2019, "Fast
    Random Integer Generation in an Interval"): multiply a 32-bit draw by n,
    keep the high word, and draw again while the low word is below
    (2**32 - n) % n. The 32-bit draws come straight from the bit generator's
    `ctypes.next_uint32`; `tests/test_engine.py` checks the result against
    `Generator.integers`, so a change in numpy fails there by name.
    """
    handle = rng.bit_generator.ctypes
    next_uint32, state = handle.next_uint32, handle.state

    def draw(n: int) -> int:
        if n == 1:
            return 0  # numpy draws nothing for a single choice
        m = next_uint32(state) * n
        if m & 0xFFFFFFFF < n:
            threshold = (0x100000000 - n) % n
            while m & 0xFFFFFFFF < threshold:
                m = next_uint32(state) * n
        return m >> 32

    # `state` is a raw pointer into the generator, which must outlive `draw`.
    draw.rng = rng
    return draw


class SimulationState:
    """Mutable per-run state: clock, agent columns, density, pending spawns, event log.

    Agent ids count up from 0 in spawn order and index the columns: `at[a]` is
    agent a's flat cell and `t_in[a]` the clock at which it entered it.
    `present` holds the ids still inside, ascending; the rest is in the log.
    """

    def __init__(self, grid: LayoutGrid, rng: np.random.Generator,
                 schedule: tuple[SpawnEntry, ...], dt: float) -> None:
        self.clock = 0.0
        self.step_index = 0
        self.rng = rng
        self.density = [0] * (grid.rows * grid.cols)
        self.at: list[int] = []
        self.t_in: list[float] = []
        self.present: list[int] = []
        self.log = EventLog(dt, grid.cols)
        # mutable [flat cell, remaining, release_step] work list, unspent entries only
        self.pending = [[grid.index(e.cell), e.count, e.release_step] for e in schedule]
        # per-step work list: ids that moved onto a sink this step, to exit next step
        self.arrived: list[int] = []

    @cached_property
    def draw(self) -> Callable[[int], int]:
        """`int(self.rng.integers(n))` by `bounded_draw`, built on a run's first tie."""
        return bounded_draw(self.rng)

    @property
    def spawned(self) -> int:
        return len(self.at)

    @property
    def pending_count(self) -> int:
        return sum(rem for _, rem, _ in self.pending)


class Simulation:
    """Owns one run: layout, field, table, schedule, state, and the event log.

    The step loop reads lookup tables cached on the layout and the field,
    built once per runtime: each cell's move mask (`LayoutGrid.move_masks`)
    selects its orthogonal and its diagonal flat move offsets (the two tables
    of `LayoutGrid.move_offsets`), sink flags (`LayoutGrid.sink_flags`) and
    field values (`FloorField.flat`) are indexed by flat cell, and entry
    probabilities and dwell times by density.
    """

    def __init__(self, grid: LayoutGrid, field: FloorField,
                 table: SpeedDensityTable, schedule: tuple[SpawnEntry, ...] = (),
                 dt: float = 0.5, seed: int | np.random.SeedSequence | None = 0) -> None:
        if not 0 < dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {dt}")
        for entry in schedule:
            if entry.cell not in grid.source_set or entry.cell in grid.sink_set:
                raise ValueError(f"spawn cell {entry.cell} is not a layout source, or is a sink")
            if entry.count < 0 or entry.release_step < 0:
                raise ValueError(f"bad spawn entry {entry}")
        self.grid = grid
        self.field = field
        self.table = table
        self.dt = dt = float(dt)
        # Time to cross a cell for each count of other occupants; None where
        # the speed is 0 and the agent cannot leave.
        diameter = grid.cell_size_m * DIAMETER_FACTOR
        self._dwell = tuple(diameter / u if u > 0.0 else None for u in table.speeds)
        self.state = SimulationState(grid, np.random.default_rng(seed), schedule, dt)
        # release step 0 is "present when the clock starts"
        self._spawn()

    def _spawn(self) -> None:
        """Release due agents into their source cells while there is room,
        then drop the schedule entries that are spent."""
        state = self.state
        capacity = self.table.capacity
        density, at, t_in, present = state.density, state.at, state.t_in, state.present
        for entry in state.pending:
            idx, _, release = entry
            if release > state.step_index:
                continue
            while entry[1] > 0 and density[idx] < capacity:
                aid = len(at)
                at.append(idx)
                t_in.append(state.clock)
                present.append(aid)
                density[idx] += 1
                entry[1] -= 1
                state.log.append(state.step_index, aid, EVENT_SPAWN, idx)
        state.pending = [entry for entry in state.pending if entry[1]]

    def step(self) -> SimulationState:
        """Advance one interval: spawn, absorb last step's sink arrivals, move the rest.

        Each agent whose dwell time has elapsed scores every permitted move as
        entry probability times navigation value, at densities that include
        moves made earlier in the step, and takes the best one. It stays when
        nothing scores above zero. Orthogonal moves are scored first, and a
        diagonal must beat them; a tie left is broken with the run's generator.
        """
        state = self.state
        state.step_index += 1
        step_i = state.step_index
        clock = state.clock = step_i * self.dt
        log = state.log
        log.open_step(step_i)
        if state.pending:
            self._spawn()

        at, t_in, density, arrived = state.at, state.t_in, state.density, state.arrived
        if arrived:
            arrived.sort()
            present = state.present
            for aid in arrived:
                density[at[aid]] -= 1
                log.append(step_i, aid, EVENT_EXIT, at[aid])
                del present[bisect_left(present, aid)]
            arrived.clear()

        # Shuffling a copy makes the same draws as `permutation(len(ids))` and
        # leaves the ids in the order that permutation would give them.
        ids = state.present[:]
        if len(ids) > 1:
            state.rng.shuffle(ids)
        masks, (orth_moves, diag_moves) = self.grid.move_masks, self.grid.move_offsets
        values, probs, dwell = self.field.flat, self.table.probs, self._dwell
        is_sink = self.grid.sink_flags
        log_agent, log_kind, log_cell = log.agents.append, log.kinds.append, log.cells.append
        for aid in ids:
            i = at[aid]
            wait = dwell[density[i] - 1]
            if wait is None or clock < t_in[aid] + wait:
                continue
            mask = masks[i]
            best = 0.0
            ties = None
            for offset in orth_moves[mask]:
                j = i + offset
                score = probs[density[j]] * values[j]
                if score > best:
                    best, dest, ties = score, j, None
                elif score == best and best > 0.0:
                    if ties is None:
                        ties = [dest]
                    ties.append(j)
            # A diagonal move ties only where diagonals alone hold the best score.
            orth_best = best
            for offset in diag_moves[mask]:
                j = i + offset
                score = probs[density[j]] * values[j]
                if score > best:
                    best, dest, ties = score, j, None
                elif score == best and best > orth_best:
                    if ties is None:
                        ties = [dest]
                    ties.append(j)
            if best <= 0.0:
                log_agent(aid)
                log_kind(STAY)
                log_cell(i)
                continue
            if ties is not None:
                dest = ties[state.draw(len(ties))]
            if is_sink[dest]:
                arrived.append(aid)
            density[i] -= 1
            density[dest] += 1
            at[aid] = dest
            t_in[aid] = clock
            log_agent(aid)
            log_kind(MOVE)
            log_cell(dest)
        return state

    def run(self, max_steps: int, on_step=None):
        """Step until everyone has exited or `max_steps` intervals elapse."""
        if on_step is not None:
            on_step(self)
        for _ in range(max_steps):
            if self.completed:
                break
            self.step()
            if on_step is not None:
                on_step(self)
        return self.state

    # perfbench/tracer.py counts from this; it stays until the tracer reads state.log.
    @property
    def events(self) -> list[tuple[int, float, int, str, int, int]]:
        """The event log as `(step, clock, agent, kind, row, col)` tuples,
        built on each call; `state.log` holds the events themselves."""
        return list(self.state.log)

    @property
    def completed(self) -> bool:
        return not self.state.present and not self.state.pending


CSV_HEADER = b"step,clock_s,agent_id,event,row,col\n"
# Events formatted per block, so the scratch memory does not grow with the log.
CSV_BLOCK_EVENTS = 1 << 14


def _byte_table(pieces: list[bytes]) -> tuple[np.ndarray, np.ndarray]:
    """The pieces as a fixed-width array, NUL-padded (numpy's `S` dtype), and
    their lengths."""
    table = np.array(pieces, dtype=bytes)
    return table, np.fromiter(map(len, pieces), np.intp, len(pieces))


def events_to_csv(log: EventLog) -> bytearray:
    """The log as CSV bytes, one line per event, built in numpy.

    A line is five pieces, each looked up in a small table: `step,clock,`
    (one entry per step that has events), the agent id, `,kind,`, `row,` and
    `col\n`. Each block of events gathers its pieces into one fixed-width row
    of bytes per event; the NUL padding is dropped and the rest copied into
    one buffer whose size is summed from the table lengths beforehand. The
    bytes equal the per-event f-string writer kept in `tests/oracle.py`.
    """
    n = len(log.kinds)
    if not n:
        return bytearray(CSV_HEADER)
    counts = np.diff(log.bounds())
    steps = np.flatnonzero(counts)
    agents = np.frombuffer(log.agents, dtype=np.intc)
    kinds = np.frombuffer(log.kinds, dtype=np.uint8)
    cells = np.frombuffer(log.cells, dtype=np.intc)
    cols = log.cols
    rows = int(cells.max()) // cols + 1
    step_text, step_len = _byte_table([b"%d,%r," % (s, s * log.dt) for s in steps.tolist()])
    agent_text, agent_len = _byte_table([b"%d" % a for a in range(int(agents.max()) + 1)])
    kind_text, kind_len = _byte_table([b",%s," % name.encode() for name in KINDS])
    row_text, row_len = _byte_table([b"%d," % r for r in range(rows)])
    col_text, col_len = _byte_table([b"%d\n" % c for c in range(cols)])
    size = (len(CSV_HEADER) + step_len @ counts[steps]
            + np.bincount(agents) @ agent_len
            + np.bincount(kinds, minlength=len(KINDS)) @ kind_len
            + np.bincount(cells, minlength=rows * cols) @ (row_len[:, None] + col_len).ravel())
    step_of = np.repeat(np.arange(len(steps), dtype=np.intc), counts[steps])

    tables = (step_text, agent_text, kind_text, row_text, col_text)
    line = np.dtype([(f"f{k}", t.dtype) for k, t in enumerate(tables)])
    raw = bytearray(CSV_BLOCK_EVENTS * line.itemsize)
    block = np.frombuffer(raw, line)
    out = bytearray(int(size))
    out[:len(CSV_HEADER)] = CSV_HEADER
    pos = len(CSV_HEADER)
    for lo in range(0, n, CSV_BLOCK_EVENTS):
        hi = min(lo + CSV_BLOCK_EVENTS, n)
        block[hi - lo:] = np.zeros((), line)  # a short last block leaves only NULs behind
        r, c = np.divmod(cells[lo:hi], cols)
        for name, table, keys in zip(line.names, tables,
                                     (step_of[lo:hi], agents[lo:hi], kinds[lo:hi], r, c)):
            block[name][:hi - lo] = table.take(keys)
        text = raw.translate(None, b"\0")
        out[pos:pos + len(text)] = text
        pos += len(text)
    return out


def render_snapshot(grid: LayoutGrid, density: list[int]) -> str:
    """ASCII picture of walls and per-cell occupancy digits."""
    rows, cols = grid.rows, grid.cols
    canvas = []
    for r in range(rows):
        top_line = []
        mid_line = []
        for c in range(cols):
            code = grid.walls[r][c]
            top_line.append("+")
            top_line.append("  " if side_open(code, TOP) else "--")
            mid_line.append(" " if side_open(code, LEFT) else "|")
            occ = density[r * cols + c]
            mid_line.append(f"{min(occ, 9)} " if occ else " .")
        top_line.append("+")
        last = grid.walls[r][cols - 1]
        mid_line.append(" " if side_open(last, RIGHT) else "|")
        canvas.append("".join(top_line))
        canvas.append("".join(mid_line))
    bottom = []
    for c in range(cols):
        code = grid.walls[rows - 1][c]
        bottom.append("+")
        bottom.append("  " if side_open(code, BOTTOM) else "--")
    bottom.append("+")
    canvas.append("".join(bottom))
    return "\n".join(canvas) + "\n"
