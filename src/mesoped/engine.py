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
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, pairwise

import numpy as np

from .layout import Cell, LayoutGrid
from .floorfield import FloorField

# Mean of the inscribed and circumscribed circle diameters of a square cell.
DIAMETER_FACTOR = (1.0 + math.sqrt(2.0)) / 2.0

# Event kind codes as stored in `EventLog.kinds`: the index into KINDS.
KINDS = ("spawn", "move", "stay", "exit")
SPAWN, MOVE, STAY, EXIT = range(len(KINDS))


@dataclass(frozen=True)
class SpeedDensityTable:
    """Walking speed (m/s) and entry probability by density: `speeds[d]` and
    `probs[d]` for a cell already holding d agents.

    Both columns must be non-increasing and the final entry probability zero,
    so a cell fills up before it jams solid.
    """

    speeds: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.speeds) != len(self.probs):
            raise ValueError(f"{len(self.speeds)} speeds but {len(self.probs)} entry probabilities")
        if not self.speeds:
            raise ValueError("speed-density table is empty")
        for d, (u, p) in enumerate(zip(self.speeds, self.probs)):
            if not 0 <= u < math.inf:
                raise ValueError(f"speed {u} at density {d} is not a finite non-negative number")
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"entry probability {p} at density {d} outside [0, 1]")
        for column, name in ((self.speeds, "speed"), (self.probs, "entry probability")):
            if any(a < b for a, b in pairwise(column)):
                raise ValueError(f"{name} must be non-increasing in density")
        if self.probs[-1] != 0.0:
            raise ValueError("entry probability must be 0 at the final row")
        if self.probs[0] <= 0.0:
            raise ValueError("entry probability at density 0 must be positive")
        if 0.0 in self.speeds[:self.capacity]:
            raise ValueError(f"speed 0 at density {self.speeds.index(0.0)}, which a cell can "
                             "reach, would hold its agents in place forever")

    @cached_property
    def capacity(self) -> int:
        """Max occupancy a cell can reach: last enterable density plus one."""
        return max(d for d, p in enumerate(self.probs) if p > 0.0) + 1


MESO_TABLE = SpeedDensityTable(speeds=(1.44, 1.12, 0.84, 0.56, 0.28, 0.00),
                               probs=(1.0, 0.8, 0.6, 0.4, 0.2, 0.0))

# Half-meter cells hold a single agent; blocking, not slowdown, carries the
# congestion effect.
MICRO_TABLE = SpeedDensityTable(speeds=(1.44, 0.00), probs=(1.0, 0.0))


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

    def append(self, agent: int, kind: int, at: int) -> None:
        """Log agent `agent` doing `kind` (a code: SPAWN, MOVE, STAY or EXIT)
        at flat cell `at`, in the step that `open_step` opened last."""
        self.agents.append(agent)
        self.kinds.append(kind)
        self.cells.append(at)

    def spans(self) -> Iterator[tuple[int, int]]:
        """Each logged step's event index range `(lo, hi)`, in step order."""
        return pairwise(chain(self.starts, (len(self.kinds),)))

    def __iter__(self):
        """Each event as a `(step, clock, agent, kind, row, col)` tuple."""
        for step, (lo, hi) in enumerate(self.spans()):
            clock = step * self.dt
            for k in range(lo, hi):
                yield (step, clock, self.agents[k], KINDS[self.kinds[k]],
                       *divmod(self.cells[k], self.cols))


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
                state.log.append(aid, SPAWN, idx)
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
                log.append(aid, EXIT, at[aid])
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

    def run(self, max_steps: int) -> SimulationState:
        """Step until everyone has exited or `max_steps` intervals elapse."""
        for _ in range(max_steps):
            if self.completed:
                break
            self.step()
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


def events_csv_blocks(log: EventLog) -> Iterator[bytes | bytearray]:
    """The log as CSV, built in numpy: the header, then the lines of each
    block of `CSV_BLOCK_EVENTS` events, so memory does not grow with the log.

    A line is five pieces, each looked up in a small table: `step,clock,`
    (one entry per step that has events), the agent id, `,kind,`, `row,` and
    `col\n`. A block gathers its pieces into one fixed-width row of bytes per
    event and drops the NUL padding. The bytes equal the per-event f-string
    writer kept in `tests/oracle.py`. The log cannot grow until the last
    block is drawn: numpy holds its columns' buffers.
    """
    yield CSV_HEADER
    n = len(log.kinds)
    if not n:
        return
    starts = np.frombuffer(log.starts, dtype=np.intc)
    steps = np.flatnonzero(np.diff(starts, append=n))
    first = starts[steps]  # each step's first event, for the steps that have one
    agents = np.frombuffer(log.agents, dtype=np.intc)
    kinds = np.frombuffer(log.kinds, dtype=np.uint8)
    cells = np.frombuffer(log.cells, dtype=np.intc)
    cols = log.cols
    # Fixed-width, NUL-padded tables (numpy's `S` dtype).
    tables = [np.array(pieces, dtype=bytes) for pieces in (
        [b"%d,%r," % (s, s * log.dt) for s in steps.tolist()],
        [b"%d" % a for a in range(int(agents.max()) + 1)],
        [b",%s," % name.encode() for name in KINDS],
        [b"%d," % r for r in range(int(cells.max()) // cols + 1)],
        [b"%d\n" % c for c in range(cols)],
    )]
    line = np.dtype([(f"f{k}", t.dtype) for k, t in enumerate(tables)])
    raw = bytearray(CSV_BLOCK_EVENTS * line.itemsize)
    block = np.frombuffer(raw, line)
    for lo in range(0, n, CSV_BLOCK_EVENTS):
        hi = min(lo + CSV_BLOCK_EVENTS, n)
        block[hi - lo:] = np.zeros((), line)  # a short last block leaves only NULs behind
        step_of = np.searchsorted(first, np.arange(lo, hi), side="right") - 1
        r, c = np.divmod(cells[lo:hi], cols)
        for name, table, keys in zip(line.names, tables,
                                     (step_of, agents[lo:hi], kinds[lo:hi], r, c)):
            block[name][:hi - lo] = table.take(keys)
        yield raw.translate(None, b"\0")
