"""Discrete-time movement engine with density-coupled speeds and entry odds.

Agents dwell in a cell until the clock covers the cell diameter at the
density-dependent walking speed, then hop to the permitted neighbor with the
highest product of entry probability and navigation value. All decisions in
a step happen at the step's end-of-interval clock; an agent standing on a
sink exits at the start of the following step.
"""

from __future__ import annotations

import ctypes
import math
import operator
import os
from array import array
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, pairwise

from .floorfield import FloorField
from .kernel import csv_blocks, kernel, packed
from .layout import Cell, LayoutGrid

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


def _copied(name: str) -> property:
    """A property that reads the private `array` column `name` as a read-only
    copy: a `memoryview` whose `.obj` is a `bytes`, not the column."""
    def read(self) -> memoryview:
        col = getattr(self, name)
        return memoryview(col.tobytes()).cast(col.typecode)
    return property(read)


class EventLog:
    """A run's events in order, as flat columns.

    Event k is agent `agents[k]` doing `KINDS[kinds[k]]` at flat cell
    `cells[k]` (row * cols + col). The step kernel alone writes the columns,
    private `array`s, step by step: `starts[s]` is the index of the first
    event of step s or later, so step s owns events `starts[s]` up to
    `starts[s + 1]` (or the end); a new log holds no step. No clock is
    stored, because the clock of step s is always `s * dt`. Each read of
    `starts`, `agents` or `cells` is a read-only copy, and of `kinds` a
    `bytes`, so no caller can write or pin what the kernel writes.
    """

    def __init__(self, dt: float, cols: int) -> None:
        self.dt = dt
        self.cols = cols
        self._starts, self._agents, self._kinds, self._cells = (
            array("i"), array("i"), array("B"), array("i"))

    starts, agents, cells = map(_copied, ("_starts", "_agents", "_cells"))
    kinds = property(lambda self: bytes(self._kinds))

    def spans(self) -> Iterator[tuple[int, int]]:
        """Each logged step's event index range `(lo, hi)`, in step order."""
        return pairwise(chain(self._starts, (len(self._kinds),)))

    def __iter__(self):
        """Each event as a `(step, clock, agent, kind, row, col)` tuple."""
        for step, (lo, hi) in enumerate(self.spans()):
            clock = step * self.dt
            for k in range(lo, hi):
                yield (step, clock, self._agents[k], KINDS[self._kinds[k]],
                       *divmod(self._cells[k], self.cols))


# When the kernel runs out of room in a run, the log and agent columns double,
# but by at most this many items, so that a run's spare room stays bounded.
LOG_HEADROOM = 1 << 14
MAX_EVENTS = 2**31 - 1  # the most a log holds, since its step starts are int32
MAX_AGENTS = 2**31 - 1  # the most a schedule holds, since agent ids are int32
# What the kernel's `run` returns (step.c).
DONE, ROOM, FULL_LOG = range(3)


# numpy's SeedSequence: the entropy words are hashed into a pool of four
# 32-bit words (INIT_A, MULT_A, MIX_MULT_L, MIX_MULT_R), which is hashed out
# into the generator's seed words (INIT_B, MULT_B).
INIT_A, MULT_A, INIT_B, MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
POOL_SIZE = 4
MASK32, MASK128 = 2**32 - 1, 2**128 - 1
# numpy's PCG64 multiplier, also in step.c.
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def entropy_words(seed: int | Sequence[int] | None) -> list[int]:
    """The 32-bit words that numpy's `SeedSequence(seed)` takes as entropy:
    an int's words from the lowest up (0 is one word), the words of a list's,
    tuple's or range's ints one int after another, and for None an int of
    128 bits from `os.urandom`."""
    if seed is None:
        seed = int.from_bytes(os.urandom(16), "little")
    if hasattr(seed, "generate_state"):
        raise TypeError(f"seed SeedSequence(entropy={seed.entropy!r}) is not an int or a "
                        f"sequence of ints: pass its entropy, {seed.entropy!r}, as the seed")
    words = []
    for n in seed if isinstance(seed, (list, tuple, range)) else (seed,):
        try:
            n = operator.index(n)
        except TypeError:
            raise TypeError(f"seed {seed!r} is not an int or a sequence of ints") from None
        if n < 0:
            raise ValueError(f"seed {seed!r} holds a negative int")
        words += [n >> k & MASK32 for k in range(0, max(n.bit_length(), 1), 32)]
    return words


def seed_words(entropy: list[int]) -> list[int]:
    """numpy's `SeedSequence(entropy).generate_state(4, np.uint64)`: the four
    64-bit words that PCG64 is seeded from."""
    mult = INIT_A

    def hashmix(value: int) -> int:
        nonlocal mult
        value ^= mult
        mult = mult * MULT_A & MASK32
        value = value * mult & MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (MIX_MULT_L * x - MIX_MULT_R * y) & MASK32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(POOL_SIZE)]
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[POOL_SIZE:]:
        for dst in range(POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    out, mult = [], INIT_B
    for i in range(8):
        value = pool[i % POOL_SIZE] ^ mult
        mult = mult * MULT_B & MASK32
        value = value * mult & MASK32
        out.append(value ^ value >> 16)
    return [lo | hi << 32 for lo, hi in zip(out[::2], out[1::2])]


class PCG64(ctypes.Structure):
    """`struct pcg64` of step.c: numpy's PCG64, whose state the kernel's
    draws advance. `PCG64.from_seed(seed)` is in the state that
    `numpy.random.default_rng(seed)` starts in, for an int or a sequence of
    ints, and `state` reads as that generator's `bit_generator.state`."""

    _fields_ = [(name, ctypes.c_uint64) for name in (
        "state_hi", "state_lo", "inc_hi", "inc_lo")] + [
        ("has_uint32", ctypes.c_int), ("uinteger", ctypes.c_uint32)]

    @classmethod
    def from_seed(cls, seed: int | Sequence[int] | None) -> PCG64:
        # numpy's pcg64_set_seed, then srandom: a step from 0, initstate
        # added, and one more step
        w = seed_words(entropy_words(seed))
        initstate, initseq = w[0] << 64 | w[1], w[2] << 64 | w[3]
        inc = (initseq << 1 | 1) & MASK128
        state = ((inc + initstate) * PCG_MULT + inc) & MASK128
        return cls(*divmod(state, 2**64), *divmod(inc, 2**64))

    @property
    def state(self) -> dict:
        return {"bit_generator": "PCG64",
                "state": {"state": self.state_hi << 64 | self.state_lo,
                          "inc": self.inc_hi << 64 | self.inc_lo},
                "has_uint32": self.has_uint32, "uinteger": self.uinteger}


class _Run(ctypes.Structure):
    """`struct run` of step.c: the run's tables, its state and its log, as addresses and counts."""

    _fields_ = [(name, ctypes.c_void_p) for name in (
        "nbr", "values", "sink", "probs", "dwell", "rng", "density", "at", "t_in",
        "present", "order", "pending", "starts", "log_agents", "log_kinds",
        "log_cells")] + [(name, ctypes.c_int64) for name in (
        "cells", "capacity", "steps", "step", "agents", "agent_room", "n_present",
        "n_pending", "starts_room", "events", "event_room", "need_agents", "need_events")] + [
        ("dt", ctypes.c_double)]


class SimulationState:
    """Mutable per-run state: agent columns, density, pending spawns, event log.

    Every column is a private `array` that only the kernel writes, in place.
    Agent ids count up from 0 in spawn order and index the columns: `at[a]`
    is agent a's flat cell and `t_in[a]` the clock at which it entered it.
    `present` holds the ids still inside, ascending; the rest is in the log.
    An agent inside that stands on a sink exits at the start of the next step.
    `density` is the count of agents inside by flat cell, which the kernel
    keeps as agents spawn, move and exit. `pending` holds the unspent spawn
    entries, (flat cell, remaining, release step) one after another. Each
    read of `at`, `t_in`, `present`, `density` or `pending` is a read-only
    copy, so no caller can write, pin or free a column. None of them, nor
    `log`, `step_index` (the log's last step) or `rng` (the generator the
    kernel's draws advance), can be set.
    """

    def __init__(self, grid: LayoutGrid, rng: PCG64,
                 schedule: tuple[SpawnEntry, ...], dt: float) -> None:
        self._rng = rng
        self._density = array("i", [0]) * (grid.rows * grid.cols)
        self._at, self._t_in, self._present = array("i"), array("d"), array("i")
        self._log = EventLog(dt, grid.cols)
        self._pending = array("q", chain.from_iterable(
            (grid.index(e.cell), e.count, e.release_step) for e in schedule))

    rng = property(operator.attrgetter("_rng"))
    log = property(operator.attrgetter("_log"))
    at, t_in, present, density, pending = map(_copied, (
        "_at", "_t_in", "_present", "_density", "_pending"))
    step_index = property(lambda self: len(self._log._starts) - 1)

    @property
    def clock(self) -> float:
        return self.step_index * self._log.dt

    @property
    def spawned(self) -> int:
        return len(self._at)

    @property
    def pending_count(self) -> int:
        return sum(self._pending[1::3])


class Simulation:
    """Owns one run: layout, field, table, schedule, state, and the event log.

    The steps themselves are made by the C kernel in `step.c`
    (`mesoped.kernel.kernel()`), whose first use in a process, usually the
    move table, compiles it unless a build is cached. It reads the layout's
    direction-major neighbour table (`LayoutGrid.neighbours`), sink flags
    and field values in their owners' buffers, and the table's entry
    probabilities and dwell times by density. It reads and writes
    `SimulationState`'s private `array` columns in place: each `run` or
    `step` gives the agent columns room, makes its steps in one kernel call
    (re-entered only to grow the log or the agents), and cuts off the room
    left over. Callers read only copies, so each call goes on from the state
    the last one left, and nothing is checked on entry. The schedule is
    checked once, here; `grid` and `state` cannot be rebound.
    """

    def __init__(self, grid: LayoutGrid, field: FloorField,
                 table: SpeedDensityTable, schedule: tuple[SpawnEntry, ...] = (),
                 dt: float = 0.5, seed: int | Sequence[int] | None = 0) -> None:
        if not 0 < dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {dt}")
        for entry in schedule:
            if entry.cell not in grid.source_set:
                raise ValueError(f"spawn cell {entry.cell} is not a layout source")
            if not (0 <= entry.count < 2**63 and 0 <= entry.release_step < 2**63):
                raise ValueError(f"bad spawn entry {entry}")
        total = sum(entry.count for entry in schedule)
        if total > MAX_AGENTS:
            raise ValueError(f"schedule totals {total} agents; agent ids are int32, "
                             f"so at most {MAX_AGENTS} fit")
        if field.values.shape != (grid.rows, grid.cols):
            raise ValueError(f"field of shape {field.values.shape} on a "
                             f"{grid.rows}x{grid.cols} grid")
        self._grid = grid
        self._field = field
        self._table = table
        self._kernel = kernel()
        self._state = state = SimulationState(grid, PCG64.from_seed(seed), schedule, float(dt))
        self._order = array("i")  # the kernel's scratch column for each step's shuffle
        # Entry probabilities, 0 in a cell as full as the table is long; the time
        # to cross a cell for each count of other occupants, inf at speed 0.
        diameter = grid.cell_size_m * DIAMETER_FACTOR
        self._tables = probs, dwell = (array("d", [*table.probs, 0.0]), array("d", [
            diameter / u if u > 0.0 else math.inf for u in table.speeds]))
        self._run = _Run(grid.neighbours.obj.buffer_info()[0], field.values.ctypes.data,
                         ctypes.cast(grid.sink_flags, ctypes.c_void_p).value,
                         probs.buffer_info()[0], dwell.buffer_info()[0],
                         ctypes.addressof(state.rng), state._density.buffer_info()[0],
                         cells=grid.rows * grid.cols, capacity=table.capacity, dt=dt)
        # Step 0 is the release of the agents due when the clock starts, alone.
        self._advance(1, until_done=False)

    grid = property(operator.attrgetter("_grid"))
    state = property(operator.attrgetter("_state"))

    def _advance(self, steps: int, until_done: bool) -> None:
        """Make up to `steps` steps in the kernel, stopping once the run is
        complete when `until_done`; the kernel writes the state's columns."""
        state, log, r = self._state, self._state._log, self._run
        agent_cols = (state._at, state._t_in, state._present, self._order)
        log_cols = (log._agents, log._kinds, log._cells)
        # A column that holds a buffer export (`events_csv_blocks` holds the
        # log's while it is drained) cannot be resized: this empty cut raises
        # BufferError for it now, before the kernel changes anything.
        for col in (*agent_cols, *log_cols, log._starts, state._pending):
            del col[len(col):]
        r.n_present, r.n_pending = len(state._present), len(state._pending) // 3
        # at, t_in, present and the shuffle's order, each with room for every agent
        for col in agent_cols[2:]:
            col.frombytes(bytes((len(state._at) - len(col)) * col.itemsize))
        r.steps, r.step = max(0, min(steps, 2**63 - 1)), state.step_index
        r.agents, r.events = len(state._at), len(log._kinds)
        r.pending = state._pending.buffer_info()[0]
        while True:
            r.agent_room, r.event_room = len(state._at), len(log._kinds)
            r.starts_room = len(log._starts)
            (r.at, r.t_in, r.present, r.order, r.starts, r.log_agents, r.log_kinds,
             r.log_cells) = (col.buffer_info()[0] for col in (*agent_cols, log._starts, *log_cols))
            status = self._kernel.run(ctypes.byref(r), until_done)
            if status != ROOM:
                break
            # Room for the next step at least; else the columns double, up to
            # a block of LOG_HEADROOM items, but no further than the steps left need.
            for cols, used, need in ((log_cols, r.events, r.need_events),
                                     (agent_cols, r.agents, r.need_agents),
                                     ((log._starts,), r.step + 1, 1)):
                if len(cols[0]) - used < need:
                    by = max(need, min(LOG_HEADROOM, used, r.steps * need))
                    for col in cols:
                        col.frombytes(bytes(by * col.itemsize))
        for col, n in zip((log._starts, *log_cols, *agent_cols, state._pending),
                          (r.step + 1, r.events, r.events, r.events, r.agents, r.agents,
                           r.n_present, 0, 3 * r.n_pending)):
            del col[n:]
        if status == FULL_LOG:
            raise ValueError(f"step {r.step + 1} could take the log past {MAX_EVENTS} "
                             "events, its int32 limit")

    def step(self) -> SimulationState:
        """Advance one interval: spawn, exit the agents on a sink, move the rest.

        The agents inside are visited in a shuffled order. Each one whose
        dwell time has elapsed scores every permitted move as entry
        probability times navigation value, at densities that include moves
        made earlier in the step, and takes the best one. It stays when
        nothing scores above zero. Orthogonal moves are scored first, and a
        diagonal must beat them; a tie left is broken with the run's generator.
        The step is made even when nobody is inside or waiting.
        """
        self._advance(1, until_done=False)
        return self.state

    def run(self, max_steps: int) -> SimulationState:
        """Step until everyone has exited or `max_steps` intervals elapse."""
        self._advance(max_steps, until_done=True)
        return self.state

    # perfbench/tracer.py counts from this; it stays until the tracer reads state.log.
    @property
    def events(self) -> list[tuple[int, float, int, str, int, int]]:
        """The event log as `(step, clock, agent, kind, row, col)` tuples,
        built on each call; `state.log` holds the events themselves."""
        return list(self.state.log)

    @property
    def completed(self) -> bool:
        return not self._state._present and not self._state._pending


CSV_HEADER = b"step,clock_s,agent_id,event,row,col\n"
# The most bytes of a line after its `step,clock,`: an agent, a row and a
# column of up to 10 digits each, ",spawn,", a comma and the newline.
CSV_LINE_TAIL = 39


def events_csv_blocks(log: EventLog) -> Iterator[bytes]:
    """The log as CSV: the header, then blocks of whole lines
    (`kernel.csv_blocks`), so memory does not grow with the log.

    Python formats the `step,clock,` of each step that holds events once,
    with `%r` for the clock; the kernel's `events_csv` walks `starts` to
    each event's step and writes the lines. The bytes equal the per-event
    f-string writer kept in `tests/oracle.py`. The log cannot grow until the
    last block is drawn: the writer holds its columns' buffers. A log whose
    agent or cell is negative or whose kind is not an event code raises ValueError.
    """
    yield CSV_HEADER
    prefixes = ["%d,%r," % (s, s * log.dt) if lo < hi else ""
                for s, (lo, hi) in enumerate(log.spans())]
    text, ends = packed(prefixes)
    starts, *columns = [(ctypes.c_char * memoryview(col).nbytes).from_buffer(col)
                        for col in (log._starts, log._agents, log._kinds, log._cells)]
    at = array("q", [0, 0])
    lib = kernel()

    def fill(block: ctypes.Array, room: int) -> int:
        n = lib.events_csv(*columns, len(log._kinds), log.cols, starts, len(prefixes), text,
                           ends.buffer_info()[0], at.buffer_info()[0], block, room)
        if n < 0:
            raise ValueError(f"event {at[0]} of the log has a negative agent or cell, "
                             "or a kind that is not an event code")
        return n

    yield from csv_blocks(fill, max(map(len, prefixes), default=0) + CSV_LINE_TAIL)
