"""Discrete-time movement engine with density-coupled speeds and entry odds.

Agents dwell in a cell until the clock covers the cell diameter at the
density-dependent walking speed, then hop to the permitted neighbor with the
highest product of entry probability and navigation value. All decisions in
a step happen at the step's end-of-interval clock; an agent standing on a
sink is absorbed at the start of the following step.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import shlex
import subprocess
import sysconfig
from array import array
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain, pairwise
from pathlib import Path

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
        self.kinds = array("B")
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


class KernelBuildError(Exception):
    """The C step kernel could not be compiled."""


KERNEL_SOURCE = Path(__file__).with_name("step.c")
# -ffp-contract=off keeps `a * b` and `a + b` two roundings, as in Python;
# -ffast-math would let the compiler reorder them.
CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
# When the kernel runs out of room in a run, the log and agent columns double,
# but by at most this many items, so that a run's spare room stays bounded.
LOG_HEADROOM = 1 << 14


def bitgen(rng: np.random.Generator) -> tuple[int, int]:
    """The addresses of `rng`'s `next_uint32` function and of its state, for
    the kernel's draws; `rng` must outlive their use."""
    handle = rng.bit_generator.ctypes
    return ctypes.cast(handle.next_uint32, ctypes.c_void_p).value, handle.state_address


class _Run(ctypes.Structure):
    """`struct run` of step.c: the run's tables, its state and its log, as addresses and counts."""

    _fields_ = [(name, ctypes.c_void_p) for name in (
        "nbr", "values", "sink", "probs", "dwell", "next", "bitgen", "density", "at", "t_in",
        "present", "arrived", "order", "pending", "starts", "log_agents", "log_kinds",
        "log_cells")] + [(name, ctypes.c_int64) for name in (
        "cells", "capacity", "steps", "step", "agents", "agent_room", "n_present", "n_arrived",
        "n_pending", "n_starts", "starts_room", "events", "event_room", "need_agents",
        "need_events")] + [("dt", ctypes.c_double)]


def compiler() -> list[str]:
    """The C compiler command: `$CC`, else the one Python was built with."""
    return shlex.split(os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc")


def kernel_path() -> Path:
    """Where the library built from `step.c` lives: next to the source, or in
    `$XDG_CACHE_HOME/mesoped` (default `~/.cache/mesoped`) when the package
    directory is not writable. Its name is keyed by the sha256 of the
    source and the flags."""
    key = hashlib.sha256(b"\0".join([KERNEL_SOURCE.read_bytes(), *map(str.encode, CFLAGS)]))
    name = f"_step-{key.hexdigest()[:16]}.so"
    if os.access(KERNEL_SOURCE.parent, os.W_OK):
        return KERNEL_SOURCE.parent / name
    return Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "mesoped" / name


def _build_kernel(path: Path) -> None:
    """Compile `step.c` into `path` under a temporary name, then rename it
    into place, so that concurrent builds do not collide."""
    cc = compiler()
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        subprocess.run([*cc, *CFLAGS, "-o", str(tmp), str(KERNEL_SOURCE)],
                       check=True, capture_output=True, text=True)
        os.replace(tmp, path)
    except (OSError, subprocess.CalledProcessError) as exc:
        reason = " ".join((getattr(exc, "stderr", "") or str(exc)).split())
        raise KernelBuildError(f"cannot compile {KERNEL_SOURCE} with C compiler "
                               f"{shlex.join(cc)!r} (set CC to choose one): {reason}") from None
    finally:
        tmp.unlink(missing_ok=True)


@cache
def kernel() -> ctypes.CDLL:
    """The step kernel, built on first use unless a build is cached."""
    path = kernel_path()
    if not path.exists():
        _build_kernel(path)
    lib = ctypes.CDLL(str(path))
    lib.run.argtypes, lib.run.restype = [ctypes.POINTER(_Run), ctypes.c_int], ctypes.c_int
    # each draw's last two arguments are the addresses that `bitgen` returns
    lib.shuffle.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p]
    lib.shuffle.restype = None
    lib.draw.argtypes = [ctypes.c_uint64, ctypes.c_void_p, ctypes.c_void_p]
    lib.draw.restype = ctypes.c_uint64
    return lib


def _extend(col: array, by: int) -> None:
    """Append `by` zero items to an `array` column."""
    col.frombytes(bytes(by * col.itemsize))


class SimulationState:
    """Mutable per-run state: agent columns, density, pending spawns, event log.

    Every column is an `array` that the kernel reads and writes in place.
    Agent ids count up from 0 in spawn order and index the columns: `at[a]`
    is agent a's flat cell and `t_in[a]` the clock at which it entered it.
    `present` holds the ids still inside, ascending; the rest is in the log.
    """

    def __init__(self, grid: LayoutGrid, rng: np.random.Generator,
                 schedule: tuple[SpawnEntry, ...], dt: float) -> None:
        self.step_index = 0
        self.rng = rng
        self.density = array("i", [0]) * (grid.rows * grid.cols)
        self.at = array("i")
        self.t_in = array("d")
        self.present = array("i")
        self.log = EventLog(dt, grid.cols)
        # flat cell, remaining, release_step of each unspent entry, one after another
        self.pending = array("q", chain.from_iterable(
            (grid.index(e.cell), e.count, e.release_step) for e in schedule))
        # ids that moved onto a sink this step, to exit next step
        self.arrived = array("i")

    @property
    def clock(self) -> float:
        return self.step_index * self.log.dt

    @property
    def spawned(self) -> int:
        return len(self.at)

    @property
    def pending_count(self) -> int:
        return sum(self.pending[1::3])


class Simulation:
    """Owns one run: layout, field, table, schedule, state, and the event log.

    The steps themselves are made by the C kernel in `step.c` (`kernel()`),
    compiled at the first `Simulation` of a process unless a build is
    cached. It reads the layout's direction-major neighbour table
    (`LayoutGrid.neighbours.T`) and sink flags, the field values, and the
    table's entry probabilities and dwell times by density. It reads and
    writes `SimulationState`'s `array` columns in place: each `run` or `step`
    gives the agent columns room, makes its steps in one kernel call
    (re-entered only to grow the log or the agents), and cuts off the room
    left over.
    """

    def __init__(self, grid: LayoutGrid, field: FloorField,
                 table: SpeedDensityTable, schedule: tuple[SpawnEntry, ...] = (),
                 dt: float = 0.5, seed: int | np.random.SeedSequence | None = 0) -> None:
        if not 0 < dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {dt}")
        for entry in schedule:
            if entry.cell not in grid.source_set or entry.cell in grid.sink_set:
                raise ValueError(f"spawn cell {entry.cell} is not a layout source, or is a sink")
            if not (0 <= entry.count < 2**63 and 0 <= entry.release_step < 2**63):
                raise ValueError(f"bad spawn entry {entry}")
        if np.shape(field.values) != (grid.rows, grid.cols):
            raise ValueError(f"field of shape {np.shape(field.values)} on a "
                             f"{grid.rows}x{grid.cols} grid")
        self.grid = grid
        self.field = field
        self.table = table
        self._kernel = kernel()
        self.state = SimulationState(grid, np.random.default_rng(seed), schedule, float(dt))
        self._order = array("i")  # the kernel's scratch column for each step's shuffle
        # Time to cross a cell for each count of other occupants; inf where
        # the speed is 0 and the agent cannot leave.
        diameter = grid.cell_size_m * DIAMETER_FACTOR
        self._inputs = inputs = (
            grid.neighbours.T, np.ascontiguousarray(field.values, dtype=np.float64),
            # a cell as full as the table is long takes no one, as at its last row
            np.frombuffer(grid.sink_flags, dtype=np.uint8), np.array([*table.probs, 0.0]),
            np.array([diameter / u if u > 0.0 else math.inf for u in table.speeds]))
        self._run = _Run(*(a.ctypes.data for a in inputs), *bitgen(self.state.rng),
                         cells=grid.rows * grid.cols, capacity=table.capacity, dt=dt)
        # Step 0 is the release of the agents due when the clock starts, alone.
        self.state.step_index = -1
        self._advance(1, until_done=False)

    def _advance(self, steps: int, until_done: bool) -> None:
        """Make up to `steps` steps in the kernel, stopping once the run is
        complete when `until_done`; the kernel writes the state's columns."""
        state, log, r = self.state, self.state.log, self._run
        # numpy's max on a passing view; the builtin's is a Python loop over the cells
        if np.frombuffer(state.density, dtype=np.intc).max() > len(self.table.probs):
            raise ValueError("a cell holds more agents than the speed-density table has rows")
        r.n_present, r.n_arrived = len(state.present), len(state.arrived)
        r.n_pending = len(state.pending) // 3
        # at, t_in, present, arrived and the shuffle's order, each with room for every agent
        agent_cols = (state.at, state.t_in, state.present, state.arrived, self._order)
        for col in agent_cols[2:]:
            _extend(col, len(state.at) - len(col))
        log_cols = (log.agents, log.kinds, log.cells)
        r.steps, r.step = max(0, min(steps, 2**63 - 1)), state.step_index
        r.agents = r.agent_room = len(state.at)
        r.events = r.event_room = len(log.kinds)
        r.n_starts = r.starts_room = len(log.starts)
        r.density, r.pending = state.density.buffer_info()[0], state.pending.buffer_info()[0]
        while True:
            for name, col in zip(("at", "t_in", "present", "arrived", "order", "starts",
                                  "log_agents", "log_kinds", "log_cells"),
                                 (*agent_cols, log.starts, *log_cols)):
                setattr(r, name, col.buffer_info()[0])
            if not self._kernel.run(r, until_done):
                break
            # Room for the next step at least; else the columns double, up to
            # a block of LOG_HEADROOM items, but no further than the steps left need.
            for cols, room, used, need in ((log_cols, "event_room", r.events, r.need_events),
                                           (agent_cols, "agent_room", r.agents, r.need_agents),
                                           ((log.starts,), "starts_room", r.n_starts, 1)):
                if getattr(r, room) - used < need:
                    by = max(need, min(LOG_HEADROOM, used, r.steps * need))
                    for col in cols:
                        _extend(col, by)
                    setattr(r, room, getattr(r, room) + by)
        for col, n in zip((log.starts, *log_cols, *agent_cols, state.pending),
                          (r.n_starts, r.events, r.events, r.events, r.agents, r.agents,
                           r.n_present, r.n_arrived, 0, 3 * r.n_pending)):
            del col[n:]
        state.step_index = r.step

    def step(self) -> SimulationState:
        """Advance one interval: spawn, absorb last step's sink arrivals, move the rest.

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
