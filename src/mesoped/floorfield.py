"""Navigation fields: the exact fixed point of the Q-learning update.

The paper's field is the fixed point of Q(i, j) = R(i, j) + gamma * max_k
Q(j, k) over the permitted-move graph, where only moves into a sink earn a
reward (base_reward times the sink's weight) and end the walk. At that
fixed point a sink holds its reward and every other cell holds gamma times
its best neighbour, F(i) = gamma * max_{j in moves(i)} F(j): the same single
multiply value iteration performs, so the values are bit-identical to value
iteration run until nothing changes (the tests keep that solver as the
oracle). The solve runs in the compiled kernel (`step.c`). Cells with no
path to a sink hold 0. Doubles bound the reach: with base reward 100 the
values bottom out at the smallest subnormals after about 3,350 hops at
gamma 0.8 (the field is flat beyond), and round to 0 after about 1,080
hops at gamma 0.5.
"""

from __future__ import annotations

import ctypes
import math
from array import array
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .kernel import csv_blocks, kernel, packed
from .layout import Cell, LayoutGrid

DEFAULT_GAMMA = 0.8
DEFAULT_BASE_REWARD = 100.0


@dataclass(frozen=True)
class FloorField:
    """Per-cell navigation values (a read-only, C-contiguous (rows, cols)
    float64 view, which the kernel reads as it is; a caller's array stays
    writable), the frontier rounds the solve took, and `plateau`: the first
    non-sink cell in row-major order whose value is positive, subnormal and
    no lower than its best neighbour's, where agents find no ascent, or None."""

    values: np.ndarray
    rounds: int
    plateau: Cell | None = None

    def __post_init__(self) -> None:
        values = np.ascontiguousarray(self.values, dtype=np.float64).view()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


def compute_field(grid: LayoutGrid, gamma: float = DEFAULT_GAMMA,
                  base_reward: float = DEFAULT_BASE_REWARD) -> FloorField:
    """Solve the field exactly by relaxing a frontier outward from the sinks,
    in one call of the kernel's `solve` (step.c).

    Each round, every cell that rose in the previous round offers gamma times
    its value, read before the round, to its non-sink neighbours, and each
    cell offered more than it holds takes its best offer; the solve ends when
    a round raises nothing. The rounds and values are those of recomputing
    every offered cell's `gamma * max` of all its neighbours. Offering along
    a cell's own moves relies on the move table being symmetric. Each sink's
    reward, base_reward times its weight, must be positive and finite.
    """
    if not 0 < gamma < 1:
        raise ValueError(f"gamma must be in (0, 1), got {gamma}")
    n = grid.rows * grid.cols
    values = array("d", [0.0]) * n
    for cell, weight in grid.sinks:
        reward = base_reward * weight
        if not 0 < reward < math.inf:
            raise ValueError(f"sink {cell} has reward {reward!r} (base_reward {base_reward!r} "
                             f"times weight {weight!r}), which is not positive and finite")
        values[grid.index(cell)] = reward
    work = array("i", [0]) * (3 * n)  # round marks, risen cells, a round's offered cells
    new = array("d", [0.0]) * n  # each cell's best offer in a round
    plateau = ctypes.c_int64()
    rounds = kernel().solve(grid.neighbours.obj.buffer_info()[0], grid.sink_flags, n, gamma,
                            values.buffer_info()[0], work.buffer_info()[0],
                            new.buffer_info()[0], ctypes.byref(plateau))
    return FloorField(values=np.frombuffer(values).reshape(grid.rows, grid.cols), rounds=rounds,
                      plateau=None if plateau.value < 0 else divmod(plateau.value, grid.cols))


def field_csv_blocks(field: FloorField) -> Iterator[bytes]:
    """Full-precision CSV, one line per grid row, in blocks of whole cells
    (`kernel.csv_blocks`).

    A solved field holds few values (base reward x weight x gamma^hops). The
    kernel's `number_values` numbers their distinct bit patterns, each is
    formatted once with `repr`, and the kernel's `field_csv` writes each
    cell's text. A value's text depends only on its bits, -0.0 and
    subnormals included.
    """
    n, cols = field.values.size, field.values.shape[1]
    lib = kernel()
    ids = array("i", [0]) * n
    slots = 1024
    while True:  # a table twice as large until it holds every pattern at half load
        table, distinct = array("i", [-1]) * slots, array("d", [0.0]) * (slots // 2)
        count = lib.number_values(field.values.ctypes.data, n, ids.buffer_info()[0],
                                  distinct.buffer_info()[0], table.buffer_info()[0], slots)
        if count >= 0:
            break
        slots *= 2
    texts = [repr(v) for v in distinct[:count]]
    text, ends = packed(texts)
    at = array("q", [0])
    yield from csv_blocks(lambda block, room: lib.field_csv(
        ids.buffer_info()[0], n, cols, text, ends.buffer_info()[0], at.buffer_info()[0],
        block, room), max(map(len, texts)) + 1)
