"""Navigation fields: the exact fixed point of the Q-learning update.

The paper's field is the fixed point of Q(i, j) = R(i, j) + gamma * max_k
Q(j, k) over the permitted-move graph, where only moves into a sink earn a
reward (base_reward times the sink's weight) and end the walk. At that
fixed point a sink holds its reward and every other cell holds gamma times
its best neighbour, F(i) = gamma * max_{j in moves(i)} F(j): the same single
multiply value iteration performs, so the values are bit-identical to value
iteration run until nothing changes (the tests keep that solver as the
oracle). Cells with no path to a sink hold 0. Doubles bound the reach: with
base reward 100 the values bottom out at the smallest subnormals after about
3,350 hops at gamma 0.8 (the field is flat beyond), and round to 0 after
about 1,080 hops at gamma 0.5.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .layout import LayoutGrid

DEFAULT_GAMMA = 0.8
DEFAULT_BASE_REWARD = 100.0


@dataclass(frozen=True)
class FloorField:
    """Per-cell navigation values, and the frontier rounds the solve took."""

    values: np.ndarray
    rounds: int

    @cached_property
    def distinct(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct values, one per bit pattern in ascending bit order,
        and each cell's index into them, shaped like `values`."""
        values = np.asarray(self.values, dtype=np.float64)
        bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
        return bits.view(np.float64), inverse.reshape(values.shape)


def compute_field(grid: LayoutGrid, gamma: float = DEFAULT_GAMMA,
                  base_reward: float = DEFAULT_BASE_REWARD) -> FloorField:
    """Solve the field exactly by relaxing a frontier outward from the sinks.

    Each round recomputes only the non-sink cells next to a cell that rose
    in the previous round, and keeps a new value where it is larger; the
    solve ends when a round raises nothing. Looking only at the neighbours
    of risen cells relies on the move table being symmetric.
    """
    if not 0 < gamma < 1:
        raise ValueError(f"gamma must be in (0, 1), got {gamma}")
    n = grid.rows * grid.cols
    # Direction-major: gathering a cell set's neighbours with `take` along
    # axis 1 and reducing over axis 0 reads each direction contiguously,
    # several times faster than indexing rows of the (n, 8) table.
    nbr = grid.neighbours.T
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
    return FloorField(values=values[:n].reshape(grid.rows, grid.cols), rounds=rounds)


def field_to_csv(field: FloorField) -> str:
    """Full-precision CSV, one line per grid row.

    A solved field holds few distinct values (base reward x weight x
    gamma^hops), so each distinct bit pattern is formatted once; the text of
    a value depends only on its bits, -0.0 and subnormals included.
    """
    distinct, index = field.distinct
    text = np.array([repr(v) for v in distinct.tolist()], dtype=object)
    cells = text[index].tolist()
    return "".join([",".join(row) + "\n" for row in cells])
