"""Reference field solver: the paper's Q-learning update by value iteration.

Synchronous sweeps of Q(i, j) = R(i, j) + gamma * max_k Q(j, k) over a CSR
matrix holding each cell's permitted moves plus a self loop. Only moves into
a sink earn a reward, base_reward times the sink's weight, and they end the
walk, so sink rows hold only their self loop. The sweeps run until no entry
changes; the diagonal Q(i, i) is the navigation field. It costs one sweep
over every move per hop of grid diameter, so it serves only as the oracle
that `mesoped.floorfield.compute_field` must match bit for bit.
"""

from __future__ import annotations

import numpy as np

from mesoped.floorfield import DEFAULT_BASE_REWARD, DEFAULT_GAMMA
from mesoped.layout import DIR_VECTORS, LayoutGrid, moves_of


def value_iteration(grid: LayoutGrid, gamma: float = DEFAULT_GAMMA,
                    base_reward: float = DEFAULT_BASE_REWARD) -> np.ndarray:
    """The rows x cols field at the fixed point of synchronous value iteration."""
    cols = grid.cols
    sink_w = {grid.index(cell): w for cell, w in grid.sinks}
    indptr, indices, diag = [0], [], []
    for r in range(grid.rows):
        for c in range(cols):
            i = r * cols + c
            row = [i]
            if i not in sink_w:
                row += [(r + dr) * cols + c + dc
                        for dr, dc in (DIR_VECTORS[d] for d in moves_of(grid, (r, c)))]
            row.sort()
            diag.append(len(indices) + row.index(i))
            indices += row
            indptr.append(len(indices))
    dst = np.array(indices, dtype=np.int64)
    rewards = np.array([base_reward * sink_w[j] if j in sink_w else 0.0 for j in indices])
    bootstrap = np.array([j not in sink_w for j in indices], dtype=bool)
    q = rewards.copy()
    while True:
        v = np.maximum.reduceat(q, indptr[:-1])
        new = rewards.copy()
        new[bootstrap] += gamma * v[dst[bootstrap]]
        if np.array_equal(new, q):
            return q[diag].reshape(grid.rows, cols)
        q = new
