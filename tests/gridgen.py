"""Seeded random connected layouts and schedules for property and fuzz tests."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from mesoped.engine import SpawnEntry
from mesoped.layout import BOTTOM, LEFT, RIGHT, TOP, LayoutGrid
from oracle import distance_field

Cell = tuple[int, int]

_EDGE_BITS = {(0, 1): (RIGHT, LEFT), (1, 0): (BOTTOM, TOP)}


def _closed_room(rows: int, cols: int) -> list[list[int]]:
    walls = [[0] * cols for _ in range(rows)]
    for c in range(cols):
        walls[0][c] |= TOP
        walls[rows - 1][c] |= BOTTOM
    for r in range(rows):
        walls[r][0] |= LEFT
        walls[r][cols - 1] |= RIGHT
    return walls


def _close(walls: list[list[int]], cell: Cell, step: Cell) -> None:
    (r, c), (dr, dc) = cell, step
    here, there = _EDGE_BITS[(dr, dc)]
    walls[r][c] |= here
    walls[r + dr][c + dc] |= there


def _open(walls: list[list[int]], cell: Cell, step: Cell) -> None:
    (r, c), (dr, dc) = cell, step
    here, there = _EDGE_BITS[(dr, dc)]
    walls[r][c] &= ~here
    walls[r + dr][c + dc] &= ~there


def _exterior_sides(rows: int, cols: int, cell: Cell) -> list[int]:
    r, c = cell
    sides = []
    if r == 0:
        sides.append(TOP)
    if r == rows - 1:
        sides.append(BOTTOM)
    if c == 0:
        sides.append(LEFT)
    if c == cols - 1:
        sides.append(RIGHT)
    return sides


def _grid_from(rows: int, cols: int, walls: list[list[int]],
               sinks: list[tuple[Cell, float]],
               sources: list[Cell]) -> LayoutGrid:
    return LayoutGrid(rows=rows, cols=cols, cell_size_m=1.0,
                      wall_codes=bytes(code for row in walls for code in row),
                      sinks=tuple(sinks), sources=tuple(sources))


def random_grid(rng: np.random.Generator, max_rows: int = 30,
                max_cols: int = 30, wall_density: float = 0.25,
                max_sinks: int = 5, uniform_weights: bool = False,
                min_rows: int = 3, min_cols: int = 3) -> LayoutGrid:
    """Random walled room, 1-5 boundary exits, carved until fully connected.

    At least one cell is left for a source, so the room needs two cells.
    """
    rows = int(rng.integers(min_rows, max_rows + 1))
    cols = int(rng.integers(min_cols, max_cols + 1))
    if rows * cols < 2:
        raise ValueError(f"a {rows}x{cols} room has no cell left for a source")
    walls = _closed_room(rows, cols)
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols and rng.random() < wall_density:
                _close(walls, (r, c), (0, 1))
            if r + 1 < rows and rng.random() < wall_density:
                _close(walls, (r, c), (1, 0))

    boundary = [(r, c) for r in range(rows) for c in range(cols)
                if r in (0, rows - 1) or c in (0, cols - 1)]
    n_sinks = int(rng.integers(1, min(max_sinks, rows * cols - 1) + 1))
    picks = rng.permutation(len(boundary))[:n_sinks]
    sinks: list[tuple[Cell, float]] = []
    for i in picks:
        cell = boundary[int(i)]
        ext = _exterior_sides(rows, cols, cell)
        side = ext[int(rng.integers(len(ext)))]
        walls[cell[0]][cell[1]] &= ~side
        weight = 1.0 if uniform_weights else round(float(rng.uniform(0.5, 3.0)), 3)
        sinks.append((cell, weight))

    sink_cells = {cell for cell, _ in sinks}
    open_cells = [(r, c) for r in range(rows) for c in range(cols)
                  if (r, c) not in sink_cells]
    # Carve shared edges until every cell can reach a sink.
    while True:
        probe = _grid_from(rows, cols, walls, sinks, open_cells[:1])
        dist = distance_field(probe)
        if np.isfinite(dist).all():
            break
        frontier: list[tuple[Cell, Cell]] = []
        for r in range(rows):
            for c in range(cols):
                if np.isfinite(dist[r, c]):
                    continue
                for dr, dc in ((0, 1), (1, 0)):
                    rr, cc = r + dr, c + dc
                    if rr < rows and cc < cols and np.isfinite(dist[rr, cc]):
                        frontier.append(((r, c), (dr, dc)))
                for dr, dc in ((0, -1), (-1, 0)):
                    rr, cc = r + dr, c + dc
                    if rr >= 0 and cc >= 0 and np.isfinite(dist[rr, cc]):
                        frontier.append(((rr, cc), (-dr, -dc)))
        cell, step = frontier[int(rng.integers(len(frontier)))]
        _open(walls, cell, step)

    n_sources = int(rng.integers(1, 4))
    picks = rng.permutation(len(open_cells))[:n_sources]
    sources = [open_cells[int(i)] for i in picks]

    return _grid_from(rows, cols, walls, sinks, sources)


def corridor_layout(length: int) -> str:
    """Layout text of a 1 x length corridor: source at the west end, sink at the east."""
    return (f"1 {length} 1.0\n11 " + "10 " * (length - 2)
            + f"14\nsink 0 {length - 1} 1\nsource 0 0\n")


def open_hall(size: int, exit_width: int = 4) -> LayoutGrid:
    """Closed size x size hall with a centred east exit and one west source."""
    walls = _closed_room(size, size)
    first = size // 2 - exit_width // 2
    sinks = []
    for r in range(first, first + exit_width):
        walls[r][size - 1] &= ~RIGHT
        sinks.append(((r, size - 1), 1.0))
    return _grid_from(size, size, walls, sinks, [(size // 2, 0)])


def walled_hall(size: int) -> LayoutGrid:
    """Closed size x size hall (size >= 20) cut by three interior wall
    segments, with exits of weight 1 and 2.5 on the east wall and of weight 7
    on the north wall: frontiers are wide, and each exit is the best one for
    a region of the hall at gamma 0.5 and at 0.9."""
    walls = _closed_room(size, size)
    third = size // 3
    for c in range(third // 2, 2 * third):        # below row `third`
        _close(walls, (third, c), (1, 0))
    for r in range(third + 1, size - 3):          # east of column `third`
        _close(walls, (r, third), (0, 1))
    for r in range(3, 2 * third):                 # east of column 2 * `third`
        _close(walls, (r, 2 * third), (0, 1))
    sinks = []
    for cells, side, weight in (
            ([(r, size - 1) for r in range(size - 8, size - 5)], RIGHT, 1.0),
            ([(r, size - 1) for r in range(2, 5)], RIGHT, 2.5),
            ([(0, c) for c in range(6, 9)], TOP, 7.0)):
        for r, c in cells:
            walls[r][c] &= ~side
            sinks.append(((r, c), weight))
    return _grid_from(size, size, walls, sinks, [(size // 2, 0)])


def closed_room(rows: int, cols: int) -> LayoutGrid:
    """Closed rows x cols room with no inner wall, its sink in the north-west
    corner and its source in the south-east one."""
    return _grid_from(rows, cols, _closed_room(rows, cols), [((0, 0), 1.0)],
                      [(rows - 1, cols - 1)])


def keep_sinks(grid: LayoutGrid, kept: list[tuple[Cell, float]]) -> LayoutGrid:
    """`grid` with only the sinks `kept`, each dropped sink's exterior sides
    closed, so that the room stays closed; the moves inside are unchanged."""
    kept_cells = {cell for cell, _ in kept}
    codes = bytearray(grid.wall_codes)
    for cell, _ in grid.sinks:
        if cell not in kept_cells:
            for side in _exterior_sides(grid.rows, grid.cols, cell):
                codes[grid.index(cell)] |= side
    return replace(grid, wall_codes=bytes(codes), sinks=tuple(kept))


def refined(grid: LayoutGrid) -> LayoutGrid:
    """`grid` at twice the resolution, cells of half the size: each cell is
    four, open to each other, that keep its outer sides; each sink's four
    cells are sinks of its weight, and each source's north-west cell is a
    source."""
    codes = []
    for r in range(2 * grid.rows):
        for c in range(2 * grid.cols):
            code = grid.wall_codes[grid.index((r // 2, c // 2))]
            codes.append(code & ((BOTTOM if r % 2 else TOP) | (RIGHT if c % 2 else LEFT)))
    return LayoutGrid(rows=2 * grid.rows, cols=2 * grid.cols, cell_size_m=grid.cell_size_m / 2,
                      wall_codes=bytes(codes),
                      sinks=tuple(((2 * r + dr, 2 * c + dc), w) for (r, c), w in grid.sinks
                                  for dr in (0, 1) for dc in (0, 1)),
                      sources=tuple((2 * r, 2 * c) for r, c in grid.sources))


def random_schedule(rng: np.random.Generator, grid: LayoutGrid,
                    max_count: int = 8, max_release: int = 10
                    ) -> tuple[SpawnEntry, ...]:
    """One to three spawn entries per source with random counts and releases."""
    entries = []
    for cell in grid.sources:
        for _ in range(int(rng.integers(1, 4))):
            entries.append(SpawnEntry(cell, int(rng.integers(1, max_count + 1)),
                                      int(rng.integers(0, max_release + 1))))
    return tuple(entries)
