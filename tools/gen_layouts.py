"""Regenerate the bundled .layout files under src/mesoped/scenarios/.

Run from the repository root: python3 tools/gen_layouts.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mesoped.layout import (BOTTOM, LEFT, RIGHT, TOP, LayoutGrid,  # noqa: E402
                            parse_layout, serialize_layout)

OUT = Path(__file__).resolve().parent.parent / "src" / "mesoped" / "scenarios"


def open_room(rows: int, cols: int) -> list[list[int]]:
    """Open interior, fully closed perimeter."""
    walls = [[0] * cols for _ in range(rows)]
    for c in range(cols):
        walls[0][c] |= TOP
        walls[rows - 1][c] |= BOTTOM
    for r in range(rows):
        walls[r][0] |= LEFT
        walls[r][cols - 1] |= RIGHT
    return walls


def close_edge(walls: list[list[int]], a: tuple[int, int], b: tuple[int, int]) -> None:
    """Close the shared edge between orthogonal neighbors a and b."""
    (r1, c1), (r2, c2) = a, b
    if r2 == r1 and c2 == c1 + 1:
        walls[r1][c1] |= RIGHT
        walls[r2][c2] |= LEFT
    elif r2 == r1 and c2 == c1 - 1:
        walls[r1][c1] |= LEFT
        walls[r2][c2] |= RIGHT
    elif c2 == c1 and r2 == r1 + 1:
        walls[r1][c1] |= BOTTOM
        walls[r2][c2] |= TOP
    elif c2 == c1 and r2 == r1 - 1:
        walls[r1][c1] |= TOP
        walls[r2][c2] |= BOTTOM
    else:
        raise ValueError(f"{a} and {b} are not orthogonal neighbors")


def fill_cell(walls: list[list[int]], r: int, c: int) -> None:
    """Turn (r, c) into a solid obstacle, mirroring neighbor edges."""
    walls[r][c] = 15
    rows, cols = len(walls), len(walls[0])
    if r > 0:
        walls[r - 1][c] |= BOTTOM
    if r < rows - 1:
        walls[r + 1][c] |= TOP
    if c > 0:
        walls[r][c - 1] |= RIGHT
    if c < cols - 1:
        walls[r][c + 1] |= LEFT


def open_perimeter_side(walls: list[list[int]], r: int, c: int, side: int) -> None:
    walls[r][c] &= ~side


def emit(name: str, header: str, rows: int, cols: int, cell_size: float,
         walls: list[list[int]], sinks: list[tuple[int, int, float]],
         sources: list[tuple[int, int]]) -> None:
    grid = LayoutGrid(
        rows=rows, cols=cols, cell_size_m=cell_size,
        wall_codes=bytes(code for row in walls for code in row),
        sinks=tuple(((r, c), w) for r, c, w in sinks),
        sources=tuple(sources),
    )
    body = serialize_layout(grid)
    parse_layout(body)  # round-trip sanity before writing
    text = "\n".join("# " + ln if ln else "#" for ln in header.strip().splitlines())
    (OUT / name).write_text(text + "\n" + body)
    print(f"wrote {OUT / name}")


def cinema() -> None:
    rows, cols = 20, 30
    walls = open_room(rows, cols)
    main_exit = [(r, 29) for r in range(8, 12)]
    side_top = [(0, 1), (0, 2)]
    side_bottom = [(19, 1), (19, 2)]
    for r, c in main_exit:
        open_perimeter_side(walls, r, c, RIGHT)
    for r, c in side_top:
        open_perimeter_side(walls, r, c, TOP)
    for r, c in side_bottom:
        open_perimeter_side(walls, r, c, BOTTOM)
    sinks = [(r, c, 10.0) for r, c in main_exit]
    sinks += [(r, c, 1.0) for r, c in side_top + side_bottom]
    sources = [(r, 0) for r in (*range(2, 6), *range(8, 12), *range(14, 18))]
    header = """
Mall lobby, 20 x 30 m at 1 m cells.
Three 4 m screening-room doors on the left wall feed the hall. Exits: a 4 m
main exit centered on the right wall (base weight 10, the advertised way
out) and two 2 m side exits near the left corners of the top and bottom
walls (base weight 1). Scenario files scale the main-exit weight to steer
the crowd split.
"""
    emit("cinema.layout", header, rows, cols, 1.0, walls, sinks, sources)


def escalator_stair() -> None:
    rows, cols = 12, 16
    walls = open_room(rows, cols)
    # Dead-end branch corridors off the hall, reachable only from column 8:
    # a one-cell-wide escalator corridor (row 3) above a two-cell-wide stair
    # corridor (rows 5-6), separated by a filled strip (row 4).
    for c in range(9, 15):
        close_edge(walls, (2, c), (3, c))      # escalator corridor top wall
        fill_cell(walls, 4, c)                 # separator strip
        close_edge(walls, (6, c), (7, c))      # stair corridor bottom wall
    close_edge(walls, (3, 14), (3, 15))
    close_edge(walls, (5, 14), (5, 15))
    close_edge(walls, (6, 14), (6, 15))
    sinks = [(3, 14, 3.0), (5, 14, 1.0), (6, 14, 1.0), (9, 15, 2.0), (10, 15, 2.0)]
    for r, c, _ in ((9, 15, 0), (10, 15, 0)):
        open_perimeter_side(walls, r, c, RIGHT)
    sources = [(5, 0), (6, 0)]
    header = """
Concourse, 12 x 16 m at 1 m cells.
Two parallel dead-end corridors branch east off the hall at column 9: a 1 m
escalator corridor (row 3, sink weight 3) and a 2 m stair corridor (rows
5-6, sink weight 1 per cell), equal in length. A 2 m street exit sits on the
right wall (rows 9-10, weight 2). The filled strip at row 4 separates the
corridors.
"""
    emit("escalator_stair.layout", header, rows, cols, 1.0, walls, sinks, sources)


def compare_rooms() -> None:
    rows, cols = 10, 15
    walls = open_room(rows, cols)
    open_perimeter_side(walls, 5, 14, RIGHT)
    emit("room_10x15_meso.layout", """
Rectangular room, 10 x 15 m at 1 m cells: sources along the whole left
wall, one 1 m exit mid-right wall so the exit throttles large crowds.
Meso half of the resolution-comparison pair.
""", rows, cols, 1.0, walls, [(5, 14, 1.0)], [(r, 0) for r in range(rows)])

    rows2, cols2 = 20, 30
    walls2 = open_room(rows2, cols2)
    open_perimeter_side(walls2, 10, 29, RIGHT)
    open_perimeter_side(walls2, 11, 29, RIGHT)
    emit("room_10x15_micro.layout", """
The same 10 x 15 m room at 0.5 m cells (20 x 30 grid): the meso source and
exit cells map to the two-cell groups on the same walls. Micro half of the
resolution-comparison pair.
""", rows2, cols2, 0.5, walls2, [(10, 29, 1.0), (11, 29, 1.0)],
         [(r, 0) for r in range(rows2)])


if __name__ == "__main__":
    OUT.mkdir(parents=True, exist_ok=True)
    cinema()
    escalator_stair()
    compare_rooms()
