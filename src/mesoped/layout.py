"""Grid layouts with edge-coded walls, spawn sources, and weighted exit sinks.

Cells are unit squares on a row/column lattice with row 0 at the top. Each
cell carries a 4-bit wall code for its four sides; adjacent cells duplicate
the shared edge, and validation rejects grids where the two copies disagree
instead of repairing them.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import cached_property

from .kernel import kernel

Cell = tuple[int, int]

# Wall bits, most significant first: a set bit means the side is closed.
TOP, RIGHT, BOTTOM, LEFT = 8, 4, 2, 1
SIDE_NAMES = {TOP: "top", RIGHT: "right", BOTTOM: "bottom", LEFT: "left"}

DIRECTIONS = ("N", "NE", "E", "SE", "S", "SW", "W", "NW")

# The canonical spelling of each wall code, as `serialize_layout` writes it.
_WALL_CODES = {str(code): code for code in range(16)}
# `bytes.translate` tables: byte 1 for a wall code with that side closed, else 0.
_CLOSED = {side: bytes(bool(code & side) for code in range(256)) for side in SIDE_NAMES}


class LayoutError(Exception):
    """Base class for layout construction and parsing failures."""


class ParseError(LayoutError):
    pass


class ConsistencyError(LayoutError):
    """Shared edge encoded differently by its two adjacent cells."""


class BoundaryError(LayoutError):
    """Open perimeter side on a cell that is not a sink."""


class EmptyError(LayoutError):
    """Layout defines no sinks or no sources."""


def side_open(code: int, side: int) -> bool:
    return not code & side


@dataclass(frozen=True)
class LayoutGrid:
    """Immutable layout: wall codes plus sink weights and source cells.

    Construction does not validate; `parse_layout` runs `validate_grid` on
    every grid it hands out.
    """

    rows: int
    cols: int
    cell_size_m: float
    walls: tuple[tuple[int, ...], ...]
    sinks: tuple[tuple[Cell, float], ...]
    sources: tuple[Cell, ...]

    def index(self, cell: Cell) -> int:
        return cell[0] * self.cols + cell[1]

    @cached_property
    def sink_set(self) -> frozenset[Cell]:
        return frozenset(cell for cell, _ in self.sinks)

    @cached_property
    def source_set(self) -> frozenset[Cell]:
        return frozenset(self.sources)

    @cached_property
    def wall_codes(self) -> bytes:
        """The wall codes, one byte per cell in row-major order."""
        return b"".join(map(bytes, self.walls))

    @cached_property
    def neighbours(self) -> memoryview:
        """Read-only (8, rows*cols) int32 table, one row per direction in
        DIRECTIONS order: `neighbours[d, i]` is the flat index of the cell
        that move d leads to from cell i, or -1 where the move is not permitted.

        This is the one definition of move permission. The kernel's
        `neighbours` fills it from the wall codes (step.c has the rules). On
        a grid that passes `validate_grid` it is symmetric: j is a neighbour
        of i iff i is one of j. The table is an `array` that only this
        read-only view refers to; the kernel takes its address from the
        view's `obj`, and `numpy.asarray` reads it as a read-only array.
        """
        n = self.rows * self.cols
        table = array("i", [0]) * (len(DIRECTIONS) * n)
        kernel().neighbours(self.wall_codes, self.rows, self.cols, table.buffer_info()[0])
        return memoryview(table).toreadonly().cast("B").cast("i", (len(DIRECTIONS), n))

    @cached_property
    def snapshot_frame(self) -> str:
        """`render_snapshot`'s picture of the walls, with a `%s` for each count."""
        def edge(codes: tuple[int, ...], side: int) -> str:
            return "".join("+  " if side_open(code, side) else "+--" for code in codes) + "+\n"

        def cells(codes: tuple[int, ...]) -> str:
            return ("".join(" %s" if side_open(code, LEFT) else "|%s" for code in codes)
                    + (" \n" if side_open(codes[-1], RIGHT) else "|\n"))

        rows = [edge(codes, TOP) + cells(codes) for codes in self.walls]
        return "".join(rows) + edge(self.walls[-1], BOTTOM)

    @cached_property
    def sink_flags(self) -> bytes:
        """One byte per cell in row-major order: 1 on a sink, else 0."""
        flags = bytearray(self.rows * self.cols)
        for cell, _ in self.sinks:
            flags[self.index(cell)] = 1
        return bytes(flags)


def find_edge_conflicts(codes: bytes, cols: int) -> list[tuple[Cell, Cell]]:
    """Cell pairs whose shared edge is encoded open on one side, closed on
    the other, in wall codes given row by row as bytes (`LayoutGrid.wall_codes`).

    Pairs come in row-major order of their first cell, its east edge before
    its south edge. The closed sides are compared as byte strings: all rows
    with the rows below at once, then each row with itself shifted by a
    cell, and with the row below if that differed. Only a row that differs
    is scanned cell by cell.
    """
    right, left, bottom, top = (codes.translate(_CLOSED[side])
                                for side in (RIGHT, LEFT, BOTTOM, TOP))
    any_south, last = bottom[:-cols] != top[cols:], len(codes) - cols
    bad = []
    for i in range(0, len(codes), cols):
        south = any_south and i < last and bottom[i:i + cols] != top[i + cols:i + 2 * cols]
        if south or right[i:i + cols - 1] != left[i + 1:i + cols]:
            r = i // cols
            for c in range(cols):
                if c + 1 < cols and right[i + c] != left[i + c + 1]:
                    bad.append(((r, c), (r, c + 1)))
                if south and bottom[i + c] != top[i + cols + c]:
                    bad.append(((r, c), (r + 1, c)))
    return bad


def _check_cell_count(rows: int, cols: int, where: str = "") -> None:
    """Cells are int32 in the kernel and in the neighbour table."""
    if rows * cols >= 2**31:
        raise ParseError(f"{where}{rows}x{cols} grid has {rows * cols} cells; "
                         f"cell indices are int32, so at most {2**31 - 1} fit")


def validate_grid(grid: LayoutGrid) -> None:
    """Raise on too many cells, edge conflicts, missing sinks/sources, or an
    open perimeter."""
    _check_cell_count(grid.rows, grid.cols)
    conflicts = find_edge_conflicts(grid.wall_codes, grid.cols)
    if conflicts:
        (a, b) = conflicts[0]
        raise ConsistencyError(f"shared edge between {a} and {b} disagrees")
    if not grid.sinks:
        raise EmptyError("layout has no sinks")
    if not grid.sources:
        raise EmptyError("layout has no sources")
    sinks = grid.sink_set
    last_r, last_c = grid.rows - 1, grid.cols - 1
    for r in range(grid.rows):
        for c in range(grid.cols) if r in (0, last_r) else sorted({0, last_c}):
            if (r, c) in sinks:
                continue
            code = grid.walls[r][c]
            for side, on_edge in ((TOP, r == 0), (BOTTOM, r == last_r),
                                  (LEFT, c == 0), (RIGHT, c == last_c)):
                if on_edge and side_open(code, side):
                    raise BoundaryError(
                        f"open {SIDE_NAMES[side]} side on perimeter cell ({r}, {c}) "
                        "which is not a sink")
    for cell, w in grid.sinks:
        if w <= 0:
            raise ParseError(f"sink {cell} has non-positive weight {w}")
    overlap = sinks & grid.source_set
    if overlap:
        raise ParseError(f"cell {sorted(overlap)[0]} is both source and sink")


def _parse_wall_code(tok: str, no: int) -> int:
    try:
        code = int(tok)
    except ValueError:
        raise ParseError(f"line {no}: wall code {tok!r} is not an integer") from None
    if not 0 <= code <= 15:
        raise ParseError(f"line {no}: wall code {code} outside [0, 15]")
    return code


def parse_layout(text: str) -> LayoutGrid:
    """Parse the plain-text layout format and return a validated grid.

    Line 1 holds `rows cols cell_size_m`, followed by `rows` lines of wall
    codes, then `sink r c weight` and `source r c` directives. Everything
    after a `#` is a comment; blank lines are skipped.
    """
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
    _check_cell_count(rows, cols, f"line {no}: ")

    if len(lines) - 1 < rows:
        raise ParseError(f"expected {rows} wall-code lines, found {len(lines) - 1}")
    walls = []
    for no, ln in lines[1:1 + rows]:
        tokens = ln.split()
        if len(tokens) != cols:
            raise ParseError(f"line {no}: expected {cols} wall codes, found {len(tokens)}")
        try:
            walls.append(tuple(map(_WALL_CODES.__getitem__, tokens)))
        except KeyError:  # a spelling such as "07" or "+3", or a bad token
            walls.append(tuple(_parse_wall_code(tok, no) for tok in tokens))

    sinks: dict[Cell, float] = {}
    sources: dict[Cell, None] = {}
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

    grid = LayoutGrid(rows=rows, cols=cols, cell_size_m=cell_size,
                      walls=tuple(walls), sinks=tuple(sinks.items()), sources=tuple(sources))
    validate_grid(grid)
    return grid


def serialize_layout(grid: LayoutGrid) -> str:
    """Canonical text form; `parse_layout(serialize_layout(g))` round-trips."""
    out = [f"{grid.rows} {grid.cols} {grid.cell_size_m!r}"]
    for row in grid.walls:
        out.append(" ".join(str(code) for code in row))
    for (r, c), w in grid.sinks:
        out.append(f"sink {r} {c} {w!r}")
    for r, c in grid.sources:
        out.append(f"source {r} {c}")
    return "\n".join(out) + "\n"


# A count of 0 to 9 as `render_snapshot` draws it: "." for none.
_COUNTS = (" .", *(f"{k} " for k in range(1, 10)))


def render_snapshot(grid: LayoutGrid, density: list[int]) -> str:
    """ASCII picture of the walls and of a count per flat cell, capped at 9."""
    return grid.snapshot_frame % tuple([_COUNTS[occ] if occ < 10 else "9 " for occ in density])
