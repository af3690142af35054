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

    `wall_codes` holds one code per cell in row-major order. Construction
    checks only that there is one for each cell, since the kernel reads
    that many, and that each is 0 to 15, as `serialize_layout` writes and
    `parse_layout` reads them; `parse_layout` runs `validate_grid` on every
    grid it hands out.
    """

    rows: int
    cols: int
    cell_size_m: float
    wall_codes: bytes
    sinks: tuple[tuple[Cell, float], ...]
    sources: tuple[Cell, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.wall_codes, bytes):
            raise TypeError(f"wall_codes must be bytes, not {type(self.wall_codes).__name__}")
        if len(self.wall_codes) != self.rows * self.cols:
            raise ValueError(f"a {self.rows}x{self.cols} grid takes {self.rows * self.cols} "
                             f"wall codes, got {len(self.wall_codes)}")
        if high := self.wall_codes.translate(None, bytes(range(16))):
            cell = divmod(self.wall_codes.index(high[0]), self.cols)
            raise ValueError(f"wall code {high[0]} at cell {cell} outside [0, 15]")

    def index(self, cell: Cell) -> int:
        return cell[0] * self.cols + cell[1]

    @cached_property
    def sink_set(self) -> frozenset[Cell]:
        return frozenset(cell for cell, _ in self.sinks)

    @cached_property
    def source_set(self) -> frozenset[Cell]:
        return frozenset(self.sources)

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
        def edge(codes: bytes, side: int) -> str:
            return "".join("+  " if side_open(code, side) else "+--" for code in codes) + "+\n"

        def cells(codes: bytes) -> str:
            return ("".join(" %s" if side_open(code, LEFT) else "|%s" for code in codes)
                    + (" \n" if side_open(codes[-1], RIGHT) else "|\n"))

        rows = [self.wall_codes[i:i + self.cols] for i in range(0, len(self.wall_codes), self.cols)]
        return "".join(edge(codes, TOP) + cells(codes) for codes in rows) + edge(rows[-1], BOTTOM)

    @cached_property
    def sink_flags(self) -> bytes:
        """One byte per cell in row-major order: 1 on a sink, else 0."""
        flags = bytearray(self.rows * self.cols)
        for cell, _ in self.sinks:
            flags[self.index(cell)] = 1
        return bytes(flags)


def _check_cell_count(rows: int, cols: int, where: str = "") -> None:
    """Cells are int32 in the kernel and in the neighbour table."""
    if rows * cols >= 2**31:
        raise ParseError(f"{where}{rows}x{cols} grid has {rows * cols} cells; "
                         f"cell indices are int32, so at most {2**31 - 1} fit")


def validate_grid(grid: LayoutGrid) -> None:
    """Raise on too many cells, edge conflicts, missing sinks/sources, a sink
    or source off the grid, or an open perimeter."""
    _check_cell_count(grid.rows, grid.cols)
    lib = kernel()
    edge = lib.edge_conflict(grid.wall_codes, grid.rows, grid.cols)
    if edge >= 0:  # cell i's east edge at 2 * i, its south edge at 2 * i + 1
        (r, c), south = divmod(edge >> 1, grid.cols), edge & 1
        raise ConsistencyError(f"shared edge between {(r, c)} and "
                               f"{(r + south, c + 1 - south)} disagrees")
    if not grid.sinks:
        raise EmptyError("layout has no sinks")
    if not grid.sources:
        raise EmptyError("layout has no sources")
    for r, c in (*(cell for cell, _ in grid.sinks), *grid.sources):
        if not (0 <= r < grid.rows and 0 <= c < grid.cols):
            raise ParseError(f"cell {(r, c)} outside {grid.rows}x{grid.cols} grid")
    hole = lib.open_perimeter(grid.wall_codes, grid.sink_flags, grid.rows, grid.cols)
    if hole >= 0:  # 16 * i plus the side's wall bit
        raise BoundaryError(f"open {SIDE_NAMES[hole & 15]} side on perimeter cell "
                            f"{divmod(hole >> 4, grid.cols)} which is not a sink")
    for cell, w in grid.sinks:
        if not 0 < w < math.inf:
            raise ParseError(f"sink {cell} has weight {w}, which is not positive and finite")
    overlap = grid.sink_set & grid.source_set
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
    after a `#` is a comment; blank lines are skipped. The kernel reads the
    wall codes when all are spelled as `serialize_layout` writes them; else
    Python does, and names the first line and code it cannot take.
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
    block = "".join([ln + "\n" for _, ln in lines[1:1 + rows]]).encode(errors="surrogatepass")
    # Each code takes a digit and a blank or "\n": a shorter block cannot hold
    # the grid, so no room is made for one.
    walls = array("B", bytes(rows * cols)) if len(block) >= 2 * rows * cols else None
    if walls is None or kernel().parse_walls(block, rows, cols, walls.buffer_info()[0]) >= 0:
        walls = array("B")
        for no, ln in lines[1:1 + rows]:
            tokens = ln.split()
            if len(tokens) != cols:
                raise ParseError(f"line {no}: expected {cols} wall codes, found {len(tokens)}")
            walls.extend(_parse_wall_code(tok, no) for tok in tokens)

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

    grid = LayoutGrid(rows=rows, cols=cols, cell_size_m=cell_size, wall_codes=walls.tobytes(),
                      sinks=tuple(sinks.items()), sources=tuple(sources))
    validate_grid(grid)
    return grid


def serialize_layout(grid: LayoutGrid) -> str:
    """Canonical text form; `parse_layout(serialize_layout(g))` round-trips."""
    out = [f"{grid.rows} {grid.cols} {grid.cell_size_m!r}"]
    for i in range(0, len(grid.wall_codes), grid.cols):
        out.append(" ".join(map(str, grid.wall_codes[i:i + grid.cols])))
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
