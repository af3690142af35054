"""Wall codes, move permissions, parsing, validation, and serialization."""

import math
import re
import tracemalloc
from array import array
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridgen import random_grid
from oracle import (DIR_VECTORS, edge_conflicts, moves_of, neighbour_table,
                    parse_layout_reference, validate_reference)
from mesoped import layout
from mesoped.kernel import kernel
from mesoped.layout import (BOTTOM, DIRECTIONS, LEFT, RIGHT, TOP,
                            BoundaryError, ConsistencyError, EmptyError,
                            LayoutError, LayoutGrid, ParseError, parse_layout,
                            serialize_layout, side_open, validate_grid)
from mesoped.scenario import SCENARIOS_DIR

CLOSED_1X3 = "1 3 1.0\n11 10 14\nsink 0 2 1\nsource 0 0\n"


def bare_grid(walls, sinks=(), sources=()):
    """LayoutGrid without validation, for move-rule unit checks."""
    return LayoutGrid(rows=len(walls), cols=len(walls[0]), cell_size_m=1.0,
                      wall_codes=bytes(code for row in walls for code in row),
                      sinks=tuple(sinks), sources=tuple(sources))


def outcome(call, arg):
    """What `call(arg)` returns, or the type and message of what it raises."""
    try:
        return call(arg)
    except Exception as exc:  # whatever it raises is compared
        return type(exc), str(exc)


def first_conflict(walls):
    """What `validate_grid` says of a grid of these codes with no sinks: the
    first shared edge that disagrees, if any, else that there is no sink."""
    return outcome(validate_grid, bare_grid(walls))


def conflict_message(a, b):
    return ConsistencyError, f"shared edge between {a} and {b} disagrees"


NO_SINKS = (EmptyError, "layout has no sinks")


def in_grid(grid, cell):
    return 0 <= cell[0] < grid.rows and 0 <= cell[1] < grid.cols


def open_room(rows, cols):
    walls = [[0] * cols for _ in range(rows)]
    for c in range(cols):
        walls[0][c] |= TOP
        walls[rows - 1][c] |= BOTTOM
    for r in range(rows):
        walls[r][0] |= LEFT
        walls[r][cols - 1] |= RIGHT
    return walls


def test_wall_code_bit_layout():
    assert (TOP, RIGHT, BOTTOM, LEFT) == (8, 4, 2, 1)
    # The closed corridor: the west end is open only east, the middle east
    # and west, the east end only west.
    assert parse_layout(CLOSED_1X3).wall_codes == bytes(
        (TOP | BOTTOM | LEFT, TOP | BOTTOM, TOP | RIGHT | BOTTOM))


def test_code_7_means_only_top_open():
    assert side_open(7, TOP)
    assert not side_open(7, RIGHT)
    assert not side_open(7, BOTTOM)
    assert not side_open(7, LEFT)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(2, 12))
def test_wall_code_round_trip(seed, rows, cols):
    """The text format keeps every wall code, sink and source of a random room."""
    grid = random_grid(np.random.default_rng(seed), min_rows=rows, max_rows=rows,
                       min_cols=cols, max_cols=cols)
    assert parse_layout(serialize_layout(grid)) == grid


@given(st.integers(min_value=0, max_value=15))
def test_wall_code_inverse(code):
    """Each set bit closes one side: the centre of an open 3x3 room keeps
    exactly the orthogonal moves through its open sides."""
    walls = [[0] * 3 for _ in range(3)]
    walls[1][1] = code
    moves = moves_of(bare_grid(walls), (1, 1))
    for d, side in (("N", TOP), ("E", RIGHT), ("S", BOTTOM), ("W", LEFT)):
        assert (d in moves) == side_open(code, side) == (not code & side)


@pytest.mark.parametrize("code", [-1, 16, 255])
def test_decode_rejects_out_of_range(code):
    with pytest.raises(ParseError, match=f"wall code {code} outside"):
        parse_layout(f"1 2 1.0\n11 {code}\nsink 0 1 1\nsource 0 0\n")


def test_edge_consistency_brute_force_horizontal():
    """All 256 code pairs: a right-of edge must match b's left bit."""
    for a in range(16):
        for b in range(16):
            expected = side_open(a, RIGHT) != side_open(b, LEFT)
            conflict = conflict_message((0, 0), (0, 1))
            assert first_conflict(((a, b),)) == (conflict if expected else NO_SINKS), (a, b)


def test_edge_consistency_brute_force_vertical():
    for a in range(16):
        for b in range(16):
            expected = side_open(a, BOTTOM) != side_open(b, TOP)
            conflict = conflict_message((0, 0), (1, 0))
            assert first_conflict(((a,), (b,))) == (conflict if expected else NO_SINKS), (a, b)


def test_edge_conflicts_match_cell_by_cell_scan():
    """Random codes give many conflicts; the one `validate_grid` names is the
    scan's first."""
    rng = np.random.default_rng(7)
    for rows, cols in ((1, 1), (1, 9), (9, 1), (6, 7), (20, 30)):
        for _ in range(10):
            walls = tuple(map(tuple, rng.integers(0, 16, size=(rows, cols)).tolist()))
            conflicts = edge_conflicts(walls)
            assert first_conflict(walls) == (conflict_message(*conflicts[0]) if conflicts
                                             else NO_SINKS)
    walls = open_room(4, 5)
    walls[2][3] |= RIGHT
    walls[1][0] |= BOTTOM
    assert edge_conflicts(walls) == [((1, 0), (2, 0)), ((2, 3), (2, 4))]
    assert first_conflict(walls) == conflict_message((1, 0), (2, 0))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(st.tuples(st.integers(0, 2**16),
                                                     st.sampled_from((TOP, RIGHT, BOTTOM, LEFT))),
                                           min_size=1, max_size=3))
def test_first_conflict_and_hole_match_the_oracle(seed, flips):
    """A valid random room with one to three wall bits flipped at random
    cells: inside, each flip is a conflict, and on the perimeter a hole
    (or a sink's exterior side closed). `validate_grid` names the first
    conflict, else the first hole, as the cell-by-cell reference does."""
    grid = random_grid(np.random.default_rng(seed), max_rows=9, max_cols=9,
                       min_rows=1, min_cols=2)
    codes = bytearray(grid.wall_codes)
    for k, side in flips:
        codes[k % len(codes)] ^= side
    planted = replace(grid, wall_codes=bytes(codes))
    assert outcome(validate_grid, planted) == outcome(validate_reference, planted)


@pytest.mark.parametrize("text", [
    CLOSED_1X3,
    "3 1 1.0\n13\n5\n7\nsink 2 0 1\nsource 0 0\n",
    "3 3 1.0\n9 8 12\n1 0 4\n3 2 6\nsink 1 2 1\nsource 1 0\n",
], ids=["1x3", "3x1", "3x3"])
def test_every_code_at_every_cell_is_judged_as_the_oracle_judges_it(text):
    """Each of the 16 codes put in each cell of a small room in turn: every
    conflict and every hole, two or more of them at once included, is named
    as the cell-by-cell reference names it, sides in its order."""
    grid = parse_layout(text)
    for i in range(len(grid.wall_codes)):
        for code in range(16):
            codes = bytearray(grid.wall_codes)
            codes[i] = code
            planted = replace(grid, wall_codes=bytes(codes))
            assert (outcome(validate_grid, planted)
                    == outcome(validate_reference, planted)), (i, code)


def test_diagonal_requires_all_four_corner_edges():
    """NE from the lower-left of a 2x2 room, over all 16 corner-edge states."""
    for mask in range(16):
        walls = open_room(2, 2)
        edges = [
            ((0, 0), (1, 0), BOTTOM, TOP),   # west vertical edge
            ((1, 0), (1, 1), RIGHT, LEFT),   # south horizontal edge
            ((0, 1), (1, 1), BOTTOM, TOP),   # east vertical edge
            ((0, 0), (0, 1), RIGHT, LEFT),   # north horizontal edge
        ]
        for bit, ((r1, c1), (r2, c2), s1, s2) in enumerate(edges):
            if mask & (1 << bit):
                walls[r1][c1] |= s1
                walls[r2][c2] |= s2
        grid = bare_grid(walls)
        assert ("NE" in moves_of(grid, (1, 0))) == (mask == 0), mask


def test_moves_of_open_room():
    grid = bare_grid(open_room(3, 3))
    assert moves_of(grid, (1, 1)) == DIRECTIONS
    assert moves_of(grid, (0, 0)) == ("E", "SE", "S")
    assert moves_of(grid, (0, 2)) == ("S", "SW", "W")
    assert moves_of(grid, (2, 1)) == ("N", "NE", "E", "W", "NW")


def solid_centre(walls):
    """Wall in the centre of a 3x3 room, mirroring each shared edge."""
    walls[1][1] = TOP | RIGHT | BOTTOM | LEFT
    walls[0][1] |= BOTTOM
    walls[2][1] |= TOP
    walls[1][0] |= RIGHT
    walls[1][2] |= LEFT
    return walls


def test_moves_of_solid_cell_is_empty():
    grid = bare_grid(solid_centre(open_room(3, 3)), sinks=(((0, 0), 1.0),),
                     sources=((2, 2),))
    validate_grid(grid)
    assert moves_of(grid, (1, 1)) == ()
    # Neighbors lose the moves that led into or cut the filled cell's corners.
    assert "S" not in moves_of(grid, (0, 1))
    assert "SE" not in moves_of(grid, (0, 0))
    assert "SW" not in moves_of(grid, (0, 2))


def test_parse_round_trip_canonical():
    grid = parse_layout(CLOSED_1X3)
    assert (grid.rows, grid.cols, grid.cell_size_m) == (1, 3, 1.0)
    assert grid.wall_codes == bytes((11, 10, 14))
    assert grid.sinks == (((0, 2), 1.0),)
    assert grid.sources == ((0, 0),)
    assert parse_layout(serialize_layout(grid)) == grid


def test_parse_accepts_comments_and_blank_lines():
    text = "# corridor\n\n1 3 1.0\n11 10 14  # row\nsink 0 2 1\nsource 0 0\n"
    assert parse_layout(text) == parse_layout(CLOSED_1X3)


def test_parse_boundary_hole_rejected():
    text = "1 3 1.0\n13 5 7\nsink 0 2 1\nsource 0 0\n"
    with pytest.raises(BoundaryError):
        parse_layout(text)


def test_parse_mismatched_shared_edge_rejected():
    text = "1 3 1.0\n9 5 7\nsink 0 2 1\nsource 0 0\n"
    with pytest.raises(ConsistencyError):
        parse_layout(text)


def test_validate_requires_a_sink():
    with pytest.raises(EmptyError):
        validate_grid(bare_grid([[15]]))


def test_validate_requires_a_source():
    with pytest.raises(EmptyError):
        validate_grid(bare_grid([[15]], sinks=(((0, 0), 1.0),)))


@pytest.mark.parametrize("weight", [0.0, -1.0, math.nan, math.inf])
def test_validate_rejects_non_positive_sink_weight_naming_the_cell(weight):
    """A hand-built grid skips the parser's weight check; validation names the
    sink. A NaN or infinite weight passed before, as `nan <= 0` is false."""
    grid = bare_grid([[11, 14]], sinks=(((0, 1), weight),), sources=((0, 0),))
    with pytest.raises(ParseError, match=re.escape(
            f"sink (0, 1) has weight {weight}, which is not positive and finite")):
        validate_grid(grid)


@pytest.mark.parametrize("sinks,sources,cell", [
    ((((0, -1), 1.0),), ((0, 0),), (0, -1)),
    ((((0, 2), 1.0), ((0, 5), 1.0)), ((0, 0),), (0, 5)),
    ((((0, 2), 1.0),), ((1, 0),), (1, 0)),
], ids=["sink_at_column_-1", "sink_past_the_east_wall", "source_below_the_grid"])
def test_validate_rejects_a_cell_off_the_grid_naming_it(sinks, sources, cell):
    """A hand-built grid skips the parser's bounds check. Each of these
    passed validation: the field then took the sink at column -1 for one on
    the last cell (flat index -1), and the solve raised a bare IndexError on
    the sink past the east wall. Each cell is now named."""
    grid = replace(parse_layout(CLOSED_1X3), sinks=sinks, sources=sources)
    with pytest.raises(ParseError, match=re.escape(f"cell {cell} outside 1x3 grid")):
        validate_grid(grid)


def test_sink_may_open_its_exterior_side():
    grid = parse_layout("1 3 1.0\n11 10 10\nsink 0 2 1\nsource 0 0\n")
    assert side_open(grid.wall_codes[2], RIGHT)
    validate_grid(grid)


@pytest.mark.parametrize("text,err", [
    ("", ParseError),
    ("2 2\n0 0\n0 0\n", ParseError),                      # header too short
    ("1 2 1.0\n10 10 10\nsink 0 1 1\nsource 0 0\n", ParseError),  # row too long
    ("1 2 1.0\n10\n10\nsink 0 1 1\nsource 0 0\n", ParseError),    # split row
    ("1 2 1.0\n10 99\nsink 0 1 1\nsource 0 0\n", ParseError),     # bad code
    ("1 2 1.0\n11 14\nsource 0 0\n", EmptyError),                 # no sink
    ("1 2 1.0\n11 14\nsink 0 5 1\nsource 0 0\n", ParseError),     # sink outside
    ("1 2 1.0\n11 14\nsink 0 1 0\nsource 0 0\n", ParseError),     # zero weight
    ("1 2 1.0\n11 14\nsink 0 1 1\nsink 0 1 2\nsource 0 0\n", ParseError),
    ("1 2 1.0\n11 14\nsink 0 1 1\nsource 0 1\n", ParseError),     # source on sink
    ("1 2 1.0\n11 14\nsink 0 1 1\nspring 0 0\n", ParseError),     # bad directive
    ("1 2 nan\n11 14\nsink 0 1 1\nsource 0 0\n", ParseError),     # NaN cell size
    ("1 2 inf\n11 14\nsink 0 1 1\nsource 0 0\n", ParseError),     # infinite cell size
    ("1 2 1.0\n11 14\nsink 0 1 nan\nsource 0 0\n", ParseError),   # NaN weight
    ("1 2 1.0\n11 14\nsink 0 1 inf\nsource 0 0\n", ParseError),   # infinite weight
])
def test_parse_rejects_malformed_inputs(text, err):
    with pytest.raises(err):
        parse_layout(text)


def test_parse_accepts_non_canonical_wall_code_spellings():
    text = "# two rows\n2 2 1.0\n\n09 12\n +3 6\nsink 1 1 1\nsource 0 0\n"
    assert parse_layout(text).wall_codes == bytes((9, 12, 3, 6))
    assert parse_layout("2 1 1.0\n13\n07\nsink 1 0 1\nsource 0 0\n").wall_codes == bytes((13, 7))


@pytest.mark.parametrize("token,message", [
    ("16", "line 4: wall code 16 outside [0, 15]"),
    ("-1", "line 4: wall code -1 outside [0, 15]"),
    ("x", "line 4: wall code 'x' is not an integer"),
])
def test_parse_bad_wall_code_names_line_and_code(token, message):
    text = f"2 2 1.0\n9 12\n# the bad row\n3 {token}\nsink 1 1 1\nsource 0 0\n"
    with pytest.raises(ParseError) as exc:
        parse_layout(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("rows, cols", [(2**16, 2**15), (1, 2**31), (46341, 46341)])
def test_grid_of_2_31_cells_or_more_is_rejected(rows, cols):
    """Cells are int32 in the kernel: the header alone rejects 2**31 cells
    or more, naming the count, before any row is read; a grid cannot be
    built with that many without a wall code for each."""
    count = f"{rows * cols} cells"
    with pytest.raises(ParseError, match=f"line 1: {rows}x{cols} grid has {count}"):
        parse_layout(f"{rows} {cols} 1.0\n")
    with pytest.raises(ValueError, match=f"{rows}x{cols} grid takes {rows * cols} wall codes"):
        LayoutGrid(rows=rows, cols=cols, cell_size_m=1.0, wall_codes=b"", sinks=(), sources=())
    with pytest.raises(ParseError, match="expected 46340 wall-code lines"):
        parse_layout("46340 46340 1.0\n")


@pytest.mark.parametrize("source_lines,message", [
    ("source 0\n", "line 4: expected 'source r c'"),
    ("source 0 0 1\n", "line 4: expected 'source r c'"),
    ("source 0 0\nsource 0 0\n", "line 5: duplicate source (0, 0)"),
])
def test_parse_bad_source_names_line_and_cell(source_lines, message):
    with pytest.raises(ParseError) as exc:
        parse_layout("1 2 1.0\n11 14\nsink 0 1 1\n" + source_lines)
    assert str(exc.value) == message


def test_wall_codes_must_cover_the_grid():
    """The kernel reads rows * cols wall codes: a grid is built only from
    `bytes` of that length. Without the check, the move table of a 1x3
    corridor given a 40x40 shape read past its 3 codes (an AddressSanitizer
    heap-buffer-overflow in step.c's `neighbours`)."""
    with pytest.raises(ValueError, match=r"a 40x40 grid takes 1600 wall codes, got 3"):
        replace(parse_layout(CLOSED_1X3), rows=40, cols=40).neighbours
    with pytest.raises(TypeError, match="wall_codes must be bytes, not tuple"):
        LayoutGrid(1, 3, 1.0, ((11, 10, 14),), (((0, 2), 1.0),), ((0, 0),))


@pytest.mark.parametrize("codes, named", [((27, 10, 14), "27 at cell (0, 0)"),
                                          ((11, 16, 255), "16 at cell (0, 1)"),
                                          ((11, 10, 140), "140 at cell (0, 2)")],
                         ids=["first_cell", "middle_cell", "last_cell"])
def test_wall_codes_above_15_are_refused_naming_the_first(codes, named):
    """A code above 15 is refused at construction, naming the first such cell
    and its code. Before, a hand-built 1x3 corridor with code 27 passed
    `validate_grid`, and `serialize_layout` wrote `27 10 14`, which
    `parse_layout` refuses (the kernel reads only the low 4 bits, 11)."""
    with pytest.raises(ValueError, match=re.escape(f"wall code {named} outside [0, 15]")):
        replace(parse_layout(CLOSED_1X3), wall_codes=bytes(codes))


def parse_walls(text, rows, cols):
    """The kernel's `parse_walls` of `text`: the index of the first line it
    leaves, and the codes it wrote."""
    walls = array("B", bytes(rows * cols))
    left = kernel().parse_walls(text.encode(errors="surrogatepass"), rows, cols,
                                walls.buffer_info()[0])
    return left, walls.tobytes()


def test_parse_walls_reads_canonical_codes_between_ascii_blanks():
    assert parse_walls("\t0  15 \n 9\v10\f\n12\r13\n", 3, 2) == (-1, bytes((0, 15, 9, 10, 12, 13)))
    assert parse_walls(" ".join(map(str, range(16))) + "\n", 1, 16) == (-1, bytes(range(16)))


@pytest.mark.parametrize("line", ["07 1", "00 1", "+3 1", "-0 1", "16 1", "99 1", "150 1",
                                  "1x 1", "1_0 1", "\u0663 1", "3\x1f4", "3\xa04", "\x00 1",
                                  "\ud800 1", "1", "1 2 3", "", "1 2#"])
def test_parse_walls_leaves_every_other_line_to_python(line):
    """The kernel takes a line only when it holds `cols` codes, each spelled
    0 to 15 as `serialize_layout` writes it, between ASCII blanks; else it
    returns the line's index, here the second of three."""
    assert parse_walls(f"0 15\n{line}\nx\n", 3, 2)[0] == 1


def test_short_wall_code_lines_make_no_room_for_the_grid():
    """Every code takes two bytes, a digit and a blank or a newline: a block
    shorter than that cannot hold the grid, and goes to Python's parse, which
    names the first short line, before room is made for 10**8 codes."""
    text = "10000 10000 1.0\n" + "0\n" * 10000
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="line 2: expected 10000 wall codes, found 1"):
            parse_layout(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**7


def test_canonical_wall_codes_never_reach_the_python_loop(monkeypatch, random_grids):
    def refuse(tok, no):
        raise AssertionError(f"line {no}: {tok!r} was read in Python")

    monkeypatch.setattr(layout, "_parse_wall_code", refuse)
    for k, grid in enumerate(random_grids[:40]):
        assert parse_layout(serialize_layout(grid)) == grid, k
    assert bundled_layouts()
    spaced = "1 3 1.0\n \t11  10\t14  # row\nsink 0 2 1\nsource 0 0\n"
    assert parse_layout(spaced) == parse_layout(CLOSED_1X3)


def test_parse_error_carries_line_number():
    text = "1 2 1.0\n10 99\nsink 0 1 1\nsource 0 0\n"
    with pytest.raises(ParseError, match="line 2"):
        parse_layout(text)


def test_obstacle_mirrors_neighbor_edges():
    """A solid cell is valid only with its four neighbours' shared sides
    closed too; each unmirrored side is reported as an edge conflict."""
    walls = open_room(3, 3)
    walls[1][1] = 15
    assert edge_conflicts(walls) == [((0, 1), (1, 1)), ((1, 0), (1, 1)),
                                     ((1, 1), (1, 2)), ((1, 1), (2, 1))]
    with pytest.raises(ConsistencyError, match=re.escape("between (0, 1) and (1, 1)")):
        validate_grid(bare_grid(walls, sinks=(((0, 0), 1.0),), sources=((2, 2),)))
    assert first_conflict(solid_centre(open_room(3, 3))) == NO_SINKS


def test_moves_are_symmetric_and_in_bounds():
    """d from a to b implies the opposite move from b to a, on random grids."""
    direction_of = {vector: d for d, vector in DIR_VECTORS.items()}
    for seed in range(8):
        grid = random_grid(np.random.default_rng(seed), max_rows=15, max_cols=15)
        for r in range(grid.rows):
            for c in range(grid.cols):
                for d in moves_of(grid, (r, c)):
                    dr, dc = DIR_VECTORS[d]
                    target = (r + dr, c + dc)
                    assert in_grid(grid, target), (seed, (r, c), d)
                    back = direction_of[(-dr, -dc)]
                    assert back in moves_of(grid, target), (seed, (r, c), d)


def bundled_layouts():
    return [parse_layout(p.read_text()) for p in sorted(SCENARIOS_DIR.glob("*.layout"))]


def test_neighbour_table_agrees_with_moves_of(random_grids):
    """Each row lists, in compass order, the flat index of each permitted move's
    destination, and -1 for each move that is not permitted. A move off the
    grid is never permitted, though the flat index of an east or west target
    off the edge is a real cell of the next or previous row."""
    for k, grid in enumerate(bundled_layouts() + random_grids):
        table = grid.neighbours
        assert table.shape == (len(DIRECTIONS), grid.rows * grid.cols), k
        for i, row in enumerate(zip(*table.tolist())):
            r, c = divmod(i, grid.cols)
            for d, j in zip(DIRECTIONS, row):
                dr, dc = DIR_VECTORS[d]
                target = (r + dr, c + dc)
                allowed = (-1, grid.index(target)) if in_grid(grid, target) else (-1,)
                assert j in allowed, (k, (r, c), d)


def test_neighbour_table_is_symmetric(random_grids):
    """j is a neighbour of i iff i is a neighbour of j."""
    for k, grid in enumerate(bundled_layouts() + random_grids):
        table = np.asarray(grid.neighbours)
        slot, src = np.nonzero(table >= 0)
        edges = set(zip(src.tolist(), table[slot, src].tolist()))
        assert edges == {(j, i) for i, j in edges}, k


def test_neighbour_table_matches_numpy_build(random_grids):
    """The kernel's table equals the numpy build, element for element, on
    the bundled layouts, the random rooms, and every pair of wall codes side
    by side, stacked, and corner to corner."""
    pairs = [bare_grid(walls) for a in range(16) for b in range(16)
             for walls in ([[a, b]], [[a], [b]], [[a, 0], [0, b]], [[0, a], [b, 0]])]
    for k, grid in enumerate(bundled_layouts() + random_grids + pairs):
        assert np.array_equal(np.asarray(grid.neighbours), neighbour_table(grid)), k


def test_neighbour_table_is_direction_major_and_read_only(random_grids):
    """The table is an int32 array of one row per direction, behind a
    read-only view; neither the view, nor numpy's array over it, nor the
    wall codes it is built from can be written."""
    for k, grid in enumerate(bundled_layouts() + random_grids[:20]):
        table = grid.neighbours
        assert table.format == "i" and table.itemsize == 4 and table.readonly, k
        assert table.c_contiguous and table.shape == (8, grid.rows * grid.cols), k
        before = table.tolist()
        with pytest.raises(TypeError, match="read-only"):
            table[0, 0] = 3
        with pytest.raises(ValueError, match="read-only"):
            np.asarray(table)[0, 0] = 3
        with pytest.raises(TypeError):
            grid.wall_codes[0] = 3
        assert table.tolist() == before, k
        assert len(grid.wall_codes) == grid.rows * grid.cols, k


def test_serialize_round_trips_random_grids():
    for seed in range(8):
        grid = random_grid(np.random.default_rng(seed), max_rows=12, max_cols=12)
        assert parse_layout(serialize_layout(grid)) == grid


# Numbers near the edges of the format: wall codes and cells in and out of
# range, odd spellings, non-finite and huge values.
NUMBERS = st.one_of(
    st.integers(-2, 17).map(str),
    st.floats().map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-0", "07", "+3", "1_0", "9" * 5000]),
)
TOKENS = st.one_of(NUMBERS, st.sampled_from(["sink", "source", "spring", "#", "\x00", "\x0b"]),
                   st.text(max_size=3))


@st.composite
def layout_texts(draw):
    """Arbitrary text, token soup, or a valid layout with a few characters
    deleted, replaced or inserted."""
    kind = draw(st.sampled_from(["text", "tokens", "edited"]))
    if kind == "text":
        return draw(st.text())
    if kind == "tokens":
        lines = st.lists(TOKENS, max_size=5).map(" ".join)
        return "\n".join(draw(st.lists(lines, max_size=8)))
    text = draw(st.sampled_from([CLOSED_1X3, "2 2 0.5\n9 12\n3 6\nsink 1 1 2.5\nsource 0 0\n"]))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 3))
        text = text[:at] + draw(TOKENS) + text[at + cut:]
    return text


def assert_valid_or_layout_error(text):
    """What parses is a valid layout with finite sizes and weights."""
    try:
        grid = parse_layout(text)
    except LayoutError:
        return
    assert 0 < grid.cell_size_m < math.inf
    assert all(0 < w < math.inf for _, w in grid.sinks)
    assert all(in_grid(grid, cell) for cell in (*grid.sink_set, *grid.sources))
    assert parse_layout(serialize_layout(grid)) == grid


@settings(max_examples=300, deadline=None)
@given(layout_texts())
def test_parse_layout_raises_only_layout_errors(text):
    assert_valid_or_layout_error(text)


@pytest.mark.parametrize("slot", range(11))
@settings(max_examples=30, deadline=None)
@given(number=NUMBERS)
def test_parse_layout_numbers_are_finite_or_rejected(slot, number):
    """Each of the corridor's 11 numbers (header, wall codes, sink, source)
    replaced by a drawn one."""
    tokens = CLOSED_1X3.replace("\n", " \n ").split(" ")
    numeric = [k for k, tok in enumerate(tokens) if tok[:1].isdigit()]
    tokens[numeric[slot]] = number
    assert_valid_or_layout_error(" ".join(tokens))


# Wall-code tokens that `int` reads but `serialize_layout` never writes, by value.
ARABIC_DIGITS = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                              "\u0665\u0666\u0667\u0668\u0669")


def spellings(code):
    s = str(code)
    return [f"0{s}", f"+{s}", "-0" if code == 0 else f"+0{s}", s.translate(ARABIC_DIGITS),
            f"{s[0]}_{s[1:]}" if code > 9 else f"0_{s}"]


BAD_CODES = ["16", "99", "150", "1x", "x", "-1", "\ud800", "\u0663\u0663"]
BLANKS = [" ", "  ", "\t", "\v", "\f", "\r", "\x1c", "\x1f", "\x85", "\xa0", "\u2003", "\u3000"]


@st.composite
def respelled_layouts(draw):
    """A valid random room's text with its wall-code lines redrawn: most
    codes as `serialize_layout` spells them, some spelled otherwise, out of
    range, not numbers, or with a wall bit flipped; a code dropped or added
    now and then; blanks of every kind, ASCII or not, some of which end a
    line; a comment here and there."""
    grid = random_grid(np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                       max_rows=5, max_cols=5, min_rows=1, min_cols=2)
    lines = serialize_layout(grid).splitlines()
    for r in range(1, 1 + grid.rows):
        line = ""
        for code in map(int, lines[r].split()):
            kind = draw(st.integers(0, 19))
            if kind == 19:
                continue
            token = (str(code) if kind < 15 else draw(st.sampled_from(spellings(code))) if kind < 17
                     else str(code ^ draw(st.sampled_from((TOP, RIGHT, BOTTOM, LEFT)))) if kind < 18
                     else draw(st.sampled_from(BAD_CODES)))
            blank = draw(st.sampled_from(BLANKS)) if draw(st.integers(0, 4)) == 0 else " "
            line += token + blank
        if draw(st.integers(0, 9)) == 0:
            line += draw(st.sampled_from(["0", "15", "x", "# note"]))
        lines[r] = line
    return "\n".join(lines) + "\n"


@settings(max_examples=500, deadline=None)
@given(st.one_of(respelled_layouts(), layout_texts()))
def test_parse_layout_matches_the_reference_parser(text):
    """The kernel's parse and checks, with Python's per-line parse behind
    them, give what the all-Python parser gives: the same grid, or the same
    error with the same message."""
    assert outcome(parse_layout, text) == outcome(parse_layout_reference, text)
