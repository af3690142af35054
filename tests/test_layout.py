"""Wall codes, move permissions, parsing, validation, and serialization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridgen import random_grid
from oracle import edge_conflicts, moves_of, neighbour_table
from mesoped.layout import (BOTTOM, DIR_VECTORS, DIRECTIONS, LEFT, RIGHT, TOP,
                            BoundaryError, ConsistencyError, EmptyError,
                            LayoutError, LayoutGrid, ParseError,
                            find_edge_conflicts, parse_layout,
                            serialize_layout, side_open, validate_grid)
from mesoped.scenario import SCENARIOS_DIR

CLOSED_1X3 = "1 3 1.0\n11 10 14\nsink 0 2 1\nsource 0 0\n"


def bare_grid(walls, sinks=(), sources=()):
    """LayoutGrid without validation, for move-rule unit checks."""
    return LayoutGrid(rows=len(walls), cols=len(walls[0]), cell_size_m=1.0,
                      walls=tuple(tuple(r) for r in walls),
                      sinks=tuple(sinks), sources=tuple(sources))


def edge_conflicts_of(walls):
    """`find_edge_conflicts` of wall codes given as rows of ints."""
    return find_edge_conflicts(b"".join(map(bytes, walls)), len(walls[0]))


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
    assert parse_layout(CLOSED_1X3).walls == (
        (TOP | BOTTOM | LEFT, TOP | BOTTOM, TOP | RIGHT | BOTTOM),)


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
            walls = ((a, b),)
            expected = side_open(a, RIGHT) != side_open(b, LEFT)
            conflicts = edge_conflicts_of(walls)
            assert (len(conflicts) > 0) == expected, (a, b)


def test_edge_consistency_brute_force_vertical():
    for a in range(16):
        for b in range(16):
            walls = ((a,), (b,))
            expected = side_open(a, BOTTOM) != side_open(b, TOP)
            conflicts = edge_conflicts_of(walls)
            assert (len(conflicts) > 0) == expected, (a, b)


def test_edge_conflicts_match_cell_by_cell_scan():
    """Random codes give many conflicts; the list and its order match the scan."""
    rng = np.random.default_rng(7)
    for rows, cols in ((1, 1), (1, 9), (9, 1), (6, 7), (20, 30)):
        for _ in range(10):
            walls = tuple(map(tuple, rng.integers(0, 16, size=(rows, cols)).tolist()))
            assert edge_conflicts_of(walls) == edge_conflicts(walls)
    walls = open_room(4, 5)
    walls[2][3] |= RIGHT
    walls[1][0] |= BOTTOM
    assert edge_conflicts_of(walls) == [((1, 0), (2, 0)), ((2, 3), (2, 4))]


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
    assert grid.walls == ((11, 10, 14),)
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


def test_sink_may_open_its_exterior_side():
    grid = parse_layout("1 3 1.0\n11 10 10\nsink 0 2 1\nsource 0 0\n")
    assert side_open(grid.walls[0][2], RIGHT)
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
    assert parse_layout(text).walls == ((9, 12), (3, 6))
    assert parse_layout("2 1 1.0\n13\n07\nsink 1 0 1\nsource 0 0\n").walls == ((13,), (7,))


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
    or more, naming the count, before any row is read; `validate_grid`
    rejects a grid built with that many just as early."""
    count = f"{rows * cols} cells"
    with pytest.raises(ParseError, match=f"line 1: {rows}x{cols} grid has {count}"):
        parse_layout(f"{rows} {cols} 1.0\n")
    with pytest.raises(ParseError, match=count):
        validate_grid(LayoutGrid(rows=rows, cols=cols, cell_size_m=1.0, walls=(),
                                 sinks=(), sources=()))
    with pytest.raises(ParseError, match="expected 46340 wall-code lines"):
        parse_layout("46340 46340 1.0\n")


def test_parse_error_carries_line_number():
    text = "1 2 1.0\n10 99\nsink 0 1 1\nsource 0 0\n"
    with pytest.raises(ParseError, match="line 2"):
        parse_layout(text)


def test_obstacle_mirrors_neighbor_edges():
    """A solid cell is valid only with its four neighbours' shared sides
    closed too; each unmirrored side is reported as an edge conflict."""
    walls = open_room(3, 3)
    walls[1][1] = 15
    assert edge_conflicts_of(walls) == [((0, 1), (1, 1)), ((1, 0), (1, 1)),
                                          ((1, 1), (1, 2)), ((1, 1), (2, 1))]
    with pytest.raises(ConsistencyError):
        validate_grid(bare_grid(walls, sinks=(((0, 0), 1.0),), sources=((2, 2),)))
    assert not edge_conflicts_of(solid_centre(open_room(3, 3)))


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
        assert grid.wall_codes == bytes(code for row in grid.walls for code in row), k


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
