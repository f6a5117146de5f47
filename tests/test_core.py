"""Structures, validation, and the text formats."""

import ast
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latinlab.core import (
    InputError,
    LatinRectangle,
    LatinSquare,
    TripartiteGraph,
    TripleSystem,
    group_table,
    parse_grid,
    parse_tripartite,
    parse_triples,
    serialize_grid,
    serialize_tripartite,
    serialize_triples,
    to_triples,
    validate,
)
import latinlab
from latinlab.rng import RandomStream
from latinlab.sampling import sample_squares

from reference import brute_validate, restrict_rows, serialize_partial, tripartite_of


def test_cyclic_table_is_latin():
    for n in range(1, 8):
        sq = group_table("cyclic", n)
        assert validate(sq)
        assert sq.grid[0, 0] == 0
        if n > 1:
            assert sq.grid[1, 1] == 2 % n


def test_elementary_abelian_table_is_latin():
    for k in (1, 2, 3):
        sq = group_table("elementary-abelian-2", k)
        assert sq.n == 2**k
        assert validate(sq)
        # XOR table: every element is an involution, so the diagonal is 0
        assert (np.diag(sq.grid) == 0).all()


def test_group_table_rejects_unknown_family():
    with pytest.raises(ValueError):
        group_table("dihedral", 3)


def test_validate_catches_row_repeat():
    grid = group_table("cyclic", 4).grid.copy()
    grid[0, 0] = grid[0, 1]
    rep = validate(LatinSquare(grid))
    assert not rep
    assert "row" in rep.message


@pytest.mark.parametrize("bad", [257, -1])
def test_grids_reject_symbols_out_of_range(bad):
    # uint8 storage would wrap 257 to 1 and -1 to 255
    with pytest.raises(InputError, match=f"symbol {bad} out of range"):
        LatinSquare([[0, 1, 2], [1, 2, 0], [2, 0, bad]])
    with pytest.raises(InputError, match=f"symbol {bad} out of range"):
        LatinRectangle([[0, 1, 2], [1, bad, 0]])


@pytest.mark.parametrize("edges", [
    {"edges_12": [[-1, 0]]}, {"edges_23": [[0, 2]]}, {"edges_31": [[0, -2]]},
])
def test_tripartite_rejects_vertices_outside_their_part(edges):
    with pytest.raises(InputError, match="outside parts"):
        TripartiteGraph((2, 2, 2), **edges)
    with pytest.raises(InputError):
        parse_tripartite(json.dumps({"parts": [2, 2, 2], **edges}))


@pytest.mark.parametrize("edges", [
    [((0, 0), (1, 0))],       # tuple vertices: numpy reads index arrays
    [[0, 1, 1]],
    [[0, 1], [1]],
    [[0.0, 1.0]],
    [[True, False]],
    [["0", "1"]],
    [[0, 2**70]],
])
def test_tripartite_rejects_edges_that_are_not_integer_pairs(edges):
    with pytest.raises(InputError, match="pairs of integer vertices"):
        TripartiteGraph((2, 2, 2), edges_12=edges)
    with pytest.raises(InputError, match="pairs of integer vertices"):
        parse_tripartite(json.dumps({"parts": [2, 2, 2], "edges_31": edges}))


def test_triples_roundtrip_group_table():
    sq = group_table("cyclic", 5)
    ts = to_triples(sq)
    assert len(ts.triples) == 25
    assert LatinSquare(ts.cell_grid()) == sq


def test_triple_system_dedupes_and_sorts():
    ts = TripleSystem(3, [(2, 2, 1), (0, 0, 0), (2, 2, 1)])
    assert ts.triples == ((0, 0, 0), (2, 2, 1))


def test_restrict_rows_gives_rectangle():
    rect = restrict_rows(group_table("cyclic", 6), 2)
    assert isinstance(rect, LatinRectangle)
    assert rect.k == 2 and rect.n == 6
    assert validate(rect)


def test_tripartite_of_square_is_complete():
    g = tripartite_of(group_table("cyclic", 4))
    assert g.parts == (4, 4, 4)
    assert g.adj12.all() and g.adj23.all() and g.adj31.all()


def test_square_text_roundtrip():
    sq = group_table("cyclic", 4)
    text = serialize_grid(sq)
    assert text.splitlines()[0] == "4"
    back = parse_grid(text)
    assert isinstance(back, LatinSquare)
    assert (back.grid == sq.grid).all()
    assert serialize_grid(back) == text


def test_rectangle_text_roundtrip():
    rect = restrict_rows(group_table("cyclic", 5), 3)
    text = serialize_grid(rect)
    assert text.splitlines()[0] == "3 5"
    back = parse_grid(text)
    assert type(back) is LatinRectangle
    assert (back.grid == rect.grid).all()
    # a k = n rectangle keeps its two-number header and its type
    full = LatinRectangle(group_table("cyclic", 5).grid)
    assert serialize_grid(full).splitlines()[0] == "5 5"
    assert parse_grid(serialize_grid(full)) == full


def test_partial_text_roundtrip():
    ts = TripleSystem(3, [(0, 0, 0), (1, 2, 1)])
    text = serialize_partial(ts)
    assert "." in text
    back = parse_grid(text)
    assert isinstance(back, TripleSystem)
    assert back.triples == ts.triples


def test_order_two_square_parses():
    sq = parse_grid("2\n0 1\n1 0\n")
    assert isinstance(sq, LatinSquare)
    assert sq.grid.tolist() == [[0, 1], [1, 0]]


def test_single_triple_roundtrip():
    ts = parse_triples("1\n0 0 0\n")
    assert ts.triples == ((0, 0, 0),)
    assert serialize_triples(ts) == "1\n0 0 0\n"


def test_symbol_out_of_range_is_an_error():
    with pytest.raises(ValueError):
        parse_grid("2\n0 2\n1 0\n")


def test_grid_parse_reports_line_numbers():
    try:
        parse_grid("3\n0 1 2\n1 2\n2 0 1\n")
    except ValueError as exc:
        assert "line" in str(exc)
    else:
        pytest.fail("short row accepted")


@pytest.mark.parametrize("text, line", [
    ("-2\n", 1), ("0\n", 1), ("\n-2\n0 0 0\n", 2)])
def test_nonpositive_order_rejected_with_line_number(text, line):
    for parse in (parse_triples, parse_grid):
        with pytest.raises(ValueError,
                           match=f"line {line}: order must be positive"):
            parse(text)


def test_duplicate_triple_rejected():
    with pytest.raises(ValueError):
        parse_triples("2\n0 0 0\n0 0 0\n")


def test_conflicting_triples_rejected():
    # two symbols in one cell
    with pytest.raises(ValueError):
        parse_triples("2\n0 0 0\n0 0 1\n")


def test_tripartite_json_roundtrip():
    g = tripartite_of(group_table("cyclic", 3))
    text = serialize_tripartite(g)
    back = parse_tripartite(text)
    assert back.parts == g.parts
    assert (back.adj12 == g.adj12).all()
    assert (back.adj23 == g.adj23).all()
    assert (back.adj31 == g.adj31).all()


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 7), st.integers(0, 2**32 - 1))
def test_sampled_square_roundtrips(n, seed):
    sq = sample_squares(n, 1, RandomStream(seed))[0]
    assert validate(sq)
    back = parse_grid(serialize_grid(sq))
    assert (back.grid == sq.grid).all()


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6), st.data())
def test_partial_systems_roundtrip_both_formats(n, data):
    cells = data.draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                      st.integers(0, n - 1)),
            max_size=n * n,
        )
    )
    # keep at most one symbol per cell and per line to stay Latin
    seen_rc, seen_rs, seen_cs = set(), set(), set()
    keep = []
    for r, c, s in cells:
        if (r, c) in seen_rc or (r, s) in seen_rs or (c, s) in seen_cs:
            continue
        seen_rc.add((r, c))
        seen_rs.add((r, s))
        seen_cs.add((c, s))
        keep.append((r, c, s))
    ts = TripleSystem(n, keep)
    assert parse_triples(serialize_triples(ts)).triples == ts.triples
    parsed = parse_grid(serialize_partial(ts))
    if isinstance(parsed, LatinSquare):  # full square comes back typed
        assert to_triples(parsed).triples == ts.triples
    else:
        assert parsed.triples == ts.triples


@st.composite
def _planted_systems(draw):
    """A square prefix with out-of-range, cell, row and column clashes
    planted, several at once."""
    n = draw(st.integers(1, 6))
    full = to_triples(
        sample_squares(n, 1, RandomStream(draw(st.integers(0, 99))))[0])
    triples = list(draw(st.permutations(full.triples))[
        : draw(st.integers(1, n * n))])
    for _ in range(draw(st.integers(0, 4))):
        r, c, s = draw(st.sampled_from(triples))
        kind = draw(st.sampled_from(["range", "cell", "row", "column"]))
        other = draw(st.integers(0, n - 1))
        if kind == "range":
            bad = draw(st.sampled_from([-1, n, n + 2, 2**70, -(2**70)]))
            at = draw(st.integers(0, 2))
            triples.append(tuple(bad if i == at else v
                                 for i, v in enumerate((r, c, s))))
        elif kind == "cell":
            triples.append((r, c, other))
        elif kind == "row":
            triples.append((r, other, s))
        else:
            triples.append((other, c, s))
    return TripleSystem(n, triples)


@settings(max_examples=200, deadline=None)
@given(_planted_systems())
def test_validate_reports_the_first_violation_like_the_loop(ts):
    assert validate(ts) == brute_validate(ts)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(0, 99), st.data())
def test_validate_grids_like_the_loop_on_their_triples(n, seed, data):
    # a square or a rectangle of it with one or two cells overwritten
    grid = sample_squares(n, 1, RandomStream(seed))[0].grid.copy()
    k = data.draw(st.integers(1, n))
    for _ in range(data.draw(st.integers(1, 2))):
        r = data.draw(st.integers(0, k - 1))
        c = data.draw(st.integers(0, n - 1))
        grid[r, c] = data.draw(st.integers(0, n - 1))
    obj = LatinSquare(grid) if k == n else LatinRectangle(grid[:k])
    assert validate(obj) == brute_validate(to_triples(obj))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.data())
def test_from_array_equals_the_tuple_constructor(n, data):
    coord = st.integers(-2, n + 1)
    rows = data.draw(st.lists(st.tuples(coord, coord, coord), max_size=3 * n))
    rows += data.draw(st.lists(st.sampled_from(rows), max_size=3)) if rows else []
    dtype = data.draw(st.sampled_from([np.int64, np.int32, np.int8]))
    arr = np.array(data.draw(st.permutations(rows)), dtype=dtype).reshape(-1, 3)
    fast = TripleSystem.from_array(n, arr)
    slow = TripleSystem(n, map(tuple, arr.tolist()))
    assert len(fast) == len(slow)
    assert fast.array.dtype == np.int64
    assert np.array_equal(fast.array, slow.array)
    assert fast.triples == slow.triples
    assert fast == slow and slow == fast
    assert hash(fast) == hash(slow)
    assert validate(fast) == validate(slow)
    assert not fast.array.flags.writeable
    with pytest.raises(ValueError):
        fast.array[..., 0] = 0
    # sorted input, with and without repeated rows
    for again in (fast.array, np.repeat(fast.array, 2, axis=0)):
        assert np.array_equal(TripleSystem.from_array(n, again).array,
                              slow.array)


def test_all_names_exactly_the_package_exports():
    # the names latinlab/__init__.py binds by import or assignment, read
    # from its source, so that an export dropped from one list but not
    # the other fails here
    tree = ast.parse(Path(latinlab.__file__).read_text())
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            bound.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Assign):
            bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
    bound.discard("__all__")
    assert len(latinlab.__all__) == len(set(latinlab.__all__))
    assert set(latinlab.__all__) == bound
    for name in latinlab.__all__:
        assert getattr(latinlab, name) is not None
