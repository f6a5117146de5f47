"""Fast counters against the brute-force oracles."""

import inspect
import itertools
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latinlab import counting
from latinlab.core import (
    InputError,
    LatinRectangle,
    LatinSquare,
    TripleSystem,
    group_table,
    to_triples,
    validate,
)
from latinlab.counting import (
    DEGENERACY_LABELS,
    _cells_of,
    _column_pairs,
    _girth_search,
    _proper_quadruples,
    _same_group_pairs,
    count_cuboctahedra_nondegenerate,
    count_cuboctahedra_total,
    count_intercalates,
    count_intercalates_each,
    count_subsquares,
    cuboctahedron_report,
    girth,
)
from latinlab.process import (
    ProcessConfig,
    collision_filter,
    run_process,
    sample_sparse_system,
)
from latinlab.rng import RandomStream, substream
from latinlab.sampling import sample_rectangle, sample_squares

from reference import (
    brute_cuboctahedra,
    brute_girth,
    brute_intercalates,
    brute_report,
    brute_subsquares,
    brute_total,
    connected_triple_sets,
    restrict_rows,
)


def test_xor_table_intercalates_closed_form():
    # (2^k)^2 (2^k - 1) / 4, every pair of rows and columns aligned
    for k, expect in ((1, 1), (2, 12), (3, 112)):
        sq = group_table("elementary-abelian-2", k)
        assert count_intercalates(sq) == expect


def test_cyclic_table_total_is_n_fifth():
    # every group table attains n^5; the Klein table is not cyclic
    tables = [group_table("cyclic", n) for n in (1, 2, 3, 4, 5)]
    for sq in tables + [group_table("elementary-abelian-2", 2)]:
        assert count_cuboctahedra_total(sq) == sq.n**5


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2**32 - 1))
def test_total_matches_brute(n, seed):
    # one kernel for a square, a row prefix as a rectangle and a shuffled
    # partial prefix, whose empty cells must all key out of range
    rng = RandomStream(seed)
    sq = sample_squares(n, 1, rng)[0]
    rect = restrict_rows(sq, 1 + rng.randrange(n))
    full = list(to_triples(sq).triples)
    partial = TripleSystem(n, rng.shuffled(full)[: rng.randrange(n * n + 1)])
    for obj in (sq, rect, partial):
        total = count_cuboctahedra_total(obj)
        assert type(total) is int
        assert total == brute_total(obj)


def test_total_matches_report_at_larger_orders():
    rng = RandomStream(29)
    objs = [sample_squares(n, 1, rng)[0] for n in (16, 24, 32)]
    objs.append(collision_filter(sample_sparse_system(48, 0.35, rng)))
    for obj in objs:
        assert count_cuboctahedra_total(obj) == cuboctahedron_report(obj).total
    total = count_cuboctahedra_total(group_table("cyclic", 64))
    assert total == 64**5 and type(total) is int


def test_total_cap_points_to_the_report():
    # one intercalate and a far cell: tiny, but n = 65 is over the cap
    ts = TripleSystem(65, [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0),
                           (64, 64, 64)])
    route = r"cuboctahedron_report\(obj\)\.total"
    with pytest.raises(InputError, match=route):
        count_cuboctahedra_total(ts)
    assert cuboctahedron_report(ts).total == brute_total(ts) == 33


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2**32 - 1))
def test_intercalates_match_brute(n, seed):
    sq = sample_squares(n, 1, RandomStream(seed))[0]
    assert count_intercalates(sq) == brute_intercalates(sq)


def test_intercalates_on_rectangles_match_brute():
    rng = RandomStream(5)
    for n, k in ((6, 3), (7, 2), (8, 5)):
        rect = restrict_rows(sample_squares(n, 1, rng)[0], k)
        assert count_intercalates(rect) == brute_intercalates(rect)
    systems = [TripleSystem(5, []),
               # rows 1 and 3 empty, an intercalate on rows 0 and 2
               TripleSystem(4, [(0, 0, 0), (0, 1, 1), (2, 0, 1), (2, 1, 0),
                                (2, 3, 3)])]
    for trial in range(40):
        n = 2 + trial % 8
        full = to_triples(sample_squares(n, 1, rng)[0])
        m = rng.randrange(len(full) + 1)
        systems.append(TripleSystem(n, rng.shuffled(list(full.triples))[:m]))
    for n in (12, 16, 20):
        systems.append(collision_filter(sample_sparse_system(n, 0.35, rng)))
    for ts in systems:
        got = count_intercalates(ts)
        assert type(got) is int
        assert got == brute_intercalates(ts), ts
    assert count_intercalates(systems[1]) == 1


def test_intercalates_each_matches_single_counts():
    rng = RandomStream(7)
    squares = sample_squares(6, 5, rng)
    for k in range(1, 7):
        stack = [restrict_rows(sq, k) for sq in squares]
        got = count_intercalates_each(stack)
        assert got == [count_intercalates(rect) for rect in stack]
        assert all(type(v) is int for v in got)
    assert count_intercalates_each(squares) == [
        brute_intercalates(sq) for sq in squares]
    assert count_intercalates_each([]) == []


_GROUP_TABLES = [group_table("cyclic", m) for m in (4, 5, 6)] + [
    group_table("elementary-abelian-2", 2)]


def _assert_report_matches_brute(obj):
    fast = cuboctahedron_report(obj)
    slow = brute_report(obj)
    assert fast.total == slow["total"]
    assert fast.nondegenerate == slow["nondegenerate"]
    for label in DEGENERACY_LABELS:
        assert fast.breakdown[label] == slow[label], label
    assert count_cuboctahedra_total(obj) == fast.total
    assert count_cuboctahedra_nondegenerate(obj) == fast.nondegenerate
    counts = [fast.total, fast.nondegenerate, *fast.breakdown.values(),
              count_cuboctahedra_nondegenerate(obj)]
    assert all(type(v) is int for v in counts)


def test_report_matches_brute_per_class():
    rng = RandomStream(11)
    for n in (4, 5, 6):
        for sq in sample_squares(n, 2, rng):
            _assert_report_matches_brute(sq)
    # group tables: many repeated-symbol pairs sharing one cell
    for sq in _GROUP_TABLES:
        _assert_report_matches_brute(sq)
    # collision-filtered sparse systems, the shape counted by gstar
    for n in (12, 16, 20, 24):
        for _ in range(2):
            ts = collision_filter(sample_sparse_system(n, 0.35, rng))
            _assert_report_matches_brute(ts)
    # no quadruples at all
    _assert_report_matches_brute(TripleSystem(5, []))
    # one 2x2 block of four symbols: every distinct-symbol class is a
    # singleton and no repeated-symbol class exists
    _assert_report_matches_brute(
        TripleSystem(4, [(0, 0, 0), (0, 1, 1), (1, 0, 2), (1, 1, 3)]))


def test_report_oracle_catches_a_dropped_term():
    # the opposite-face count without its +4 (class, row pair, column
    # pair) term, planted in a copy of the report
    source = inspect.getsource(counting.cuboctahedron_report)
    term = "+ 4 * _ordered_pairs(rp * n * n + col_pair)"
    assert term in source
    namespace = dict(vars(counting))
    exec(source.replace(term, ""), namespace)
    mutant = namespace["cuboctahedron_report"]
    label = "opposite-face-overlap"
    assert any(mutant(sq).breakdown[label] != brute_report(sq)[label]
               for sq in _GROUP_TABLES)


def test_report_partitions_total():
    sq = sample_squares(7, 1, RandomStream(3))[0]
    rep = cuboctahedron_report(sq)
    assert rep.total == rep.nondegenerate + rep.degenerate_total()
    assert rep.total == count_cuboctahedra_total(sq)
    assert rep.nondegenerate == count_cuboctahedra_nondegenerate(sq)


def test_totals_match_brute_on_partial_systems():
    rng = RandomStream(23)
    sq = sample_squares(6, 1, rng)[0]
    full = to_triples(sq)
    partial = TripleSystem(6, full.triples[: 20])
    assert count_cuboctahedra_total(partial) == brute_total(partial)
    rep = cuboctahedron_report(partial)
    assert rep.nondegenerate == brute_cuboctahedra(partial)["nondegenerate"]
    # random shuffled prefixes of squares
    for trial in range(15):
        n = 3 + trial % 5
        full = to_triples(sample_squares(n, 1, rng)[0])
        m = rng.randrange(len(full.triples) + 1)
        ts = TripleSystem(n, rng.shuffled(list(full.triples))[:m])
        assert count_cuboctahedra_total(ts) == brute_total(ts)
        _assert_report_matches_brute(ts)


def test_report_matches_brute_on_a_planted_class():
    # four copies of the pattern 0 1 / 2 3: the first three chained by
    # rows (row 1 and row 2 each hold a copy's top and another's bottom)
    # and the fourth sharing column 1 with the first
    copies = [((0, 1), (0, 1)), ((1, 2), (2, 3)), ((2, 3), (4, 5)),
              ((4, 5), (1, 6))]
    ts = TripleSystem(8, [(r, c, 2 * i + j)
                          for rows, cols in copies
                          for i, r in enumerate(rows)
                          for j, c in enumerate(cols)])
    _assert_report_matches_brute(ts)
    # 12 ordered pairs of copies, 6 of them sharing a row or column,
    # each in 4 row and column orders
    assert count_cuboctahedra_nondegenerate(ts) == 4 * (12 - 6)


def _block_union(systems):
    """The systems side by side on disjoint rows, columns and symbols."""
    shifted, offset = [], 0
    for ts in systems:
        shifted.append(ts.array + offset)
        offset += ts.n
    return TripleSystem.from_array(offset, np.concatenate(shifted))


def test_nondegenerate_counts_add_over_disjoint_blocks():
    # gstar scale, past any brute oracle: the union of 3 systems has
    # order 450, whose row-pair keys take the int64 sort
    rng = RandomStream(89)
    systems = [collision_filter(sample_sparse_system(150, 0.2, rng))
               for _ in range(3)]
    counts = [count_cuboctahedra_nondegenerate(ts) for ts in systems]
    assert sum(counts) > 0
    union = _block_union(systems)
    assert count_cuboctahedra_nondegenerate(union) == sum(counts)
    assert cuboctahedron_report(union).nondegenerate == sum(counts)


def _sample_inputs(seed):
    """Squares, their triple systems, shuffled square prefixes and
    collision-filtered sparse systems."""
    rng = RandomStream(seed)
    out = []
    for n in (4, 6, 8):
        sq = sample_squares(n, 1, rng)[0]
        full = to_triples(sq)
        out += [sq, full, TripleSystem(
            n, rng.shuffled(list(full.triples))[: rng.randrange(n * n)])]
    out.append(group_table("cyclic", 5))
    for n in (12, 20):
        out.append(collision_filter(sample_sparse_system(n, 0.35, rng)))
    return out


@pytest.mark.parametrize("sizes", [
    [], [1] * 50, [64], [3, 1, 64, 2, 1, 7], list(range(12))])
def test_same_group_pairs_match_combinations(sizes):
    # a dense square has groups of size n: one of 64 stands for those;
    # keys from 2^16 up take the int64 sort, the others the uint16 one
    rng = np.random.default_rng(len(sizes) * 1000 + sum(sizes))
    for offset in (0, 2**16):
        labels = offset + rng.permutation(len(sizes))
        keys = rng.permutation(np.repeat(labels, sizes).astype(np.int64))
        P, Q = _same_group_pairs(keys)
        assert (P < Q).all() and (keys[P] == keys[Q]).all()
        want = sorted(
            pair for key in labels
            for pair in itertools.combinations(np.flatnonzero(keys == key), 2))
        assert sorted(zip(P.tolist(), Q.tolist())) == want


def test_column_pairs_put_the_upper_cell_first():
    # c1 < c2 of the records is checked by the submatrix listing below
    for obj in _sample_inputs(67):
        cells = _cells_of(obj)
        rows, cols = cells[:2]
        P, Q = _column_pairs(cells)
        assert (cols[P] == cols[Q]).all() and (rows[P] < rows[Q]).all()


def test_proper_quadruples_list_each_submatrix_once():
    for obj in _sample_inputs(71):
        cells = _cells_of(obj)
        rows, cols, syms, n = cells
        grid = dict(zip(zip(rows.tolist(), cols.tolist()), syms.tolist()))
        want = []
        for r1, r2 in itertools.combinations(range(n), 2):
            for c1, c2 in itertools.combinations(range(n), 2):
                quad = [(r1, c1), (r1, c2), (r2, c1), (r2, c2)]
                if all(cell in grid for cell in quad):
                    want.append((r1, r2, c1, c2, *(grid[x] for x in quad)))
        got = _proper_quadruples(cells, _column_pairs(cells)).T.tolist()
        assert sorted(map(tuple, got)) == want


def _relabeled(obj, rng, transpose):
    """obj with rows, columns and symbols permuted at random, and
    optionally transposed, as the same type."""
    n = obj.n
    pr, pc, ps = (rng.shuffled(list(range(n))) for _ in range(3))
    if isinstance(obj, LatinSquare):
        grid = np.empty((n, n), dtype=np.int64)
        grid[np.ix_(pr, pc)] = np.array(ps)[obj.grid]
        return LatinSquare(grid.T if transpose else grid)
    triples = [(pr[r], pc[c], ps[s]) for r, c, s in obj.triples]
    if transpose:
        triples = [(c, r, s) for r, c, s in triples]
    return TripleSystem(n, triples)


# a transpose turns 2x1 shapes into 1x2 shapes
_TRANSPOSED = {"two-2x1-same-symbols": "two-1x2-same-symbols",
               "same-2x1-twice": "same-1x2-twice"}
_TRANSPOSED.update({v: k for k, v in _TRANSPOSED.items()})


def _census(obj, transpose=False):
    rep = cuboctahedron_report(obj)
    breakdown = {_TRANSPOSED.get(k, k) if transpose else k: v
                 for k, v in rep.breakdown.items()}
    total = count_cuboctahedra_total(obj) if obj.n <= 64 else rep.total
    return (count_cuboctahedra_nondegenerate(obj), total, rep.total,
            rep.nondegenerate, breakdown)


def test_counts_invariant_under_relabeling_and_transpose():
    # relabeling symbols moves the smallest symbol, which fixes the
    # canonical orientation of a distinct-symbol submatrix; the gstar
    # system is too large for the brute listing over _sample_inputs
    rng = RandomStream(73)
    gstar = collision_filter(sample_sparse_system(150, 0.2, RandomStream(83)))
    for obj in [*_sample_inputs(79), gstar]:
        base = _census(obj)
        for transpose in (False, True, False):
            assert _census(_relabeled(obj, rng, transpose), transpose) == base


def test_counters_reject_out_of_range_triples():
    ts = TripleSystem(3, [(0, 0, 5)])
    for counter in (count_intercalates, count_cuboctahedra_total,
                    count_cuboctahedra_nondegenerate, cuboctahedron_report):
        with pytest.raises(ValueError, match="out of range"):
            counter(ts)


def test_subsquares_equal_brute():
    rng = RandomStream(31)
    for n in (5, 6, 7):
        sq = sample_squares(n, 1, rng)[0]
        for k in (2, 3, 4):
            assert count_subsquares(sq, k) == brute_subsquares(sq, k)


def test_subsquares_k2_are_intercalates():
    sq = sample_squares(8, 1, RandomStream(41))[0]
    assert count_subsquares(sq, 2) == count_intercalates(sq)


def test_subsquare_order_out_of_range():
    sq = group_table("cyclic", 5)
    with pytest.raises(ValueError):
        count_subsquares(sq, 5)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_subsquares_reject_rectangles(k):
    # the k = n rectangle of a square counts as the square everywhere
    # else, but is a different type: unequal, and no subsquare input
    sq = sample_squares(6, 1, RandomStream(k))[0]
    full = LatinRectangle(sq.grid)
    for rect in (LatinRectangle(sq.grid[:3]), full):
        with pytest.raises(TypeError, match="LatinRectangle"):
            count_subsquares(rect, k)
    assert full != sq and sq != full
    for f in (count_intercalates, count_cuboctahedra_total,
              cuboctahedron_report, girth, validate, to_triples):
        assert f(full) == f(sq)


def test_subsquares_reject_triple_systems():
    ts = to_triples(group_table("cyclic", 4))
    with pytest.raises(TypeError, match="TripleSystem"):
        count_subsquares(ts, 3)


def test_xor_table_subsquares():
    # the k=2 XOR table is the square of its own subgroup structure:
    # every 2-subset of a coset pair closes, giving 12 + 4*... spot value
    sq = group_table("elementary-abelian-2", 2)
    assert count_subsquares(sq, 2) == 12
    assert count_subsquares(sq, 4) == 1


def test_girth_of_intercalate_is_six():
    ts = TripleSystem(2, [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)])
    assert girth(ts) == 6


@st.composite
def small_triple_systems(draw):
    """Up to 16 triples from a sampled square, a sampled 2- or 3-row
    rectangle, or uniform triples that may share a cell, row-symbol or
    column-symbol pair (not Latin)."""
    kind = draw(st.sampled_from(("square", "rectangle", "not-latin")))
    n = draw(st.integers(3, 6))
    rng = RandomStream(draw(st.integers(0, 2**32 - 1)))
    if kind == "square":
        triples = to_triples(sample_squares(n, 1, rng)[0]).triples
    elif kind == "rectangle":
        rect = sample_rectangle(draw(st.integers(2, 3)), n, rng)
        triples = to_triples(rect).triples
    else:
        triples = [(rng.randrange(n), rng.randrange(n), rng.randrange(n))
                   for _ in range(2 * n)]
    keep = draw(st.integers(0, 16))
    return TripleSystem(n, rng.shuffled(triples)[:keep])


@settings(max_examples=60, deadline=None)
@given(small_triple_systems())
def test_girth_matches_brute_on_small_systems(ts):
    for g_max in range(2, 10):
        assert girth(ts, g_max=g_max) == brute_girth(ts, g_max=g_max)


def _intercalate_free_subset(n: int, keep: int, rng: RandomStream):
    """Up to ``keep`` triples of a sampled order-n square, taken in a
    shuffled order and kept unless they close an intercalate with the
    triples kept before them."""
    kept: dict[tuple[int, int], int] = {}
    for r, c, s in rng.shuffled(to_triples(sample_squares(n, 1, rng)[0]).triples):
        if len(kept) == keep:
            break
        # the opposite corner (r2, c2) holds s, and the other two corners
        # a common symbol
        if not any((r, c2) in kept and kept[r, c2] == kept.get((r2, c))
                   for (r2, c2), s2 in kept.items() if s2 == s):
            kept[r, c] = s
    return TripleSystem(n, [(r, c, s) for (r, c), s in kept.items()])


@st.composite
def intercalate_free_systems(draw):
    """Up to 14 intercalate-free triples of a sampled square of order
    4..8."""
    n = draw(st.integers(4, 8))
    rng = RandomStream(draw(st.integers(0, 2**32 - 1)))
    return _intercalate_free_subset(n, draw(st.integers(0, 14)), rng)


@settings(max_examples=40, deadline=None)
@given(intercalate_free_systems())
def test_girth_matches_brute_on_intercalate_free_systems(ts):
    assert count_intercalates(ts) == 0
    for g_max in range(4, 9):
        assert girth(ts, g_max=g_max) == brute_girth(ts, g_max=g_max)


# Not Latin: two triples in one cell span 4 vertices, and a third triple
# through that cell's row and one of its symbols makes 3 triples on 5
# vertices.  No partial Latin square has girth 5, since 3 triples on 5
# vertices always hold two that share 2 vertices.  A system that is not
# Latin always has girth 4 (two triples share a cell, row symbol or
# column symbol), also when an intercalate or the 3 x 3 block below sorts
# before its clash.  "latin-eight" puts two symbols on two disjoint
# broken diagonals of a 3 x 3 block: 6 triples on 8 vertices and no
# intercalate.  Every 5 of its triples span all 8 vertices, so the search
# reaches the sixth only through a set that spans the cap.
LATIN_EIGHT = [(0, 0, 0), (1, 1, 0), (2, 2, 0), (0, 1, 1), (1, 2, 1),
               (2, 0, 1)]
PLANTED = {
    "two-in-one-cell": [(0, 0, 0), (0, 0, 1)],
    "five-vertex": [(0, 0, 0), (0, 0, 1), (0, 1, 0)],
    "intercalate": [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)],
    "intercalate-then-cell": [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0),
                              (2, 2, 2), (2, 2, 0)],
    "latin-eight": LATIN_EIGHT,
    "eight-then-cell": LATIN_EIGHT + [(5, 5, 5), (5, 5, 4)],
}


@pytest.mark.parametrize("name", sorted(PLANTED))
def test_girth_of_planted_configurations(name):
    ts = TripleSystem(6, PLANTED[name])
    searchable = validate(ts) and count_intercalates(ts) == 0
    for g_max in range(4, 10):
        expected = brute_girth(ts, g_max=g_max)
        assert girth(ts, g_max=g_max) == expected
        if searchable:
            assert _girth_search(ts, g_max) == expected


def test_girth_of_a_clash_does_not_search(monkeypatch):
    # the girth-6 process output of the benchmark's miss, plus a second
    # symbol in its last filled cell: girth 4 at every cap from 4
    placed = run_process(24, substream(0, 901), ProcessConfig(girth=6)).placed
    r, c, s = placed.triples[-1]
    ts = TripleSystem(24, placed.triples + ((r, c, (s + 1) % 24),))

    def no_search(*args):
        raise AssertionError("girth searched a system that is not Latin")

    monkeypatch.setattr(counting, "_girth_search", no_search)
    for g_max in (6, 7, 12):
        assert girth(ts, g_max=g_max) == 4
    assert girth(ts, g_max=3) is None


def _inner(*names):
    return {c for c in _girth_search.__code__.co_consts
            if getattr(c, "co_name", None) in names}


def _watched(watch, search, *args):
    """search(*args) with ``watch`` as the profile function."""
    old = sys.getprofile()
    sys.setprofile(watch)
    try:
        return search(*args)
    finally:
        sys.setprofile(old)


def _girth_states(search, *args):
    """search(*args) and, for each state the girth search enters (a call
    of its inner ``grow``, or of ``close`` for a set spanning the cap,
    whose locals and callers' locals are read here): whether it spans
    the cap, its members (the root and the triple each enclosing
    ``grow`` is adding), the number of vertices it spans and the best
    girth found before it."""
    grow, close = _inner("grow"), _inner("close")
    states = []

    def watch(frame, event, arg):
        if event != "call" or frame.f_code not in grow | close:
            return
        at_cap = frame.f_code in close
        f, members = frame.f_back, set()
        while f.f_code in grow:
            members.add(f.f_locals["w"])
            f = f.f_back
        members.add((frame.f_back if at_cap else frame).f_locals["root"])
        states.append((at_cap, frozenset(members),
                       frame.f_locals["spanned"].bit_count(),
                       frame.f_locals["best"]))

    return _watched(watch, search, *args), states


def _check_miss_states(states, ts, g_max):
    # every connected set below the cap is entered once, by ``grow``;
    # every connected set spanning the cap holds one that ``close``
    # entered on the same span, and ``close`` enters each set once
    sets = connected_triple_sets(ts, g_max)
    below = [m for at_cap, m, _, _ in states if not at_cap]
    closed = [m for at_cap, m, _, _ in states if at_cap]
    assert len(below) == len(set(below))
    assert set(below) == {m for m, v in sets.items() if v < g_max}
    assert len(closed) == len(set(closed))
    assert all(sets.get(m) == g_max for m in closed)
    assert all(any(c <= m for c in closed)
               for m, v in sets.items() if v == g_max)


@pytest.mark.parametrize("n,g_max", [(5, 6), (6, 6), (8, 7), (8, 8), (9, 9)])
def test_girth_search_enters_each_connected_set_once(n, g_max):
    # On a miss ESU reaches every connected set spanning at most g_max
    # vertices once, from its least triple, but does not grow a set that
    # spans the cap.  Called directly the search runs at every cap;
    # girth() on these Latin inputs searches only from g_max 8 on.
    rng = RandomStream(700 + n + g_max)
    misses = 0
    for _ in range(20):
        full = to_triples(sample_squares(n, 1, rng)[0]).triples
        ts = TripleSystem(n, rng.shuffled(full)[:rng.randrange(13)])
        if brute_girth(ts, g_max=g_max) is None:
            misses += 1
            found, states = _girth_states(_girth_search, ts, g_max)
            assert found is None
            _check_miss_states(states, ts, g_max)
            found, latin_states = _girth_states(girth, ts, g_max)
            assert found is None
            assert latin_states == (states if g_max >= 8 else [])
    assert misses


def test_girth_search_prunes_at_the_best_girth_found():
    # after a hit at g, no state spans g or more vertices: such a set
    # cannot grow into a configuration on fewer vertices
    rng = RandomStream(710)
    runs = [(_intercalate_free_subset(5, 14, rng), 9) for _ in range(12)]
    # the 3 x 3 block of girth 8, then later roots on other lines
    runs.append((TripleSystem(6, LATIN_EIGHT + [
        (3, 3, 2), (3, 4, 3), (4, 3, 4), (4, 5, 2), (5, 4, 4)]), 9))
    pruned = 0
    for ts, g_max in runs:
        found, states = _girth_states(girth, ts, g_max)
        assert found == brute_girth(ts, g_max=g_max)
        assert all(best is None or v < best for _, _, v, best in states)
        pruned += sum(best is not None for _, _, _, best in states)
    assert pruned > 0


def _close_calls(search, *args):
    """search(*args) and, for each call of its inner ``close``, the
    member count of the state, its vertex bitmask and whether it was
    recorded as a hit."""
    close = _inner("close")
    calls, entered = [], []

    def watch(frame, event, arg):
        if frame.f_code not in close:
            return
        if event == "call":
            entered.append((frame.f_back.f_locals["size"] + 1,
                            frame.f_locals["spanned"],
                            frame.f_locals["best"]))
        elif event == "return":
            members, spanned, before = entered.pop()
            calls.append((members, spanned,
                          frame.f_locals["best"] != before))

    return _watched(watch, search, *args), calls


def test_cap_states_close_exactly_when_enough_triples_lie_inside():
    # a set spanning the cap is a hit iff at least span - 2 triples lie
    # inside its span; the planted 3 x 3 block is closed from a state of
    # 4 members, with two more triples inside
    runs = [(girth, TripleSystem(6, LATIN_EIGHT), 8),
            (_girth_search, TripleSystem(6, LATIN_EIGHT), 8),
            (_girth_search, TripleSystem(6, LATIN_EIGHT), 9)]
    rng = RandomStream(730)
    for _ in range(6):
        runs.append((_girth_search, _intercalate_free_subset(8, 14, rng), 7))
    extras = []
    for search, ts, *args in runs:
        n = ts.n
        masks = [(1 << r) | (1 << (n + c)) | (1 << (2 * n + s))
                 for r, c, s in ts.triples]
        _, calls = _close_calls(search, ts, *args)
        assert calls
        for members, spanned, hit in calls:
            inside = sum(m | spanned == spanned for m in masks)
            assert hit == (inside >= spanned.bit_count() - 2)
            if hit:
                extras.append(inside - members)
    assert max(extras) >= 2


def test_girth_of_a_sparse_system_skips_its_single_rows():
    # one triple per row, on distinct columns and symbols: no row can be
    # in an intercalate, so the kernel gets no rows; a planted
    # intercalate on two more rows is found
    triples = [(r, 3 * r, 7 * r) for r in range(50)]
    block = [(398, 390, 390), (398, 391, 391), (399, 390, 391),
             (399, 391, 390)]
    for g_max in (6, 8):
        assert girth(TripleSystem(400, triples), g_max=g_max) is None
        assert girth(TripleSystem(400, triples + block), g_max=g_max) == 6


def test_girth_of_a_girth_six_process_output_past_six():
    # girth 7 is impossible in a partial Latin square; the search, which
    # girth() starts only from g_max 8, agrees on the same input
    placed = run_process(24, RandomStream(0), ProcessConfig(girth=6)).placed
    assert girth(placed, g_max=7) is None
    assert _girth_search(placed, 7) is None


@pytest.mark.parametrize("triples", [
    [(0, 3, 0), (0, 3, 1), (1, 1, 1)],   # column 3 would alias symbol 0
    [(0, 0, 0), (0, 1, -1)],
    # validate reports the clash in cell (0, 0) first
    [(0, 0, 0), (0, 0, 1), (2, 2, 7)],
])
def test_girth_rejects_out_of_range_coordinates(triples):
    with pytest.raises(InputError, match="out of range"):
        girth(TripleSystem(3, triples))


def test_girth_none_when_capped_below_six():
    sq = group_table("elementary-abelian-2", 1)  # one intercalate
    assert girth(sq, g_max=5) is None
    assert girth(sq, g_max=6) == 6


def test_girth_cap_enforced():
    with pytest.raises(ValueError):
        girth(TripleSystem(2, [(0, 0, 0)]), g_max=13)
