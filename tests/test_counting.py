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
    LatinSquare,
    TripleSystem,
    group_table,
    to_triples,
)
from latinlab.counting import (
    DEGENERACY_LABELS,
    _cells_of,
    _column_pairs,
    _proper_quadruples,
    count_configuration,
    count_cuboctahedra_nondegenerate,
    count_cuboctahedra_total,
    count_intercalates,
    count_intercalates_each,
    count_subsquares,
    cuboctahedron_configuration,
    cuboctahedron_report,
    girth,
    intercalate_configuration,
)
from latinlab.process import collision_filter, sample_sparse_system
from latinlab.rng import RandomStream
from latinlab.sampling import sample_rectangle, sample_squares

from reference import (
    brute_cuboctahedra,
    brute_embeddings,
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
    for k, expect in ((1, 1), (2, 12)):
        sq = group_table("elementary-abelian-2", k)
        assert count_intercalates(sq) == expect


def test_cyclic_table_total_is_n_fifth():
    for n in (1, 2, 3, 4):
        sq = group_table("cyclic", n)
        assert count_cuboctahedra_total(sq) == n**5


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
    return (count_cuboctahedra_nondegenerate(obj),
            count_cuboctahedra_total(obj), rep.total, rep.nondegenerate,
            breakdown)


def test_counts_invariant_under_relabeling_and_transpose():
    # relabeling symbols moves the smallest symbol, which fixes the
    # canonical orientation of a distinct-symbol submatrix
    rng = RandomStream(73)
    for obj in _sample_inputs(79):
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
    for g_max in range(4, 9):
        assert girth(ts, g_max=g_max) == brute_girth(ts, g_max=g_max)


# Not Latin: two triples in one cell span 4 vertices, and a third triple
# through that cell's row and one of its symbols makes 3 triples on 5
# vertices.  No partial Latin square has girth 5, since 3 triples on 5
# vertices always hold two that share 2 vertices.  The intercalate at the
# front makes the search find 6 before the 4 that a later root holds.
PLANTED = {
    "two-in-one-cell": [(0, 0, 0), (0, 0, 1)],
    "five-vertex": [(0, 0, 0), (0, 0, 1), (0, 1, 0)],
    "intercalate": [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)],
    "intercalate-then-cell": [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0),
                              (2, 2, 2), (2, 2, 0)],
}


@pytest.mark.parametrize("name", sorted(PLANTED))
def test_girth_of_planted_configurations(name):
    ts = TripleSystem(3, PLANTED[name])
    for g_max in range(4, 9):
        assert girth(ts, g_max=g_max) == brute_girth(ts, g_max=g_max)


def _girth_states(ts, g_max):
    """girth(ts, g_max) and, for each state the search enters (a call of
    its inner ``grow``, whose locals are read here), the number of
    vertices it spans and the best girth found before it."""
    grow = next(c for c in girth.__code__.co_consts
                if getattr(c, "co_name", None) == "grow")
    states = []

    def watch(frame, event, arg):
        if event == "call" and frame.f_code is grow:
            states.append((frame.f_locals["spanned"].bit_count(),
                           frame.f_locals["best"]))

    old = sys.getprofile()
    sys.setprofile(watch)
    try:
        found = girth(ts, g_max=g_max)
    finally:
        sys.setprofile(old)
    return found, states


@pytest.mark.parametrize("n,g_max", [(5, 6), (6, 6), (8, 7), (8, 8)])
def test_girth_search_enters_each_connected_set_once(n, g_max):
    # On a miss every connected set spanning at most g_max vertices is a
    # state, and ESU enters each one once, from its least triple.
    rng = RandomStream(700 + n + g_max)
    for _ in range(20):
        full = to_triples(sample_squares(n, 1, rng)[0]).triples
        ts = TripleSystem(n, rng.shuffled(full)[:rng.randrange(13)])
        if brute_girth(ts, g_max=g_max) is None:
            found, states = _girth_states(ts, g_max)
            assert found is None
            assert len(states) == connected_triple_sets(ts, g_max)


def test_girth_search_prunes_at_the_best_girth_found():
    # after a hit at g, no state spans g or more vertices: such a set
    # cannot grow into a configuration on fewer vertices
    pruned = 0
    for i in range(4):
        sq = sample_squares(6, 1, RandomStream(710 + i))[0]
        found, states = _girth_states(sq, 8)
        assert found == brute_girth(sq, g_max=6) == 6
        assert all(best is None or v < best for v, best in states)
        pruned += sum(best is not None for _, best in states)
    assert pruned > 0


@pytest.mark.parametrize("triples", [
    [(0, 3, 0), (0, 3, 1), (1, 1, 1)],   # column 3 would alias symbol 0
    [(0, 0, 0), (0, 1, -1)],
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


def test_intercalate_configuration_embeddings():
    sq = sample_squares(6, 1, RandomStream(61))[0]
    config = intercalate_configuration()
    # 4 labeled embeddings (2 row orders x 2 column orders) per copy
    assert count_configuration(config, sq) == 4 * count_intercalates(sq)
    assert count_configuration(config, sq) == brute_embeddings(
        config.parts, config.edges, sq)


def test_cuboctahedron_configuration_embeddings():
    # labeled embeddings correspond 1:1 to ordered nondegenerate pairs:
    # the ordered quadruple sweep already carries the automorphisms
    config = cuboctahedron_configuration()
    xor = group_table("elementary-abelian-2", 2)
    assert count_configuration(config, xor) == 96
    assert count_configuration(config, xor) == brute_embeddings(
        config.parts, config.edges, xor)
    sq = sample_squares(5, 1, RandomStream(67))[0]
    assert count_configuration(config, sq) == \
        count_cuboctahedra_nondegenerate(sq)


def test_configuration_desk_cap():
    from latinlab.counting import ColoredTripleSystem

    big = ColoredTripleSystem((5, 5, 5), tuple(
        (i, j, (i + j) % 5) for i in range(5) for j in range(3)))
    with pytest.raises(ValueError):
        count_configuration(big, group_table("cyclic", 5))
