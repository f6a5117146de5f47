"""The cell-count oracle and the growth-rate bounds."""

import functools
import itertools
import operator
from collections import Counter

import pytest

from latinlab.core import TripleSystem, group_table, validate
from latinlab.counting import count_intercalates
from latinlab.extremal import (
    ORACLE_CELL_CAP,
    PHI_N_CAP,
    max_intercalates_oracle,
    phi_exact,
    phi_lower_bound,
    phi_report,
    phi_upper_bound,
)
from latinlab.process import collision_filter, sample_sparse_system
from latinlab.rng import RandomStream
from latinlab.sampling import sample_squares

from reference import (
    brute_intercalate_cells,
    brute_intercalates,
    brute_max_intercalates,
    graph_triangles,
)


def test_oracle_small_values():
    # an intercalate needs 4 cells, so the first three values vanish
    assert max_intercalates_oracle(0)[0] == 0
    assert max_intercalates_oracle(3)[0] == 0
    assert max_intercalates_oracle(4)[0] == 1


def test_oracle_is_the_sharing_bound():
    # k intercalates cover at least 4k - C(k, 2) cells, so m cells hold
    # fewer than the least k that does not fit, and the table attains it
    for m in range(ORACLE_CELL_CAP + 1):
        k = 1
        while 4 * k - k * (k - 1) // 2 <= m:
            k += 1
        assert max_intercalates_oracle(m)[0] == k - 1, m


def test_oracle_cache_clears_to_the_same_table():
    before = [max_intercalates_oracle(m) for m in range(ORACLE_CELL_CAP + 1)]
    max_intercalates_oracle.cache_clear()
    after = [max_intercalates_oracle(m) for m in range(ORACLE_CELL_CAP + 1)]
    for (best, witness), (best2, witness2) in zip(before, after):
        assert best == best2
        assert witness.triples == witness2.triples
        assert witness.n == witness2.n


def test_oracle_witnesses_are_valid_and_tight():
    for m in range(ORACLE_CELL_CAP + 1):
        best, witness = max_intercalates_oracle(m)
        assert len(witness.triples) <= m
        assert validate(witness)
        assert count_intercalates(witness) == best
        assert brute_intercalates(witness) == best


def test_oracle_matches_unpruned_search():
    # the proved table gives the value and the witness of the search
    for m in range(ORACLE_CELL_CAP + 1):
        best, witness = max_intercalates_oracle(m)
        ref_best, ref_witness = brute_max_intercalates(m)
        assert best == ref_best, m
        assert witness.triples == ref_witness.triples, m
        assert witness.n == ref_witness.n, m


def test_oracle_is_monotone_and_superadditive():
    vals = [max_intercalates_oracle(m)[0] for m in range(ORACLE_CELL_CAP + 1)]
    for a, b in itertools.pairwise(vals):
        assert b >= a
    # disjoint unions: I*(a + b) >= I*(a) + I*(b)
    for a in range(ORACLE_CELL_CAP + 1):
        for b in range(ORACLE_CELL_CAP + 1 - a):
            assert vals[a + b] >= vals[a] + vals[b]


def _lemma_systems():
    sampled = [sq for n in (8, 12)
               for sq in sample_squares(n, 2, RandomStream(n))]
    tables = [group_table("cyclic", 8), group_table("elementary-abelian-2", 3),
              group_table("cyclic", 12)]
    filtered = [
        collision_filter(sample_sparse_system(150, 1 / 3, RandomStream(s)))
        for s in range(3)]
    return sampled + tables + filtered


def test_intercalates_share_at_most_one_cell():
    # the lemma behind the oracle's cap: two distinct intercalates share
    # at most one cell, so k of them cover at least 4k - C(k, 2) cells
    for system in _lemma_systems():
        found = brute_intercalate_cells(system)
        assert len(found) == count_intercalates(system)
        n = system.n
        masks = [sum(1 << (r * n + c) for r, c in cells) for cells in found]
        for a, b in itertools.combinations(masks, 2):
            assert (a & b).bit_count() <= 1
        # every family of up to four among the first 40 (rows in order,
        # so those through row 0 first, overlapping most)
        for k in (3, 4):
            for family in itertools.combinations(masks[:40], k):
                union = functools.reduce(operator.or_, family)
                assert union.bit_count() >= 4 * k - k * (k - 1) // 2
    # and one shared cell does occur
    xor = brute_intercalate_cells(group_table("elementary-abelian-2", 3))
    assert any(len(a & b) == 1 for a, b in itertools.combinations(xor, 2))


def test_oracle_rejects_out_of_range():
    with pytest.raises(ValueError):
        max_intercalates_oracle(ORACLE_CELL_CAP + 1)


def test_phi_of_one_is_four():
    assert phi_exact(1) == 4


def test_bounds_reject_targets_past_the_desk_cap():
    for bound in (phi_lower_bound, phi_upper_bound, phi_report):
        with pytest.raises(ValueError):
            bound(PHI_N_CAP + 1)


def test_bounds_bracket_exact_values():
    for N in range(1, 5):
        exact = phi_exact(N)
        lower = phi_lower_bound(N)
        upper, witness = phi_upper_bound(N)
        assert lower <= upper
        if exact is not None:
            assert lower <= exact <= upper


def test_upper_bound_witness_carries_enough_intercalates():
    # the witness is one or two disjoint XOR blocks; a block of order m
    # has m rows of m cells and m^2 (m - 1) / 4 intercalates
    block_counts = set()
    for N in [*range(1, 301), 7950, 10**4, 64513, 10**5]:
        upper, witness = phi_upper_bound(N)
        assert len(witness.triples) == upper
        assert validate(witness)
        fills = Counter(Counter(r for r, _, _ in witness.triples).values())
        assert all(m & (m - 1) == 0 and rows % m == 0
                   for m, rows in fills.items())
        blocks = sum(rows // m for m, rows in fills.items())
        closed = sum(rows * m * (m - 1) // 4 for m, rows in fills.items())
        assert count_intercalates(witness) == closed >= N
        block_counts.add(blocks)
    assert block_counts == {1, 2}


def test_report_is_internally_consistent():
    rec = phi_report(3)
    assert rec.lower_bound <= rec.upper_bound
    assert count_intercalates(rec.witness) >= rec.N
    scale = (4 * rec.N) ** (2 / 3)
    assert rec.ratio_lower == pytest.approx(rec.lower_bound / scale)
    assert rec.ratio_upper == pytest.approx(rec.upper_bound / scale)


def test_octahedron_triangle_inequality_on_witnesses():
    # |Q| cells plus 4 extra triangles per intercalate, all distinct
    for m in range(ORACLE_CELL_CAP + 1):
        best, witness = max_intercalates_oracle(m)
        assert graph_triangles(witness) >= len(witness.triples) + 4 * best


def test_graph_triangles_on_intercalate():
    ts = TripleSystem(2, [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)])
    # 4 cells plus 4 spurious triangles: the intercalate's graph is
    # K_{2,2,2}, which has 8 triangles
    assert graph_triangles(ts) == 8
