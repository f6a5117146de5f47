"""Weight functions, the chi/psi gadgets, and the boosting loop."""

import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latinlab.core import TripartiteGraph
from latinlab.fracdec import (
    MASK_CAP,
    SAMPLE_BUDGET,
    ConditionReport,
    RegParams,
    TriangleSet,
    WeightFunction,
    _sample_sets,
    adjust,
    boost,
    check_conditions,
    chi_part,
    complete_host,
    conforming_instance,
    part_imbalance,
    phi0,
    psi_e,
)
from latinlab.rng import RandomStream, substream
from latinlab.sampling import sample_squares

from reference import (
    all_triangles,
    brute_chi_part,
    brute_chi_uv,
    brute_conditions,
    brute_psi_cycle,
    brute_triangle_indexes,
    brute_weight_sums,
    restrict_rows,
    thinned_instance,
    tripartite_of,
)


def small_conforming(n=12):
    return conforming_instance(n)


def test_triangle_set_validates_membership():
    host = complete_host(3)
    with pytest.raises(ValueError):
        TriangleSet(host, [(0, 0, 3)])
    from latinlab.core import TripleSystem

    sparse = tripartite_of(TripleSystem(3, [(0, 0, 0)]))
    with pytest.raises(ValueError):
        TriangleSet(sparse, [(0, 0, 1)])  # missing column-symbol edge


def test_triangle_set_rejects_rows_that_are_not_triples():
    host = complete_host(3)
    for rows in ([(0, 1, 2, 0)],             # a fourth vertex
                 [(0, 1), (2, 0), (1, 2)],   # six numbers, not two triples
                 [(0.0, 1.0, 2.0)],
                 [(True, False, True)],
                 [0, 1, 2],
                 [[(0, 1, 2)]]):
        with pytest.raises(ValueError):
            TriangleSet(host, rows)
    for empty in ([], np.zeros((0, 3), dtype=np.int64)):
        tset = TriangleSet(host, empty)
        assert len(tset) == 0 and tset.tris.shape == (0, 3)
        assert (tset.id3 == -1).all()


def test_triangle_set_checks_range_before_indexing():
    # on the complete host -1 would wrap to the valid vertex 2
    host = complete_host(3)
    for bad in ([(-1, 0, 0)], [(0, -3, 1)], [(0, 1, 3)],
                np.array([(0, 0, 2**40)], dtype=np.uint64)):
        with pytest.raises(ValueError, match="out of range"):
            TriangleSet(host, bad)


def test_triangle_set_ignores_order_and_repeats():
    tset = thinned_instance(9, 0.6, substream(5, 1))
    rows = np.concatenate([tset.tris, tset.tris[::3]])
    RandomStream(2).generator.shuffle(rows)
    again = TriangleSet(tset.host, rows)
    assert (again.tris == tset.tris).all()
    assert (again.id3 == tset.id3).all()


def _random_host(n, densities, gen):
    return TripartiteGraph.from_adjacency(
        *(gen.random((n, n)) < d for d in densities))


def _assert_matches_brute(host, rows, gen):
    tset = TriangleSet(host, rows)
    ref = brute_triangle_indexes(tset.n, rows)
    assert tset.tris.dtype == np.int64
    assert (tset.tris == ref["tris"]).all()
    assert (tset.id3 == ref["id3"]).all()
    assert (tset.vertex_counts == ref["vertex_counts"]).all()
    for k in range(3):
        assert tset.apex_masks[k].dtype == np.uint64
        assert (tset.apex_masks[k] == ref["apex_masks"][k]).all()
        assert (tset.edge_counts[k] == ref["edge_counts"][k]).all()
    values = gen.standard_normal(len(tset)) * 10.0 ** gen.integers(
        -6, 6, len(tset))
    wf = WeightFunction(tset, values)
    sums = brute_weight_sums(tset, values)
    assert wf.total == sums["total"]
    # both add in triangle order, so the floats agree bit for bit
    assert wf.vertex.tobytes() == sums["vertex"].tobytes()
    for k in range(3):
        assert wf.edge[k].tobytes() == sums["edge"][k].tobytes()
    return tset


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10), st.integers(0, 2**32 - 1))
def test_indexes_and_weight_sums_match_brute(n, seed):
    # n > 8 packs the apex axis into two bytes
    gen = RandomStream(seed).generator
    host = _random_host(n, gen.uniform(0.3, 1.0, 3), gen)
    every = all_triangles(host).tris
    rows = every[gen.random(len(every)) < gen.uniform(0.2, 1.0)]
    rows = np.concatenate([rows, rows[gen.integers(0, 2, len(rows)) == 1]])
    gen.shuffle(rows)
    _assert_matches_brute(host, rows, gen)


def test_indexes_and_weight_sums_match_brute_at_mask_cap():
    gen = RandomStream(64).generator
    host = complete_host(MASK_CAP)
    cube = gen.random((MASK_CAP,) * 3) < 0.3
    cube[:, :, MASK_CAP - 1] = True   # apex bit 63 on every kind-12 edge
    rows = np.argwhere(cube)
    rows = np.concatenate([rows, rows[::5]])
    gen.shuffle(rows)
    tset = _assert_matches_brute(host, rows, gen)
    assert (tset.apex_masks[0] >> np.uint64(MASK_CAP - 1) == 1).all()


def _fsum_outcome(f):
    try:
        return struct.pack("<d", f())
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


# runs of one or two floats; a pair is a cancellation kept side by side
_float_runs = st.one_of(
    st.tuples(st.floats(allow_nan=True, allow_infinity=True)),
    st.tuples(st.sampled_from([1e300, -1e300, 1.7e308, -1.7e308, 5e-324,
                               -5e-324, 2.2e-308, 0.0, -0.0, 1.0, 1e-16,
                               math.inf, -math.inf, math.nan])),
    st.floats(1e290, 1e300).map(lambda x: (x, -x)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_float_runs, max_size=27).map(
    lambda runs: list(itertools.chain(*runs))[:27]),
       st.sampled_from(["list", "int64", "strided", "big-endian"]))
def test_total_is_fsum_of_the_float_values(items, form):
    if form == "int64":
        # clipped into int64; 2**62 + 1 has no exact float
        v = np.array([int(math.copysign(min(abs(x), 2.0**62), x))
                      if math.isfinite(x) else 2**62 + 1 for x in items],
                     dtype=np.int64)
    elif form == "strided":
        # every other entry of a longer array: not contiguous
        wide = np.full(2 * len(items), 7.5)
        wide[::2] = items
        v = wide[::2]
        assert len(v) < 2 or not v.flags.c_contiguous
    elif form == "big-endian":
        v = np.array(items, dtype=">f8")
    else:
        v = items
    # the first len(v) of the 27 triangles of K_{3,3,3}
    full = conforming_instance(3, 0)
    tset = TriangleSet(full.host, full.tris[:len(v)])
    ref = _fsum_outcome(
        lambda: math.fsum(np.asarray(v, dtype=float).tolist()))
    assert _fsum_outcome(lambda: WeightFunction(tset, v).total) == ref


def test_triangle_set_indexes_are_consistent():
    tset = small_conforming()
    tris = tset.tris
    assert (tset.id3[tris[:, 0], tris[:, 1], tris[:, 2]]
            == np.arange(len(tris))).all()
    # edge counts column sums equal triangle count times 1 per kind
    for k in range(3):
        assert tset.edge_counts[k].sum() == len(tris)


def test_conforming_instance_drops_the_shift_layers():
    for n, layers in ((1, 0), (2, 1), (9, 3), (20, 0), (20, 7)):
        tset = conforming_instance(n, layers)
        kept = [(i, j, w) for i, j, w in itertools.product(range(n), repeat=3)
                if (w - i - j) % n >= layers]
        assert tset.tris.tolist() == [list(t) for t in kept]
        for k in range(3):
            assert (tset.edge_counts[k] == n - layers).all()


def test_conforming_instance_passes_conditions():
    tset = conforming_instance(30)
    params = RegParams(p=1.0, q=0.9)
    rep = check_conditions(tset, params, RandomStream(0))
    assert rep.ok
    assert all(v == 0 for v in rep.violation_counts.values())


def _assert_same_report(tset, params, seed):
    fast = check_conditions(tset, params, RandomStream(seed))
    slow = brute_conditions(tset, params, RandomStream(seed))
    assert fast.checked == slow.checked
    assert fast.violation_counts == slow.violation_counts
    assert [vars(v) for v in fast.sample] == [vars(v) for v in slow.sample]

    def plain(where):
        return all(plain(w) if isinstance(w, tuple) else type(w) in (int, str)
                   for w in where)

    for v in fast.sample:
        assert plain(v.where)
        assert all(type(x) is float for x in (v.observed, v.low, v.high))
    return fast


def test_conditions_match_brute_on_dense_instances():
    _assert_same_report(conforming_instance(30), RegParams(p=1.0, q=0.9), 0)
    for n, q, seed in ((9, 0.5, 1), (12, 0.8, 2), (16, 0.95, 3)):
        rep = _assert_same_report(thinned_instance(n, q, substream(seed, 4)),
                                  RegParams(p=1.0, q=q, C=1.5), seed)
        assert not rep.ok


@pytest.mark.parametrize("stored", [ConditionReport.MAX_STORED, 10**6])
def test_conditions_match_brute_on_sparse_hosts(stored, monkeypatch):
    # with every violation stored, their whole order is compared
    monkeypatch.setattr(ConditionReport, "MAX_STORED", stored)
    square = sample_squares(10, 1, RandomStream(2))[0]
    tset = all_triangles(tripartite_of(restrict_rows(square, 6)))
    rep = _assert_same_report(tset, RegParams(p=0.8, q=0.5, C=1.5), 5)
    assert all(rep.violation_counts[c] > 0 for c in (1, 2, 3))
    # uneven densities break condition 4 as well
    host = _random_host(10, (0.9, 0.5, 0.7), RandomStream(6).generator)
    rep = _assert_same_report(all_triangles(host),
                              RegParams(p=0.7, q=0.5, C=2.0), 6)
    assert all(rep.violation_counts[c] > 0 for c in (1, 2, 3, 4))
    assert len(rep.sample) == min(stored, sum(rep.violation_counts.values()))


def test_sample_sets_rows_are_distinct_and_in_range():
    gen = RandomStream(7).generator
    for m, size in ((6, 6), (8, 3), (12, 6), (1000, 6), (4, 1)):
        sets = _sample_sets(gen, m, size, 500)
        assert sets.shape == (500, size)
        assert sets.min() >= 0 and sets.max() < m
        ordered = np.sort(sets, axis=1)
        assert (ordered[:, 1:] != ordered[:, :-1]).all()
    for m, size in ((3, 4), (0, 1)):
        with pytest.raises(ValueError, match="distinct indices"):
            _sample_sets(gen, m, size, 10)


def test_sample_sets_is_uniform_over_ordered_tuples():
    # 60 ordered 3-tuples of range(5), 500 expected hits each with
    # standard deviation 22.2; the band is 5 of those
    rows = 30_000
    sets = _sample_sets(RandomStream(11).generator, 5, 3, rows)
    keys = (sets * np.array([25, 5, 1])).sum(axis=1)
    tuples = [25 * a + 5 * b + c
              for a, b, c in itertools.permutations(range(5), 3)]
    counts = np.bincount(keys, minlength=125)
    assert counts.sum() == counts[tuples].sum() == rows
    mean, sd = rows / 60, (rows / 60 * (59 / 60)) ** 0.5
    assert (np.abs(counts[tuples] - mean) <= 5 * sd).all()


def test_conditions_on_the_smallest_hosts():
    # with 2n < 6 the condition-2 pools stop at 2n vertices
    for n in (1, 2):
        tset = all_triangles(complete_host(n))
        rep = _assert_same_report(tset, RegParams(p=1.0, q=1.0), 0)
        assert rep.ok
        assert rep.checked[2] == 3 * (2 * n + n * (2 * n - 1)
                                      + SAMPLE_BUDGET * max(2 * n - 2, 0))


@pytest.mark.parametrize("n", [6, 9, 12, 16])
def test_chi_part_matches_the_pairwise_sum(n):
    tset = thinned_instance(n, 0.8, substream(n, 5))
    for part in range(3):
        got, ref = chi_part(tset, part), brute_chi_part(tset, part)
        assert np.abs(ref).max() > 1e-3  # not all zero
        assert np.abs(got - ref).max() <= 1e-12


def test_toward_counts_the_neighbours_in_each_other_part():
    gen = substream(9, 2).generator
    host = TripartiteGraph.from_adjacency(*(gen.random((3, 9, 9)) < 0.6))
    tset = TriangleSet(host, [])
    # (degree toward part p + 1, toward part p - 1) of each part p
    expect = [(host.adj12.sum(axis=1), host.adj31.sum(axis=0)),
              (host.adj23.sum(axis=1), host.adj12.sum(axis=0)),
              (host.adj31.sum(axis=1), host.adj23.sum(axis=0))]
    assert tset.toward.shape == (3, 2, 9)
    assert (tset.toward == np.array(expect)).all()
    assert (tset.deg == tset.toward.sum(axis=1)).all()


def test_phi0_of_conforming_instances_is_all_ones():
    cases = [(n, layers) for n in range(4, 13) for layers in range(n)]
    for n, layers in cases + [(30, 3)]:
        tset = conforming_instance(n, layers)
        # vertex-regular: every vertex of every part in n - layers
        # triangles, with degree 2n, so chi is zero on every part
        assert (tset.vertex_counts == n * (n - layers)).all()
        assert (tset.deg == 2 * n).all()
        if n <= 12:
            for part in range(3):
                got = chi_part(tset, part)
                assert (got == brute_chi_part(tset, part)).all()
        values = phi0(tset).values
        assert values.tobytes() == np.ones(len(values)).tobytes()


def _complete_minus(n, removed):
    cube = np.ones((n, n, n), dtype=bool)
    cube[tuple(np.array(removed).T)] = False
    return TriangleSet(complete_host(n), np.argwhere(cube))


@pytest.mark.parametrize("name", ["first-vertex-average", "one-part-off"])
def test_chi_part_matches_brute_on_partly_balanced_hosts(name):
    n = 6
    if name == "first-vertex-average":
        # part-0 triangle counts 34, 32, 36, 34, 34, 34: vertex 0 sits
        # at the mean (f_0 = 0) while the part is not balanced
        losses = {0: 2, 1: 4, 3: 2, 4: 2, 5: 2}
        tset = _complete_minus(n, [(u, t, (t + u) % n)
                                   for u, k in losses.items()
                                   for t in range(k)])
        f = part_imbalance(tset, 0)
        assert f[0] == 0.0 and f.any()
    else:
        # removing (i, 0, i) leaves parts 0 and 2 balanced and part 1 not
        tset = _complete_minus(n, [(i, 0, i) for i in range(n)])
        balanced = [(f == f[0]).all()
                    for f in (part_imbalance(tset, p) for p in range(3))]
        assert balanced == [True, False, True]
    refs = [brute_chi_part(tset, part) for part in range(3)]
    for part in range(3):
        got = chi_part(tset, part)
        assert np.abs(got - refs[part]).max() <= 1e-12
    assert np.abs(phi0(tset).values - (1.0 + sum(refs))).max() <= 1e-12
    assert max(np.abs(r).max() for r in refs) > 1e-3  # not all zero


def test_chi_uv_vertex_weights_are_unit():
    tset = small_conforming()
    wf = brute_chi_uv(tset, 0, 1, 4)
    assert wf.vertex[0][1] == pytest.approx(1.0, abs=1e-9)
    assert wf.vertex[0][4] == pytest.approx(-1.0, abs=1e-9)
    mask = np.ones(tset.n, dtype=bool)
    mask[[1, 4]] = False
    assert np.abs(wf.vertex[0][mask]).max() < 1e-9
    assert np.abs(wf.vertex[1]).max() < 1e-9
    assert np.abs(wf.vertex[2]).max() < 1e-9


def test_chi_part_balances_its_part():
    tset = thinned_instance(15, 0.8, substream(3, 1))
    wf = phi0(tset)
    assert wf.vertex_residual() < 1e-9 * wf.scale()


def test_psi_cycle_signs_and_vertex_weights():
    tset = small_conforming()
    wf = brute_psi_cycle(tset, 0, (0, 1), (1, 2, 2, 3))
    # vertex weights vanish; edge weights are +-1 on the six cycle edges
    assert np.abs(wf.vertex).max() < 1e-9
    assert wf.edge[0][0, 1] == pytest.approx(1.0, abs=1e-9)
    assert wf.edge[0][1, 1] == pytest.approx(-1.0, abs=1e-9)
    assert wf.edge[0][1, 2] == pytest.approx(1.0, abs=1e-9)
    assert wf.edge[0][2, 2] == pytest.approx(-1.0, abs=1e-9)
    assert wf.edge[0][2, 3] == pytest.approx(1.0, abs=1e-9)
    assert wf.edge[0][0, 3] == pytest.approx(-1.0, abs=1e-9)


def test_psi_e_exact_unit_edge_weight():
    tset = small_conforming()
    wf = psi_e(tset, 1, 2, 5)
    assert np.abs(wf.vertex).max() < 1e-9
    assert wf.edge[1][2, 5] == pytest.approx(1.0, abs=1e-9)


def test_psi_e_is_the_mean_of_psi_cycle():
    # the cycle enumeration of brute_psi_cycle is independent of the
    # grid in psi_e; the cycles it rejects have no common apex
    tset = thinned_instance(6, 0.7, substream(4, 3))
    n = tset.n
    for kind in range(3):
        for i, j in ((0, 0), (2, 5), (5, 3)):
            total, cycles = np.zeros(len(tset)), 0
            for a2, a3 in itertools.permutations(set(range(n)) - {i}, 2):
                for b2, b3 in itertools.permutations(set(range(n)) - {j}, 2):
                    try:
                        wf = brute_psi_cycle(tset, kind, (i, j),
                                             (a2, b2, a3, b3))
                    except ValueError:
                        continue
                    total += wf.values
                    cycles += 1
            assert cycles > 0
            got = psi_e(tset, kind, i, j).values
            assert np.abs(got - total / cycles).max() <= 1e-12


def test_psi_e_rejects_edges_it_cannot_use():
    host = TripartiteGraph.from_adjacency(
        ~np.eye(4, dtype=bool), np.ones((4, 4), dtype=bool),
        np.ones((4, 4), dtype=bool))
    tset = all_triangles(host)
    with pytest.raises(ValueError, match="edge not in host"):
        psi_e(tset, 0, 2, 2)
    # the only triangle through (0, 0) has no 6-cycle of triangles
    lone = TriangleSet(complete_host(4), [(0, 0, 1)])
    with pytest.raises(ValueError, match="has no usable 6-cycle"):
        psi_e(lone, 0, 0, 0)


def test_gadgets_reject_bad_indices():
    # -1 would wrap to vertex n - 1 and n would raise a bare IndexError
    tset = conforming_instance(6)
    for i, j in ((-1, 2), (1, 6)):
        with pytest.raises(ValueError, match="out of range"):
            psi_e(tset, 1, i, j)
    for kind in (-1, 3):
        with pytest.raises(ValueError, match="must be 0, 1 or 2"):
            psi_e(tset, kind, 1, 2)


@pytest.mark.parametrize("seed", [0, 1, 2, 8])
def test_boost_contracts_on_hosts_that_need_adjusting(seed):
    # over seeds 0-11 the per-step ratio of max_disc was 0.22-0.46 and
    # the final/initial ratio 0.008-0.034; seed 8 contracts slowest
    tset = thinned_instance(8, 0.8, substream(seed, 4))
    res = boost(tset, RegParams(1.0, 0.8, iters=4), RandomStream(seed),
                force=True)
    discs = [row.max_disc for row in res.trace]
    assert len(discs) == 5 and discs[0] > 1.0
    assert all(b < 0.6 * a for a, b in zip(discs, discs[1:]))
    assert discs[-1] < 0.05 * discs[0]


def test_adjust_of_clean_input_is_bit_identical():
    wf = phi0(conforming_instance(12))
    out = adjust(wf)
    assert out.values.tobytes() == wf.values.tobytes()


def _kind1_only_discrepancy():
    # psi_e moves weight only along kind-1 edges, so kinds 0 and 2 stay
    # clean while kind 1 does not
    tset = conforming_instance(9)
    values = phi0(tset).values + 0.5 * psi_e(tset, 1, 2, 5).values
    return WeightFunction(tset, values)


@pytest.mark.parametrize("make", [
    lambda: phi0(thinned_instance(8, 0.8, substream(8, 2))),
    _kind1_only_discrepancy,
], ids=["thinned", "kind1-only"])
def test_adjust_subtracts_psi_edge_by_edge(make):
    wf = make()
    assert wf.is_vertex_balanced()
    expected = wf.values.copy()
    eps = 1e-12 * wf.scale()
    for kind in range(3):
        d = wf.disc(kind)
        for i, j in zip(*np.nonzero(np.abs(d) > eps)):
            expected -= d[i, j] * psi_e(wf.tset, kind, int(i), int(j)).values
    assert wf.max_disc() > eps
    assert np.abs(adjust(wf).values - expected).max() <= 1e-12


def test_boost_on_conforming_instance_is_exact():
    tset = conforming_instance(30)
    res = boost(tset, RegParams(p=1.0, q=0.9), RandomStream(1))
    assert res.beta == pytest.approx(4.0, abs=1e-9)
    assert np.allclose(res.phi_star, 0.25, atol=1e-9)
    assert res.trace[-1].max_disc <= 1e-9
    discs = [row.max_disc for row in res.trace]
    assert all(b <= a + 1e-12 for a, b in zip(discs, discs[1:]))


def test_boost_refuses_nonconforming_without_force():
    tset = conforming_instance(9)  # too small for the typicality bands
    with pytest.raises(ValueError):
        boost(tset, RegParams(p=1.0, q=2 / 3), RandomStream(0))
    res = boost(tset, RegParams(p=1.0, q=2 / 3), RandomStream(0), force=True)
    assert res.trace[-1].max_disc <= 1e-9  # layered hosts stay exact


def test_boost_selection_does_not_depend_on_the_check():
    # the check and the rounding draw read separate child streams, so
    # skipping the check leaves the selected family as it was
    tset = conforming_instance(30)
    checked = boost(tset, RegParams(1.0, 0.9), RandomStream(5))
    forced = boost(tset, RegParams(1.0, 0.9), RandomStream(5), force=True)
    assert (checked.chosen == forced.chosen).all()


def test_boost_selection_is_deterministic():
    tset = conforming_instance(21)
    params = RegParams(p=1.0, q=6 / 7)
    a = boost(tset, params, RandomStream(3), force=True)
    b = boost(tset, params, RandomStream(3), force=True)
    assert (a.chosen == b.chosen).all()


def test_all_triangles_of_complete_host():
    tset = all_triangles(complete_host(4))
    assert len(tset) == 64
