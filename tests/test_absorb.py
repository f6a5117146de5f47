"""Spheres, cycle shortening, gadgets, and the assembled absorber."""

import pytest

from latinlab.absorb import (
    AugmentingPath,
    GadgetSearchFailed,
    PathCover,
    RegistryExhausted,
    absorber_demo,
    cover_with_short_cycles,
    cycle_edges,
    decompose_into_tripartite_cycles,
    gadget_search,
    graph_edges,
    is_triangle_divisible,
    is_tripartite_cycle,
    random_divisible_graph,
    reference_c3_gadget,
    sphere_certificates_ok,
    sphere_cover,
    sphere_decompositions,
    sphere_graphs,
    verify_cycle_partition,
    verify_triangle_decomposition,
)
from latinlab.core import InputError, TripleSystem
from latinlab.rng import RandomStream, substream

from reference import tripartite_of


def test_sphere_sizes_and_certificates():
    for g in range(2, 11):
        sc = sphere_cover(g)
        assert len(sc.new_vertices) == 2 * g - 1
        assert len(sc.edges) == 6 * g - 3
        assert len(sc.out_dec) == 2 * g - 1
        assert len(sc.in_dec) == 2 * g
        assert sphere_certificates_ok(sc)


def test_sphere_in_decomposition_extends_out_by_base():
    sc = sphere_cover(3)
    q, qt = (graph_edges(g) for g in sphere_graphs(sc))
    assert q == set(sc.edges)
    out_dec, in_dec = sphere_decompositions(sc)
    assert verify_triangle_decomposition(q, out_dec)
    assert verify_triangle_decomposition(qt, in_dec)
    # edge counts: in covers exactly three more edges
    assert len(qt) == len(q) + 3


def test_triangle_divisibility_detector():
    intercalate = graph_edges(tripartite_of(
        TripleSystem(2, [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)])))
    assert is_triangle_divisible(intercalate)
    assert is_triangle_divisible(sorted(intercalate))
    assert not is_triangle_divisible([(0, 0, 0)])
    # a repeated key counts once, as an edge does in a graph
    assert not is_triangle_divisible([(0, 0, 0), (0, 0, 0)])


def test_repeated_edge_keys_count_once():
    verts = [(p, i) for i in range(4) for p in range(3)]
    edges = cycle_edges(verts[:12])
    cycles = decompose_into_tripartite_cycles(edges)
    assert decompose_into_tripartite_cycles(edges + edges[:5]) == cycles
    assert verify_cycle_partition(set(edges), cycles)
    tris = [(0, 0, 0)]
    tri_edges = [(0, 0, 0), (1, 0, 0), (2, 0, 0)]
    assert verify_triangle_decomposition(tri_edges + tri_edges[:1], tris)
    assert cover_with_short_cycles(edges + edges[:5], (4, 4, 4)).cycles \
        == cover_with_short_cycles(set(edges), (4, 4, 4)).cycles


def test_verify_triangle_decomposition_rejects_overlap():
    tri = graph_edges(tripartite_of(TripleSystem(1, [(0, 0, 0)])))
    assert verify_triangle_decomposition(tri, [(0, 0, 0)])
    assert not verify_triangle_decomposition(tri, [(0, 0, 0), (0, 0, 0)])
    assert not verify_triangle_decomposition(tri, [])


def test_cycle_decomposition_partitions_random_unions():
    for seed in range(5):
        rng = substream(71, seed)
        g = random_divisible_graph((4, 4, 4), 5, rng)
        cycles = decompose_into_tripartite_cycles(g)
        assert verify_cycle_partition(g, cycles)
        for cyc in cycles:
            assert is_tripartite_cycle(cyc)
            assert len(cyc) % 3 == 0


def test_path_cover_registry_exhausts():
    cover = PathCover((2, 2, 2), mu=2)
    cover.take(0, 0, 1, 0)
    with pytest.raises(RegistryExhausted):
        cover.take(0, 0, 1, 0)
    # the other type bin is independent
    assert isinstance(cover.take(0, 0, 1, 1), AugmentingPath)


def test_path_cover_leftovers_pair_into_six_cycles():
    cover = PathCover((2, 2, 2), mu=4)
    sixes = cover.leftover_six_cycles()
    # 3 parts x C(2,2)+diag pairs x mu/2: every registry pair unused
    assert all(len(c) == 6 and is_tripartite_cycle(c) for c in sixes)
    edges = set()
    for c in sixes:
        for e in cycle_edges(c):
            assert e not in edges
            edges.add(e)


def test_forced_twelve_cycle_splits_nine_nine():
    # a 12-cycle on X = (4,4,4) must splice into two 9-cycles
    verts = [(p, i) for i in range(4) for p in range(3)]
    cyc = verts[:12]
    cover = cover_with_short_cycles(cycle_edges(cyc), (4, 4, 4))
    assert cover.verified
    lengths = sorted(len(c) for c in cover.cycles)
    assert max(lengths) <= 9
    nines = [c for c in cover.cycles if len(c) == 9]
    assert len(nines) == 2


def test_short_cycle_cover_random_instances():
    for seed in range(6):
        g = random_divisible_graph((4, 4, 4), 6, substream(73, seed))
        cover = cover_with_short_cycles(g, (4, 4, 4))
        assert cover.verified
        assert all(len(c) <= 9 for c in cover.cycles)
        assert cover.mu % 2 == 0


def test_cover_rejects_overlapping_l():
    # a graph on X never collides with the wedge edges
    g = random_divisible_graph((2, 2, 2), 2, RandomStream(1))
    cover = cover_with_short_cycles(g, (2, 2, 2))
    assert cover.verified
    # this triangle reaches the first interior vertex (1, 2) and reuses
    # the wedge edge (0, 0, 2) of the path cover at mu = 2
    with pytest.raises(InputError, match="L overlaps the path cover"):
        cover_with_short_cycles({(0, 0, 2), (1, 2, 2), (2, 2, 0)}, (2, 2, 2))


def test_reference_gadget_is_verified():
    gadget = reference_c3_gadget()
    assert gadget.verify()
    assert gadget.parts == (2, 2, 2)
    assert len(gadget.dec_gadget) == 3
    assert len(gadget.dec_joint) == 4
    roots = set(gadget.roots)
    for tri in gadget.dec_gadget:
        pts = {(0, tri[0]), (1, tri[1]), (2, tri[2])}
        assert len(pts & roots) == 1  # one root per gadget triangle


def test_gadget_search_finds_c3():
    gadget = gadget_search("C3")
    assert gadget.verify()
    assert gadget.h_name == "C3"


def test_gadget_search_unknown_cycle():
    with pytest.raises(ValueError):
        gadget_search("C4")  # not divisible by 3


def test_gadget_search_node_budget():
    with pytest.raises(GadgetSearchFailed):
        gadget_search("C6", aux_budget=0, node_cap=10)


def test_absorber_demo_certifies():
    demo = absorber_demo(6)
    assert demo.ok
    assert len(demo.cases) == 2  # empty L and the full X triangle
    for case in demo.cases:
        assert case.cover_ok
        assert case.girth_found is None
        assert case.blocks > 0


def test_absorber_demo_other_girths():
    for g in (3, 4):
        assert absorber_demo(g).ok
