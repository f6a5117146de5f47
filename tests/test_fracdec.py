"""Weight functions, the chi/psi gadgets, and the boosting loop."""

import numpy as np
import pytest

from latinlab.fracdec import (
    RegParams,
    TriangleSet,
    boost,
    check_conditions,
    chi_uv,
    complete_host,
    conforming_instance,
    phi0,
    psi_cycle,
    psi_e,
)
from latinlab.rng import RandomStream, substream

from reference import all_triangles, thinned_instance, tripartite_of


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


def test_triangle_set_indexes_are_consistent():
    tset = small_conforming()
    tris = tset.tris
    assert (tset.id3[tris[:, 0], tris[:, 1], tris[:, 2]]
            == np.arange(len(tris))).all()
    # edge counts column sums equal triangle count times 1 per kind
    for k in range(3):
        assert tset.edge_counts[k].sum() == len(tris)


def test_conforming_instance_passes_conditions():
    tset = conforming_instance(30)
    params = RegParams(p=1.0, q=0.9)
    rep = check_conditions(tset, params, RandomStream(0))
    assert rep.ok
    assert all(v == 0 for v in rep.violation_counts.values())


def test_chi_uv_vertex_weights_are_unit():
    tset = small_conforming()
    wf = chi_uv(tset, 0, 1, 4)
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
    wf = psi_cycle(tset, 0, (0, 1), (1, 2, 2, 3))
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


def test_weight_function_verify_catches_tampering():
    tset = small_conforming()
    wf = phi0(tset)
    wf.verify()
    wf.vertex[0][0] += 0.5
    with pytest.raises(AssertionError):
        wf.verify()


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


def test_boost_selection_is_deterministic():
    tset = conforming_instance(21)
    params = RegParams(p=1.0, q=6 / 7)
    a = boost(tset, params, RandomStream(3), force=True)
    b = boost(tset, params, RandomStream(3), force=True)
    assert (a.selected.tris == b.selected.tris).all()
    assert (a.chosen == b.chosen).all()


def test_all_triangles_of_complete_host():
    tset = all_triangles(complete_host(4))
    assert len(tset) == 64
