"""End-to-end acceptance checks.

The first test runs each of the nine experiments at its default spec,
seed 0, exactly as ``latinlab experiment all`` does, and prints the
experiment's own PASS/FAIL check lines (run with
``pytest tests/test_acceptance.py -v -s`` to see them).  It requires the
set of failing checks to equal the designed-red set written below:
the unconstrained removal process measured against the discounted
trajectory model it provably does not follow, and the boosted triangle
family held to a per-edge band tighter than its binomial spread.  A
check that turns red, or a designed-red check that turns green, fails
the case.

The remaining tests check what no experiment checks (group tables,
counters against brute force, the girth-six equivalence, the extremal
bracket, the weight functions) and print one verdict line each, with
the observed numbers and the elapsed time.
"""

import time

import numpy as np
import pytest

from latinlab.core import LatinSquare, group_table, to_triples
from latinlab.counting import (
    _girth_search,
    count_cuboctahedra_total,
    count_intercalates,
    cuboctahedron_report,
)
from latinlab.experiments import (
    EXPERIMENTS,
    check_lines,
    make_spec,
    run_experiment,
)
from latinlab.extremal import (
    max_intercalates_oracle,
    phi_exact,
    phi_lower_bound,
    phi_upper_bound,
)
from latinlab.fracdec import chi_uv, conforming_instance, psi_cycle, psi_e
from latinlab.rng import substream
from latinlab.sampling import sample_squares

from reference import (
    all_squares,
    brute_intercalates,
    brute_report,
    graph_triangles,
)

# the checks that fail by design at the default specs: trp-trajectory's
# checkpoints from t = 0.4 n^2 on, where the discounted model drifts
# away from the unconstrained run, and the per-edge band of the boosted
# family, which a Binomial(27, 1/4) count cannot keep on every edge
DESIGNED_RED = {
    "trp-trajectory": {f"available-ratio-t{t}"
                       for t in (4000, 4800, 5600, 6400, 7200, 8000)},
    "boost-convergence": {"selected-per-edge-band"},
}


@pytest.mark.parametrize("ident", sorted(EXPERIMENTS))
def test_experiment_default_spec(ident, tmp_path):
    t0 = time.perf_counter()
    summary = run_experiment(make_spec(ident, out_dir=str(tmp_path)))
    elapsed = time.perf_counter() - t0
    lines, _ = check_lines(summary)
    print("\n".join(lines) + f"\n{ident}: {elapsed:.1f}s")
    failing = {c["name"] for c in summary["checks"] if not c["passed"]}
    assert failing == DESIGNED_RED.get(ident, set())
    assert elapsed < 60


def _verdict(name: str, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    return ok


def test_group_tables_attain_max_cuboctahedra():
    t0 = time.perf_counter()
    tables = [group_table("cyclic", n) for n in range(1, 6)]
    tables.append(group_table("elementary-abelian-2", 2))
    bad = [(sq.n, count_cuboctahedra_total(sq)) for sq in tables
           if count_cuboctahedra_total(sq) != sq.n**5]
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 1.0
    assert _verdict("group-table-cuboctahedra", ok,
                    f"total == n^5 for orders 1..5 plus the Klein table, "
                    f"mismatches={bad}, {elapsed:.2f}s")


def test_two_group_intercalate_counts():
    t0 = time.perf_counter()
    got = [count_intercalates(group_table("elementary-abelian-2", k))
           for k in (1, 2, 3)]
    want = [(1 << 2 * k) * ((1 << k) - 1) // 4 for k in (1, 2, 3)]
    elapsed = time.perf_counter() - t0
    ok = got == want == [1, 12, 112] and elapsed < 1.0
    assert _verdict("two-group-intercalates", ok,
                    f"got={got} want={want}, {elapsed:.2f}s")


def test_fast_counters_match_brute_force():
    t0 = time.perf_counter()
    report_bad = 0
    for i in range(50):
        sq = sample_squares((i % 7) + 2, 1, substream(301, i))[0]
        rep = cuboctahedron_report(sq)
        brute = brute_report(sq)
        same = (rep.total == brute["total"]
                and rep.nondegenerate == brute["nondegenerate"]
                and all(rep.breakdown[k] == brute[k] for k in rep.breakdown))
        report_bad += not same
    inter_bad = 0
    for i in range(18):
        sq = sample_squares((i % 9) + 2, 1, substream(302, i))[0]
        inter_bad += count_intercalates(sq) != brute_intercalates(sq)
    elapsed = time.perf_counter() - t0
    ok = report_bad == 0 and inter_bad == 0 and elapsed < 300
    assert _verdict("counter-oracle-equivalence", ok,
                    f"50 per-class reports (orders 2..8) and 18 intercalate "
                    f"counts (orders 2..10) vs brute force, "
                    f"mismatches={report_bad}+{inter_bad}, {elapsed:.1f}s")


def test_girth_six_threshold_matches_intercalate_freeness():
    # girth() answers g_max 6 on Latin input with the intercalate kernel,
    # so the configuration search runs here directly; it stops its roots
    # only at 8, so it is exact on these squares below that
    t0 = time.perf_counter()
    pool = [LatinSquare(g) for g in all_squares(4)]
    pool += [sample_squares(12, 1, substream(303, i))[0] for i in range(100)]
    bad = sum((_girth_search(to_triples(sq), 6) is None)
              != (count_intercalates(sq) == 0) for sq in pool)
    elapsed = time.perf_counter() - t0
    ok = len(pool) == 676 and bad == 0 and elapsed < 120
    assert _verdict("girth-six-equivalence", ok,
                    f"{len(pool)} squares (all 576 of order 4 + 100 random "
                    f"order 12), disagreements={bad}, {elapsed:.1f}s")


def test_max_intercalate_oracle_and_bounds():
    t0 = time.perf_counter()
    oracle = {m: max_intercalates_oracle(m) for m in range(9)}
    base_ok = (oracle[3][0] == 0 and oracle[4][0] == 1
               and phi_exact(1) == 4)
    bracket_bad = []
    N = 1
    while (exact := phi_exact(N)) is not None:
        lo, (hi, _) = phi_lower_bound(N), phi_upper_bound(N)
        if not lo <= exact <= hi:
            bracket_bad.append((N, lo, exact, hi))
        N += 1
    octa_bad = [m for m, (best, witness) in oracle.items()
                if graph_triangles(witness) < len(witness.triples) + 4 * best]
    elapsed = time.perf_counter() - t0
    ok = (base_ok and N > 1 and not bracket_bad and not octa_bad
          and elapsed < 1800)
    assert _verdict("extremal-oracle", ok,
                    f"I*(3)={oracle[3][0]} I*(4)={oracle[4][0]} "
                    f"Phi(1)={phi_exact(1)}, bounds bracket exact for "
                    f"N=1..{N - 1} (bad={bracket_bad}), octahedron "
                    f"inequality holds on witnesses m=0..8 (bad={octa_bad}), "
                    f"{elapsed:.1f}s")


def test_weight_functions_exact():
    t0 = time.perf_counter()
    tset = conforming_instance(30)  # every edge in 27 triangles, q = 0.9

    chi = chi_uv(tset, 0, 1, 4)
    chi_ok = (abs(chi.vertex[0][1] - 1.0) < 1e-9
              and abs(chi.vertex[0][4] + 1.0) < 1e-9
              and np.abs(np.delete(chi.vertex[0], [1, 4])).max() < 1e-9
              and np.abs(chi.vertex[1:]).max() < 1e-9)

    pe = psi_e(tset, 1, 2, 5)
    pe_ok = (np.abs(pe.vertex).max() < 1e-9
             and abs(pe.edge[1][2, 5] - 1.0) < 1e-9)

    pc = psi_cycle(tset, 0, (0, 1), (1, 2, 2, 3))
    cyc = [pc.edge[0][0, 1], pc.edge[0][1, 1], pc.edge[0][1, 2],
           pc.edge[0][2, 2], pc.edge[0][2, 3], pc.edge[0][0, 3]]
    pc_ok = (np.abs(pc.vertex).max() < 1e-9
             and max(abs(w - s) for w, s in zip(cyc, [1, -1, 1, -1, 1, -1])) < 1e-9)

    elapsed = time.perf_counter() - t0
    ok = chi_ok and pe_ok and pc_ok and elapsed < 300
    assert _verdict("weight-function-exactness", ok,
                    f"chi unit vertex weights ok={chi_ok}, psi_e zero vertex "
                    f"weights ok={pe_ok}, psi_cycle alternating edge signs "
                    f"ok={pc_ok}, {elapsed:.1f}s")
