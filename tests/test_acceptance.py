"""End-to-end acceptance checks.

Each test exercises one headline guarantee of the package and prints a
single verdict line (run with ``pytest tests/test_acceptance.py -v -s``
to see them).  Verdicts carry the observed numbers and the elapsed time
so a red line is diagnosable from the output alone.

Two checks are expected to fail and are marked xfail(strict=True): the
unconstrained removal process is compared against the discounted model
it provably does not follow, and the boosted triangle family is held to
a per-edge band that is tighter than its binomial spread.  Both reasons
are spelled out on the markers; if either ever starts passing the strict
marker turns the suite red so the claim gets re-examined.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from latinlab.absorb import (
    cover_with_short_cycles,
    gadget_search,
    random_divisible_graph,
    sphere_certificates_ok,
    sphere_cover,
)
from latinlab.core import LatinSquare, group_table, to_triples
from latinlab.counting import (
    _girth_search,
    count_cuboctahedra_total,
    count_intercalates,
    cuboctahedron_report,
)
from latinlab.extremal import (
    max_intercalates_oracle,
    phi_exact,
    phi_lower_bound,
    phi_upper_bound,
)
from latinlab.fracdec import (
    RegParams,
    boost,
    chi_uv,
    conforming_instance,
    psi_cycle,
    psi_e,
)
from latinlab.process import (
    ProcessConfig,
    log_density_target,
    predicted_available,
    run_process,
)
from latinlab.rng import RandomStream, substream
from latinlab.sampling import sample_rectangle, sample_squares

from reference import (
    all_squares,
    brute_intercalates,
    brute_report,
    graph_triangles,
)


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


def test_sampled_square_intercalate_mean():
    t0 = time.perf_counter()
    squares = sample_squares(20, 2000, RandomStream(305))
    mean = float(np.mean([count_intercalates(sq) for sq in squares]))
    elapsed = time.perf_counter() - t0
    ok = 85.0 <= mean <= 115.0 and elapsed < 600
    assert _verdict("square-intercalate-mean", ok,
                    f"n=20, 2000 samples, mean={mean:.2f} "
                    f"band=[85, 115] (target n^2/4 = 100), {elapsed:.1f}s")


def test_rectangle_intercalates_near_poisson():
    t0 = time.perf_counter()
    counts = np.array([count_intercalates(sample_rectangle(3, 100, substream(306, i)))
                       for i in range(5000)])
    mean = float(counts.mean())
    # total variation on {0..8}; the Poisson(1.5) mass beyond 8 is ~2e-6
    emp = np.bincount(counts, minlength=9)[:9] / len(counts)
    tvd = 0.5 * float(np.abs(emp - stats.poisson.pmf(np.arange(9), 1.5)).sum())
    elapsed = time.perf_counter() - t0
    ok = 1.35 <= mean <= 1.65 and tvd <= 0.05 and elapsed < 600
    assert _verdict("rectangle-poisson", ok,
                    f"3x100, 5000 samples, mean={mean:.3f} band=[1.35, 1.65], "
                    f"tvd={tvd:.4f} (<= 0.05), {elapsed:.1f}s")


@pytest.mark.xfail(strict=True, reason=(
    "the unconstrained process tracks n^3 (1 - t/n^2)^3 with no intercalate "
    "discount, so against the discounted model the ratio grows like "
    "exp((t/n^2)^3) and reaches ~1.67 at t = 0.8 n^2; the +-5% band cannot "
    "hold at the late checkpoints"))
def test_unconstrained_process_vs_discounted_model():
    t0 = time.perf_counter()
    n = 100
    res = run_process(n, RandomStream(307))
    checkpoints = [round((i + 1) * 0.08 * n**2) for i in range(10)]
    ratios = [res.available_trace[t] / predicted_available(n, t, girth=6)
              for t in checkpoints if t < res.steps]
    worst = max(abs(r - 1.0) for r in ratios)
    elapsed = time.perf_counter() - t0
    ok = len(ratios) == 10 and worst <= 0.05 and elapsed < 300
    assert _verdict("unconstrained-trajectory", ok,
                    f"n=100, available/model at 10 checkpoints, "
                    f"ratios={[f'{r:.3f}' for r in ratios]}, "
                    f"worst |ratio-1|={worst:.3f} (<= 0.05), {elapsed:.1f}s")


def test_high_girth_process_coverage_and_log_density():
    t0 = time.perf_counter()
    n = 100
    res = run_process(n, RandomStream(308), ProcessConfig(girth=6))
    inter = count_intercalates(res.placed)
    measured = res.log_density()
    # the run stops short of n^2, so integrate the model over the same
    # steps instead of the full range the closed-form target assumes
    model = sum(math.log(predicted_available(n, t, girth=6))
                for t in range(res.steps)) / n**2
    target = log_density_target(n)
    gap = abs(measured - model)
    tol = 0.02 * target
    elapsed = time.perf_counter() - t0
    ok = (inter == 0 and res.coverage >= 0.9 and gap <= tol
          and elapsed < 900)
    assert _verdict("high-girth-trajectory", ok,
                    f"n=100 g=6: intercalates={inter}, "
                    f"coverage={res.coverage:.3f} (>= 0.9), log-density "
                    f"measured={measured:.4f} model={model:.4f} "
                    f"gap={gap:.4f} (tol {tol:.4f}, target {target:.4f}), "
                    f"{elapsed:.1f}s")


def test_sparse_system_nondegenerate_cuboctahedra_mean():
    t0 = time.perf_counter()
    n, alpha, trials = 150, 0.2, 500
    from latinlab.counting import count_cuboctahedra_nondegenerate
    from latinlab.process import collision_filter, sample_sparse_system
    counts = [count_cuboctahedra_nondegenerate(
                  collision_filter(sample_sparse_system(n, alpha, substream(309, i))))
              for i in range(trials)]
    mean = float(np.mean(counts))
    target = math.exp(-24 * alpha) * alpha**8 * n**4
    elapsed = time.perf_counter() - t0
    ok = 0.8 * target <= mean <= 1.2 * target and elapsed < 600
    assert _verdict("sparse-cuboctahedra-mean", ok,
                    f"n=150 alpha=0.2, {trials} trials, mean={mean:.3f} "
                    f"band=[{0.8 * target:.3f}, {1.2 * target:.3f}] "
                    f"(target {target:.3f}), {elapsed:.1f}s")


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


def _per_edge_counts(tset, chosen) -> np.ndarray:
    sub = tset.tris[np.asarray(chosen, dtype=bool)]
    n = tset.n
    out = []
    for ci, cj in ((0, 1), (1, 2), (2, 0)):
        per = np.zeros((n, n), dtype=np.int64)
        np.add.at(per, (sub[:, ci], sub[:, cj]), 1)
        out.append(per.ravel())
    return np.concatenate(out)


def test_weight_functions_exact_and_boost_monotone():
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

    res = boost(tset, RegParams(p=1.0, q=0.9), RandomStream(311))
    discs = [t.max_disc for t in res.trace]
    growth = max((discs[i + 1] - discs[i] for i in range(len(discs) - 1)),
                 default=0.0)
    boost_ok = (abs(res.beta - 4.0) < 1e-9 and discs[-1] <= 1e-9
                and growth <= 1e-12)

    elapsed = time.perf_counter() - t0
    ok = chi_ok and pe_ok and pc_ok and boost_ok and elapsed < 300
    assert _verdict("weight-function-exactness", ok,
                    f"chi unit vertex weights ok={chi_ok}, psi_e zero vertex "
                    f"weights ok={pe_ok}, psi_cycle alternating edge signs "
                    f"ok={pc_ok}; boost beta={res.beta:.9f} "
                    f"final disc={discs[-1]:.2e} max growth={growth:.2e}, "
                    f"{elapsed:.1f}s")


@pytest.mark.xfail(strict=True, reason=(
    "per-edge counts of the sampled family are Binomial(27, 1/4) around the "
    "target 27/4, sd ~ 2.25, so at n = 30 a +-10% band around the mean "
    "cannot hold for all 2700 edges; roughly one edge in six lands inside"))
def test_boost_selected_family_per_edge_band():
    t0 = time.perf_counter()
    tset = conforming_instance(30)
    res = boost(tset, RegParams(p=1.0, q=0.9), RandomStream(311))
    per = _per_edge_counts(tset, res.chosen)
    lo, hi = 0.9 * 0.9 * 30 / 4, 1.1 * 0.9 * 30 / 4
    frac = float(np.mean((per >= lo) & (per <= hi)))
    elapsed = time.perf_counter() - t0
    ok = frac == 1.0 and elapsed < 300
    assert _verdict("boost-per-edge-band", ok,
                    f"n=30 q=0.9: per-edge triangle counts of the selected "
                    f"family, band=[{lo:.3f}, {hi:.3f}] (target 6.75), "
                    f"min={per.min()} max={per.max()} "
                    f"fraction in band={frac:.3f}, {elapsed:.1f}s")


def test_absorber_constructions():
    t0 = time.perf_counter()
    sphere_bad = [g for g in range(2, 11)
                  if not (len(sphere_cover(g).out_dec) == 2 * g - 1
                          and len(sphere_cover(g).in_dec) == 2 * g
                          and sphere_certificates_ok(sphere_cover(g)))]
    cover_bad = []
    for seed in range(20):
        g = random_divisible_graph((4, 4, 4), 6, substream(312, seed))
        cover = cover_with_short_cycles(g, (4, 4, 4))
        if not (cover.verified and all(len(c) <= 9 for c in cover.cycles)):
            cover_bad.append(seed)
    t_gadget = time.perf_counter()
    gadget = gadget_search("C3")
    gadget_elapsed = time.perf_counter() - t_gadget
    gadget_ok = gadget.verify() and gadget_elapsed < 60
    elapsed = time.perf_counter() - t0
    ok = not sphere_bad and not cover_bad and gadget_ok
    assert _verdict("absorber-constructions", ok,
                    f"sphere covers g=2..10 sizes 2g-1/2g certified "
                    f"(bad={sphere_bad}); 20 random divisible graphs covered "
                    f"by tripartite cycles of length <= 9 (bad={cover_bad}); "
                    f"C3 gadget verified in {gadget_elapsed:.1f}s (< 60s); "
                    f"{elapsed:.1f}s")


def test_cuboctahedra_density_trend():
    t0 = time.perf_counter()
    ratios = {}
    for n in (8, 16, 24, 32):
        squares = sample_squares(n, 200, substream(313, n))
        ratios[n] = float(np.mean([count_cuboctahedra_total(sq)
                                   for sq in squares])) / n**4
    in_band = all(3.0 <= r <= 6.0 for r in ratios.values())
    closer = abs(ratios[32] - 4.0) < abs(ratios[8] - 4.0)
    elapsed = time.perf_counter() - t0
    ok = in_band and closer and elapsed < 1800
    assert _verdict("cuboctahedra-density-trend", ok,
                    f"200 samples each, total/n^4 = "
                    f"{ {n: round(r, 3) for n, r in ratios.items()} }, "
                    f"band=[3, 6], |r(32)-4| < |r(8)-4|: {closer}, "
                    f"{elapsed:.1f}s")
