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

The two other tests check what neither an experiment nor a unit test
covers, the fast counters against brute force on sampled squares of
orders 2 to 10 and the girth-six equivalence on every order-4 square and
on sampled order-12 squares, and print one verdict line each, with the
observed numbers and the elapsed time.
"""

import time

import pytest

from latinlab.core import LatinSquare, to_triples
from latinlab.counting import (
    _girth_search,
    count_intercalates,
    cuboctahedron_report,
)
from latinlab.experiments import (
    EXPERIMENTS,
    check_lines,
    make_spec,
    run_experiment,
)
from latinlab.rng import substream
from latinlab.sampling import sample_squares

from reference import all_squares, brute_intercalates, brute_report

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
