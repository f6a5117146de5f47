"""Tests of the benchmark's correctness gate and tracer.

    python3 -m pytest benchmarks/test_gate.py

Wrong results are planted through wrappers installed here with
monkeypatch; nothing in latinlab is edited.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

from latinlab import counting, experiments  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def ops_named(wl, *names):
    by_name = {op.name: op for op in wl.ops(wl.workers)}
    return [by_name[n] for n in names]


def fail_frac(results):
    return (sum(len(r.failures) for r in results)
            / sum(r.attempted for r in results))


def test_clean_ops_pass(tmp_path):
    wl = workloads.build("highgirth", 0, str(tmp_path))
    refs = {}
    results = [workloads.run_pass(ops_named(wl, "girth-hits"), refs)
               for _ in range(2)]
    results.append(workloads.run_pass(
        ops_named(workloads.build("boost-exact", 0, str(tmp_path)),
                  "absorber-demo"), refs))
    assert fail_frac(results) == 0


def test_planted_wrong_girth_is_a_failure(tmp_path, monkeypatch):
    wl = workloads.build("highgirth", 0, str(tmp_path))
    real = counting.girth
    monkeypatch.setattr(counting, "girth",
                        lambda obj, g_max=12: real(obj, g_max) or 6)
    res = workloads.run_pass(ops_named(wl, "girth-miss"), {})
    assert res.failures == {"girth-miss": ["miss returned 6, not None"]}
    assert fail_frac([res]) == 1.0


def test_planted_failing_check_is_a_failure(tmp_path, monkeypatch):
    wl = workloads.build("boost-exact", 0, str(tmp_path))
    real = experiments.gadget_search

    class Unverified:
        def __init__(self, gadget):
            self.gadget = gadget

        def __getattr__(self, attr):
            return getattr(self.gadget, attr)

        def verify(self):
            return False

    monkeypatch.setattr(experiments, "gadget_search",
                        lambda h: Unverified(real(h)))
    res = workloads.run_pass(ops_named(wl, "absorber-demo"), {})
    assert list(res.failures) == ["absorber-demo"]
    assert "gadget-verified" in res.failures["absorber-demo"][0]


def test_designed_red_check_that_passes_is_a_failure(tmp_path, monkeypatch):
    wl = workloads.build("boost-exact", 0, str(tmp_path))
    target = {}
    real_boost = experiments.boost

    def boost(tset, params, rng):
        target["edge"] = params.p ** 2 * params.q * tset.n / 4
        return real_boost(tset, params, rng)

    def per_edge(tset, chosen):
        return np.full(3 * tset.n ** 2, target["edge"])

    monkeypatch.setattr(experiments, "boost", boost)
    monkeypatch.setattr(experiments, "_selected_per_edge", per_edge)
    res = workloads.run_pass(ops_named(wl, "boost-convergence"), {})
    assert res.failures == {"boost-convergence": [
        "designed-red check selected-per-edge-band passed (observed 1.0)"]}


def test_missing_designed_red_check_is_a_failure():
    checks = [{"name": "beta", "observed": 4.0, "low": 4.0, "high": 4.0,
               "passed": True}]
    assert workloads.check_verdicts("boost-convergence", checks) == [
        "designed-red check selected-per-edge-band missing"]


def test_output_that_changes_between_passes_is_a_failure(tmp_path,
                                                         monkeypatch):
    wl = workloads.build("boost-exact", 0, str(tmp_path))
    real = experiments.run_experiment
    calls = []

    def drifting(spec):
        summary = real(spec)
        calls.append(spec)
        with open(os.path.join(spec.out_dir, spec.experiment + ".csv"),
                  "a") as fh:
            fh.write(f"extra,{len(calls)},,\n")
        return summary

    monkeypatch.setattr(experiments, "run_experiment", drifting)
    refs = {}
    first = workloads.run_pass(ops_named(wl, "absorber-demo"), refs)
    second = workloads.run_pass(ops_named(wl, "absorber-demo"), refs)
    assert first.failures == {}
    assert second.failures == {
        "absorber-demo": ["output bytes differ from the first pass"]}
    assert fail_frac([first, second]) == 0.5


def test_instrument_records_spans_and_restores(tmp_path):
    wl = workloads.build("highgirth", 0, str(tmp_path))
    real = counting.girth
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        assert counting.girth is not real
        res = workloads.run_pass(ops_named(wl, "girth-hits"), {})
    assert counting.girth is real
    assert res.failures == {}
    spans, cubes = tracer.take()
    stats = tracing.PassStats(spans, cubes)
    assert stats.calls("counting.girth", hit=True) == workloads.HIT_SQUARES
    assert stats.calls("counting.girth", hit=False) == 0


def test_self_time_subtracts_the_union_of_children():
    S = tracing.Span
    spans = [S(1, "a", 0.0, 10.0, 0, 1, None),
             S(2, "b", 1.0, 4.0, 1, 2, None),   # overlaps its sibling
             S(3, "b", 3.0, 6.0, 1, 3, None),
             S(4, "c", 3.5, 4.5, 3, 3, None)]
    selfs = tracing.self_times(spans)
    assert selfs == {1: 5.0, 2: 3.0, 3: 2.0, 4: 1.0}


def test_benchmark_json_lists_every_layer_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        listed = [(m["name"], m["unit"]) for m in json.load(fh)["per_layer"]]
    assert listed == [(n, u) for n, u, _ in tracing.LAYER_METRICS] + [
        ("trace_overhead", "ratio")]
