"""End-to-end runs of the command-line verbs."""

import json
import os

import numpy as np
import pytest

from latinlab.cli import build_parser, main
from latinlab.core import (
    InputError,
    TripartiteGraph,
    group_table,
    parse_grid,
    parse_triples,
    serialize_grid,
    serialize_tripartite,
    serialize_triple_rows,
)
from latinlab.counting import count_intercalates, cuboctahedron_report
from latinlab.experiments import _DEFAULTS, make_spec
from latinlab.fracdec import complete_host, conforming_instance
from latinlab.process import ProcessConfig, log_density_target, run_process
from latinlab.rng import RandomStream

from reference import all_triangles


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def xor_square(tmp_path):
    path = tmp_path / "xor2.txt"
    path.write_text(serialize_grid(group_table("elementary-abelian-2", 2)))
    return str(path)


def test_count_intercalates_csv(capsys, xor_square):
    code, out, _ = run(capsys, "count", "intercalates", xor_square)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "input,metric,value"
    assert lines[1] == f"{xor_square},intercalates,12"


def test_count_json_format(capsys, xor_square):
    code, out, _ = run(capsys, "count", "intercalates", "--format", "json",
                       xor_square)
    assert code == 0
    payload = json.loads(out)
    assert payload == [
        {"input": xor_square, "metric": "intercalates", "value": 12}]


def test_every_count_verb_emits_json(capsys, xor_square):
    for verb in ("intercalates", "cuboctahedra", "subsquares", "girth"):
        code, out, _ = run(capsys, "count", verb, "--format", "json",
                           xor_square)
        assert code == 0
        payload = json.loads(out)
        assert payload and all(row["input"] == xor_square for row in payload)


def test_count_cuboctahedra_partitions(capsys, xor_square):
    code, out, _ = run(capsys, "count", "cuboctahedra", xor_square)
    assert code == 0
    vals = {}
    for line in out.splitlines()[1:]:
        _, metric, value = line.split(",")
        vals[metric] = int(value)
    assert vals["cuboctahedra_total"] == 4**5
    assert vals["cuboctahedra_total"] == (
        vals["cuboctahedra_nondegenerate"] + vals["cuboctahedra_degenerate"])


@pytest.mark.parametrize("text", [
    "2 4\n0 1 2 3\n1 0 3 2\n",
    "4\n0 1 . 3\n1 0 3 .\n. 3 0 1\n3 . 1 0\n",
], ids=["rectangle", "partial"])
def test_count_takes_rectangles_and_partial_grids(capsys, tmp_path, text):
    path = tmp_path / "grid.txt"
    path.write_text(text)
    obj = parse_grid(text)
    rep = cuboctahedron_report(obj)
    code, out, _ = run(capsys, "count", "intercalates", str(path))
    assert code == 0
    assert out.splitlines()[1] == (
        f"{path},intercalates,{count_intercalates(obj)}")
    code, out, _ = run(capsys, "count", "cuboctahedra", str(path))
    assert code == 0
    vals = {m: int(v) for _, m, v in
            (line.split(",") for line in out.splitlines()[1:])}
    assert vals["cuboctahedra_total"] == rep.total
    assert vals["cuboctahedra_nondegenerate"] == rep.nondegenerate
    assert vals["cuboctahedra_degenerate"] == rep.degenerate_total()


def test_count_subsquares_still_needs_a_square(capsys, tmp_path):
    path = tmp_path / "rect.txt"
    path.write_text("2 4\n0 1 2 3\n1 0 3 2\n")
    code, _, err = run(capsys, "count", "subsquares", str(path))
    assert code == 2
    assert "need a complete Latin square" in err


def test_count_girth_labels_capped_values(capsys, tmp_path):
    path = tmp_path / "free.txt"
    path.write_text(serialize_grid(group_table("cyclic", 5)))
    code, out, _ = run(capsys, "count", "girth", "--max", "6", str(path))
    assert code == 0
    assert out.splitlines()[1].endswith(",girth,>6")


def test_count_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "count", "intercalates", "/nope/missing.txt")
    assert code == 2
    assert "error:" in err


def test_sample_square_deterministic_bytes(capsys, tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for path in (a, b):
        code, _, _ = run(capsys, "sample", "square", "--n", "6",
                         "--count", "3", "--seed", "9", "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    # three grids back to back; count reads each of them
    code, out, _ = run(capsys, "count", "intercalates", str(a))
    assert code == 0
    assert len(out.splitlines()) == 4


def test_sample_rectangle_stdout(capsys):
    code, out, _ = run(capsys, "sample", "rectangle", "--n", "8", "--k", "3",
                       "--seed", "1")
    assert code == 0
    rect = parse_grid(out)
    assert rect.k == 3 and rect.n == 8


def test_sample_rectangle_count_prints_each_rectangle(capsys):
    code, out, _ = run(capsys, "sample", "rectangle", "--n", "8", "--k", "3",
                       "--count", "5", "--seed", "1")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5 * 4
    for i in range(0, len(lines), 4):
        rect = parse_grid("\n".join(lines[i:i + 4]))
        assert rect.k == 3 and rect.n == 8


def test_count_girth_rejects_out_of_range_triples(capsys, tmp_path):
    path = tmp_path / "alias.txt"
    path.write_text("3\n0 3 0\n0 3 1\n1 1 1\n")
    code, _, err = run(capsys, "count", "girth", str(path))
    assert code == 2
    assert "out of range" in err


def test_sample_rectangle_requires_k(capsys):
    code, _, err = run(capsys, "sample", "rectangle", "--n", "8")
    assert code == 2
    assert "--k" in err


def test_sample_rectangle_rejects_burnin(capsys):
    # rectangles are exact rejection draws, so a burn-in would be ignored
    code, out, err = run(capsys, "sample", "rectangle", "--n", "8", "--k",
                         "2", "--burnin", "3")
    assert code == 2
    assert out == ""
    assert "--burnin" in err


def test_sample_rectangle_budget_is_an_input_error(capsys, monkeypatch):
    # k = 7 runs through the full budget in about a second; a small one
    # gives the same exit at once
    monkeypatch.setattr("latinlab.sampling.RECTANGLE_BUDGET", 100)
    code, out, err = run(capsys, "sample", "rectangle", "--n", "7", "--k",
                         "7")
    assert code == 2
    assert out == ""
    assert err.startswith("error: no 1 Latin rectangles at k=7")
    assert "budget of 100 candidates" in err
    assert "Traceback" not in err


def test_process_run_trajectory_and_final(capsys, tmp_path):
    final = tmp_path / "final.txt"
    code, out, err = run(capsys, "process", "run", "--n", "10", "--g", "6",
                         "--seed", "4", "--checkpoints", "5,20",
                         "--out", str(final))
    assert code == 0
    res = run_process(10, RandomStream(4), ProcessConfig(girth=6))
    lines = out.splitlines()
    assert lines[0] == "t,available,safe,chosen"
    assert lines[1:] == [
        f"{t},{res.available_trace[t]},{res.trace[t]},"
        + " ".join(map(str, res.order[t])) for t in (5, 20)]
    assert err == (
        f"# steps={res.steps} coverage={res.coverage:.4f} stalled="
        f"{int(res.stalled)} log_density={res.log_density():.4f} "
        f"model={res.model_log_density():.4f} "
        f"target={log_density_target(10):.4f}\n")
    placed = parse_triples(final.read_text())
    assert placed == res.placed
    assert count_intercalates(placed) == 0


@pytest.mark.parametrize("n", ["0", "-3"])
def test_process_run_rejects_nonpositive_order(capsys, n):
    code, _, err = run(capsys, "process", "run", "--n", n)
    assert code == 2
    assert "order must be positive" in err


def test_count_rejects_negative_order_file(capsys, tmp_path):
    path = tmp_path / "neg.txt"
    path.write_text("-2\n")
    code, _, err = run(capsys, "count", "intercalates", str(path))
    assert code == 2
    assert "line 1: order must be positive" in err


def test_phi_json_and_witness(capsys, tmp_path):
    report_path = tmp_path / "phi.json"
    code, _, _ = run(capsys, "phi", "--N", "2", "--out", str(report_path))
    assert code == 0
    payload = json.loads(report_path.read_text())
    assert payload["N"] == 2
    assert payload["lower"] <= payload["upper"]
    witness = parse_triples(open(payload["witness_file"]).read())
    assert count_intercalates(witness) >= 2


def test_boost_writes_the_three_artifacts(capsys, tmp_path):
    # n = 2 is the complete K_{2,2,2}: too few vertices for the larger
    # sampled vertex sets of the conditions
    for n, layers, q in ((30, 3, "0.9"), (2, 0, "1")):
        tset = conforming_instance(n, layers)
        out_dir = tmp_path / str(n)
        out_dir.mkdir()
        graph = out_dir / "host.json"
        cand = out_dir / "cand.txt"
        graph.write_text(serialize_tripartite(tset.host))
        cand.write_text("\n".join(
            [str(n)] + [f"{a} {b} {c}" for a, b, c in tset.tris]) + "\n")
        code, out, _ = run(capsys, "boost", "--graph", str(graph),
                           "--triangles", str(cand), "--q", q,
                           "--seed", "2", "--out", str(out_dir))
        assert code == 0
        assert "beta=4" in out
        star = (out_dir / "boost_phi_star.txt").read_text().splitlines()
        assert star[0] == "0 0.25"
        trace = (out_dir / "boost_trace.csv").read_text().splitlines()
        assert trace[0] == "iter,max_disc,vertex_residual"
        selected = (out_dir / "boost_selected.txt").read_text().splitlines()
        assert selected[0] == str(n)
        assert all(len(line.split()) == 3 for line in selected[1:])


def test_absorb_spheres_files(capsys, tmp_path):
    code, out, _ = run(capsys, "absorb", "spheres", "--g", "3",
                       "--out", str(tmp_path))
    assert code == 0
    assert "g=3" in out
    names = sorted(os.listdir(tmp_path))
    assert names == ["sphere_g3_in_dec.txt", "sphere_g3_out_dec.txt",
                     "sphere_g3_q.json", "sphere_g3_qt.json"]


def test_absorb_path_cover_json(capsys):
    code, out, _ = run(capsys, "absorb", "path-cover", "--sizes", "4,4,4",
                       "--cycles", "4", "--seed", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    assert payload["max_length"] <= 9


def test_absorb_gadget_reference(capsys):
    code, out, _ = run(capsys, "absorb", "gadget", "--reference")
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    assert payload["parts"] == [2, 2, 2]


def test_experiment_unknown_id_exits_two(capsys, tmp_path):
    code, _, err = run(capsys, "experiment", "not-a-thing",
                       "--out", str(tmp_path))
    assert code == 2
    assert "unknown experiment" in err


def test_experiment_runs_and_reports(capsys, tmp_path):
    code, out, _ = run(capsys, "experiment", "phi-table", "--n", "3",
                       "--out", str(tmp_path))
    assert code == 0
    assert "PASS" in out
    assert (tmp_path / "phi-table.json").exists()
    assert (tmp_path / "phi-table.csv").exists()
    code, out, _ = run(capsys, "report", str(tmp_path))
    assert code == 0
    assert all(line.startswith("PASS") for line in out.splitlines())


def test_experiment_all_runs_the_selected_experiments(capsys, tmp_path):
    code, out, _ = run(capsys, "experiment", "all", "--only", "phi-table",
                       "absorber-demo", "--seed", "0", "--out", str(tmp_path))
    assert code == 0
    assert "all checks passed (2 experiments" in out
    for name in ("phi-table", "absorber-demo"):
        summary = json.loads((tmp_path / f"{name}.json").read_text())
        assert summary["experiment"] == name
        assert (tmp_path / f"{name}.csv").exists()
    assert sorted(os.listdir(tmp_path)) == [
        "absorber-demo.csv", "absorber-demo.json",
        "phi-table.csv", "phi-table.json"]


@pytest.mark.parametrize("argv", [
    ["--only", "phi-table", "not-a-thing"],
    ["--skip", "not-a-thing"],
    ["--n", "5"],
])
def test_experiment_all_rejects_unknown_ids_and_overrides(capsys, tmp_path,
                                                          argv):
    code, _, err = run(capsys, "experiment", "all", *argv,
                       "--out", str(tmp_path))
    assert code == 2
    assert err.startswith("error:")
    assert not os.listdir(tmp_path)


def test_experiment_reruns_are_byte_identical(capsys, tmp_path):
    # a rerun, and a pooled experiment at two worker counts
    for argv, threads in (
            (["phi-table", "--n", "3"], ("1", "1")),
            (["rectangle-poisson", "--n", "12", "--k", "2",
              "--samples", "64"], ("1", "2"))):
        name = argv[0]
        outputs = []
        for t in threads:
            out = tmp_path / f"{name}-{len(outputs)}"
            code, _, err = run(capsys, "experiment", *argv, "--threads", t,
                               "--out", str(out))
            # 64 draws may miss a band; only the bytes matter here
            assert code in (0, 1) and "internal error" not in err
            outputs.append(((out / f"{name}.csv").read_bytes(),
                            (out / f"{name}.json").read_bytes()))
        assert outputs[0] == outputs[1], name


@pytest.mark.parametrize("argv, unread", [
    (["phi-table", "--n", "3", "--samples", "5"], "samples"),
    (["intercalate-mean", "--checkpoints", "4"], "checkpoints"),
    (["boost-convergence", "--k", "2", "--g", "6"], "g, k"),
])
def test_experiment_rejects_overrides_it_does_not_read(capsys, tmp_path,
                                                        argv, unread):
    code, _, err = run(capsys, "experiment", *argv, "--out", str(tmp_path))
    assert code == 2
    assert f"does not take {unread}" in err
    assert not os.listdir(tmp_path)


def test_make_spec_rejects_negative_checkpoints():
    with pytest.raises(InputError, match="checkpoints must be nonnegative"):
        make_spec("trp-trajectory", n=10, checkpoints=(-3, 5))
    assert make_spec("trp-trajectory", n=10,
                     checkpoints=(0, 5)).checkpoints == (0, 5)


@pytest.mark.parametrize("flag", ["--p", "--q"])
def test_experiment_has_no_p_or_q(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "boost-convergence", flag, "0.5"])
    assert exc.value.code == 2


def test_every_experiment_override_flag_is_read_somewhere():
    args = build_parser().parse_args(["experiment", "phi-table"])
    not_overrides = {"verb", "fn", "id", "only", "skip", "seed", "out",
                     "threads"}
    flags = set(vars(args)) - not_overrides
    read = set().union(*(d.keys() for d in _DEFAULTS.values()))
    assert "n" in flags and flags <= read


def test_report_empty_directory_is_an_error(capsys, tmp_path):
    code, _, err = run(capsys, "report", str(tmp_path))
    assert code == 2
    assert "no result summaries" in err


def test_report_flags_failures_with_exit_one(capsys, tmp_path):
    summary = {
        "experiment": "made-up",
        "checks": [{"name": "band", "observed": 9.0, "low": 0.0,
                    "high": 1.0, "passed": False}],
    }
    (tmp_path / "made-up.json").write_text(json.dumps(summary))
    code, out, _ = run(capsys, "report", str(tmp_path))
    assert code == 1
    assert out.startswith("FAIL")


def test_internal_error_exits_one(capsys, monkeypatch, xor_square):
    def broken(_):
        raise ValueError("counter bug")

    monkeypatch.setattr("latinlab.cli.count_intercalates", broken)
    code, _, err = run(capsys, "count", "intercalates", xor_square)
    assert code == 1
    assert "internal error: ValueError('counter bug')" in err


_K4 = "4\n0 1 2 3\n1 0 3 2\n2 3 0 1\n3 2 1 0\n"


@pytest.mark.parametrize("text, message", [
    ("3\n0 1 2\n1 2 0\n2 0 257\n", "line 4: symbol 257 out of range"),
    ("3 2\n0 1\n1 0\n0 0\n", "line 1: need 1 <= k <= n, got 3 x 2"),
    ("x\n", "bad header"),
    (_K4 + _K4.replace("3 2\n", "3 9\n", 1),
     "line 8: symbol 9 out of range"),
    (_K4 + _K4 + "4\n0 1 2 3\n", "line 11: expected 4 rows, found 1"),
])
def test_bad_grid_files_are_input_errors(capsys, tmp_path, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    code, _, err = run(capsys, "count", "intercalates", str(path))
    assert code == 2
    assert message in err


def test_boost_graph_with_negative_vertex_is_input_error(capsys, tmp_path):
    graph = tmp_path / "graph.json"
    graph.write_text('{"parts": [2, 2, 2], "edges_12": [[-1, 0]]}')
    code, _, err = run(capsys, "boost", "--graph", str(graph),
                       "--triangles", str(graph))
    assert code == 2
    assert "outside parts" in err


def test_boost_graph_with_array_vertex_is_input_error(capsys, tmp_path):
    graph = tmp_path / "graph.json"
    graph.write_text('{"parts": [2, 2, 2], "edges_12": [[[0, 0], [1, 0]]]}')
    code, _, err = run(capsys, "boost", "--graph", str(graph),
                       "--triangles", str(graph))
    assert code == 2
    assert "pairs of integer vertices" in err


def test_boost_force_without_k211_is_input_error(capsys, tmp_path):
    # part-0 vertices 0 and 1 share no (y, z) pair, and their triangle
    # counts (2 and 1 of 3) differ, so chi_{V^1} cannot move weight
    graph = tmp_path / "host.json"
    cand = tmp_path / "cand.txt"
    graph.write_text(serialize_tripartite(complete_host(3)))
    cand.write_text("3\n0 0 0\n0 1 1\n1 2 2\n")
    argv = ["boost", "--graph", str(graph), "--triangles", str(cand),
            "--out", str(tmp_path)]
    code, _, err = run(capsys, *argv, "--force")
    assert code == 2
    assert err == "error: no K_{2,1,1} copies through the pair\n"
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: conditions fail")
    assert not list(tmp_path.glob("boost_*"))


def test_boost_force_with_unequal_pair_counts_is_input_error(capsys,
                                                             tmp_path):
    # each adjacency drawn at density 0.9: the cross-pair counts differ,
    # so some part's imbalances do not sum to 0 and no chi balances it
    rng = np.random.default_rng(7)
    host = TripartiteGraph.from_adjacency(
        *(rng.random((8, 8)) < 0.9 for _ in range(3)))
    tset = all_triangles(host)
    assert tset.edges_per_pair == (60, 57, 54)
    graph = tmp_path / "host.json"
    cand = tmp_path / "cand.txt"
    graph.write_text(serialize_tripartite(host))
    cand.write_text("\n".join(
        ["8"] + [f"{a} {b} {c}" for a, b, c in tset.tris]) + "\n")
    code, _, err = run(capsys, "boost", "--graph", str(graph),
                       "--triangles", str(cand), "--out", str(tmp_path),
                       "--force")
    assert code == 2
    assert err == ("error: cross-pair edge counts (60, 57, 54) differ, so "
                   "no chi can balance the vertex weights\n")
    assert not list(tmp_path.glob("boost_*"))


def test_bad_parameters_are_input_errors(capsys, tmp_path):
    graph = tmp_path / "graph.json"
    graph.write_text("{not json")
    host, cand = tmp_path / "host.json", tmp_path / "cand.txt"
    tset = conforming_instance(2, 0)
    host.write_text(serialize_tripartite(tset.host))
    cand.write_text(serialize_triple_rows(2, tset.tris.tolist()))
    boost = ["boost", "--graph", str(host), "--triangles", str(cand),
             "--q", "1", "--out", str(tmp_path / "boost")]
    for argv in (["sample", "square", "--n", "0"],
                 ["sample", "square", "--n", "5", "--burnin", "-1"],
                 ["boost", "--graph", str(graph), "--triangles", str(graph)],
                 boost + ["--C", "0"],
                 boost + ["--C", "0.5"],
                 boost + ["--iters", "-3"],
                 ["process", "run", "--n", "5", "--g", "4"],
                 ["process", "run", "--n", "5", "--m", "-3"],
                 ["sample", "square", "--n", "5", "--seed", "-1"],
                 ["sample", "rectangle", "--n", "5", "--k", "2",
                  "--seed", "-1"],
                 ["process", "run", "--n", "5", "--seed", "-1"],
                 ["absorb", "path-cover", "--seed", "-1"],
                 ["sample", "square", "--n", "5", "--count", "-2"],
                 ["sample", "rectangle", "--n", "5", "--k", "2",
                  "--count", "-1"],
                 ["absorb", "path-cover", "--cycles", "-3"],
                 ["absorb", "gadget", "--aux-budget", "-1"],
                 ["phi", "--N", "0"],
                 ["phi", "--N", "1" * 400],
                 ["phi", "--N", "10000001"],
                 ["experiment", "gstar-cuboctahedra", "--alpha", "500",
                  "--samples", "1", "--out", str(tmp_path)],
                 ["experiment", "phi-table", "--n", "3", "--threads", "0",
                  "--out", str(tmp_path)],
                 ["experiment", "phi-table", "--n", "3", "--threads", "-4",
                  "--out", str(tmp_path)],
                 ["experiment", "phi-table", "--n", "0",
                  "--out", str(tmp_path)],
                 ["experiment", "intercalate-mean", "--samples", "0",
                  "--out", str(tmp_path)],
                 ["experiment", "boost-convergence", "--n", "3",
                  "--out", str(tmp_path)],
                 ["experiment", "absorber-demo", "--samples", "-1",
                  "--out", str(tmp_path)]):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error:"), argv
