"""End-to-end runs of the command-line verbs."""

import json
import os

import pytest

from latinlab.cli import main
from latinlab.core import (
    group_table,
    parse_grid,
    parse_triples,
    serialize_square,
    serialize_tripartite,
)
from latinlab.counting import count_intercalates
from latinlab.fracdec import conforming_instance


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def xor_square(tmp_path):
    path = tmp_path / "xor2.txt"
    path.write_text(serialize_square(group_table("elementary-abelian-2", 2)))
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
    for verb in ("intercalates", "cuboctahedra", "subsquares", "girth",
                 "config"):
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


def test_count_girth_labels_capped_values(capsys, tmp_path):
    path = tmp_path / "free.txt"
    path.write_text(serialize_square(group_table("cyclic", 5)))
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
    # three grids concatenate; the splitter in count reads them back
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


def test_process_run_trajectory_and_final(capsys, tmp_path):
    final = tmp_path / "final.txt"
    code, out, _ = run(capsys, "process", "run", "--n", "10", "--g", "6",
                       "--seed", "4", "--checkpoints", "5,20",
                       "--out", str(final))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,available,chosen"
    assert lines[1].startswith("5,")
    assert len(lines) == 3
    placed = parse_triples(final.read_text())
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
    tset = conforming_instance(30)
    graph = tmp_path / "host.json"
    cand = tmp_path / "cand.txt"
    graph.write_text(serialize_tripartite(tset.host))
    cand.write_text("\n".join(
        ["30"] + [f"{a} {b} {c}" for a, b, c in tset.tris]) + "\n")
    code, out, _ = run(capsys, "boost", "--graph", str(graph),
                       "--triangles", str(cand), "--q", "0.9",
                       "--seed", "2", "--out", str(tmp_path))
    assert code == 0
    assert "beta=4" in out
    star = (tmp_path / "boost_phi_star.txt").read_text().splitlines()
    assert star[0] == "0 0.25"
    trace = (tmp_path / "boost_trace.csv").read_text().splitlines()
    assert trace[0] == "iter,max_disc,vertex_residual"
    selected = (tmp_path / "boost_selected.txt").read_text().splitlines()
    assert selected[0] == "30"
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


def test_absorb_demo_exit_zero(capsys):
    code, out, _ = run(capsys, "absorb", "demo", "--g", "6")
    assert code == 0
    assert "ok=1" in out


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
    d1, d2 = tmp_path / "one", tmp_path / "two"
    for d in (d1, d2):
        code, _, _ = run(capsys, "experiment", "phi-table", "--n", "3",
                         "--out", str(d))
        assert code == 0
    for name in ("phi-table.json", "phi-table.csv"):
        left = (d1 / name).read_bytes()
        right = (d2 / name).read_bytes()
        # the JSON echoes its spec including out_dir, so compare csv
        # bytes strictly and json up to the differing directory names
        if name.endswith(".csv"):
            assert left == right
        else:
            assert left.replace(b"one", b"") == right.replace(b"two", b"")


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


@pytest.mark.parametrize("text, message", [
    ("3\n0 1 2\n1 2 0\n2 0 257\n", "line 4: symbol 257 out of range"),
    ("3 2\n0 1\n1 0\n0 0\n", "line 1: need 1 <= k <= n, got 3 x 2"),
    ("x\n", "bad header"),
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


def test_bad_parameters_are_input_errors(capsys, tmp_path):
    graph = tmp_path / "graph.json"
    graph.write_text("{not json")
    for argv in (["sample", "square", "--n", "0"],
                 ["sample", "square", "--n", "5", "--burnin", "-1"],
                 ["boost", "--graph", str(graph), "--triangles", str(graph)],
                 ["process", "run", "--n", "5", "--g", "4"],
                 ["phi", "--N", "0"],
                 ["experiment", "gstar-cuboctahedra", "--alpha", "500",
                  "--samples", "1", "--out", str(tmp_path)]):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error:"), argv
