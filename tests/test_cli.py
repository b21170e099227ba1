import csv
import json
import re

import pytest

import graphreduce.reducer as reducer
from graphreduce.cli import main
from graphreduce.graph import read_contraction_map, read_edgelist
from graphreduce.laplacian import SingularUpdateError
from tests.conftest import count_dense_builds


def run(*argv):
    return main(list(argv))


@pytest.fixture
def er_graph(tmp_path):
    path = tmp_path / "g.edges"
    code = run(
        "gen", "--kind", "er", "--params", '{"n": 32, "p": 0.2}',
        "--seed", "7", "--out", str(path),
    )
    assert code == 0
    return path


class TestGen:
    def test_writes_readable_graph(self, er_graph):
        g = read_edgelist(er_graph)
        assert g.n_nodes == 32 and g.n_edges > 31
        assert g.is_connected()

    def test_deterministic_per_seed(self, tmp_path):
        args = ["gen", "--kind", "er", "--params", '{"n": 20, "p": 0.3, "weight_law": "exp-uniform:-2,2"}']
        a, b, c = (tmp_path / n for n in ("a.edges", "b.edges", "c.edges"))
        assert run(*args, "--seed", "4", "--out", str(a)) == 0
        assert run(*args, "--seed", "4", "--out", str(b)) == 0
        assert run(*args, "--seed", "5", "--out", str(c)) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_unknown_kind_exits_nonzero(self, tmp_path, capsys):
        code = run("gen", "--kind", "hypercube", "--out", str(tmp_path / "x"))
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_node_weight_output(self, tmp_path):
        out = tmp_path / "p.edges"
        nw = tmp_path / "p.nodes"
        code = run(
            "gen", "--kind", "path", "--params", '{"n": 4}',
            "--out", str(out), "--node-weights-out", str(nw),
        )
        assert code == 0
        assert len(nw.read_text().splitlines()) == 4


class TestReduce:
    def test_full_flow(self, tmp_path, er_graph):
        prefix = tmp_path / "red"
        code = run(
            "reduce", "--input", str(er_graph), "--stop", "edges=40",
            "--seed", "1", "--out", str(prefix),
        )
        assert code == 0
        reduced = read_edgelist(
            str(prefix) + ".edges", str(prefix) + ".nodeweights"
        )
        assert reduced.n_edges <= 40
        assert reduced.is_connected()
        cmap = read_contraction_map(str(prefix) + ".cmap.json")
        assert sorted(cmap.originals) == read_edgelist(er_graph).nodes()
        assert set(cmap.assignment.values()) == set(reduced.nodes())
        lines = (tmp_path / "red.trace.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert records[-1].keys() == {"stopped_by", "drift"}
        assert records[-1]["stopped_by"] == "EdgeBudget"
        assert 0 <= records[-1]["drift"] < 1e-10
        assert records[0]["iteration"] == 0

    def test_byte_identical_determinism(self, tmp_path, er_graph):
        for prefix in ("one", "two"):
            code = run(
                "reduce", "--input", str(er_graph), "--stop", "edges=50",
                "--stop", "iters=200", "--seed", "9", "--out", str(tmp_path / prefix),
            )
            assert code == 0
        for suffix in (".edges", ".nodeweights", ".cmap.json", ".trace.jsonl"):
            assert (tmp_path / ("one" + suffix)).read_bytes() == (
                tmp_path / ("two" + suffix)
            ).read_bytes()

    def test_sketch_mode_and_flags(self, tmp_path, er_graph, capsys):
        code = run(
            "reduce", "--input", str(er_graph), "--stop", "nodes=20",
            "--priority", "nodes", "--q", "0.2", "--d", "0.2",
            "--mode", "sketch:25", "--seed", "3",
            "--out", str(tmp_path / "sk"),
        )
        assert code == 0
        reduced = read_edgelist(str(tmp_path / "sk.edges"))
        assert reduced.n_nodes <= 20
        # The probe count is required.
        code = run(
            "reduce", "--input", str(er_graph), "--stop", "nodes=20",
            "--mode", "sketch", "--out", str(tmp_path / "bare"),
        )
        assert code == 1
        assert "sketch:K" in capsys.readouterr().err

    def test_no_contraction_keeps_nodes(self, tmp_path, er_graph):
        code = run(
            "reduce", "--input", str(er_graph), "--stop", "edges=45",
            "--no-contraction", "--seed", "2", "--out", str(tmp_path / "nc"),
        )
        assert code == 0
        reduced = read_edgelist(str(tmp_path / "nc.edges"))
        assert reduced.n_nodes == 32

    def test_pinv_output(self, tmp_path, er_graph):
        code = run(
            "reduce", "--input", str(er_graph), "--stop", "iters=3",
            "--seed", "2", "--out", str(tmp_path / "r"),
            "--pinv-out", str(tmp_path / "p.csv"),
        )
        assert code == 0
        with open(tmp_path / "p.csv", newline="") as fh:
            matrix = list(csv.reader(fh))
        assert len(matrix) == len(matrix[0])

    def test_sketch_reduction_builds_the_pinv_only_for_pinv_out(
        self, monkeypatch, tmp_path, er_graph
    ):
        built = count_dense_builds(monkeypatch)
        args = ["reduce", "--input", str(er_graph), "--stop", "edges=40",
                "--mode", "sketch:8", "--seed", "1"]
        assert run(*args, "--out", str(tmp_path / "a")) == 0
        assert built == []
        pinv = tmp_path / "p.csv"
        assert run(*args, "--out", str(tmp_path / "b"), "--pinv-out", str(pinv)) == 0
        n = read_edgelist(str(tmp_path / "b.edges")).n_nodes
        assert built == [n]
        with open(pinv, newline="") as fh:
            matrix = list(csv.reader(fh))
        assert len(matrix) == n and {len(row) for row in matrix} == {n}

    def test_a_failed_pinv_build_writes_no_file(self, monkeypatch, tmp_path, er_graph, capsys):
        # A sketch reduction builds nothing itself: the failing build is the
        # first read of `state`.
        def singular(g):
            raise SingularUpdateError("L + J is not positive definite (LAPACK info 3)")

        monkeypatch.setattr(reducer, "build_pseudoinverse", singular)
        code = run(
            "reduce", "--input", str(er_graph), "--stop", "edges=40", "--mode", "sketch:8",
            "--out", str(tmp_path / "r"), "--pinv-out", str(tmp_path / "p.csv"),
        )
        assert code == 1
        assert "not positive definite" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == [er_graph.name]

    def test_missing_input_exits_nonzero(self, tmp_path):
        code = run(
            "reduce", "--input", str(tmp_path / "nope.edges"),
            "--stop", "edges=5", "--out", str(tmp_path / "r"),
        )
        assert code == 1

    def test_bad_stop_exits_nonzero(self, tmp_path, er_graph):
        code = run(
            "reduce", "--input", str(er_graph), "--stop", "volume=4",
            "--out", str(tmp_path / "r"),
        )
        assert code == 1

    def test_a_malformed_stop_value_names_the_stop(self, tmp_path, er_graph, capsys):
        code = run(
            "reduce", "--input", str(er_graph), "--stop", "edges=20.5",
            "--out", str(tmp_path / "r"),
        )
        assert code == 1
        assert "stop 'edges=20.5': edges wants an integer" in capsys.readouterr().err

    def test_saturated_reduction_exits_zero_with_its_reason(self, tmp_path, capsys):
        # A lone bridge can never be deleted, so the budget stays unmet.
        (tmp_path / "one.edges").write_text("0 1 1.0\n")
        code = run(
            "reduce", "--input", str(tmp_path / "one.edges"), "--no-contraction",
            "--stop", "edges=0", "--out", str(tmp_path / "r"),
        )
        assert code == 0
        assert "stop saturated" in capsys.readouterr().out
        assert read_edgelist(str(tmp_path / "r.edges")).n_edges == 1

    def test_missing_stop_flag_is_usage_error(self, tmp_path, er_graph):
        with pytest.raises(SystemExit) as exc:
            run("reduce", "--input", str(er_graph), "--out", str(tmp_path / "r"))
        assert exc.value.code != 0


class TestBaselineCommands:
    def test_sparsify(self, tmp_path, er_graph):
        code = run(
            "sparsify", "--input", str(er_graph), "--target-edges", "60",
            "--seed", "5", "--out", str(tmp_path / "sp"),
        )
        assert code == 0
        h = read_edgelist(str(tmp_path / "sp.edges"))
        assert 0 < h.n_edges < read_edgelist(er_graph).n_edges

    def test_sparsify_needs_a_size(self, tmp_path, er_graph):
        with pytest.raises(SystemExit) as exc:
            run("sparsify", "--input", str(er_graph), "--out", str(tmp_path / "sp"))
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "command, flags",
        [("sparsify", ["--samples", "30", "--target-edges", "10"]),
         ("coarsen", ["--levels", "1", "--target-nodes", "15"])],
        ids=["sparsify", "coarsen"],
    )
    def test_exclusive_size_flags_are_usage_errors(
        self, tmp_path, er_graph, capsys, command, flags
    ):
        # Either flag alone sets the size; an explicit --levels 1 conflicts too.
        with pytest.raises(SystemExit) as exc:
            run(command, "--input", str(er_graph), *flags, "--out", str(tmp_path / "o"))
        assert exc.value.code == 2
        assert f"argument {flags[2]}: not allowed with argument {flags[0]}" in (
            capsys.readouterr().err
        )

    def test_coarsen_hits_target(self, tmp_path, er_graph):
        code = run(
            "coarsen", "--input", str(er_graph), "--strategy", "heavy-edge",
            "--target-nodes", "16", "--seed", "5", "--out", str(tmp_path / "co"),
        )
        assert code == 0
        coarse = read_edgelist(
            str(tmp_path / "co.edges"), str(tmp_path / "co.nodeweights")
        )
        assert coarse.n_nodes == 16
        cmap = read_contraction_map(str(tmp_path / "co.cmap.json"))
        groups = cmap.groups()
        assert len(groups) == 16
        assert sum(len(g) for g in groups.values()) == 32


class TestMetrics:
    def test_identity_comparison(self, tmp_path, er_graph, capsys):
        out = tmp_path / "m.csv"
        code = run(
            "metrics", "--original", str(er_graph), "--reduced", str(er_graph),
            "--sigma", "1.1", "--out", str(out),
        )
        assert code == 0
        with open(out, newline="") as fh:
            values = {row["metric"]: float(row["value"]) for row in csv.DictReader(fh)
                      if row["metric"] == "hyperbolic_sup"}
        assert values["hyperbolic_sup"] < 1e-6
        assert "sigma=1.1: ok" in capsys.readouterr().out

    def test_reduced_comparison_with_cmap(self, tmp_path, er_graph):
        assert run(
            "reduce", "--input", str(er_graph), "--stop", "nodes=20",
            "--priority", "nodes", "--seed", "4", "--out", str(tmp_path / "r"),
        ) == 0
        out = tmp_path / "m.json"
        code = run(
            "metrics", "--original", str(er_graph),
            "--reduced", str(tmp_path / "r.edges"),
            "--reduced-node-weights", str(tmp_path / "r.nodeweights"),
            "--cmap", str(tmp_path / "r.cmap.json"),
            "--eigen-k", "4", "--json", str(out),
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["sup_distance"] > 0
        assert set(payload["distances"]) == {"fiedler", "median"}
        assert payload["eigen_error"] >= 0

    def test_bad_sigma_exits_nonzero(self, tmp_path, er_graph):
        with pytest.raises(SystemExit) as exc:
            run("metrics", "--original", str(er_graph), "--reduced", str(er_graph),
                "--sigma", "0.9")
        assert exc.value.code == 2

    @pytest.mark.parametrize("sigma", ["0.5", "1", "nan", "inf"])
    def test_bad_sigma_is_a_usage_error_that_writes_no_file(
        self, tmp_path, er_graph, capsys, sigma
    ):
        with pytest.raises(SystemExit) as exc:
            run("metrics", "--original", str(er_graph), "--reduced", str(er_graph),
                "--sigma", sigma, "--out", str(tmp_path / "m.csv"),
                "--json", str(tmp_path / "m.json"))
        assert exc.value.code == 2
        assert f"--sigma: must be finite and exceed 1, got {sigma}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == [er_graph.name]

    def test_sigma_check_over_no_premise_vector_is_vacuous(self, tmp_path, er_graph, capsys):
        # No random vector is within ln(1.01) of a halved graph: nothing is checked.
        assert run("reduce", "--input", str(er_graph), "--stop", "edges=40",
                   "--seed", "0", "--out", str(tmp_path / "r")) == 0
        code = run(
            "metrics", "--original", str(er_graph), "--reduced", str(tmp_path / "r.edges"),
            "--reduced-node-weights", str(tmp_path / "r.nodeweights"),
            "--cmap", str(tmp_path / "r.cmap.json"), "--sigma", "1.01",
        )
        assert code == 1
        assert "sigma=1.01: vacuous (0/1000 vectors within premise)" in capsys.readouterr().out

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_sigma_vectors_below_one_is_usage_error(self, er_graph, capsys, count):
        # A guarantee checked over no vectors would pass vacuously.
        with pytest.raises(SystemExit) as exc:
            run("metrics", "--original", str(er_graph), "--reduced", str(er_graph),
                "--sigma", "2", "--sigma-vectors", count)
        assert exc.value.code == 2
        assert f"--sigma-vectors: must be at least 1, got {count}" in capsys.readouterr().err

    @pytest.mark.parametrize("vectors", ["", ","])
    def test_empty_vector_list_is_usage_error(self, er_graph, capsys, vectors):
        # A comparison along no vector would report a distance of 0.
        with pytest.raises(SystemExit) as exc:
            run("metrics", "--original", str(er_graph), "--reduced", str(er_graph),
                "--vectors", vectors)
        assert exc.value.code == 2
        assert "argument --vectors: names no vector" in capsys.readouterr().err

    def test_supernode_weights_must_match_the_originals(self, tmp_path, er_graph, capsys):
        assert run(
            "reduce", "--input", str(er_graph), "--stop", "nodes=20",
            "--priority", "nodes", "--seed", "4", "--out", str(tmp_path / "r"),
        ) == 0
        argv = ["metrics", "--original", str(er_graph), "--reduced", str(tmp_path / "r.edges"),
                "--cmap", str(tmp_path / "r.cmap.json")]
        # Without its node weights every supernode reads as weight 1.
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert re.search(r"error: reduced node \d+ weighs 1, its original nodes \d", err)
        assert "--reduced-node-weights" in err
        assert run(*argv, "--reduced-node-weights", str(tmp_path / "r.nodeweights")) == 0

    @pytest.mark.parametrize(
        "originals, assignment, reduced_edges, message",
        [
            ([0, 1, 2, 3], [[0, 0], [1, 0], [2, 2]], "0 2\n",
             "original node 3 is listed 1 and assigned 0 times"),
            ([0, 1, 2, 3], [[0, 0], [1, 0], [1, 2], [2, 2], [3, 2]], "0 2\n",
             "original node 1 is listed 1 and assigned 2 times"),
            ([0, 1, 2], [[0, 0], [1, 0], [2, 2]], "0 2\n",
             "original node 3 is missing from the contraction map"),
            ([0, 1, 2, 3, 4], [[0, 0], [1, 0], [2, 2], [3, 2], [4, 2]], "0 2\n",
             "original node 4 is not in the graph"),
            ([0, 1, 2, 3], [[0, 0], [1, 0], [2, 2], [3, 5]], "0 2\n",
             "original node 3 maps to 5, not in the reduced graph"),
            (None, None, "0 2\n",
             "original node 1 maps to 1, not in the reduced graph"),
            ([0, 1, 2, 3], [[0, 0], [1, 0], [2, 2], [3, 2]], "0 2\n2 7\n",
             "reduced node 7 has no original node in the map"),
        ],
        ids=["unassigned", "assigned-twice", "not-listed", "not-in-graph",
             "missing-supernode", "identity-onto-smaller", "uncovered-supernode"],
    )
    def test_mismatched_cmap_names_the_node(
        self, tmp_path, capsys, originals, assignment, reduced_edges, message
    ):
        (tmp_path / "g.edges").write_text("0 1\n1 2\n2 3\n")
        (tmp_path / "r.edges").write_text(reduced_edges)
        argv = ["metrics", "--original", str(tmp_path / "g.edges"),
                "--reduced", str(tmp_path / "r.edges")]
        if originals is not None:
            cmap = tmp_path / "r.cmap.json"
            cmap.write_text(json.dumps({"originals": originals, "assignment": assignment}))
            argv += ["--cmap", str(cmap)]
        assert run(*argv) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"originals": [0, 1, 2, 3]}',
             'a contraction map needs "originals" and "assignment" lists'),
            ('{"originals": [0, 1, 2, 3], "assignment": [[0, 0], [1, 0, 2], [2, 2], [3, 2]]}',
             "assignment entry [1, 0, 2] is not an [original, supernode] pair"),
            ('{"originals": [0, 1, 2, 3], "assignment": [[0, 0], [1, 0], [2, "2"], [3, 2]]}',
             "node id '2' is not an integer"),
            ('{"originals": [0, 1, 2.5, 3], "assignment": [[0, 0], [1, 0], [2, 2], [3, 2]]}',
             "node id 2.5 is not an integer"),
            ('{"originals": [0, 1, 2, 3], "assignment": ',
             "not JSON: Expecting value"),
        ],
        ids=["no-assignment", "three-element-pair", "string-id", "float-id", "not-json"],
    )
    def test_malformed_cmap_names_the_path(self, tmp_path, capsys, text, message):
        (tmp_path / "g.edges").write_text("0 1\n1 2\n2 3\n")
        (tmp_path / "r.edges").write_text("0 2\n")
        cmap = tmp_path / "r.cmap.json"
        cmap.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{cmap}: {message}")):
            read_contraction_map(cmap)
        assert run("metrics", "--original", str(tmp_path / "g.edges"),
                   "--reduced", str(tmp_path / "r.edges"), "--cmap", str(cmap)) == 1
        assert f"error: {cmap}: {message}" in capsys.readouterr().err


class TestCompare:
    def spec_dict(self):
        return {
            "graph": {"kind": "er", "params": {"n": 20, "p": 0.3}},
            "levels": {"target": "edges", "sizes": [35, 25]},
            "algorithms": [
                {"name": "ours", "kind": "reduce", "options": {"q": 0.2}},
                {"name": "ss", "kind": "sparsify"},
            ],
            "runs": 2,
            "seed": 6,
            "vectors": ["fiedler"],
        }

    def test_end_to_end(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(self.spec_dict()))
        out = tmp_path / "rows.csv"
        code = run("compare", "--spec", str(spec), "--csv", str(out))
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["algorithm"] for r in rows} == {"ours", "ss"}
        assert {r["level"] for r in rows} == {"35", "25"}

    def test_byte_identical_repeat(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(self.spec_dict()))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("compare", "--spec", str(spec), "--csv", str(a)) == 0
        assert run("compare", "--spec", str(spec), "--csv", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_outputs_from_spec_file(self, tmp_path, capsys):
        # Rows are written only through --csv and --json; a spec's own
        # "outputs" is refused, and without flags the rows go to stdout.
        d = self.spec_dict()
        d["outputs"] = {"json": str(tmp_path / "r.json")}
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(d))
        assert run("compare", "--spec", str(spec)) == 1
        assert "an experiment spec takes no keys ['outputs']" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

        del d["outputs"]
        spec.write_text(json.dumps(d))
        out = tmp_path / "rows.json"
        assert run("compare", "--spec", str(spec), "--json", str(out)) == 0
        rows = json.loads(out.read_text())["rows"]
        assert f"compare: {len(rows)} rows -> {out}" in capsys.readouterr().out
        assert len(rows) == 2 * 2 * 4 and rows[0]["algorithm"] == "ours"

        assert run("compare", "--spec", str(spec)) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"compare: {len(rows)} rows -> stdout"
        first = rows[0]
        assert lines[1] == (
            f"level={first['level']} ours hyperbolic[fiedler]: "
            f"{first['mean']:.6g} +- {first['std']:.6g}"
        )
        assert len(lines) == 1 + len(rows)

    def test_missing_spec_exits_nonzero(self, tmp_path):
        assert run("compare", "--spec", str(tmp_path / "nope.json")) == 1


@pytest.mark.parametrize("command", ["gen", "reduce", "sparsify", "coarsen", "metrics"])
def test_a_negative_seed_is_a_usage_error_naming_the_seed(tmp_path, er_graph, capsys, command):
    graph, out = str(er_graph), str(tmp_path / "out")
    args = {
        "gen": ["--kind", "er", "--params", '{"n": 8, "p": 0.5}', "--out", out],
        "reduce": ["--input", graph, "--stop", "edges=40", "--out", out],
        "sparsify": ["--input", graph, "--samples", "50", "--out", out],
        "coarsen": ["--input", graph, "--out", out],
        "metrics": ["--original", graph, "--reduced", graph, "--sigma", "2"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        run(command, *args, "--seed", "-1")
    assert exc.value.code == 2
    assert "--seed: must be non-negative, got -1" in capsys.readouterr().err
