import math

import numpy as np
import pytest

import graphreduce.experiment as experiment
import graphreduce.metrics as metrics
from graphreduce.action import Priority
from graphreduce.experiment import (
    AlgorithmSpec,
    ExperimentSpec,
    LevelSchedule,
    ResultRow,
    load_graph,
    parse_config,
    parse_mode,
    parse_stop,
    read_rows_csv,
    run_experiment,
    probe_vectors,
    write_rows_csv,
)
from graphreduce.generators import er
from graphreduce.graph import write_edgelist
from graphreduce.reducer import (
    BetaCap,
    EdgeBudget,
    ErrorCap,
    ExactMode,
    MaxIterations,
    NodeBudget,
    ReductionConfig,
    SketchMode,
)
from graphreduce.sketch import symmetrized_laplacian


def edge_spec(sizes, algorithms, runs=2, seed=5, **kw):
    return ExperimentSpec(
        graph={"kind": "er", "params": {"n": 24, "p": 0.25}},
        levels=LevelSchedule("edges", tuple(sizes)),
        algorithms=tuple(algorithms),
        runs=runs,
        seed=seed,
        **kw,
    )


class TestParsing:
    def test_stop_string(self):
        assert parse_stop("edges=40") == EdgeBudget(40)

    def test_stop_all_kinds(self):
        assert parse_stop("nodes=10") == NodeBudget(10)
        assert parse_stop("error=0.5") == ErrorCap(0.5)
        assert parse_stop("beta=2.5") == BetaCap(2.5)
        assert parse_stop("iters=7") == MaxIterations(7)

    def test_stop_dict_counts_are_not_truncated(self):
        for bad in ({"edges": 40.7}, {"nodes": 3.0}, {"iters": True}):
            with pytest.raises(ValueError):
                parse_stop(bad)
        with pytest.raises(ValueError):
            parse_stop("edges=40.7")

    def test_stop_value_errors_name_the_stop(self):
        with pytest.raises(ValueError, match=r"^stop 'edges=20\.5': edges wants an integer$"):
            parse_stop("edges=20.5")
        with pytest.raises(ValueError, match=r"^stop 'error=x': error wants a number$"):
            parse_stop("error=x")

    def test_stop_rejects_unknown_and_bare(self):
        with pytest.raises(ValueError):
            parse_stop("volume=3")
        with pytest.raises(ValueError):
            parse_stop("edges")

    def test_mode_exact(self):
        assert parse_mode("exact") == ExactMode()

    def test_mode_sketch_variants(self):
        assert parse_mode("sketch:33") == SketchMode(n_probes=33)
        for bad in ("sketch", "sketch:", "sketch:33,0.5", "sketch:,0.5", "sketch:0"):
            with pytest.raises(ValueError):
                parse_mode(bad)

    def test_mode_rejects_unknown(self):
        with pytest.raises(ValueError):
            parse_mode("approximate")

    def test_mode_must_be_a_string(self):
        for bad in (8, None):
            with pytest.raises(ValueError, match="mode must be 'exact' or 'sketch:K'"):
                parse_config({"mode": bad})

    def test_stop_option_is_a_list(self):
        def run(stop):
            algo = AlgorithmSpec("x", "reduce", {"stop": stop})
            return run_experiment(edge_spec([40], [algo], runs=1))

        with pytest.raises(ValueError, match="stop option wants a list of key=value"):
            run("edges=4")
        rows = run(["iters=1"])
        assert rows and all(row.algorithm == "x" for row in rows)

    def test_config_defaults_and_keys(self):
        assert parse_config({}) == ReductionConfig()
        assert parse_config({}, "nodes").priority is Priority.NODES
        options = {"q": 1, "d": 0.5, "priority": "nodes", "mode": "sketch:8"}
        assert parse_config(options) == ReductionConfig(
            1.0, 0.5, Priority.NODES, True, SketchMode(n_probes=8)
        )
        assert not parse_config({"no_contraction": True}).allow_contraction

    def test_config_values_are_typed_not_converted(self):
        # The string "false" is truthy, and true would run as q = 1.0.
        for bad, name in [({"no_contraction": "false"}, "no_contraction"),
                          ({"no_contraction": 0}, "no_contraction"),
                          ({"q": True}, "keep_fraction"), ({"d": "0.5"}, "target_reduction")]:
            with pytest.raises(ValueError, match=name):
                parse_config(bad)


class TestSpecValidation:
    def test_levels_must_decrease(self):
        with pytest.raises(ValueError):
            LevelSchedule("edges", (40, 40))
        with pytest.raises(ValueError):
            LevelSchedule("edges", (20, 30))

    def test_levels_positive_nonempty_known_target(self):
        with pytest.raises(ValueError):
            LevelSchedule("edges", ())
        with pytest.raises(ValueError):
            LevelSchedule("edges", (4, 0))
        with pytest.raises(ValueError):
            LevelSchedule("edges", (40.5, 20))
        with pytest.raises(ValueError):
            LevelSchedule("volume", (4,))

    def test_a_node_level_below_two_is_refused(self):
        # A one-node output's pseudoinverse is 0, so no distance is defined;
        # the sweep used to abort after level 4 had run.
        d = {"graph": {"kind": "cycle", "params": {"n": 8}},
             "levels": {"target": "nodes", "sizes": [4, 1]},
             "algorithms": [{"name": "c", "kind": "coarsen"}], "runs": 2}
        with pytest.raises(ValueError, match="^node level 1 is below 2"):
            ExperimentSpec.from_dict(d)
        assert LevelSchedule("edges", (4, 1)).sizes == (4, 1)
        d["levels"]["sizes"] = [4, 2]
        rows = run_experiment(ExperimentSpec.from_dict(d))
        assert [r.mean for r in rows if r.metric == "nodes"] == [4.0, 2.0]

    def test_algorithm_kind_checked(self):
        with pytest.raises(ValueError):
            AlgorithmSpec("x", "prune")

    def test_algorithm_options_are_keys_its_runner_reads(self):
        # A misspelt option would otherwise run silently at its default.
        for kind, options, unknown in [
            ("reduce", {"q": 0.5, "keep_fraction": 0.1}, "keep_fraction"),
            ("sparsify", {"q": 0.2}, "q"),
            ("coarsen", {"strategy": "random", "levels": 2}, "levels"),
        ]:
            with pytest.raises(ValueError, match=rf"{kind} 'x' reads no options \['{unknown}'\]"):
                AlgorithmSpec("x", kind, options)
        reduce_keys = {"q": 0.5, "d": 0.5, "priority": "nodes", "no_contraction": False,
                       "mode": "exact", "stop": ["iters=1"]}
        AlgorithmSpec("x", "reduce", reduce_keys)
        AlgorithmSpec("x", "coarsen", {"strategy": "heavy-edge"})

    def test_runs_positive(self):
        with pytest.raises(ValueError):
            edge_spec([10], [], runs=0)
        # Counts are checked as given, never truncated; vectors is a list.
        base = {
            "graph": {"kind": "er", "params": {"n": 24, "p": 0.25}},
            "levels": {"target": "edges", "sizes": [40]},
        }
        for bad in (
            {"runs": 2.5}, {"runs": True}, {"runs": 0},
            {"seed": 1.7}, {"seed": -1}, {"seed": False},
            {"eigen_k": 2.5}, {"eigen_k": True}, {"eigen_k": 0},
            {"vectors": "fiedler"}, {"vectors": ["fiedler", 1]},
        ):
            with pytest.raises(ValueError):
                ExperimentSpec.from_dict({**base, **bad})
        spec = ExperimentSpec.from_dict({**base, "runs": 2, "seed": 0})
        assert (spec.runs, spec.seed, spec.eigen_k) == (2, 0, None)

    def test_reduce_options_are_checked_at_the_level_target(self):
        # Under node levels a reduce priority defaults to nodes, which needs
        # contraction; the sweep would otherwise refuse it only when it runs.
        d = {
            "graph": {"kind": "er", "params": {"n": 24, "p": 0.25}},
            "levels": {"target": "nodes", "sizes": [15, 5]},
            "algorithms": [{"name": "ours", "kind": "reduce",
                            "options": {"no_contraction": True}}],
        }
        with pytest.raises(ValueError, match="^reduce 'ours' at nodes levels: NODES "
                                             "priority needs allow_contraction=True$"):
            ExperimentSpec.from_dict(d)
        d["algorithms"][0]["options"]["priority"] = "edges"
        ExperimentSpec.from_dict(d)

    def test_eigen_k_fits_the_smallest_node_level(self):
        # A 5-node output has 4 nontrivial eigenvalues to compare.
        d = {
            "graph": {"kind": "er", "params": {"n": 24, "p": 0.25}},
            "levels": {"target": "nodes", "sizes": [15, 5]},
            "algorithms": [{"name": "match", "kind": "coarsen"}],
            "runs": 1,
        }
        for k in (5, 6):
            with pytest.raises(ValueError, match=f"^eigen_k {k} needs every node level "
                                                 f"above {k}, got 5$"):
                ExperimentSpec.from_dict({**d, "eigen_k": k})
        rows = run_experiment(ExperimentSpec.from_dict({**d, "eigen_k": 4}))
        assert {r.level for r in rows if r.metric == "eigen_relative_error"} == {15, 5}

    def test_no_vectors_refused(self):
        # Its cells would hold edge and node counts but no distance.
        base = {
            "graph": {"kind": "er", "params": {"n": 24, "p": 0.25}},
            "levels": {"target": "edges", "sizes": [40]},
        }
        with pytest.raises(ValueError, match="at least one vector"):
            ExperimentSpec.from_dict({**base, "vectors": []})
        with pytest.raises(ValueError, match="at least one vector"):
            edge_spec([10], [], vectors=())

    @pytest.mark.parametrize(
        "drop, message",
        [
            (("levels",), "an experiment spec needs a 'levels' key"),
            (("levels", "target"), "levels needs a 'target' key"),
            (("levels", "sizes"), "levels needs a 'sizes' key"),
            (("graph",), "an experiment spec needs a 'graph' key"),
            (("graph", "kind"), "the experiment graph needs a 'kind' or a 'path' key"),
            (("algorithms", 0, "name"), "an algorithm needs a 'name' key"),
            (("algorithms", 0, "kind"), "an algorithm needs a 'kind' key"),
        ],
        ids=["levels", "levels.target", "levels.sizes", "graph", "graph.kind",
             "algorithm.name", "algorithm.kind"],
    )
    def test_missing_key_is_named(self, drop, message):
        d = {
            "graph": {"kind": "er", "params": {"n": 24, "p": 0.25}},
            "levels": {"target": "edges", "sizes": [40]},
            "algorithms": [{"name": "ours", "kind": "reduce"}],
        }
        *path, key = drop
        parent = d
        for step in path:
            parent = parent[step]
        del parent[key]
        with pytest.raises(ValueError, match=f"^{message}$"):
            load_graph(ExperimentSpec.from_dict(d))

    def test_from_dict_roundtrip(self):
        d = {
            "graph": {"kind": "er", "params": {"n": 24, "p": 0.25}},
            "levels": {"target": "edges", "sizes": [40, 25]},
            "algorithms": [
                {"name": "ours", "kind": "reduce", "options": {"q": 0.125}},
                {"name": "ss", "kind": "sparsify"},
            ],
            "runs": 3,
            "seed": 9,
            "vectors": ["fiedler", "median"],
            "eigen_k": 4,
        }
        spec = ExperimentSpec.from_dict(d)
        assert spec.levels == LevelSchedule("edges", (40, 25))
        assert spec.algorithms[0].options == {"q": 0.125}
        assert spec.algorithms[1].options == {}
        assert spec.runs == 3 and spec.seed == 9
        assert spec.vectors == ("fiedler", "median") and spec.eigen_k == 4

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"run": 3}, r"an experiment spec takes no keys \['run'\]"),
            ({"outputs": {"csv": "a.csv"}}, r"an experiment spec takes no keys \['outputs'\]"),
            ({"levels": {"target": "edges", "sizes": [40], "size": 4}},
             r"levels takes no keys \['size'\]"),
            ({"levels": {"target": "edges", "sizes": 40}}, "sizes must be a list, got 40"),
            ({"graph": {"kind": "er", "param": {"n": 24}}},
             r"the experiment graph with a 'kind' key takes no keys \['param'\]"),
            ({"graph": {"kind": "er", "path": "g.edges"}},
             r"the experiment graph with a 'path' key takes no keys \['kind'\]"),
            ({"algorithms": [{"name": "ours", "kind": "reduce", "option": {"q": 0.5}}]},
             r"an algorithm takes no keys \['option'\]"),
            ({"algorithms": [{"name": "ours", "kind": "reduce", "options": "q=0.5"}]},
             "reduce 'ours' options must be an object, got 'q=0.5'"),
            ({"algorithms": {"name": "ours", "kind": "reduce"}}, "algorithms must be a list"),
            ({"levels": {"target": "nodes", "sizes": [12]},
              "algorithms": [{"name": "ss", "kind": "sparsify"}]},
             "sparsify 'ss' cannot target nodes"),
            ({"algorithms": [{"name": "ours", "kind": "reduce",
                              "options": {"stop": ["edgez=3"]}}]},
             "unknown stop criterion 'edgez'"),
            ({"algorithms": [{"name": "ours", "kind": "reduce", "options": {"q": 2}}]},
             "keep_fraction"),
        ],
        ids=["run", "outputs", "levels.size", "sizes-not-a-list", "graph.param",
             "graph-kind-and-path", "algorithm.option", "options-not-an-object",
             "algorithms-not-a-list", "sparsify-on-nodes", "reduce-stop", "reduce-q"],
    )
    def test_spec_mistake_is_named_where_it_enters(self, change, message):
        # A mistake fails where the spec enters, naming its key, rather than
        # being ignored or failing after earlier algorithms have run.
        d = {
            "graph": {"kind": "er", "params": {"n": 24, "p": 0.25}},
            "levels": {"target": "edges", "sizes": [40]},
            "algorithms": [{"name": "ours", "kind": "reduce"}],
            **change,
        }
        with pytest.raises(ValueError, match=message):
            ExperimentSpec.from_dict(d)


class TestVectors:
    def test_fiedler_is_second_eigenvector(self):
        g = er(20, 0.3, np.random.default_rng(0), "uniform:0.5,2")
        vecs = probe_vectors(g, ["fiedler", "median"])
        lhat, w_sqrt = symmetrized_laplacian(g)
        vals, evs = np.linalg.eigh(lhat.toarray())
        v = vecs["fiedler"] * w_sqrt
        # eigenvector up to sign
        assert min(np.linalg.norm(v - evs[:, 1]), np.linalg.norm(v + evs[:, 1])) < 1e-8
        assert vecs["median"].shape == (20,)

    def test_vectors_kill_weighted_mean(self):
        g = er(16, 0.4, np.random.default_rng(1))
        w = np.array([g.node_weight(u) for u in g.nodes()])
        for vec in probe_vectors(g, ["fiedler", "median"]).values():
            assert abs(w @ vec) < 1e-8

    def test_unknown_label_rejected(self):
        g = er(10, 0.5, np.random.default_rng(2))
        with pytest.raises(ValueError):
            probe_vectors(g, ["largest"])


class TestRunExperiment:
    def test_edge_schedule_row_layout(self):
        spec = edge_spec(
            [40, 25],
            [
                AlgorithmSpec("ours", "reduce", {"q": 0.125}),
                AlgorithmSpec("ss", "sparsify"),
            ],
        )
        rows = run_experiment(spec)
        # per cell: hyperbolic[fiedler] + edges + nodes + failures
        assert len(rows) == 2 * 2 * 4
        assert {r.level for r in rows} == {40, 25}
        assert {r.algorithm for r in rows} == {"ours", "ss"}
        # a sparsifier at 25 edges on 24 nodes may disconnect; ours may not
        fails = {(r.algorithm, r.level): r.mean for r in rows if r.metric == "failures"}
        assert fails[("ours", 40)] == 0.0 and fails[("ours", 25)] == 0.0
        for r in rows:
            if r.metric == "hyperbolic" and fails[(r.algorithm, r.level)] < spec.runs:
                assert math.isfinite(r.mean) and r.mean >= 0

    def test_reduce_respects_edge_budget(self):
        spec = edge_spec([30], [AlgorithmSpec("ours", "reduce")])
        rows = run_experiment(spec)
        (edges_row,) = [r for r in rows if r.metric == "edges"]
        assert edges_row.mean <= 30

    def test_node_schedule_with_coarsen(self):
        spec = ExperimentSpec(
            graph={"kind": "er", "params": {"n": 20, "p": 0.3}},
            levels=LevelSchedule("nodes", (12, 8)),
            algorithms=(
                AlgorithmSpec("ours", "reduce"),
                AlgorithmSpec("match", "coarsen", {"strategy": "heavy-edge"}),
            ),
            runs=2,
            seed=3,
        )
        rows = run_experiment(spec)
        for r in rows:
            if r.metric == "nodes":
                assert r.mean <= r.level
            if r.metric == "failures":
                assert r.mean == 0.0

    def test_sparsify_rejects_node_targets(self):
        # Refused when the spec is built, before any graph or run.
        with pytest.raises(ValueError, match="sparsify 'ss' cannot target nodes"):
            ExperimentSpec(
                graph={"kind": "er", "params": {"n": 20, "p": 0.3}},
                levels=LevelSchedule("nodes", (12,)),
                algorithms=(AlgorithmSpec("ss", "sparsify"),),
                runs=1,
            )

    def test_coarsen_rejects_edge_targets(self):
        with pytest.raises(ValueError, match="coarsen 'match' cannot target edges"):
            edge_spec([10], [AlgorithmSpec("match", "coarsen")], runs=1)

    def test_failures_counted_not_fatal(self):
        # 8 distinct edges out of 69 leaves a 24 node sparsifier disconnected
        spec = edge_spec([8], [AlgorithmSpec("ss", "sparsify")], runs=3)
        rows = run_experiment(spec)
        (fail_row,) = [r for r in rows if r.metric == "failures"]
        assert fail_row.mean == 3.0
        (dist_row,) = [r for r in rows if r.metric == "hyperbolic"]
        assert math.isnan(dist_row.mean)

    def test_zero_algorithms_gives_header_only(self, tmp_path):
        spec = edge_spec([10], [])
        rows = run_experiment(spec)
        assert rows == []
        out = tmp_path / "empty.csv"
        write_rows_csv(rows, out)
        # read_text folds the csv module's \r\n line ending
        assert out.read_text() == "level,algorithm,metric,vector,mean,std\n"

    def test_cell_row_order(self):
        spec = edge_spec([30], [AlgorithmSpec("ours", "reduce")], runs=1, eigen_k=3,
                         vectors=("median", "fiedler"))
        assert [(r.metric, r.vector) for r in run_experiment(spec)] == [
            ("hyperbolic", "median"), ("hyperbolic", "fiedler"),
            ("eigen_relative_error", ""), ("edges", ""), ("nodes", ""), ("failures", ""),
        ]

    def test_eigen_row_averages_only_outputs_with_more_than_eigen_k_nodes(self):
        # Edge levels cannot bound eigen_k by the outputs' node counts. An
        # output with at most eigen_k nodes records its distances but no eigen
        # error; the sweep used to abort on it.
        spec = ExperimentSpec.from_dict({
            "graph": {"kind": "er", "params": {"n": 20, "p": 0.3}},
            "levels": {"target": "edges", "sizes": [40, 20]},
            "algorithms": [{"name": "ss", "kind": "sparsify"},
                           {"name": "ours", "kind": "reduce"}],
            "runs": 2, "eigen_k": 17,
        })
        cell = {(r.algorithm, r.level, r.metric): r for r in run_experiment(spec)}
        assert cell["ss", 40, "nodes"].mean == 20
        assert math.isfinite(cell["ss", 40, "eigen_relative_error"].std)
        assert cell["ss", 40, "eigen_relative_error"].std > 0
        # Outputs of 17 and 18 nodes: two distances, one eigen error.
        assert cell["ours", 40, "nodes"].std > 0 and cell["ours", 40, "nodes"].mean == 17.5
        assert cell["ours", 40, "hyperbolic"].std > 0
        eig = cell["ours", 40, "eigen_relative_error"]
        assert math.isfinite(eig.mean) and eig.std == 0.0
        # No output of 17 nodes or more: distances, and a NaN eigen row.
        assert cell["ours", 20, "nodes"].mean + cell["ours", 20, "nodes"].std < 17
        assert math.isfinite(cell["ours", 20, "hyperbolic"].mean)
        assert math.isnan(cell["ours", 20, "eigen_relative_error"].mean)
        assert cell["ours", 20, "failures"].mean == 0

    def test_each_run_that_did_not_fail_is_scored_once_by_compare_output(
        self, monkeypatch
    ):
        returned = []

        def counting(*args, **kwargs):
            out = metrics.compare_output(*args, **kwargs)
            returned.append(args[2].n_nodes)
            return out

        monkeypatch.setattr(experiment, "compare_output", counting)
        # At 8 edges every sparsified output is disconnected, and fails inside
        # compare_output's build.
        spec = edge_spec([40, 8], [AlgorithmSpec("ours", "reduce"),
                                   AlgorithmSpec("ss", "sparsify")], runs=3)
        rows = run_experiment(spec)
        failures = sum(r.mean for r in rows if r.metric == "failures")
        assert failures >= 3
        assert len(returned) == 2 * 2 * 3 - failures

    def test_eigen_metric_present_when_requested(self):
        spec = edge_spec([30], [AlgorithmSpec("ours", "reduce")], eigen_k=3)
        rows = run_experiment(spec)
        (eig_row,) = [r for r in rows if r.metric == "eigen_relative_error"]
        assert math.isfinite(eig_row.mean) and eig_row.mean >= 0

    def test_deterministic_per_seed(self, tmp_path):
        spec = edge_spec(
            [35],
            [AlgorithmSpec("ours", "reduce"), AlgorithmSpec("ss", "sparsify")],
            vectors=("fiedler", "median"),
        )
        rows_a = run_experiment(spec)
        rows_b = run_experiment(spec)
        assert rows_a == rows_b
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_rows_csv(rows_a, a)
        write_rows_csv(rows_b, b)
        assert a.read_bytes() == b.read_bytes()

    def test_graph_from_file(self, tmp_path):
        g = er(18, 0.3, np.random.default_rng(4), "uniform:0.5,2")
        path = tmp_path / "g.edges"
        write_edgelist(g, path)
        spec = ExperimentSpec(
            graph={"path": str(path)},
            levels=LevelSchedule("edges", (20,)),
            algorithms=(AlgorithmSpec("ours", "reduce"),),
            runs=1,
        )
        loaded = load_graph(spec)
        assert loaded.n_nodes == 18 and loaded.n_edges == g.n_edges
        rows = run_experiment(spec)
        assert any(r.metric == "hyperbolic" for r in rows)

    @pytest.mark.parametrize(
        "target, kind", [("edges", "reduce"), ("nodes", "coarsen")]
    )
    def test_identity_output_scores_zero_on_weighted_nodes(
        self, tmp_path, target, kind
    ):
        # An output equal to the input must lift back onto the original
        # pseudoinverse, which needs the original node weights.
        rng = np.random.default_rng(6)
        g = er(40, 0.2, rng)
        for u in g.nodes():
            g.add_node(u, rng.uniform(0.5, 4.0))
        write_edgelist(g, tmp_path / "g.edges", tmp_path / "g.nodeweights")
        size = g.n_edges if target == "edges" else g.n_nodes
        spec = ExperimentSpec(
            graph={"path": str(tmp_path / "g.edges"),
                   "node_weights": str(tmp_path / "g.nodeweights")},
            levels=LevelSchedule(target, (size,)),
            algorithms=(AlgorithmSpec("same", kind),),
            runs=1,
            vectors=("fiedler", "median"),
        )
        rows = run_experiment(spec)
        distances = [r.mean for r in rows if r.metric == "hyperbolic"]
        assert len(distances) == 2
        assert max(distances) <= 1e-9


class TestReportFiles:
    def test_csv_roundtrip(self, tmp_path):
        rows = [
            ResultRow(40, "ours", "hyperbolic", "fiedler", 0.125, 0.03),
            ResultRow(40, "ours", "failures", "", 0.0, 0.0),
        ]
        path = tmp_path / "rows.csv"
        write_rows_csv(rows, path)
        assert read_rows_csv(path) == rows
