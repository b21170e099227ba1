import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphreduce.action import EdgeQuantities, Priority, optimal_action
from graphreduce.graph import WeightedGraph
from graphreduce.generators import cycle, torus, triangular_lattice
from graphreduce.laplacian import (
    IDENTITY_TOL,
    REBUILD_INTERVAL,
    DisconnectedGraphError,
    build_pseudoinverse,
    identity_residual,
    lift,
)
import graphreduce.reducer as reducer
from graphreduce.reducer import (
    MAX_REDRAWS,
    BetaCap,
    EdgeBudget,
    ErrorCap,
    ExactMode,
    MaxIterations,
    NodeBudget,
    RedrawLimitError,
    ReductionConfig,
    SketchMode,
    StallError,
    reduce_graph,
    select_beta,
)
from tests.conftest import random_connected_graph


def unit_triangle() -> WeightedGraph:
    return WeightedGraph.from_edges([(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])


def lifted_pinv(result) -> np.ndarray:
    reduced_nodes = result.graph.nodes()
    weights = np.array([result.graph.node_weight(u) for u in reduced_nodes])
    return lift(result.state.pinv, result.cmap, reduced_nodes, weights)


# -- the mixture identity --------------------------------------------------


def test_triangle_action_mixture_is_exactly_unbiased():
    # Acting on one unit triangle edge far beyond saturation deletes with
    # probability 1/3 and contracts with 2/3; the probability-weighted
    # average of the resulting (lifted) pseudoinverses is the original one
    # exactly, not just in sample mean.
    tri = unit_triangle()
    original = build_pseudoinverse(tri).pinv

    eq = EdgeQuantities(2 / 3, 2 / 9, 1, Priority.EDGES)
    dist = optimal_action(eq, 10.0)

    deleted = tri.copy()
    deleted.delete_edge(deleted.edge_between(0, 1))
    p_deleted = build_pseudoinverse(deleted).pinv

    contracted = tri.copy()
    rec = contracted.contract_edge(contracted.edge_between(0, 1))
    from graphreduce.graph import ContractionMap

    cmap = ContractionMap.identity([0, 1, 2])
    cmap.merge(rec.survivor, rec.removed)
    nodes = contracted.nodes()
    weights = np.array([contracted.node_weight(u) for u in nodes])
    p_contracted = lift(build_pseudoinverse(contracted).pinv, cmap, nodes, weights)

    mixture = dist.p_delete * p_deleted + dist.p_contract * p_contracted
    assert np.allclose(mixture, original, atol=1e-12)


def test_reduction_is_unbiased_in_sample_mean():
    tri = unit_triangle()
    original = build_pseudoinverse(tri).pinv
    config = ReductionConfig(keep_fraction=1.0, target_reduction=0.3)
    samples = []
    for seed in range(400):
        result = reduce_graph(tri, MaxIterations(1), config, seed=seed)
        samples.append(lifted_pinv(result))
    stack = np.array(samples)
    mean = stack.mean(axis=0)
    se = stack.std(axis=0, ddof=1) / math.sqrt(len(samples))
    assert np.all(np.abs(mean - original) <= 4 * np.maximum(se, 1e-12))


# -- select_beta -----------------------------------------------------------


def test_select_beta_basics():
    beta, kept = select_beta([0.5, 0.2, 0.9, 0.4], 0.5)
    assert kept == [1, 3]
    assert beta == pytest.approx(0.4)


def test_select_beta_quota_counts_infinite_scores():
    beta, kept = select_beta([1.0, math.inf, math.inf, math.inf], 0.5)
    assert kept == [0]
    assert beta == pytest.approx(1.0)


def test_select_beta_all_infinite():
    beta, kept = select_beta([math.inf, math.inf], 1.0)
    assert kept == [] and math.isinf(beta)


def test_select_beta_empty():
    beta, kept = select_beta([], 0.25)
    assert kept == [] and math.isinf(beta)


def test_select_beta_tie_is_stable():
    _, kept = select_beta([0.3, 0.3, 0.3, 0.3], 0.5)
    assert kept == [0, 1]


# -- stop criteria ---------------------------------------------------------


def test_validation_errors():
    with pytest.raises(ValueError):
        EdgeBudget(-1)
    with pytest.raises(ValueError):
        NodeBudget(0)
    with pytest.raises(ValueError):
        ErrorCap(0.0)
    with pytest.raises(ValueError):
        BetaCap(0.0)
    with pytest.raises(ValueError):
        MaxIterations(-1)
    with pytest.raises(ValueError):
        ReductionConfig(keep_fraction=0.0)
    with pytest.raises(ValueError):
        ReductionConfig(target_reduction=0.0)
    # NaN slips past a `x <= 0` check, and an infinite target selects nothing.
    for bad in (
        lambda: EdgeBudget(math.nan),
        lambda: NodeBudget(math.nan),
        lambda: ErrorCap(math.nan),
        lambda: BetaCap(math.nan),
        lambda: MaxIterations(math.nan),
        lambda: ReductionConfig(target_reduction=math.nan),
        lambda: ReductionConfig(target_reduction=math.inf),
    ):
        with pytest.raises(ValueError):
            bad()
    with pytest.raises(ValueError):
        reduce_graph(unit_triangle(), [])
    with pytest.raises(ValueError):
        reduce_graph(unit_triangle(), MaxIterations(1), seed=-1)
    for mode in ("sketch", None, SketchMode):
        with pytest.raises(ValueError):
            ReductionConfig(mode=mode)
    for bad in ({"n_probes": -5}, {"epsilon": 0.0}, {"epsilon": math.nan}):
        with pytest.raises(ValueError):
            SketchMode(**bad)
    # NODES priority credits contractions only, so without them nothing scores.
    with pytest.raises(ValueError):
        ReductionConfig(priority=Priority.NODES, allow_contraction=False)


def test_disconnected_input_rejected():
    g = WeightedGraph.from_edges([(0, 1, 1.0), (2, 3, 1.0)])
    with pytest.raises(DisconnectedGraphError):
        reduce_graph(g, EdgeBudget(1))


def test_max_iterations_zero_is_a_no_op():
    rng = np.random.default_rng(0)
    g = random_connected_graph(rng, 10, extra_edges=8)
    result = reduce_graph(g, MaxIterations(0))
    assert result.trace.stopped_by == "MaxIterations"
    assert result.trace.records == []
    assert result.graph.n_edges == g.n_edges
    assert sorted(result.cmap.groups().values()) == [[u] for u in g.nodes()]


def test_max_iterations_counts_started_rounds():
    rng = np.random.default_rng(1)
    g = random_connected_graph(rng, 12, extra_edges=14)
    result = reduce_graph(g, MaxIterations(3))
    assert result.trace.stopped_by == "MaxIterations"
    assert len(result.trace.records) == 3


def test_edge_budget_reached():
    rng = np.random.default_rng(2)
    g = random_connected_graph(rng, 24, extra_edges=40)
    target = g.n_edges // 2
    result = reduce_graph(g, EdgeBudget(target), seed=5)
    assert result.trace.stopped_by == "EdgeBudget"
    assert result.graph.n_edges <= target
    assert result.graph.is_connected()


def test_node_budget_reached():
    rng = np.random.default_rng(3)
    g = random_connected_graph(rng, 24, extra_edges=40)
    config = ReductionConfig(priority=Priority.NODES)
    result = reduce_graph(g, NodeBudget(10), config, seed=5)
    assert result.trace.stopped_by == "NodeBudget"
    assert result.graph.n_nodes <= 10
    # Contraction groups partition the original nodes.
    members = sorted(u for grp in result.cmap.groups().values() for u in grp)
    assert members == g.nodes()


def test_error_cap_stops_early():
    rng = np.random.default_rng(4)
    g = random_connected_graph(rng, 24, extra_edges=40)
    cap = 1e-4
    result = reduce_graph(g, [ErrorCap(cap), EdgeBudget(0)], seed=5)
    assert result.trace.stopped_by == "ErrorCap"
    assert result.state.estimated_error >= cap
    if len(result.trace.records) > 1:
        assert result.trace.records[-2].error_after < cap


def test_beta_cap_stops_without_acting():
    rng = np.random.default_rng(5)
    g = random_connected_graph(rng, 16, extra_edges=20)
    result = reduce_graph(g, [BetaCap(1e-9), EdgeBudget(0)], seed=5)
    assert result.trace.stopped_by == "BetaCap"
    assert result.graph.n_edges == g.n_edges
    assert result.graph.n_nodes == g.n_nodes
    for eid in g.edge_ids():
        assert result.graph.edge(eid) == g.edge(eid)


def test_beta_cap_large_never_fires():
    rng = np.random.default_rng(6)
    g = random_connected_graph(rng, 16, extra_edges=20)
    result = reduce_graph(g, [BetaCap(1e12), EdgeBudget(g.n_edges // 2)], seed=5)
    assert result.trace.stopped_by == "EdgeBudget"


# -- loop behavior ---------------------------------------------------------


def test_deterministic_given_seed():
    rng = np.random.default_rng(7)
    g = random_connected_graph(rng, 20, extra_edges=30)
    a = reduce_graph(g, EdgeBudget(15), seed=123)
    b = reduce_graph(g, EdgeBudget(15), seed=123)
    assert a.graph.nodes() == b.graph.nodes()
    assert a.graph.edge_ids() == b.graph.edge_ids()
    for eid in a.graph.edge_ids():
        assert a.graph.edge(eid) == b.graph.edge(eid)
    assert np.array_equal(a.state.pinv, b.state.pinv)
    assert a.trace.records == b.trace.records
    c = reduce_graph(g, EdgeBudget(15), seed=124)
    same = a.graph.edge_ids() == c.graph.edge_ids() and all(
        a.graph.edge(e) == c.graph.edge(e) for e in a.graph.edge_ids()
    )
    assert not same


def test_input_graph_untouched():
    rng = np.random.default_rng(8)
    g = random_connected_graph(rng, 14, extra_edges=20)
    before = {eid: g.edge(eid) for eid in g.edge_ids()}
    reduce_graph(g, EdgeBudget(5), seed=9)
    assert {eid: g.edge(eid) for eid in g.edge_ids()} == before


def test_maintained_state_matches_rebuild():
    rng = np.random.default_rng(9)
    g = random_connected_graph(rng, 20, extra_edges=30, weighted_nodes=True)
    result = reduce_graph(g, EdgeBudget(g.n_edges - 12), seed=11)
    fresh = build_pseudoinverse(result.graph)
    assert np.allclose(result.state.pinv, fresh.pinv, atol=1e-8)
    assert identity_residual(result.state, result.graph) < 1e-7


def test_rebuild_follows_the_rank_applied_since_the_last_build(monkeypatch):
    # Each round's batches add their rank to `updates`; the backend rebuilds
    # at the first measure (or the end) after the sum reaches the interval.
    g = triangular_lattice(16, 16)
    built = []

    def counting_build(graph):
        built.append((graph.n_nodes, graph.n_edges))
        return build_pseudoinverse(graph)

    monkeypatch.setattr(reducer, "build_pseudoinverse", counting_build)
    config = ReductionConfig(keep_fraction=0.25, priority=Priority.NODES)
    result = reduce_graph(g, NodeBudget(40), config, seed=3)

    expected, rank = [(g.n_nodes, g.n_edges)], 0
    for rec in result.trace.records:
        rank += rec.deleted + rec.contracted + rec.reweighted
        if rank >= REBUILD_INTERVAL:
            expected.append((rec.nodes_after, rec.edges_after))
            rank = 0
    assert len(expected) >= 2
    assert built == expected
    assert result.state.updates == rank
    assert identity_residual(result.state, result.graph) <= IDENTITY_TOL


def test_trace_monotonicity_and_roundtrip(tmp_path):
    rng = np.random.default_rng(10)
    g = random_connected_graph(rng, 20, extra_edges=30)
    result = reduce_graph(g, EdgeBudget(10), seed=13)
    recs = result.trace.records
    assert recs, "expected at least one iteration"
    for a, b in zip(recs, recs[1:]):
        assert b.edges_after <= a.edges_after
        assert b.nodes_after <= a.nodes_after
        assert b.error_after >= a.error_after
        assert b.iteration == a.iteration + 1
    path = tmp_path / "trace.jsonl"
    result.trace.write_jsonl(str(path))
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines[-1] == {"stopped_by": "EdgeBudget"}
    assert len(lines) == len(recs) + 1
    assert lines[0]["iteration"] == 0


def test_path_reduces_by_contraction_only():
    # Every path edge is a bridge, so a full reduction must contract its way
    # down to a single node without ever deleting.
    g = WeightedGraph.from_edges([(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0)])
    config = ReductionConfig(priority=Priority.NODES, keep_fraction=1.0)
    result = reduce_graph(g, NodeBudget(1), config, seed=3)
    totals = result.trace.totals()
    assert totals["deleted"] == 0
    assert result.graph.n_nodes == 1
    assert list(result.cmap.groups().values()) == [[0, 1, 2, 3]]


def test_random_tree_never_disconnects():
    rng = np.random.default_rng(11)
    g = random_connected_graph(rng, 32, extra_edges=0)
    result = reduce_graph(
        g, NodeBudget(1), ReductionConfig(priority=Priority.NODES), seed=17
    )
    assert result.trace.totals()["deleted"] == 0
    assert result.graph.n_nodes == 1


def test_redraw_keeps_the_graph_connected():
    # Deleting both matched edges of a 4-cycle would split it; seed 0 draws
    # that once and redraws.
    config = ReductionConfig(
        keep_fraction=1, target_reduction=0.2, allow_contraction=False
    )
    result = reduce_graph(cycle(4), EdgeBudget(3), config, seed=0)
    assert sum(r.redraws for r in result.trace.records) >= 1
    assert result.graph.is_connected()


def test_redraw_limit_names_the_iteration(monkeypatch):
    # A torus has no triangles, so every drawn deletion is checked; a check
    # that always fails uses up the redraws of the first round whose every
    # draw deletes.
    check = WeightedGraph.connected_without
    monkeypatch.setattr(
        WeightedGraph, "connected_without",
        lambda self, excluded: not excluded and check(self, excluded),
    )
    config = ReductionConfig(
        keep_fraction=1, target_reduction=0.2, allow_contraction=False
    )
    with pytest.raises(
        RedrawLimitError,
        match=rf"^iteration 11: {MAX_REDRAWS} action draws all disconnected the graph$",
    ):
        reduce_graph(torus(4, 4), EdgeBudget(3), config, seed=0)


def test_no_contraction_mode_only_deletes_and_reweights():
    rng = np.random.default_rng(12)
    g = random_connected_graph(rng, 24, extra_edges=50)
    config = ReductionConfig(
        allow_contraction=False, keep_fraction=1 / 16, target_reduction=0.25
    )
    result = reduce_graph(g, EdgeBudget(g.n_edges - 10), config, seed=19)
    totals = result.trace.totals()
    assert totals["contracted"] == 0
    assert result.graph.n_nodes == g.n_nodes
    assert totals["deleted"] > 0
    assert result.graph.is_connected()


def test_stall_guard_raises():
    # A single bridge under no-contraction mode can never act.
    g = WeightedGraph.from_edges([(0, 1, 1.0)])
    config = ReductionConfig(allow_contraction=False)
    with pytest.raises(StallError):
        reduce_graph(g, EdgeBudget(0), config, seed=0)


def test_stall_raises_once_every_edge_was_matched():
    # Every K10 leverage is 0.2: contracting whenever possible removes 0.2
    # nodes in expectation, below the target 0.25, so every score is infinite.
    g = WeightedGraph.from_edges([(u, v) for u in range(10) for v in range(u + 1, 10)])
    config = ReductionConfig(priority=Priority.NODES)
    with pytest.raises(StallError) as info:
        reduce_graph(g, [NodeBudget(2), MaxIterations(200)], config, seed=0)
    named = re.match(r"iteration (\d+):", str(info.value))
    assert named and int(named.group(1)) < 200


def test_error_accounting_is_cumulative():
    rng = np.random.default_rng(13)
    g = random_connected_graph(rng, 18, extra_edges=24)
    result = reduce_graph(g, EdgeBudget(12), seed=23)
    total = 0.0
    for rec in result.trace.records:
        assert rec.error_after >= total
        total = rec.error_after
    assert result.state.estimated_error == pytest.approx(total)
    assert total > 0.0


# -- sketch mode -----------------------------------------------------------


def test_sketch_mode_runs_and_matches_final_graph():
    rng = np.random.default_rng(14)
    g = random_connected_graph(rng, 24, extra_edges=40)
    config = ReductionConfig(mode=SketchMode(n_probes=64))
    result = reduce_graph(g, EdgeBudget(g.n_edges // 2), config, seed=29)
    assert result.trace.stopped_by == "EdgeBudget"
    assert result.graph.is_connected()
    fresh = build_pseudoinverse(result.graph)
    assert np.allclose(result.state.pinv, fresh.pinv, atol=1e-8)
    assert result.state.estimated_error > 0.0


def test_sketch_mode_deterministic():
    rng = np.random.default_rng(15)
    g = random_connected_graph(rng, 16, extra_edges=20)
    config = ReductionConfig(mode=SketchMode(n_probes=32))
    a = reduce_graph(g, EdgeBudget(12), config, seed=31)
    b = reduce_graph(g, EdgeBudget(12), config, seed=31)
    assert a.graph.edge_ids() == b.graph.edge_ids()
    for eid in a.graph.edge_ids():
        assert a.graph.edge(eid) == b.graph.edge(eid)
    assert a.trace.records == b.trace.records


def test_sketch_mode_coarsens_onto_one_heavy_node():
    # sqrt(30) exceeds the other sqrt weights together: no probe matrix with
    # unit columns is orthogonal to the kernel, and the sketch must cope.
    g = WeightedGraph.from_edges(
        [(0, i, 1.0) for i in range(1, 6)] + [(1, 2, 1.0), (3, 4, 1.0)]
    )
    g.add_node(0, 30.0)
    config = ReductionConfig(mode=SketchMode(n_probes=8))
    result = reduce_graph(g, EdgeBudget(0), config, seed=0)
    assert result.graph.n_edges == 0
    assert result.graph.node_weight(0) == pytest.approx(35.0)


def test_sketch_mode_reduces_uniform_star():
    # Five equal node weights: each sign probe is constant, so lies along the
    # kernel and projects to roundoff, with probability 1/16.
    g = WeightedGraph.from_edges([(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.9375), (0, 4, 4.0)])
    for u in g.nodes():
        g.add_node(u, 0.2)
    config = ReductionConfig(mode=SketchMode(n_probes=8))
    for seed in range(4):
        result = reduce_graph(g, EdgeBudget(0), config, seed=seed)
        assert result.graph.n_nodes == 1


def test_exact_mode_default():
    assert isinstance(ReductionConfig().mode, ExactMode)


# -- invariants over both backends -------------------------------------------


@st.composite
def connected_graphs(draw):
    """A random spanning tree plus random extra edges, with node weights."""
    n = draw(st.integers(2, 12))
    weight = st.floats(0.1, 10.0)
    g = WeightedGraph()
    for v in range(1, n):
        g.add_edge(draw(st.integers(0, v - 1)), v, draw(weight))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for u, v in draw(st.lists(st.sampled_from(pairs), max_size=2 * n, unique=True)):
        g.add_edge(u, v, draw(weight))
    for u in range(n):
        g.add_node(u, draw(st.floats(0.2, 5.0)))
    return g


stop_criteria = st.one_of(
    st.builds(EdgeBudget, st.integers(0, 30)),
    st.builds(NodeBudget, st.integers(1, 12)),
    st.builds(MaxIterations, st.integers(0, 10)),
)


@settings(max_examples=60, deadline=None)
@given(connected_graphs(), stop_criteria, st.integers(0, 2**16))
def test_reduction_invariants_in_both_modes(g, stop, seed):
    for mode in (ExactMode(), SketchMode(n_probes=8)):
        config = ReductionConfig(mode=mode)
        result = reduce_graph(g, stop, config, seed=seed)
        h = result.graph
        assert h.total_node_weight() == pytest.approx(g.total_node_weight())
        groups = result.cmap.groups()
        assert sorted(groups) == h.nodes()
        for sup, members in groups.items():
            total = sum(g.node_weight(u) for u in members)
            assert h.node_weight(sup) == pytest.approx(total)
        assert h.is_connected()
        assert identity_residual(result.state, h) <= IDENTITY_TOL
        errors = [rec.error_after for rec in result.trace.records]
        assert all(math.isfinite(e) for e in errors)
        assert errors == sorted(errors)

        again = reduce_graph(g, stop, config, seed=seed)
        assert {e: h.edge(e) for e in h.edge_ids()} == {
            e: again.graph.edge(e) for e in again.graph.edge_ids()
        }
        assert again.cmap.assignment == result.cmap.assignment
        assert np.array_equal(again.state.pinv, result.state.pinv)
