import numpy as np
import pytest

from graphreduce.baselines import (
    expected_distinct_edges,
    leverage_probabilities,
    matching_coarsen,
    samples_for_edge_target,
    ss_sparsify,
)
from graphreduce.generators import cycle, path
from graphreduce.graph import WeightedGraph
from graphreduce.laplacian import build_pseudoinverse, edge_leverage, laplacian_matrix
from tests.conftest import random_connected_graph


def unit_triangle():
    return WeightedGraph.from_edges([(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])


def standard_laplacian(g):
    # Unit node weights make the node-weighted form the standard Laplacian.
    return laplacian_matrix(g)


# -- sparsification --------------------------------------------------------


def test_triangle_probabilities_are_uniform():
    eids, probs = leverage_probabilities(unit_triangle())
    assert len(eids) == 3
    assert np.allclose(probs, 1 / 3, atol=1e-12)


def test_sparsifier_expected_laplacian():
    rng = np.random.default_rng(0)
    g = random_connected_graph(rng, 12, extra_edges=20)
    target = laplacian_matrix(g)
    n_samples = 2 * g.n_edges
    samples = []
    for seed in range(600):
        h = ss_sparsify(g, n_samples, np.random.default_rng(seed))
        assert h.nodes() == g.nodes()
        samples.append(laplacian_matrix(h))
    stack = np.array(samples)
    mean = stack.mean(axis=0)
    se = stack.std(axis=0, ddof=1) / np.sqrt(len(samples))
    assert np.all(np.abs(mean - target) <= 4 * np.maximum(se, 1e-12))


def test_sparsifier_keeps_nodes_and_may_disconnect():
    g = path(6)
    h = ss_sparsify(g, 2, np.random.default_rng(1))
    assert h.n_nodes == 6
    assert h.n_edges <= 2  # no exception even though this disconnects


def test_sparsifier_validation():
    with pytest.raises(ValueError):
        ss_sparsify(unit_triangle(), 0, np.random.default_rng(0))


def test_counts_are_integers():
    # Checked as given, never truncated: 2.5 samples or 1.5 levels is an error.
    g, rng = cycle(8), np.random.default_rng(0)
    for bad in (2.5, True):
        with pytest.raises(ValueError, match="n_samples must be an integer >= 1"):
            ss_sparsify(g, bad, rng)
    for bad in (1.5, True):
        with pytest.raises(ValueError, match="levels must be an integer >= 0"):
            matching_coarsen(g, levels=bad)
    with pytest.raises(ValueError, match="target_nodes must be an integer >= 1"):
        matching_coarsen(g, target_nodes=5.5)
    with pytest.raises(ValueError, match="target_edges must be an integer >= 1"):
        samples_for_edge_target(g, 5.5)

def test_expected_distinct_edges_triangle():
    tri = unit_triangle()
    # 3 * (1 - (2/3)^n) for uniform probabilities 1/3.
    assert expected_distinct_edges(tri, 1) == pytest.approx(1.0)
    assert expected_distinct_edges(tri, 2) == pytest.approx(5 / 3)
    assert expected_distinct_edges(tri, 3) == pytest.approx(19 / 9)


def test_samples_for_edge_target_minimal():
    tri = unit_triangle()
    assert samples_for_edge_target(tri, 2) == 3
    rng = np.random.default_rng(2)
    g = random_connected_graph(rng, 15, extra_edges=25)
    target = g.n_edges // 2
    n = samples_for_edge_target(g, target)
    assert expected_distinct_edges(g, n) >= target
    assert expected_distinct_edges(g, n - 1) < target


def test_samples_for_edge_target_validation():
    with pytest.raises(ValueError):
        samples_for_edge_target(unit_triangle(), 0)
    with pytest.raises(ValueError):
        samples_for_edge_target(unit_triangle(), 4)


# -- coarsening ------------------------------------------------------------


def test_heavy_edge_always_takes_the_heavy_middle():
    for seed in range(20):
        g = path(4, [1.0, 10.0, 1.0])
        coarse, cmap = matching_coarsen(
            g, strategy="heavy-edge", rng=np.random.default_rng(seed)
        )
        groups = sorted(map(tuple, cmap.groups().values()))
        assert (1, 2) in groups
        # Both unit edges touch the matched pair, so the matching stops there.
        assert coarse.n_nodes == 3
        assert coarse.node_weight(1) == pytest.approx(2.0)
        assert sorted(coarse.edge(e)[:2] for e in coarse.edge_ids()) == [
            (0, 1),
            (1, 3),
        ]


def test_random_coarsen_cycle():
    g = cycle(6)
    coarse, cmap = matching_coarsen(g, rng=np.random.default_rng(3))
    contracted = 6 - coarse.n_nodes
    assert 2 <= contracted <= 3
    members = sorted(u for grp in cmap.groups().values() for u in grp)
    assert members == list(range(6))
    total_node_weight = sum(coarse.node_weight(u) for u in coarse.nodes())
    assert total_node_weight == pytest.approx(6.0)


def test_coarsen_levels_progression():
    rng = np.random.default_rng(4)
    g = random_connected_graph(rng, 32, extra_edges=40)
    one, _ = matching_coarsen(g, levels=1, rng=np.random.default_rng(9))
    two, _ = matching_coarsen(g, levels=2, rng=np.random.default_rng(9))
    assert two.n_nodes < one.n_nodes < g.n_nodes
    assert matching_coarsen(g, levels=0, rng=np.random.default_rng(9))[0].n_nodes == 32


def test_coarsen_to_target_nodes():
    rng = np.random.default_rng(5)
    g = random_connected_graph(rng, 20, extra_edges=30)
    coarse, _ = matching_coarsen(g, target_nodes=10, rng=np.random.default_rng(11))
    assert coarse.n_nodes == 10
    single, _ = matching_coarsen(g, target_nodes=1, rng=np.random.default_rng(11))
    assert single.n_nodes == 1


def test_coarsen_validation():
    g = cycle(4)
    with pytest.raises(ValueError):
        matching_coarsen(g, strategy="vertex")
    with pytest.raises(ValueError):
        matching_coarsen(g, levels=-1)
    with pytest.raises(ValueError):
        matching_coarsen(g, target_nodes=0)


def test_coarsen_preserves_connectivity():
    rng = np.random.default_rng(6)
    g = random_connected_graph(rng, 24, extra_edges=12)
    for strategy in ("random", "heavy-edge"):
        coarse, _ = matching_coarsen(
            g, strategy=strategy, levels=3, rng=np.random.default_rng(13)
        )
        assert coarse.is_connected()


def test_leverage_probabilities_match_per_edge_reads():
    rng = np.random.default_rng(4)
    g = random_connected_graph(rng, 30, extra_edges=60, weighted_nodes=True)
    eids, probs = leverage_probabilities(g)
    state = build_pseudoinverse(g)
    lev = np.array([edge_leverage(state, *g.edge(eid)) for eid in eids])
    np.testing.assert_allclose(probs, lev / lev.sum(), rtol=1e-12, atol=0)
