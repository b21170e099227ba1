import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphreduce.baselines import _heavy_edge_matching
from graphreduce.graph import (
    ContractionMap,
    WeightedGraph,
    read_edgelist,
    write_edgelist,
)
from tests.conftest import random_connected_graph


def path_graph(weights):
    g = WeightedGraph()
    for i, w in enumerate(weights):
        g.add_edge(i, i + 1, w)
    return g


def test_add_edge_assigns_stable_ids():
    g = WeightedGraph()
    e0 = g.add_edge(0, 1, 2.0)
    e1 = g.add_edge(1, 2, 3.0)
    assert (e0, e1) == (0, 1)
    assert g.edge(e0) == (0, 1, 2.0)
    g.set_edge_weight(e0, 5.0)
    assert g.edge(e0) == (0, 1, 5.0)


def test_parallel_edges_merge_weights():
    g = WeightedGraph()
    e0 = g.add_edge(0, 1, 2.0)
    e1 = g.add_edge(1, 0, 3.0)
    assert e0 == e1
    assert g.edge_weight(e0) == 5.0
    assert g.n_edges == 1


def test_self_loop_dropped():
    g = WeightedGraph()
    assert g.add_edge(3, 3, 1.0) == -1
    assert g.n_edges == 0
    assert g.n_nodes == 1


def test_nonpositive_weights_rejected():
    g = WeightedGraph.from_edges([(0, 1, 1.0)])
    for bad in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            g.add_edge(1, 2, bad)
        with pytest.raises(ValueError):
            g.add_node(0, bad)
        with pytest.raises(ValueError):
            g.set_edge_weight(0, bad)
        with pytest.raises(ValueError):
            WeightedGraph.from_edges([(0, 1, bad), (1, 2, 1.0)])
    # Rejected before anything changed.
    assert g.nodes() == [0, 1]
    assert g.edge(0) == (0, 1, 1.0)
    assert g.node_weight(0) == 1.0


def test_triangle_count():
    g = WeightedGraph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
    assert g.triangle_count(g.edge_between(0, 1)) == 1
    assert g.triangle_count(g.edge_between(2, 3)) == 0


def test_contract_merges_parallels_and_weights():
    # Triangle: contracting one edge leaves two nodes joined by the merged
    # weight of the two remaining sides.
    g = WeightedGraph.from_edges([(0, 1, 1.0), (1, 2, 2.0), (0, 2, 4.0)])
    rec = g.contract_edge(g.edge_between(0, 1))
    assert (rec.survivor, rec.removed) == (0, 1)
    assert g.n_nodes == 2 and g.n_edges == 1
    eid = g.edge_between(0, 2)
    assert g.edge_weight(eid) == pytest.approx(6.0)
    assert g.node_weight(0) == pytest.approx(2.0)


def test_contract_to_single_node_flagged():
    g = WeightedGraph.from_edges([(0, 1, 1.0)])
    rec = g.contract_edge(0)
    assert (rec.survivor, rec.removed) == (0, 1)
    assert g.n_nodes == 1 and g.n_edges == 0
    assert g.node_weight(0) == pytest.approx(2.0)


def test_contract_keeps_moved_edge_ids():
    g = WeightedGraph.from_edges([(0, 1), (1, 5), (5, 9)])
    e15 = g.edge_between(1, 5)
    g.contract_edge(g.edge_between(0, 1))
    assert g.edge_between(0, 5) == e15


def test_connectivity():
    g = WeightedGraph.from_edges([(0, 1), (1, 2), (3, 4)])
    assert not g.is_connected()
    g.add_edge(2, 3)
    assert g.is_connected()
    bridge = g.edge_between(2, 3)
    assert not g.connected_without([bridge])
    assert g.connected_without([])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_triangle_free_deletions_decide_connectivity(seed):
    # reduce_graph checks only the triangle-free deletions of a matching: an
    # edge with a common neighbour keeps a two-edge path around it, and those
    # edges touch the matched edge, so the matching cannot delete them.
    rng = np.random.default_rng(seed)
    g = random_connected_graph(
        rng, int(rng.integers(3, 16)), extra_edges=int(rng.integers(0, 20))
    )
    deleted = [eid for eid in g.independent_edge_set(rng) if rng.random() < 0.7]
    free = [eid for eid in deleted if g.triangle_count(eid) == 0]
    assert g.connected_without(free) == g.connected_without(deleted)


def test_connectivity_trivial_cases():
    assert WeightedGraph().is_connected()
    g = WeightedGraph()
    g.add_node(7)
    assert g.is_connected()


def _max_matching_size(n, edges):
    # Bitmask DP over node subsets; exact for the small graphs used here.
    best = {0: 0}
    for mask in range(1 << n):
        if mask not in best:
            continue
        base = best[mask]
        for u, v in edges:
            if not (mask >> u) & 1 and not (mask >> v) & 1:
                nxt = mask | (1 << u) | (1 << v)
                if best.get(nxt, -1) < base + 1:
                    best[nxt] = base + 1
    return max(best.values())


MATCHINGS = {
    "random-order": WeightedGraph.independent_edge_set,
    "heavy-edge": _heavy_edge_matching,
}


@pytest.mark.parametrize("matching", MATCHINGS.values(), ids=MATCHINGS.keys())
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_independent_edge_set_maximal_and_large(matching, data):
    n = data.draw(st.integers(2, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    g = WeightedGraph.from_edges(chosen)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    # Few distinct weights, so the heavy-edge order both sorts and breaks ties.
    for eid in g.edge_ids():
        g.set_edge_weight(eid, data.draw(st.sampled_from([1.0, 2.0, 3.0])))
    picked = matching(g, rng)

    used = set()
    for eid in picked:
        u, v = g.endpoints(eid)
        assert u not in used and v not in used
        used.update((u, v))
    # Maximality: every edge has a matched endpoint.
    for eid in g.edge_ids():
        u, v = g.endpoints(eid)
        assert u in used or v in used
    assert len(picked) * 2 >= _max_matching_size(n, chosen)


def test_independent_edge_set_on_six_cycle():
    g = WeightedGraph.from_edges([(i, (i + 1) % 6) for i in range(6)])
    sizes = set()
    for seed in range(40):
        sizes.add(len(g.independent_edge_set(np.random.default_rng(seed))))
    assert sizes <= {2, 3}
    assert 3 in sizes


def test_independent_edge_set_deterministic():
    g = WeightedGraph.from_edges([(i, (i + 1) % 8) for i in range(8)] + [(0, 4)])
    a = g.independent_edge_set(np.random.default_rng(123))
    b = g.independent_edge_set(np.random.default_rng(123))
    assert a == b


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_contraction_conserves_node_weight_and_merges_group_weights(data):
    n = data.draw(st.integers(3, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), min_size=n - 1, unique=True))
    weights = {
        (u, v): data.draw(st.floats(0.5, 4.0, allow_nan=False)) for u, v in chosen
    }
    g = WeightedGraph.from_edges([(u, v, w) for (u, v), w in weights.items()])
    original = g.copy()
    total = g.total_node_weight()
    cmap = ContractionMap.identity(g.nodes())

    steps = data.draw(st.integers(1, n - 1))
    for _ in range(steps):
        if g.n_edges == 0:
            break
        eid = g.edge_ids()[data.draw(st.integers(0, g.n_edges - 1))]
        rec = g.contract_edge(eid)
        cmap.merge(rec.survivor, rec.removed)

    assert g.total_node_weight() == pytest.approx(total)
    groups = cmap.groups()
    for sup, members in groups.items():
        assert g.node_weight(sup) == pytest.approx(len(members))
    # Edge weight between two supernodes equals the total original weight
    # crossing between their groups.
    for eid in g.edge_ids():
        a, b, w = g.edge(eid)
        expected = sum(
            original.edge_weight(original.edge_between(u, v))
            for u in groups[a]
            for v in groups[b]
            if original.has_edge(u, v)
        )
        assert w == pytest.approx(expected)


def test_contraction_map_matrix():
    cmap = ContractionMap.identity([0, 1, 2, 3])
    cmap.merge(1, 2)
    C = cmap.matrix([0, 1, 3])
    assert C.tolist() == [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ]


def test_contraction_map_transitive_merge():
    cmap = ContractionMap.identity([0, 1, 2])
    cmap.merge(1, 2)
    cmap.merge(0, 1)
    assert cmap.supernode(2) == 0
    assert cmap.groups() == {0: [0, 1, 2]}


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_contraction_map_merge_matches_full_scan(data):
    # The scan over every original that `merge` used before it kept members,
    # as a reference; merges run in a random contraction order.
    n = data.draw(st.integers(2, 30))
    cmap = ContractionMap.identity(range(n))
    reference = dict(cmap.assignment)
    alive = list(range(n))
    while len(alive) > 1 and data.draw(st.booleans()):
        survivor, removed = data.draw(st.permutations(alive))[:2]
        alive.remove(removed)
        cmap.merge(survivor, removed)
        for orig, sup in reference.items():
            if sup == removed:
                reference[orig] = survivor
        assert cmap.assignment == reference
    assert list(cmap.assignment) == list(reference)
    assert cmap.groups() == {
        s: sorted(o for o in range(n) if reference[o] == s) for s in alive
    }
    scanned = ContractionMap(cmap.originals, reference)
    assert np.array_equal(cmap.matrix(alive), scanned.matrix(alive))


def test_edgelist_roundtrip(tmp_path):
    g = WeightedGraph.from_edges([(0, 1, 0.1), (1, 2, 1 / 3), (0, 2, 7.25)])
    g.add_node(1, 2.5)
    ep, np_ = tmp_path / "g.txt", tmp_path / "g.nodes"
    write_edgelist(g, ep, node_weight_path=np_)
    h = read_edgelist(ep, node_weight_path=np_)
    assert h.nodes() == g.nodes()
    assert h.edge_ids() == g.edge_ids()
    for eid in g.edge_ids():
        assert h.edge(eid) == g.edge(eid)
    assert h.node_weight(1) == 2.5


def test_edgelist_comments_and_default_weight(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("# header\n0 1  # unit edge\n1 2 0.5\n\n")
    g = read_edgelist(p)
    assert g.edge_weight(g.edge_between(0, 1)) == 1.0
    assert g.edge_weight(g.edge_between(1, 2)) == 0.5


def test_edgelist_malformed_line_raises(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("0 1 2 3\n")
    with pytest.raises(ValueError, match="bad.txt:1"):
        read_edgelist(p)
    p.write_text("0 1 nan\n")
    with pytest.raises(ValueError):
        read_edgelist(p)
    p.write_text("0 1\n")
    weights = tmp_path / "bad.nodes"
    weights.write_text("0 inf\n")
    with pytest.raises(ValueError):
        read_edgelist(p, node_weight_path=weights)
