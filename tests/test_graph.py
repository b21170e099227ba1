import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphreduce.baselines import _heavy_edge_matching
import graphreduce.graph as graph_module
from graphreduce.generators import generate, path, torus
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
    # Node ids are non-negative integers; a bool would alias node 0 or 1.
    for bad in (-3, 2.5, True, False, "1", None, np.int64(-1)):
        with pytest.raises(ValueError, match="node id"):
            g.add_edge(1, bad)
        with pytest.raises(ValueError, match="node id"):
            g.add_edge(bad, 1)
        with pytest.raises(ValueError, match="node id"):
            g.add_node(bad)
        with pytest.raises(ValueError, match="node id"):
            WeightedGraph.from_edges([(0, 1), (1, bad)])
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


def test_contract_refuses_an_overflowing_merge_and_changes_nothing():
    g = WeightedGraph.from_edges([(0, 1, 1.0), (1, 2, 1e308), (0, 2, 1e308)])
    before = (g.edge_arrays(), [g.edge(e) for e in g.edge_ids()],
              {u: dict(nbrs) for u, nbrs in g._adj.items()}, g.n_edges, g.n_nodes)
    with pytest.raises(ValueError, match="merged edge weight must be positive and finite"):
        g.contract_edge(g.edge_between(0, 1))
    ends, w, wn = before[0]
    after_ends, after_w, after_wn = g.edge_arrays()
    assert np.array_equal(ends, after_ends) and np.array_equal(w, after_w)
    assert np.array_equal(wn, after_wn)
    assert [g.edge(e) for e in g.edge_ids()] == before[1]
    assert g._adj == before[2] and (g.n_edges, g.n_nodes) == before[3:]


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


def test_a_shared_neighbour_joins_only_through_edges_kept():
    # Triangle 0-1-2 with node 3 hanging off 2.
    g = WeightedGraph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
    e01, e12 = g.edge_between(0, 1), g.edge_between(1, 2)
    assert not g.connected_without([e01, e12])  # node 1 is cut off
    assert not g.connected_without([e12, e01])
    assert g.connected_without([e01])  # 0-2-1 remains
    assert g.connected_without([e12])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_triangle_free_deletions_decide_connectivity(seed):
    # Among deletions from a matching, the triangle-free ones decide: an edge
    # with a common neighbour keeps a two-edge path around it, and those
    # edges touch the matched edge, so the matching cannot delete them.
    rng = np.random.default_rng(seed)
    g = random_connected_graph(
        rng, int(rng.integers(3, 16)), extra_edges=int(rng.integers(0, 20))
    )
    deleted = [eid for eid in g.independent_edge_set(rng) if rng.random() < 0.7]
    free = [eid for eid in deleted if g.triangle_count(eid) == 0]
    assert g.connected_without(free) == g.connected_without(deleted)


def _connected_after_deleting(g, excluded):
    # Whole-graph reference: delete on a copy, then walk every node.
    h = g.copy()
    for eid in set(excluded):
        h.delete_edge(eid)
    return h.is_connected()


def _ball_edges(g, rng, size):
    # Edges leaving a breadth-first ball of `size` nodes around a random node.
    nbrs = {u: [] for u in g.nodes()}
    for eid in g.edge_ids():
        a, b = g.endpoints(eid)
        nbrs[a].append(b)
        nbrs[b].append(a)
    order = [g.nodes()[int(rng.integers(g.n_nodes))]]
    for u in order:  # appended to while iterating, so breadth-first
        if len(order) >= size:
            break
        order += [v for v in nbrs[u] if v not in order]
    ball = set(order[:size])
    return [
        eid for eid in g.edge_ids()
        if (g.endpoints(eid)[0] in ball) != (g.endpoints(eid)[1] in ball)
    ]


CONNECTED_FAMILIES = {
    "random": lambda rng: random_connected_graph(
        rng, int(rng.integers(2, 30)), extra_edges=int(rng.integers(0, 40))
    ),
    "torus": lambda rng: torus(int(rng.integers(3, 7)), int(rng.integers(3, 7))),
    "path": lambda rng: path(int(rng.integers(2, 20))),
}


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 10_000),
    st.sampled_from(sorted(CONNECTED_FAMILIES)),
    st.sampled_from(["random", "bridge", "one-node", "large-part"]),
)
def test_connected_without_matches_a_whole_graph_walk(seed, family, kind):
    rng = np.random.default_rng(seed)
    g = CONNECTED_FAMILIES[family](rng)
    eids = g.edge_ids()
    excluded = [eid for eid in eids if rng.random() < rng.uniform(0, 0.3)]
    if kind == "bridge":
        bridges = [eid for eid in eids if not _connected_after_deleting(g, [eid])]
        if bridges:
            excluded.append(bridges[int(rng.integers(len(bridges)))])
    elif kind == "one-node":
        excluded += _ball_edges(g, rng, 1)
    elif kind == "large-part":
        excluded += _ball_edges(g, rng, max(1, g.n_nodes // 2))
    rng.shuffle(excluded)
    assert g.connected_without(excluded) == _connected_after_deleting(g, excluded)
    assert g.connected_without(excluded[:1]) == _connected_after_deleting(g, excluded[:1])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_independent_edge_set_is_greedy_over_a_permutation_of_the_ids(seed):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(
        rng, int(rng.integers(8, 30)), extra_edges=int(rng.integers(0, 40))
    )
    # Leave gaps in the ids: delete every fifth edge, then contract a few.
    for eid in g.edge_ids()[::5]:
        g.delete_edge(eid)
    for eid in g.independent_edge_set(rng)[:3]:
        g.contract_edge(eid)
    assert g.edge_ids() != list(range(g.n_edges))
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    matched = g.independent_edge_set(a)
    assert matched == g.greedy_matching(b.permutation(g.edge_ids()).tolist())
    assert np.array_equal(a.random(4), b.random(4))


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
            if original.edge_between(u, v) is not None
        )
        assert w == pytest.approx(expected)


def test_contraction_map_matrix():
    cmap = ContractionMap.identity([0, 1, 2, 3])
    cmap.merge(1, 2)
    assert cmap.groups() == {0: [0], 1: [1, 2], 3: [3]}


def test_contraction_map_transitive_merge():
    cmap = ContractionMap.identity([0, 1, 2])
    cmap.merge(1, 2)
    cmap.merge(0, 1)
    assert cmap.assignment[2] == 0
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
    assert cmap.groups() == scanned.groups()


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
    for text, reason in [
        ("# header\n1 2 abc\n", "bad.txt:2: could not convert string to float: 'abc'"),
        ("1 2 -3\n", "bad.txt:1: edge weight must be positive and finite, got -3.0"),
        ("0 1\nx 2\n", "bad.txt:2: invalid literal for int"),
        ("0 1\n1 -2\n", "bad.txt:2: node id must be a non-negative integer, got -2"),
        # Each weight is finite, but the merged parallel edge's sum is not.
        ("0 1 1e308\n1 0 1e308\n",
         "bad.txt:2: merged edge weight must be positive and finite, got inf"),
    ]:
        p.write_text(text)
        with pytest.raises(ValueError, match=re.escape(reason)):
            read_edgelist(p)
    p.write_text("0 1\n")
    for text, reason in [
        ("0 2\n1 abc\n", "bad.nodes:2: could not convert string to float: 'abc'"),
        ("0 -1\n", "bad.nodes:1: node weight must be positive and finite, got -1.0"),
        ("0 inf\n", "bad.nodes:1: node weight must be positive and finite, got inf"),
        ("0 1 2\n", "bad.nodes:1: expected 'u w'"),
        ("-1 2\n", "bad.nodes:1: node id must be a non-negative integer, got -1"),
    ]:
        weights.write_text(text)
        with pytest.raises(ValueError, match=re.escape(reason)):
            read_edgelist(p, node_weight_path=weights)


# -- the array store ---------------------------------------------------------


def sequential_greedy(g, order):
    """The greedy pass that `greedy_matching` must reproduce: walk `order`
    once and keep each edge whose endpoints are both still unmatched."""
    matched, kept = set(), []
    for eid in order:
        u, v = g.endpoints(eid)
        if u not in matched and v not in matched:
            matched.update((u, v))
            kept.append(eid)
    return kept


def _gapped_graph(rng, nodes=(4, 30), extra=(0, 50)):
    # Ids with gaps: delete some edges, then contract a few.
    g = random_connected_graph(rng, int(rng.integers(*nodes)), extra_edges=int(rng.integers(*extra)))
    for eid in g.edge_ids():
        if rng.random() < 0.2:
            g.delete_edge(eid)
    for eid in g.edge_ids()[: int(rng.integers(0, 4))]:
        if eid in g.edge_ids():  # not merged away by an earlier contraction
            g.contract_edge(eid)
    return g


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_greedy_matching_is_the_sequential_greedy_pass(seed, partial):
    rng = np.random.default_rng(seed)
    g = _gapped_graph(rng)
    order = [int(e) for e in rng.permutation(g.edge_ids())]
    if partial:  # the heavy-edge baseline's case: some of the edges only
        order = order[: int(rng.integers(0, len(order) + 1))]
    matched = g.greedy_matching(order)
    assert matched == sequential_greedy(g, order)
    assert all(type(eid) is int for eid in matched)
    assert g.greedy_matching(np.array(order, dtype=np.int64)) == matched


@pytest.mark.parametrize("partial", [False, True], ids=["full", "partial"])
@pytest.mark.parametrize("seed, nodes, extra", [(0, 60, 330), (1, 150, 600), (2, 300, 1200),
                                                (3, 500, 2000)])
def test_greedy_matching_on_both_sides_of_the_greedy_tail(seed, nodes, extra, partial):
    # 300 to 2,000 edges, so rank rounds run before the greedy tail.
    rng = np.random.default_rng(seed)
    g = _gapped_graph(rng, (nodes, nodes + 1), (extra, extra + 1))
    order = [int(e) for e in rng.permutation(g.edge_ids())]
    if partial:
        order = order[: int(rng.integers(len(order) // 2, len(order)))]
    assert len(order) > graph_module._GREEDY_TAIL
    assert g.greedy_matching(order) == sequential_greedy(g, order)


@pytest.mark.parametrize("kind, params", [
    ("triangular-lattice", {"rows": 30, "cols": 30}),
    ("sbm", {"n": 256, "k": 4, "p_in": 0.25, "p_out": 2**-6}),
    ("torus", {"rows": 48, "cols": 48, "weight_law": "exp-uniform:-1,1"}),
])
def test_independent_edge_set_on_the_benchmark_graphs(kind, params):
    g = generate(kind, params, seed=7)
    for seed in range(3):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        order = [int(e) for e in b.permutation(g.edge_ids())]
        assert g.independent_edge_set(a) == sequential_greedy(g, order)


def test_greedy_matching_refuses_dead_ids_and_the_graph_still_grows():
    g = WeightedGraph.from_edges([(0, 1), (1, 2), (2, 3)])
    g.delete_edge(1)
    for bad in ([1], [0, 5], [-1], [2, 1]):
        with pytest.raises(KeyError):
            g.greedy_matching(bad)
        with pytest.raises(KeyError) as caught:
            g.edge_columns(bad)
    for read in (g.edge, g.endpoints, g.edge_weight, g.triangle_count, g.delete_edge):
        with pytest.raises(KeyError):
            read(1)
        with pytest.raises(KeyError):
            read(-1)
    # `caught` keeps the failed call's frame alive; the stores must still grow.
    assert caught.value is not None
    assert g.add_edge(3, 4, 2.0) == 3 and g.edge(3) == (3, 4, 2.0)


def test_node_ids_must_fit_int64():
    g = WeightedGraph()
    g.add_edge(0, 2**63 - 1)
    with pytest.raises(ValueError, match=r"below 2\*\*63"):
        g.add_edge(0, 2**63)
    with pytest.raises(ValueError, match=r"below 2\*\*63"):
        g.add_node(2**70)
    assert g.nodes() == [0, 2**63 - 1] and g.endpoints(0) == (0, 2**63 - 1)


def test_matching_scratch_is_sized_by_nodes_not_by_id_values():
    # An array indexed by id value would need 8 TB here.
    import tracemalloc

    base = 10**12
    g = WeightedGraph.from_edges([(base + i, base + (i + 1) % 64) for i in range(64)])
    tracemalloc.start()
    try:
        matched = g.independent_edge_set(np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert matched == sequential_greedy(g, matched)
    assert len(matched) >= 22  # maximal on a 64-cycle


# Ids with gaps and near 10**12 and 2**63, so no store may be sized by id value.
HUGE_IDS = [0, 3, 4, 9, 10**12 - 1, 10**12, 10**12 + 7, 2**62 + 5, 2**63 - 1]
DYADIC = [0.5, 1.0, 1.25, 2.0, 3.5]  # sums stay exact, whatever their order


def _check_against_model(g, edges, nodes):
    """`g` against a plain-dict model: {frozenset({u, v}): [eid, w]}, {u: w}."""
    ids = sorted(eid for eid, _ in edges.values())
    assert g.edge_ids() == ids and g.n_edges == len(ids)
    assert g.nodes() == sorted(nodes) and g.n_nodes == len(nodes)
    assert {e for nbrs in g._adj.values() for e in nbrs.values()} == set(ids)
    rows = {}
    for pair, (eid, w) in edges.items():
        u, v = sorted(pair)
        rows[eid] = (u, v, w)
        assert g.edge(eid) == (u, v, w) and g.endpoints(eid) == (u, v)
        assert g.edge_weight(eid) == w
        assert g.edge_between(u, v) == eid and g.edge_between(v, u) == eid
        assert [type(x) for x in g.edge(eid)] == [int, int, float]
        assert all(type(x) is int for x in g.endpoints(eid))
        assert type(g.edge_weight(eid)) is float and type(g.edge_between(u, v)) is int
        assert type(g.triangle_count(eid)) is int
    for u, w in nodes.items():
        assert g.node_weight(u) == w and type(g.node_weight(u)) is float
    assert all(type(u) is int for u in g.nodes())
    assert all(type(e) is int for e in g.edge_ids())
    assert type(g.total_node_weight()) is float
    assert g.total_node_weight() == math.fsum(nodes.values())

    us, vs, ws = g.edge_columns(ids)
    assert us.tolist() == [rows[e][0] for e in ids]
    assert vs.tolist() == [rows[e][1] for e in ids]
    assert ws.tolist() == [rows[e][2] for e in ids]
    ends, ew, nw = g.edge_arrays()
    pos = {u: i for i, u in enumerate(sorted(nodes))}
    assert ends.reshape(-1, 2).tolist() == [[pos[rows[e][0]], pos[rows[e][1]]] for e in ids]
    assert ew.tolist() == [rows[e][2] for e in ids]
    assert nw.tolist() == [nodes[u] for u in sorted(nodes)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_array_store_agrees_with_a_dict_model(data):
    g, edges, nodes, next_id = WeightedGraph(), {}, {}, 0
    node = st.sampled_from(HUGE_IDS)
    for _ in range(data.draw(st.integers(1, 40))):
        live = sorted(eid for eid, _ in edges.values())
        op = data.draw(st.sampled_from(
            ["add", "add", "add", "node"] + ["delete", "weight", "contract"] * bool(live)))
        if op == "add":  # includes parallel merges and self loops
            u, v, w = data.draw(node), data.draw(node), data.draw(st.sampled_from(DYADIC))
            eid = g.add_edge(u, v, w)
            nodes.setdefault(u, 1.0)
            nodes.setdefault(v, 1.0)
            if u == v:
                assert eid == -1
            elif frozenset((u, v)) in edges:
                assert eid == edges[frozenset((u, v))][0]
                edges[frozenset((u, v))][1] += w
            else:
                assert eid == next_id
                edges[frozenset((u, v))] = [eid, w]
                next_id += 1
            assert type(eid) is int
        elif op == "node":
            u, w = data.draw(node), data.draw(st.sampled_from(DYADIC))
            g.add_node(u, w)
            nodes[u] = w
        else:
            eid = data.draw(st.sampled_from(live))
            pair = next(p for p, (e, _) in edges.items() if e == eid)
            if op == "delete":
                g.delete_edge(eid)
                del edges[pair]
            elif op == "weight":
                w = data.draw(st.sampled_from(DYADIC))
                g.set_edge_weight(eid, w)
                edges[pair][1] = w
            else:
                rec = g.contract_edge(eid)
                survivor, removed = sorted(pair)
                assert (rec.survivor, rec.removed) == (survivor, removed)
                assert type(rec.survivor) is int and type(rec.removed) is int
                del edges[pair]
                for other in sorted(x for p in edges for x in p if removed in p and x != removed):
                    moved_id, w = edges.pop(frozenset((removed, other)))
                    kept = edges.get(frozenset((survivor, other)))
                    if kept is not None:
                        kept[1] += w
                    else:
                        edges[frozenset((survivor, other))] = [moved_id, w]
                nodes[survivor] += nodes.pop(removed)
        _check_against_model(g, edges, nodes)
        copied = g.copy()
        _check_against_model(copied, edges, nodes)
        a, b = np.random.default_rng(next_id), np.random.default_rng(next_id)
        order = [int(e) for e in b.permutation(g.edge_ids())]
        assert g.independent_edge_set(a) == sequential_greedy(g, order)
