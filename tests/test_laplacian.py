import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from graphreduce.graph import ContractionMap, WeightedGraph
from graphreduce.laplacian import (
    DisconnectedGraphError,
    SingularUpdateError,
    build_pseudoinverse,
    contraction_update,
    edge_leverage,
    effective_resistance,
    identity_residual,
    laplacian_matrix,
    lift,
    save_matrix_csv,
    update_norm,
    weighted_projector,
    woodbury_reweight,
)

from conftest import pinv_by_eigen, random_connected_graph

GOLDEN_TOL = 1e-10

# Four-node path with edge weights [1, 2, 1]: closed-form pseudoinverse,
# derived by hand from the rank-one-corrected inverse and frozen here.
PATH4_PINV = np.array(
    [
        [6.0, 0.0, -2.0, -4.0],
        [0.0, 2.0, 0.0, -2.0],
        [-2.0, 0.0, 2.0, 0.0],
        [-4.0, -2.0, 0.0, 6.0],
    ]
) / 8.0

# The same path after contracting its center edge: nodes [0, 1, 3] with node
# weights [1, 2, 1]; pseudoinverse of the node-weighted operator.
REDUCED_PINV = np.array(
    [
        [5.0, -2.0, -3.0],
        [-1.0, 2.0, -1.0],
        [-3.0, -2.0, 5.0],
    ]
) / 8.0

# REDUCED_PINV expanded back to four slots (merged rows equal, columns equal).
LIFTED_PINV = np.array(
    [
        [5.0, -1.0, -1.0, -3.0],
        [-1.0, 1.0, 1.0, -1.0],
        [-1.0, 1.0, 1.0, -1.0],
        [-3.0, -1.0, -1.0, 5.0],
    ]
) / 8.0


def weighted_path4():
    return WeightedGraph.from_edges([(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0)])


def unit_triangle():
    return WeightedGraph.from_edges([(0, 1), (1, 2), (0, 2)])


def test_build_pseudoinverse_golden_path():
    state = build_pseudoinverse(weighted_path4())
    np.testing.assert_allclose(state.pinv, PATH4_PINV, atol=GOLDEN_TOL)


def test_build_pseudoinverse_golden_reduced():
    g = weighted_path4()
    g.contract_edge(g.edge_between(1, 2))
    assert g.nodes() == [0, 1, 3]
    assert g.node_weight(1) == 2.0
    state = build_pseudoinverse(g)
    np.testing.assert_allclose(state.pinv, REDUCED_PINV, atol=GOLDEN_TOL)


def test_unit_triangle_pinv_is_laplacian_ninth():
    g = unit_triangle()
    state = build_pseudoinverse(g)
    np.testing.assert_allclose(state.pinv, laplacian_matrix(g) / 9.0, atol=GOLDEN_TOL)


def test_disconnected_raises():
    g = WeightedGraph.from_edges([(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGraphError):
        build_pseudoinverse(g)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 12), st.booleans())
def test_pseudoinverse_identities(seed, n, weighted):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n, extra_edges=int(rng.integers(0, n)), weighted_nodes=weighted)
    state = build_pseudoinverse(g)
    L = laplacian_matrix(g)
    J = weighted_projector(state.weights)
    eye = np.eye(n)
    np.testing.assert_allclose(state.pinv @ L, eye - J, atol=1e-8)
    np.testing.assert_allclose(L @ state.pinv, eye - J, atol=1e-8)
    # Kernel behavior: rows sum to zero and pinv annihilates J.
    np.testing.assert_allclose(state.pinv @ np.ones(n), 0.0, atol=1e-8)
    np.testing.assert_allclose(state.pinv @ J, 0.0, atol=1e-8)
    # pinv W^{-1} is symmetric for any node weighting.
    PW = state.pinv / state.weights[None, :]
    np.testing.assert_allclose(PW, PW.T, atol=1e-8)
    np.testing.assert_allclose(J @ J, J, atol=1e-12)
    assert identity_residual(state, g) < 1e-8


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 12), st.booleans())
def test_pinv_matches_eigensolver_oracle(seed, n, weighted):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n, extra_edges=int(rng.integers(0, n)), weighted_nodes=weighted)
    state = build_pseudoinverse(g)
    np.testing.assert_allclose(state.pinv, pinv_by_eigen(g), atol=1e-9)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(3, 20), st.booleans())
def test_leverage_sum_is_nodes_minus_one(seed, n, weighted):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n, extra_edges=int(rng.integers(0, 2 * n)), weighted_nodes=weighted)
    state = build_pseudoinverse(g)
    total = sum(
        edge_leverage(state, *g.endpoints(eid), g.edge_weight(eid))
        for eid in g.edge_ids()
    )
    assert total == pytest.approx(n - 1, abs=1e-8)


def test_effective_resistance_series_on_path():
    state = build_pseudoinverse(weighted_path4())
    # Unit node weights: plain series resistance between the path ends.
    assert effective_resistance(state, 0, 3) == pytest.approx(1 + 0.5 + 1)
    assert effective_resistance(state, 1, 2) == pytest.approx(0.5)


def test_tree_edges_have_leverage_one():
    rng = np.random.default_rng(5)
    g = random_connected_graph(rng, 9, extra_edges=0)
    state = build_pseudoinverse(g)
    for eid in g.edge_ids():
        u, v, w = g.edge(eid)
        assert edge_leverage(state, u, v, w) == pytest.approx(1.0, abs=1e-9)


def test_unit_triangle_edge_quantities():
    state = build_pseudoinverse(unit_triangle())
    assert edge_leverage(state, 0, 1, 1.0) == pytest.approx(2 / 3)
    assert update_norm(state, 0, 1, 1.0) == pytest.approx(2 / 9)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_woodbury_matches_rebuild(seed):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, 8, extra_edges=6, weighted_nodes=bool(rng.integers(2)))
    state = build_pseudoinverse(g)
    for _ in range(5):
        eid = g.edge_ids()[int(rng.integers(g.n_edges))]
        u, v, w = g.edge(eid)
        ratio = float(rng.uniform(-0.8, 2.0))
        g.set_edge_weight(eid, w * (1 + ratio))
        woodbury_reweight(state, u, v, w * ratio)
    fresh = build_pseudoinverse(g)
    np.testing.assert_allclose(state.pinv, fresh.pinv, atol=1e-9)


def test_woodbury_deletion_matches_rebuild():
    g = unit_triangle()
    state = build_pseudoinverse(g)
    woodbury_reweight(state, 0, 1, -1.0)
    g.delete_edge(g.edge_between(0, 1))
    np.testing.assert_allclose(state.pinv, build_pseudoinverse(g).pinv, atol=1e-10)


def test_bridge_deletion_raises():
    g = weighted_path4()
    state = build_pseudoinverse(g)
    with pytest.raises(SingularUpdateError):
        woodbury_reweight(state, 1, 2, -2.0)


def test_contraction_update_golden():
    g = weighted_path4()
    state = build_pseudoinverse(g)
    rec = g.contract_edge(g.edge_between(1, 2))
    contraction_update(state, rec)
    assert state.nodes == (0, 1, 3)
    np.testing.assert_allclose(state.weights, [1.0, 2.0, 1.0])
    np.testing.assert_allclose(state.pinv, REDUCED_PINV, atol=GOLDEN_TOL)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_contraction_update_matches_rebuild(seed, weighted):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, 7, extra_edges=5, weighted_nodes=weighted)
    state = build_pseudoinverse(g)
    for _ in range(3):
        eid = g.edge_ids()[int(rng.integers(g.n_edges))]
        rec = g.contract_edge(eid)
        contraction_update(state, rec)
    fresh = build_pseudoinverse(g)
    assert state.nodes == fresh.nodes
    np.testing.assert_allclose(state.weights, fresh.weights, atol=1e-12)
    np.testing.assert_allclose(state.pinv, fresh.pinv, atol=1e-9)


def test_lift_golden():
    g = weighted_path4()
    cmap = ContractionMap.identity(g.nodes())
    rec = g.contract_edge(g.edge_between(1, 2))
    cmap.merge(rec.survivor, rec.removed)
    state = build_pseudoinverse(g)
    lifted = lift(state.pinv, cmap, state.nodes, state.weights)
    np.testing.assert_allclose(lifted, LIFTED_PINV, atol=GOLDEN_TOL)


def test_lift_identity_map_is_identity():
    g = random_connected_graph(np.random.default_rng(0), 6, 4, weighted_nodes=True)
    state = build_pseudoinverse(g)
    cmap = ContractionMap.identity(g.nodes())
    lifted = lift(
        state.pinv, cmap, state.nodes, state.weights, original_weights=state.weights
    )
    np.testing.assert_allclose(lifted, state.pinv, atol=1e-12)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_lifted_pinv_is_infinite_weight_limit(seed, weighted):
    # Contracting an edge must agree with sending its weight to infinity.
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, 6, extra_edges=4, weighted_nodes=weighted)
    orig_weights = np.array([g.node_weight(u) for u in g.nodes()])
    eid = g.edge_ids()[int(rng.integers(g.n_edges))]

    heavy = g.copy()
    heavy.set_edge_weight(eid, 1e6)
    limit = build_pseudoinverse(heavy).pinv

    cmap = ContractionMap.identity(g.nodes())
    rec = g.contract_edge(eid)
    cmap.merge(rec.survivor, rec.removed)
    state = build_pseudoinverse(g)
    lifted = lift(
        state.pinv, cmap, state.nodes, state.weights,
        original_weights=None if not weighted else orig_weights,
    )
    np.testing.assert_allclose(lifted, limit, atol=1e-4)


def test_lifted_merged_rows_and_columns_identical():
    g = random_connected_graph(np.random.default_rng(3), 8, 5)
    cmap = ContractionMap.identity(g.nodes())
    for _ in range(3):
        eid = g.edge_ids()[0]
        rec = g.contract_edge(eid)
        cmap.merge(rec.survivor, rec.removed)
    state = build_pseudoinverse(g)
    lifted = lift(state.pinv, cmap, state.nodes, state.weights)
    for members in cmap.groups().values():
        first = members[0]
        for other in members[1:]:
            np.testing.assert_allclose(lifted[first], lifted[other], atol=1e-12)
            np.testing.assert_allclose(lifted[:, first], lifted[:, other], atol=1e-12)


def test_update_counter_increments():
    g = unit_triangle()
    state = build_pseudoinverse(g)
    assert state.updates == 0
    woodbury_reweight(state, 0, 1, 0.5)
    g.set_edge_weight(g.edge_between(0, 1), 1.5)
    rec = g.contract_edge(g.edge_between(1, 2))
    contraction_update(state, rec)
    assert state.updates == 2


def test_matrix_exports(tmp_path):
    mat = PATH4_PINV
    csv_path = tmp_path / "m.csv"
    save_matrix_csv(csv_path, mat)
    loaded = np.loadtxt(csv_path, delimiter=",")
    np.testing.assert_allclose(loaded, mat, rtol=0, atol=0)


def _matched_actions(rng, g):
    # A random matching split into reweights, deletions that keep the graph
    # connected, and contractions; returns (changes, contraction edge ids).
    changes, deleted, contract = [], set(), []
    for eid in g.independent_edge_set(rng):
        u, v, w = g.edge(eid)
        kind = int(rng.integers(3))
        if kind == 1 and g.connected_without(deleted | {eid}):
            deleted.add(eid)
            changes.append((eid, u, v, -w))
        elif kind == 2:
            contract.append(eid)
        else:
            changes.append((eid, u, v, w * float(rng.uniform(-0.8, 2.0))))
    return changes, contract


def _edit_graph(g, changes, contract):
    # Apply the actions to the graph as the reducer does: deletions and
    # reweights first, then contractions; returns the contraction records.
    for eid, _, _, delta in changes:
        w = g.edge_weight(eid)
        if delta == -w:
            g.delete_edge(eid)
        else:
            g.set_edge_weight(eid, w + delta)
    return [g.contract_edge(eid) for eid in contract]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_batched_updates_match_rank_one_steps_and_rebuild(seed):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, int(rng.integers(6, 16)), extra_edges=12, weighted_nodes=True)
    batched = build_pseudoinverse(g)
    stepped = build_pseudoinverse(g)
    changes, contract = _matched_actions(rng, g)
    records = _edit_graph(g, changes, contract)

    if changes:
        _, u, v, delta = (np.array(col) for col in zip(*changes))
        woodbury_reweight(batched, u, v, delta)
        for _, a, b, d in changes:
            woodbury_reweight(stepped, a, b, d)
    assert batched.updates == stepped.updates == len(changes)
    if records:
        contraction_update(batched, records)
        for rec in records:
            contraction_update(stepped, rec)
    assert batched.updates == stepped.updates == len(changes) + len(records)

    fresh = build_pseudoinverse(g)
    assert batched.nodes == stepped.nodes == fresh.nodes
    np.testing.assert_array_equal(batched.weights, fresh.weights)
    np.testing.assert_allclose(batched.pinv, stepped.pinv, rtol=0, atol=1e-10)
    np.testing.assert_allclose(batched.pinv, fresh.pinv, rtol=0, atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_mixed_batch_is_one_update(seed):
    # Contraction is the delta_w = +inf limit of a reweight, so a round's
    # reweights, deletions and contractions (last) are one call.
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, int(rng.integers(6, 16)), extra_edges=12, weighted_nodes=True)
    mixed = build_pseudoinverse(g)
    two_batch = build_pseudoinverse(g)
    changes, contract = _matched_actions(rng, g)
    assume(changes and contract)
    records = _edit_graph(g, changes, contract)

    _, u, v, delta = (np.array(col) for col in zip(*changes))
    woodbury_reweight(
        mixed,
        np.r_[u, [r.survivor for r in records]],
        np.r_[v, [r.removed for r in records]],
        np.r_[delta, np.full(len(records), np.inf)],
    )
    woodbury_reweight(two_batch, u, v, delta)
    contraction_update(two_batch, records)

    fresh = build_pseudoinverse(g)
    assert mixed.nodes == two_batch.nodes == fresh.nodes
    np.testing.assert_array_equal(mixed.weights, two_batch.weights)
    np.testing.assert_array_equal(mixed.weights, fresh.weights)
    assert mixed.updates == two_batch.updates == len(changes) + len(records)
    np.testing.assert_allclose(mixed.pinv, two_batch.pinv, rtol=0, atol=1e-10)
    np.testing.assert_allclose(mixed.pinv, fresh.pinv, rtol=0, atol=1e-10)


def _bridged_triangles() -> WeightedGraph:
    # Two triangles joined by the bridge (2, 3), with unequal node weights.
    g = WeightedGraph.from_edges(
        [(0, 1, 1.0), (1, 2, 1.5), (0, 2, 1.0), (2, 3, 2.0),
         (3, 4, 1.0), (4, 5, 0.5), (3, 5, 1.0)]
    )
    for u in g.nodes():
        g.add_node(u, 1.0 + 0.25 * u)
    return g


def test_batch_with_bridge_deletion_raises_and_leaves_state_unchanged():
    # The bridge is deleted in the middle of a matched batch.
    state = build_pseudoinverse(_bridged_triangles())
    state.updates = 7
    pinv, nodes, weights = state.pinv.copy(), state.nodes, state.weights.copy()
    with pytest.raises(SingularUpdateError, match=r"edge \(2, 3\)"):
        woodbury_reweight(state, [0, 2, 4], [1, 3, 5], [0.5, -2.0, -0.5])
    assert np.array_equal(state.pinv, pinv)
    assert state.nodes == nodes
    assert np.array_equal(state.weights, weights)
    assert state.updates == 7


@pytest.mark.parametrize(
    "u, v, delta",
    [([2, 4, 0], [3, 5, 1], [-2.0, -0.5, np.inf]),
     ([0, 2, 4], [1, 3, 5], [np.inf, -2.0, -0.5])],
    ids=["contraction-last", "contraction-first"],
)
def test_mixed_batch_with_bridge_deletion_raises_before_compaction(u, v, delta):
    state = build_pseudoinverse(_bridged_triangles())
    state.updates = 7
    pinv, nodes, weights = state.pinv.copy(), state.nodes, state.weights.copy()
    with pytest.raises(SingularUpdateError, match=r"edge \(2, 3\): update denominator"):
        woodbury_reweight(state, u, v, delta)
    assert state.pinv.shape == pinv.shape and np.array_equal(state.pinv, pinv)
    assert state.nodes == nodes
    assert np.array_equal(state.weights, weights)
    assert state.updates == 7


def test_array_reads_match_scalar_reads_and_definitions():
    rng = np.random.default_rng(11)
    g = random_connected_graph(rng, 14, extra_edges=18, weighted_nodes=True)
    state = build_pseudoinverse(g)
    P, wn = state.pinv, state.weights
    eids = g.edge_ids()
    u, v, w = g.edge_columns(eids)
    lev = edge_leverage(state, u, v, w)
    norms = update_norm(state, u, v, w)
    res = effective_resistance(state, u, v)
    assert lev.shape == norms.shape == res.shape == (len(eids),)
    for i, eid in enumerate(eids):
        a, b, we = g.edge(eid)
        assert lev[i] == edge_leverage(state, a, b, we)
        # The norm's row sums may round differently in a batch.
        assert norms[i] == pytest.approx(update_norm(state, a, b, we), rel=1e-14)
        assert res[i] == effective_resistance(state, a, b)
        # The definitions: y = pinv W_n^{-1} b, z = b^T pinv.
        bvec = np.zeros(state.n)
        bvec[state.index[a]], bvec[state.index[b]] = 1.0, -1.0
        y = P @ (bvec / wn)
        z = bvec @ P
        assert res[i] == pytest.approx(bvec @ y, rel=1e-12)
        assert norms[i] == pytest.approx(we * (z @ y), rel=1e-12)
