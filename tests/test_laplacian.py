import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from graphreduce import NodeBudget, Priority, ReductionConfig, reduce_graph
from graphreduce.generators import cycle, torus
from graphreduce.graph import ContractionMap, WeightedGraph
from graphreduce.laplacian import (
    IDENTITY_TOL,
    DisconnectedGraphError,
    PseudoinverseState,
    SingularUpdateError,
    build_pseudoinverse,
    contraction_update,
    edge_leverage,
    edge_rows,
    identity_residual,
    laplacian_matrix,
    lift,
    probe_residual,
    restrict,
    save_matrix_csv,
    update_norm,
    weighted_projector,
    woodbury_reweight,
)
from graphreduce.sketch import SketchEstimator

from conftest import edge_laplacian, pinv_by_eigen, random_connected_graph

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


def test_builds_check_connectivity_on_their_matrix(monkeypatch):
    # Both builds decide connectivity from the Laplacian they assemble, not
    # from a walk of the graph.
    def walk(*args):
        raise AssertionError("graph walk")

    monkeypatch.setattr(WeightedGraph, "is_connected", walk)
    monkeypatch.setattr(WeightedGraph, "connected_without", walk)
    connected = random_connected_graph(np.random.default_rng(4), 12, extra_edges=6)
    assert build_pseudoinverse(connected).n == 12
    SketchEstimator.build(connected, n_probes=4, rng=np.random.default_rng(0))
    isolated = WeightedGraph.from_edges([(0, 1), (1, 2)])
    isolated.add_node(5)
    for g in (WeightedGraph.from_edges([(0, 1), (2, 3)]), isolated):
        with pytest.raises(DisconnectedGraphError, match="^pseudoinverse requires a"):
            build_pseudoinverse(g)
        with pytest.raises(DisconnectedGraphError, match="^sketch estimates require a"):
            SketchEstimator.build(g, n_probes=4, rng=np.random.default_rng(0))


def _inverse_minus_projector(g: WeightedGraph) -> np.ndarray:
    # inv(L + J) - J with L = W_n^{-1} B^T W_e B summed edge by edge.
    wn = np.array([g.node_weight(u) for u in g.nodes()])
    J = np.outer(np.ones(len(wn)), wn) / wn.sum()
    return np.linalg.inv(edge_laplacian(g) / wn[:, None] + J) - J


def _build_case(kind: str) -> WeightedGraph:
    # 150 nodes, so the build's row blocks include a short last one.
    rng = np.random.default_rng(8)
    g = random_connected_graph(rng, 150, extra_edges=150, weighted_nodes=kind != "weighted")
    if kind == "parallel-edge":
        u, v, _ = g.edge(g.edge_ids()[7])
        g.add_edge(v, u, 0.7)  # merges into the existing edge
    elif kind == "contracted":
        for eid in g.edge_ids()[:40:4]:
            if g.edge_between(*g.endpoints(eid)) is not None:
                g.contract_edge(eid)
    return g


@pytest.mark.parametrize("kind", ["weighted", "node-weighted", "parallel-edge", "contracted"])
def test_build_matches_inverse_of_l_plus_j(kind):
    g = _build_case(kind)
    state = build_pseudoinverse(g)
    expected = _inverse_minus_projector(g)
    assert np.abs(state.pinv - expected).max() <= 1e-12 * np.abs(expected).max()
    assert identity_residual(state, g) <= IDENTITY_TOL
    assert state.pinv.flags.c_contiguous
    # The graph's node weights bit for bit, not the squares of their roots.
    assert state.weights.tobytes() == np.array([g.node_weight(u) for u in g.nodes()]).tobytes()


def test_build_raises_when_l_plus_j_is_numerically_indefinite():
    # Weights 40 orders of magnitude apart: the second Cholesky pivot of
    # Lhat + what what^T cancels to zero in floating point.
    g = WeightedGraph.from_edges([(0, 1, 1e20), (1, 2, 1e-20), (2, 3, 1e20)])
    with pytest.raises(SingularUpdateError, match="not positive definite"):
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
    assert edge_leverage(state, 0, 3, 1.0) == pytest.approx(1 + 0.5 + 1)
    assert edge_leverage(state, 1, 2, 1.0) == pytest.approx(0.5)


def test_identity_residual_rejects_a_state_for_another_graph():
    g = weighted_path4()
    state = build_pseudoinverse(g)
    contracted = g.copy()
    contracted.contract_edge(contracted.edge_between(1, 2))
    shifted = WeightedGraph.from_edges([(1, 2, 1.0), (2, 3, 2.0), (3, 4, 1.0)])
    for residual in (identity_residual, probe_residual):
        with pytest.raises(ValueError, match="4 nodes .* 3 nodes"):
            residual(state, contracted)
        with pytest.raises(ValueError, match="4 nodes .* 4 nodes"):
            residual(state, shifted)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 14), st.integers(0, 4))
def test_identity_residual_is_the_dense_formula(seed, n, contractions):
    # max |pinv @ L - (I - J)| from the dense L, on a weighted graph after
    # some contractions (gapped ids, merged node weights) and a pinv that is
    # off by a perturbation, so the residual is not only roundoff.
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n, extra_edges=int(rng.integers(0, n)), weighted_nodes=True)
    for _ in range(min(contractions, g.n_nodes - 2)):
        g.contract_edge(g.edge_ids()[int(rng.integers(g.n_edges))])
    state = build_pseudoinverse(g)
    state.pinv = state.pinv + 1e-6 * rng.standard_normal(state.pinv.shape)
    L, J = laplacian_matrix(g), weighted_projector(state.weights)
    dense = np.abs(state.pinv @ L - (np.eye(state.n) - J)).max()
    scale = np.linalg.norm(state.pinv) * np.linalg.norm(L)
    assert abs(identity_residual(state, g) - dense) <= 1e-12 * scale
    assert dense > 1e-9


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 12))
def test_probe_residual_is_the_identity_residual_on_one_vector(seed, n):
    # (pinv @ L - (I - J)) @ x for the fixed x, from the dense L; a perturbed
    # pinv shows its perturbation applied to L @ x.
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n, extra_edges=int(rng.integers(0, n)), weighted_nodes=True)
    state = build_pseudoinverse(g)
    L, J = laplacian_matrix(g), weighted_projector(state.weights)
    x = np.linspace(-1.0, 1.0, n)
    assert probe_residual(state, g) <= 1e-12
    state.pinv = state.pinv + 1e-6 * rng.standard_normal((n, n))
    dense = np.abs((state.pinv @ L - (np.eye(n) - J)) @ x).max()
    assert probe_residual(state, g) == pytest.approx(dense, rel=1e-6)
    assert dense > 1e-9


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
        woodbury_reweight(state, edge_rows(state, u, v), w * ratio)
    fresh = build_pseudoinverse(g)
    np.testing.assert_allclose(state.pinv, fresh.pinv, atol=1e-9)


def test_woodbury_deletion_matches_rebuild():
    g = unit_triangle()
    state = build_pseudoinverse(g)
    woodbury_reweight(state, edge_rows(state, 0, 1), -1.0)
    g.delete_edge(g.edge_between(0, 1))
    np.testing.assert_allclose(state.pinv, build_pseudoinverse(g).pinv, atol=1e-10)


def test_bridge_deletion_raises():
    g = weighted_path4()
    state = build_pseudoinverse(g)
    with pytest.raises(SingularUpdateError):
        woodbury_reweight(state, edge_rows(state, 1, 2), -2.0)


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


def _restrict_to(state: PseudoinverseState, g: WeightedGraph) -> PseudoinverseState:
    # Merge the bound nodes of a lifted state onto the contracted graph `g`.
    return restrict(state, g.nodes(), [g.node_weight(u) for u in g.nodes()])


def test_restrict_after_lift_gives_back_the_reduced_build():
    g = random_connected_graph(np.random.default_rng(12), 20, 15, weighted_nodes=True)
    original = np.array([g.node_weight(u) for u in g.nodes()])
    cmap = ContractionMap.identity(g.nodes())
    for eid in g.independent_edge_set(np.random.default_rng(1))[:6]:
        rec = g.contract_edge(eid)
        cmap.merge(rec.survivor, rec.removed)
    reduced = build_pseudoinverse(g)
    lifted = lift(reduced.pinv, cmap, reduced.nodes, reduced.weights, original)
    state = PseudoinverseState(cmap.originals, original, lifted)
    restrict(state, reduced.nodes, reduced.weights)
    assert state.nodes == reduced.nodes
    assert np.array_equal(state.weights, reduced.weights)
    np.testing.assert_allclose(state.pinv, reduced.pinv, rtol=0, atol=1e-14)


def _weighted_torus(side: int) -> WeightedGraph:
    # A side x side torus with spread edge weights and unequal node weights.
    g = torus(side, side, weight_law="exp-uniform:-1,1", rng=np.random.default_rng(4))
    for u, w in zip(g.nodes(), np.random.default_rng(5).uniform(0.5, 3.0, g.n_nodes)):
        g.add_node(u, float(w))
    return g


def _peak_bytes(call) -> int:
    # Peak traced allocation of `call()` beyond what was resident before it.
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("k", [0, 1, 63, 64, 65, 200])
def test_update_norm_in_row_blocks_is_bit_equal_to_one_product(k):
    g = _weighted_torus(16)  # n = 256
    state = build_pseudoinverse(g)
    P, nodes = state.pinv, np.array(state.nodes)
    eids = np.random.default_rng(k).permutation(g.edge_ids())[:k]
    u, v, w = g.edge_columns(eids.tolist())
    iu, iv = np.searchsorted(nodes, u), np.searchsorted(nodes, v)
    one_product = w * (np.square(P[iu] - P[iv]) @ (1.0 / state.weights))
    assert np.array_equal(update_norm(state, u, v, w), one_product)
    if k:
        first = w[0] * (np.square(P[iu[:1]] - P[iv[:1]]) @ (1.0 / state.weights))
        assert update_norm(state, int(u[0]), int(v[0]), float(w[0])) == float(first[0])


def test_update_norm_scratch_is_a_row_block_not_a_copy_per_edge():
    g = _weighted_torus(30)  # n = 900
    state = build_pseudoinverse(g)
    eids = g.independent_edge_set(np.random.default_rng(0))
    assert len(eids) >= g.n_nodes // 3
    u, v, w = g.edge_columns(eids)
    peak = _peak_bytes(lambda: update_norm(state, u, v, w))
    assert peak < state.pinv.nbytes / 4


def test_restrict_compacts_into_the_buffer_it_was_given():
    g = _weighted_torus(30)
    state = build_pseudoinverse(g)
    buffer, weights = state.pinv, state.weights
    expected_rows = state.pinv[::2, ::2].copy()
    kept, merged = list(state.nodes[::2]), 2.0 * weights[::2]
    peak = _peak_bytes(lambda: restrict(state, kept, merged))
    s = len(kept)
    assert peak < s * s * 8
    assert state.pinv.shape == (s, s) and np.shares_memory(state.pinv, buffer)
    expected_rows *= merged / weights[::2]
    assert np.array_equal(state.pinv, expected_rows)
    assert state.nodes == tuple(kept) and np.array_equal(state.weights, merged)


@pytest.mark.parametrize(
    "nodes, weights",
    [([5, 4, 3, 2, 1, 0], [1.0] * 6), ([0, 1, 2], [2.0]), ([0, 0, 2], [1.0] * 3),
     ([0, 2, 4], [[1.0], [1.0], [1.0]])],
    ids=["descending", "one-weight", "duplicate", "weight-column"],
)
def test_restrict_wants_ascending_ids_and_one_weight_each(nodes, weights):
    state = build_pseudoinverse(cycle(6))
    before = state.pinv.copy()
    with pytest.raises(ValueError, match="strictly ascending"):
        restrict(state, nodes, weights)
    assert state.n == 6 and np.array_equal(state.pinv, before)


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
        woodbury_reweight(batched, edge_rows(batched, u, v), delta)
        for _, a, b, d in changes:
            woodbury_reweight(stepped, edge_rows(stepped, a, b), d)
    if records:
        contraction_update(batched, records)
        for rec in records:
            contraction_update(stepped, rec)

    fresh = build_pseudoinverse(g)
    assert batched.nodes == stepped.nodes == fresh.nodes
    np.testing.assert_array_equal(batched.weights, fresh.weights)
    np.testing.assert_allclose(batched.pinv, stepped.pinv, rtol=0, atol=1e-10)
    np.testing.assert_allclose(batched.pinv, fresh.pinv, rtol=0, atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_mixed_batch_is_one_update(seed):
    # Contraction is the delta_w = +inf limit of a reweight, so a round's
    # reweights, deletions and contractions, in any order, are one call.
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
        edge_rows(
            mixed, np.r_[[r.survivor for r in records], u], np.r_[[r.removed for r in records], v]
        ),
        np.r_[np.full(len(records), np.inf), delta],
    )
    _restrict_to(mixed, g)
    woodbury_reweight(two_batch, edge_rows(two_batch, u, v), delta)
    contraction_update(two_batch, records)

    fresh = build_pseudoinverse(g)
    assert mixed.nodes == two_batch.nodes == fresh.nodes
    np.testing.assert_array_equal(mixed.weights, two_batch.weights)
    np.testing.assert_array_equal(mixed.weights, fresh.weights)
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
    pinv, nodes, weights = state.pinv.copy(), state.nodes, state.weights.copy()
    with pytest.raises(SingularUpdateError, match=r"edge \(2, 3\)"):
        woodbury_reweight(state, edge_rows(state, [0, 2, 4], [1, 3, 5]), [0.5, -2.0, -0.5])
    assert np.array_equal(state.pinv, pinv)
    assert state.nodes == nodes
    assert np.array_equal(state.weights, weights)


@pytest.mark.parametrize(
    "u, v, delta",
    [([2, 4, 0], [3, 5, 1], [-2.0, -0.5, np.inf]),
     ([0, 2, 4], [1, 3, 5], [np.inf, -2.0, -0.5])],
    ids=["contraction-last", "contraction-first"],
)
def test_mixed_batch_with_bridge_deletion_raises_before_compaction(u, v, delta):
    state = build_pseudoinverse(_bridged_triangles())
    pinv, nodes, weights = state.pinv.copy(), state.nodes, state.weights.copy()
    with pytest.raises(SingularUpdateError, match=r"edge \(2, 3\): update denominator"):
        woodbury_reweight(state, edge_rows(state, u, v), delta)
    assert state.pinv.shape == pinv.shape and np.array_equal(state.pinv, pinv)
    assert state.nodes == nodes
    assert np.array_equal(state.weights, weights)


def test_array_reads_match_scalar_reads_and_definitions():
    rng = np.random.default_rng(11)
    g = random_connected_graph(rng, 14, extra_edges=18, weighted_nodes=True)
    state = build_pseudoinverse(g)
    P, wn = state.pinv, state.weights
    eids = g.edge_ids()
    u, v, w = g.edge_columns(eids)
    lev = edge_leverage(state, u, v, w)
    norms = update_norm(state, u, v, w)
    res = edge_leverage(state, u, v, 1.0)
    assert lev.shape == norms.shape == res.shape == (len(eids),)
    for i, eid in enumerate(eids):
        a, b, we = g.edge(eid)
        assert lev[i] == edge_leverage(state, a, b, we)
        # The norm's row sums may round differently in a batch.
        assert norms[i] == pytest.approx(update_norm(state, a, b, we), rel=1e-14)
        assert res[i] == edge_leverage(state, a, b, 1.0)
        # The definitions: y = pinv W_n^{-1} b, z = b^T pinv.
        bvec = np.zeros(state.n)
        bvec[state.nodes.index(a)], bvec[state.nodes.index(b)] = 1.0, -1.0
        y = P @ (bvec / wn)
        z = bvec @ P
        assert res[i] == pytest.approx(bvec @ y, rel=1e-12)
        assert norms[i] == pytest.approx(we * (z @ y), rel=1e-12)


def _path_with_chords(n: int) -> WeightedGraph:
    # The path 0 - 1 - ... - n-1 plus chords, with unequal node weights.
    rng = np.random.default_rng(6)
    g = WeightedGraph.from_edges([(i, i + 1, float(rng.uniform(0.5, 2.0))) for i in range(n - 1)])
    for i in range(0, n - 3, 3):
        g.add_edge(i, i + 3, float(rng.uniform(0.5, 2.0)))
    for u in g.nodes():
        g.add_node(u, float(rng.uniform(0.5, 3.0)))
    return g


N_SLOTS = 70
# (survivor, removed) pairs whose removed slots sit at 0, at n-1, next to
# each other, all of these at once, three in a row in the middle (36 is
# joined to 33 by a chord), and every other slot of the middle third.
SLOT_CASES = {
    "first": [(1, 0)],
    "last": [(N_SLOTS - 2, N_SLOTS - 1)],
    "adjacent": [(2, 3), (5, 4)],
    "first-adjacent-last": [(1, 0), (2, 3), (5, 4), (N_SLOTS - 2, N_SLOTS - 1)],
    "middle-run": [(34, 35), (33, 36), (38, 37)],
    "alternating": [(r - 1, r) for r in range(N_SLOTS // 3 + 1, 2 * N_SLOTS // 3, 2)],
}


@pytest.mark.parametrize("pairs", SLOT_CASES.values(), ids=SLOT_CASES.keys())
def test_slot_compaction_is_the_ix_gather(pairs):
    # `restrict` at unchanged weights is the plain gather.
    state = build_pseudoinverse(_path_with_chords(N_SLOTS))
    pinv, weights, nodes = state.pinv.copy(), state.weights.copy(), state.nodes
    removed = np.array([v for _, v in pairs])
    kept = np.setdiff1d(np.arange(N_SLOTS), removed)
    restrict(state, [nodes[i] for i in kept], weights[kept])
    assert np.array_equal(state.pinv, pinv[np.ix_(kept, kept)])
    assert np.array_equal(state.weights, weights[kept])
    assert state.nodes == tuple(nodes[i] for i in kept)
    # Rows are found by binary search, which needs strictly ascending ids,
    # in the id array that `restrict` derives along with `nodes`.
    assert all(a < b for a, b in zip(state.nodes, state.nodes[1:]))
    assert state.ids.dtype == np.intp and state.ids.tolist() == list(state.nodes)


@pytest.mark.parametrize("pairs", SLOT_CASES.values(), ids=SLOT_CASES.keys())
def test_contraction_at_edge_slots_matches_rebuild(pairs):
    # The graph keeps the smaller id of each pair, the bind whichever it is
    # given; `restrict` reads the graph's survivor, and both rows are equal.
    g = _path_with_chords(N_SLOTS)
    state = build_pseudoinverse(g)
    survivors, removed = zip(*pairs)
    woodbury_reweight(state, edge_rows(state, list(survivors), list(removed)), np.inf)
    for u, v in pairs:
        g.contract_edge(g.edge_between(u, v))
    _restrict_to(state, g)
    fresh = build_pseudoinverse(g)
    assert state.n == fresh.n == N_SLOTS - len(pairs)
    np.testing.assert_array_equal(state.weights, fresh.weights)
    np.testing.assert_allclose(state.pinv, fresh.pinv, rtol=0, atol=1e-10)


def test_a_bind_keeps_the_nodes_and_makes_the_pair_rows_equal():
    g = _path_with_chords(N_SLOTS)
    state = build_pseudoinverse(g)
    nodes, weights = state.nodes, state.weights.copy()
    pairs = SLOT_CASES["first-adjacent-last"]
    u, v = (np.array(col) for col in zip(*pairs))
    woodbury_reweight(state, edge_rows(state, u, v), [np.inf, 0.5, np.inf, -0.25])
    assert state.n == N_SLOTS and state.nodes == nodes
    assert np.array_equal(state.weights, weights)
    bound = [0, 2]
    gap = state.pinv[u[bound]] - state.pinv[v[bound]]
    assert np.abs(gap).max() <= 1e-12 * np.abs(state.pinv).max()


def _fortran(pinv):
    return np.asfortranarray(pinv)


def _strided_view(pinv):
    holder = np.zeros((2 * len(pinv), 2 * len(pinv)))
    holder[::2, ::2] = pinv
    return holder[::2, ::2]


@pytest.mark.parametrize("layout", [_fortran, _strided_view], ids=["fortran", "strided-view"])
@pytest.mark.parametrize("contract", [False, True], ids=["reweights", "with-contraction"])
def test_update_of_any_pinv_layout_matches_c_order(layout, contract):
    # BLAS works on a copy of a pinv that is not C-ordered; the update must
    # still land in the state.
    rng = np.random.default_rng(4)
    g = random_connected_graph(rng, 40, extra_edges=40, weighted_nodes=True)
    reference, other = build_pseudoinverse(g), build_pseudoinverse(g)
    other.pinv = layout(other.pinv)
    assert not other.pinv.flags.c_contiguous
    u, v, w = g.edge_columns(g.independent_edge_set(rng))
    delta = w * rng.uniform(-0.5, 1.0, size=len(w))
    if contract:
        delta[0] = np.inf
    before = reference.pinv.copy()
    woodbury_reweight(reference, edge_rows(reference, u, v), delta)
    woodbury_reweight(other, edge_rows(other, u, v), delta)
    assert other.nodes == reference.nodes
    scale = np.abs(reference.pinv).max()
    np.testing.assert_allclose(other.pinv, reference.pinv, rtol=0, atol=1e-14 * scale)
    if not contract:
        assert np.abs(reference.pinv - before).max() > 1e-3 * scale


def _even_ids_cycle() -> WeightedGraph:
    # A cycle over the even ids 0, 2, ..., 10; no odd id is a node.
    return WeightedGraph.from_edges([(i, (i + 2) % 12, 1.0) for i in range(0, 12, 2)])


@pytest.mark.parametrize("u, v, missing", [(4, 7, 7), (-1, 0, -1), (10, 11, 11)])
@pytest.mark.parametrize("read", [edge_leverage, update_norm, edge_rows])
def test_unknown_node_id_raises_and_leaves_state_unchanged(read, u, v, missing):
    # 7 sits between two ids, -1 before the first and 11 past the last; none
    # may be read as a neighbouring row. `edge_rows` is the update's one read.
    state = build_pseudoinverse(_even_ids_cycle())
    pinv, nodes, weights = state.pinv.copy(), state.nodes, state.weights.copy()
    weight = () if read is edge_rows else (0.5,)
    for ends in [(u, v), ([0, u], [2, v])]:
        with pytest.raises(KeyError, match=rf"\[{missing}\]"):
            read(state, *ends, *weight)
    assert np.array_equal(state.pinv, pinv)
    assert state.nodes == nodes
    assert np.array_equal(state.weights, weights)


def test_zero_delta_rows_change_nothing():
    rng = np.random.default_rng(8)
    g = random_connected_graph(rng, 16, extra_edges=14, weighted_nodes=True)
    u, v, w = g.edge_columns(g.independent_edge_set(rng)[:4])
    delta = np.array([0.5, 0.0, np.inf, 0.0]) * w
    with_zeros, without = build_pseudoinverse(g), build_pseudoinverse(g)
    woodbury_reweight(with_zeros, edge_rows(with_zeros, u, v), delta)
    acts = delta != 0.0
    woodbury_reweight(without, edge_rows(without, u[acts], v[acts]), delta[acts])
    assert with_zeros.nodes == without.nodes
    assert np.array_equal(with_zeros.weights, without.weights)
    assert np.array_equal(with_zeros.pinv, without.pinv)
    # A batch of zero rows only is a no-op.
    pinv = without.pinv.copy()
    woodbury_reweight(without, edge_rows(without, u[:2], v[:2]), 0.0)
    assert np.array_equal(without.pinv, pinv)


def test_long_mixed_chain_stays_symmetric_and_matches_rebuild():
    # Rounds of reweights, deletions and contractions as one batch each; the
    # update reads rows only, so it leans on pinv W_n^{-1} staying symmetric.
    rng = np.random.default_rng(21)
    g = random_connected_graph(rng, 80, extra_edges=160, weighted_nodes=True)
    state = build_pseudoinverse(g)
    rounds = 0
    while g.n_nodes > 12:
        changes, contract = _matched_actions(rng, g)
        records = _edit_graph(g, changes, contract)
        rows = edge_rows(
            state,
            [c[1] for c in changes] + [r.survivor for r in records],
            [c[2] for c in changes] + [r.removed for r in records],
        )
        woodbury_reweight(state, rows, [c[3] for c in changes] + [np.inf] * len(records))
        rounds += 1
    assert rounds >= 12
    assert state.n == 80
    sym = state.pinv / state.weights
    assert np.abs(sym - sym.T).max() <= 1e-13 * np.abs(sym).max()
    _restrict_to(state, g)
    fresh = build_pseudoinverse(g)
    assert state.nodes == fresh.nodes
    np.testing.assert_allclose(state.weights, fresh.weights, rtol=1e-14)
    np.testing.assert_allclose(state.pinv, fresh.pinv, rtol=0, atol=1e-12)


def test_an_exact_reduction_makes_no_numpy_linalg_call(monkeypatch):
    # The update takes its k x k inverse from scipy's LAPACK; a numpy.linalg
    # call in the loop would run on numpy's own BLAS pool.
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg called during an exact reduction")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    monkeypatch.setattr(np.linalg, "inv", refuse)
    result = reduce_graph(
        _weighted_torus(8), NodeBudget(24), ReductionConfig(priority=Priority.NODES), seed=0
    )
    assert all(result.trace.totals().values())  # deleted, contracted and reweighted
    assert result.trace.drift <= 1e-12


@pytest.mark.parametrize("gap", [1e-5, 1e-7])
def test_near_bridge_deletion_with_a_contraction_matches_rebuild(gap):
    # Node 16 hangs off 0 by a unit edge and reaches 5 only through a path of
    # resistance ~1/gap, so deleting (0, 16) has leverage ~1 - gap and pinv
    # grows to ~1/gap. The batch also reweights (9, 10) and contracts (6, 7).
    g = torus(4, 4)
    for u in g.nodes():
        g.add_node(u, 1.0 + 0.25 * (u % 3))
    g.add_edge(0, 16, 1.0)
    g.add_edge(16, 17, 1.0)
    g.add_edge(17, 5, gap)
    state = build_pseudoinverse(g)
    assert 1.0 - edge_leverage(state, 0, 16, 1.0) == pytest.approx(gap, rel=0.01)
    rows = edge_rows(state, [0, 9, 6], [16, 10, 7])
    woodbury_reweight(state, rows, [-1.0, 0.5, np.inf])
    g.delete_edge(g.edge_between(0, 16))
    g.set_edge_weight(g.edge_between(9, 10), 1.5)
    g.contract_edge(g.edge_between(6, 7))
    _restrict_to(state, g)
    fresh = build_pseudoinverse(g)
    # Rounding grows like the capacitance's condition number, ~1/gap: both a
    # k x k inverse and numpy's pivoted solve of C stay near 3e-9 at gap 1e-7.
    scale = np.abs(fresh.pinv).max()
    assert scale > 0.5 / gap
    assert np.abs(state.pinv - fresh.pinv).max() <= 1e-7 * scale
