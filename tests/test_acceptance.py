"""End-to-end checks of the library's externally visible guarantees.

Each test pins one deliverable behavior with explicit tolerances and a wall
clock budget: golden pseudoinverse matrices, agreement between the closed-form
action solver and its brute-force oracle, unbiasedness of single-edge actions,
calibration of the running error estimate, quality against the sampling and
matching baselines, sketched measurement accuracy, the distance-implies-ratio
guarantee, incremental update fidelity, bridge safety, and robustness to the
selection fraction. Run with -v to get one pass/fail line per guarantee.
"""

import math
import time

import numpy as np

from graphreduce.action import (
    EdgeQuantities,
    Priority,
    optimal_action,
    regime_thresholds,
)
from graphreduce.baselines import matching_coarsen, samples_for_edge_target, ss_sparsify
from graphreduce.generators import generate, path
from graphreduce.graph import ContractionMap, WeightedGraph
from graphreduce.laplacian import (
    build_pseudoinverse,
    contraction_update,
    edge_leverage,
    edge_rows,
    laplacian_matrix,
    lift,
    update_norm,
    woodbury_reweight,
)
from graphreduce.metrics import check_sigma_approx, hyperbolic_distance
from graphreduce.reducer import (
    EdgeBudget,
    NodeBudget,
    ReductionConfig,
    reduce_graph,
)
from graphreduce.sketch import SketchEstimator
from tests.conftest import random_connected_graph
from tests.oracle import action_cost, grid_search_action

GOLDEN_TOL = 1e-10

# Pseudoinverse of the 4-path with weights (1, 2, 1); its middle-edge
# contraction (node weights become 1, 2, 1); and the contraction expanded
# back to four slots. All three verified by hand, entries on a 1/8 scale.
PATH4_PINV = np.array(
    [
        [6.0, 0.0, -2.0, -4.0],
        [0.0, 2.0, 0.0, -2.0],
        [-2.0, 0.0, 2.0, 0.0],
        [-4.0, -2.0, 0.0, 6.0],
    ]
) / 8.0
CONTRACTED_PINV = np.array(
    [
        [5.0, -2.0, -3.0],
        [-1.0, 2.0, -1.0],
        [-3.0, -2.0, 5.0],
    ]
) / 8.0
LIFTED_PINV = np.array(
    [
        [5.0, -1.0, -1.0, -3.0],
        [-1.0, 1.0, 1.0, -1.0],
        [-1.0, 1.0, 1.0, -1.0],
        [-3.0, -1.0, -1.0, 5.0],
    ]
) / 8.0


def _lifted_result_pinv(result) -> np.ndarray:
    nodes = result.graph.nodes()
    weights = np.array([result.graph.node_weight(u) for u in nodes])
    return lift(result.state.pinv, result.cmap, nodes, weights)


def _fiedler_vector(g: WeightedGraph) -> np.ndarray:
    # second eigenvector of the symmetrized operator, mapped back so it is
    # orthogonal to the weighted constant direction
    nodes = g.nodes()
    w = np.array([g.node_weight(u) for u in nodes])
    lap = laplacian_matrix(g)
    w_sqrt = np.sqrt(w)
    sym = w_sqrt[:, None] * lap / w_sqrt[None, :]
    sym = 0.5 * (sym + sym.T)
    _, vecs = np.linalg.eigh(sym)
    return vecs[:, 1] / w_sqrt


def test_01_pseudoinverse_contraction_and_lift_reproduce_goldens():
    t0 = time.perf_counter()
    g = WeightedGraph.from_edges([(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0)])
    state = build_pseudoinverse(g)
    np.testing.assert_allclose(state.pinv, PATH4_PINV, atol=GOLDEN_TOL)

    cmap = ContractionMap.identity(g.nodes())
    rec = g.contract_edge(g.edge_between(1, 2))
    contraction_update(state, rec)
    cmap.merge(rec.survivor, rec.removed)
    np.testing.assert_allclose(state.pinv, CONTRACTED_PINV, atol=GOLDEN_TOL)

    lifted = lift(state.pinv, cmap, state.nodes, state.weights)
    np.testing.assert_allclose(lifted, LIFTED_PINV, atol=GOLDEN_TOL)
    assert time.perf_counter() - t0 < 1.0


def _margin_tuple(rng: np.random.Generator) -> tuple[EdgeQuantities, float]:
    """Random edge quantities plus a beta at least 5% away from every regime
    boundary, far enough that grid quantization cannot blur the comparison."""
    while True:
        x = float(rng.uniform(0.02, 0.98))
        m = float(np.exp(rng.uniform(-1.5, 1.5)))
        tri = int(rng.integers(0, 4))
        pri = Priority.EDGES if rng.random() < 0.5 else Priority.NODES
        eq = EdgeQuantities(x, m, tri, pri)
        th = regime_thresholds(eq)
        beta = float(th.saturation * np.exp(rng.uniform(-3.0, 1.5)))
        bounds = [
            t
            for t in (th.onset_delete, th.onset_contract, th.saturation)
            if math.isfinite(t)
        ]
        if min(abs(beta / t - 1.0) for t in bounds) > 0.05:
            return eq, beta


def test_02_closed_form_action_matches_grid_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20)
    seen = set()
    for _ in range(1000):
        eq, beta = _margin_tuple(rng)
        dist = optimal_action(eq, beta)
        oracle_dist, oracle_cost = grid_search_action(eq, beta, grid_n=2000)
        assert dist.regime is oracle_dist.regime, (eq, beta, dist, oracle_dist)
        cost = action_cost(eq, dist, beta)
        rel = abs(cost - oracle_cost) / max(abs(oracle_cost), 1e-12)
        assert rel <= 1e-4, (eq, beta, cost, oracle_cost)
        seen.add(dist.regime)
    assert len(seen) == 3  # the tuple distribution exercises every regime
    assert time.perf_counter() - t0 < 120.0


def test_03_single_edge_action_is_unbiased():
    t0 = time.perf_counter()
    g = WeightedGraph.from_edges([(0, 1), (1, 2), (0, 2)])
    base = build_pseudoinverse(g)
    target = base.pinv.copy()
    eq = EdgeQuantities(
        leverage=edge_leverage(base, 0, 1, 1.0),
        update_norm=update_norm(base, 0, 1, 1.0),
        triangles=1,
    )
    dist = optimal_action(eq, 10.0)

    reps = 10_000
    rng = np.random.default_rng(2026)
    total = np.zeros((3, 3))
    total_sq = np.zeros((3, 3))
    for _ in range(reps):
        draw = rng.random()
        h = g.copy()
        state = build_pseudoinverse(h)
        cmap = ContractionMap.identity(h.nodes())
        if draw < dist.p_delete:
            h.delete_edge(h.edge_between(0, 1))
            woodbury_reweight(state, edge_rows(state, 0, 1), -1.0)
        elif draw < dist.p_delete + dist.p_contract:
            rec = h.contract_edge(h.edge_between(0, 1))
            contraction_update(state, rec)
            cmap.merge(rec.survivor, rec.removed)
        else:
            woodbury_reweight(state, edge_rows(state, 0, 1), dist.reweight_ratio)
        lifted = lift(state.pinv, cmap, state.nodes, state.weights)
        total += lifted
        total_sq += lifted**2

    mean = total / reps
    var = (total_sq - reps * mean**2) / (reps - 1)
    se = np.sqrt(np.maximum(var, 0.0) / reps)
    gap = np.abs(mean - target)
    assert np.all(gap <= 4.0 * se + 1e-15), (gap, se)
    assert time.perf_counter() - t0 < 60.0


def test_04_error_estimate_is_calibrated():
    t0 = time.perf_counter()
    g = generate("er", {"n": 64, "p": 0.125}, seed=0)
    target_pinv = build_pseudoinverse(g).pinv
    budget = EdgeBudget(math.ceil(0.5 * g.n_edges))
    config = ReductionConfig(keep_fraction=1 / 16, target_reduction=0.25)
    trues, estimates = [], []
    for run in range(32):
        result = reduce_graph(g, budget, config, seed=run)
        lifted = _lifted_result_pinv(result)
        trues.append(float(np.sum((lifted - target_pinv) ** 2)))
        estimates.append(result.state.estimated_error)
    ratio = float(np.mean(trues) / np.mean(estimates))
    print(f"mean true error / mean estimate: {ratio:.3f}")
    assert ratio <= 1.2, ratio  # estimate is not optimistic
    assert ratio >= 0.3, ratio  # and not vacuously inflated
    assert time.perf_counter() - t0 < 300.0


def test_05_sparsification_no_worse_than_sampling_baseline():
    t0 = time.perf_counter()
    g = generate("sbm", {"n": 256, "k": 4, "p_in": 0.25, "p_out": 2**-6}, seed=1)
    target_pinv = build_pseudoinverse(g).pinv
    fiedler = _fiedler_vector(g)
    target_edges = math.ceil(0.5 * g.n_edges)
    config = ReductionConfig(
        keep_fraction=1 / 16, target_reduction=0.25, allow_contraction=False
    )
    ours, baseline = [], []
    for run in range(16):
        result = reduce_graph(g, EdgeBudget(target_edges), config, seed=run)
        ours.append(
            hyperbolic_distance(
                target_pinv, build_pseudoinverse(result.graph).pinv, fiedler
            )
        )
    n_samples = samples_for_edge_target(g, target_edges)
    for run in range(16):
        h = ss_sparsify(g, n_samples, rng=np.random.default_rng(run))
        baseline.append(
            hyperbolic_distance(target_pinv, build_pseudoinverse(h).pinv, fiedler)
        )
    print(f"ours {np.mean(ours):.4f} vs sampling baseline {np.mean(baseline):.4f}")
    assert np.mean(ours) <= np.mean(baseline)
    assert time.perf_counter() - t0 < 600.0


def test_06_coarsening_no_worse_than_random_matching():
    t0 = time.perf_counter()
    g = generate("triangular-lattice", {"rows": 30, "cols": 30}, seed=None)
    target_pinv = build_pseudoinverse(g).pinv
    fiedler = _fiedler_vector(g)
    config = ReductionConfig(
        keep_fraction=1 / 16, target_reduction=0.25, priority=Priority.NODES
    )
    ours, baseline = [], []
    for run in range(16):
        result = reduce_graph(g, NodeBudget(450), config, seed=run)
        ours.append(hyperbolic_distance(target_pinv, _lifted_result_pinv(result), fiedler))
    for run in range(16):
        h, cmap = matching_coarsen(
            g, "random", rng=np.random.default_rng(run), target_nodes=450
        )
        nodes = h.nodes()
        weights = np.array([h.node_weight(u) for u in nodes])
        lifted = lift(build_pseudoinverse(h).pinv, cmap, nodes, weights)
        baseline.append(hyperbolic_distance(target_pinv, lifted, fiedler))
    print(f"ours {np.mean(ours):.4f} vs random matching {np.mean(baseline):.4f}")
    assert np.mean(ours) <= np.mean(baseline)
    assert time.perf_counter() - t0 < 600.0


def test_07_sketched_update_norms_accurate_at_33_probes():
    t0 = time.perf_counter()
    rng_w = np.random.default_rng(0)
    g = generate("torus", {"rows": 16, "cols": 16}, seed=None)
    for eid in g.edge_ids():
        g.set_edge_weight(eid, float(np.exp(rng_w.uniform(-2.0, 2.0))))
    state = build_pseudoinverse(g)
    exact = {
        eid: update_norm(state, *g.endpoints(eid), g.edge_weight(eid))
        for eid in g.edge_ids()
    }
    estimator = SketchEstimator.build(g, n_probes=33, rng=np.random.default_rng(0))
    _, norms = estimator.measure(g, g.edge_ids())
    ratios = norms / np.array([exact[eid] for eid in g.edge_ids()])
    within = (ratios >= 1.0 / 1.5) & (ratios <= 1.5)
    fraction = float(within.mean())
    print(f"fraction of edges within factor 1.5 at 33 probes: {fraction:.4f}")
    assert fraction >= 0.95, fraction
    assert time.perf_counter() - t0 < 120.0


def test_08_distance_premise_implies_quadratic_form_ratio():
    t0 = time.perf_counter()
    sigma = 1.3
    for pair in range(20):
        rng = np.random.default_rng(1000 + pair)
        g = random_connected_graph(rng, 24, extra_edges=40)
        a = laplacian_matrix(g)
        h = g.copy()
        for eid in h.edge_ids():
            h.set_edge_weight(eid, h.edge_weight(eid) * float(rng.uniform(0.9, 1.1)))
        b = laplacian_matrix(h)
        vectors = rng.standard_normal((24, 100_000))
        report = check_sigma_approx(a, b, vectors, sigma, node_weights=np.ones(24))
        assert report.n_premise > 0
        assert report.ok, (pair, report.violation_indices[:5])
    assert time.perf_counter() - t0 < 120.0


def test_09_incremental_updates_track_full_recomputation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    g = None
    state = None
    for _ in range(100):
        if g is None or g.n_edges == 0 or g.n_nodes < 3:
            n = int(rng.integers(4, 9))
            g = random_connected_graph(
                rng, n, extra_edges=int(rng.integers(0, n)), weighted_nodes=True
            )
            state = build_pseudoinverse(g)
        eid = g.edge_ids()[int(rng.integers(g.n_edges))]
        u, v, w = g.edge(eid)
        if rng.random() < 0.5:
            # factor >= 0.3 keeps the update scalar's denominator away from 0
            delta = w * float(rng.uniform(0.3, 2.0) - 1.0)
            g.set_edge_weight(eid, w + delta)
            woodbury_reweight(state, edge_rows(state, u, v), delta)
        else:
            rec = g.contract_edge(eid)
            contraction_update(state, rec)
        fresh = build_pseudoinverse(g)
        gap = np.linalg.norm(state.pinv - fresh.pinv)
        assert gap <= 1e-8 * max(np.linalg.norm(fresh.pinv), 1e-12)
    assert time.perf_counter() - t0 < 60.0


def test_10_trees_reduce_without_deletions_and_stay_connected():
    t0 = time.perf_counter()
    node_config = ReductionConfig(priority=Priority.NODES)
    for g in (path(4), random_connected_graph(np.random.default_rng(5), 32)):
        result = reduce_graph(g, NodeBudget(1), node_config, seed=3)
        assert result.trace.totals()["deleted"] == 0
        assert result.graph.n_nodes == 1

    g = generate("er", {"n": 64, "p": 0.125}, seed=0)
    budget = EdgeBudget(math.ceil(0.1 * g.n_edges))
    config = ReductionConfig(keep_fraction=1 / 16, target_reduction=0.25)
    for run in range(32):
        result = reduce_graph(g, budget, config, seed=run)
        assert result.graph.is_connected(), run
    assert time.perf_counter() - t0 < 180.0


def test_11_small_keep_fraction_costs_at_most_2x():
    t0 = time.perf_counter()
    g = generate("er", {"n": 64, "p": 0.125}, seed=0)
    target_pinv = build_pseudoinverse(g).pinv
    fiedler = _fiedler_vector(g)
    budget = EdgeBudget(math.ceil(0.5 * g.n_edges))

    def mean_distance(keep_fraction: float, seed0: int) -> float:
        config = ReductionConfig(keep_fraction=keep_fraction, target_reduction=0.25)
        values = []
        for run in range(8):
            result = reduce_graph(g, budget, config, seed=seed0 + run)
            values.append(
                hyperbolic_distance(target_pinv, _lifted_result_pinv(result), fiedler)
            )
        return float(np.mean(values))

    coarse = mean_distance(1 / 16, 100)
    # a vanishing fraction keeps exactly one edge per iteration
    single = mean_distance(1e-9, 200)
    ratio = coarse / single
    print(f"distance at keep fraction 1/16: {coarse:.4f}, single edge: {single:.4f}")
    assert 0.5 <= ratio <= 2.0, ratio
    assert time.perf_counter() - t0 < 600.0
