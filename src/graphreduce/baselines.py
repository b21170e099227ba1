"""Reference reduction methods used for comparisons.

Spectral sparsification by leverage sampling and multilevel matching
coarsening, the two standard points of reference for the unified reducer.
"""

from __future__ import annotations

import numpy as np

from .graph import ContractionMap, WeightedGraph, _check_count
from .laplacian import build_pseudoinverse, edge_leverage


def leverage_probabilities(g: WeightedGraph) -> tuple[list[int], np.ndarray]:
    """Edge ids and their normalized leverage sampling probabilities."""
    state = build_pseudoinverse(g)
    eids = g.edge_ids()
    lev = edge_leverage(state, *g.edge_columns(eids))
    return eids, lev / lev.sum()


def ss_sparsify(
    g: WeightedGraph, n_samples: int, rng: np.random.Generator
) -> WeightedGraph:
    """Leverage-score sparsifier: sample edges with replacement, reweight.

    Each of the `n_samples` draws picks edge e with probability proportional
    to its leverage and contributes w_e / (n p_e) to its weight, so the
    expected Laplacian is the original one. All nodes are kept; the result
    may be disconnected, which callers can observe via is_connected().
    """
    _check_count("n_samples", n_samples, 1)
    eids, probs = leverage_probabilities(g)
    counts = rng.multinomial(n_samples, probs)
    out = WeightedGraph()
    for u in g.nodes():
        out.add_node(u, g.node_weight(u))
    for eid, p_e, count in zip(eids, probs, counts):
        if count == 0:
            continue
        u, v, w = g.edge(eid)
        out.add_edge(u, v, count * w / (n_samples * p_e))
    return out


def _expected_distinct(probs: np.ndarray, n_samples: int) -> float:
    return float(np.sum(1.0 - (1.0 - probs) ** n_samples))


def expected_distinct_edges(g: WeightedGraph, n_samples: int) -> float:
    """Expected number of distinct edges kept by ss_sparsify."""
    return _expected_distinct(leverage_probabilities(g)[1], n_samples)


def samples_for_edge_target(g: WeightedGraph, target_edges: int) -> int:
    """Smallest sample count whose expected distinct-edge yield hits target."""
    _check_count("target_edges", target_edges, 1)
    if target_edges > g.n_edges:
        raise ValueError(f"target must be in [1, {g.n_edges}], got {target_edges}")
    _, probs = leverage_probabilities(g)
    hi = 1
    while _expected_distinct(probs, hi) < target_edges:
        hi *= 2
        if hi > 1 << 40:
            raise RuntimeError("edge target unreachable by sampling")
    lo = hi // 2 if hi > 1 else 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _expected_distinct(probs, mid) >= target_edges:
            hi = mid
        else:
            lo = mid
    return hi


def _heavy_edge_matching(
    g: WeightedGraph, rng: np.random.Generator
) -> list[int]:
    """Maximal matching greedily preferring heavier edges, random tie order."""
    shuffled = rng.permutation(g.edge_ids())
    heaviest_first = np.argsort(-g.edge_columns(shuffled)[2], kind="stable")
    return g.greedy_matching(shuffled[heaviest_first])


def matching_coarsen(
    g: WeightedGraph,
    strategy: str = "random",
    levels: int = 1,
    rng: np.random.Generator | None = None,
    target_nodes: int | None = None,
) -> tuple[WeightedGraph, ContractionMap]:
    """Coarsen by contracting a matching per level.

    strategy "random" contracts a uniformly grown maximal matching,
    "heavy-edge" prefers heavier edges. With `target_nodes`, levels repeat
    (ignoring `levels`) and contraction stops mid-level once the node count
    reaches the target.
    """
    if strategy not in ("random", "heavy-edge"):
        raise ValueError(f"unknown strategy {strategy!r}")
    _check_count("levels", levels, 0)
    if target_nodes is not None:
        _check_count("target_nodes", target_nodes, 1)
    if rng is None:
        rng = np.random.default_rng()
    out = g.copy()
    cmap = ContractionMap.identity(out.nodes())

    def done() -> bool:
        return target_nodes is not None and out.n_nodes <= target_nodes

    level = 0
    while not done():
        if target_nodes is None and level >= levels:
            break
        if strategy == "random":
            matched = out.independent_edge_set(rng)
        else:
            matched = _heavy_edge_matching(out, rng)
        if not matched:
            break
        for eid in matched:
            rec = out.contract_edge(eid)
            cmap.merge(rec.survivor, rec.removed)
            if done():
                break
        level += 1
    return out, cmap
