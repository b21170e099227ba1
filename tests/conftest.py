import numpy as np

import graphreduce.reducer as reducer
from graphreduce.graph import WeightedGraph


def count_dense_builds(monkeypatch) -> list[int]:
    """Patch `reducer.build_pseudoinverse`, the reduction's one dense build,
    for the input (exact mode) and for `ReductionResult.state`; returns the
    list to which each build appends its n."""
    built = []
    real = reducer.build_pseudoinverse

    def counting(g):
        built.append(g.n_nodes)
        return real(g)

    monkeypatch.setattr(reducer, "build_pseudoinverse", counting)
    return built


def random_connected_graph(
    rng: np.random.Generator,
    n: int,
    extra_edges: int = 0,
    weighted_nodes: bool = False,
    weight_range=(0.5, 2.0),
) -> WeightedGraph:
    """Random spanning tree plus extra edges; optionally non-unit node weights."""
    g = WeightedGraph()
    lo, hi = weight_range
    for v in range(1, n):
        u = int(rng.integers(v))
        g.add_edge(u, v, float(rng.uniform(lo, hi)))
    added = 0
    attempts = 0
    while added < extra_edges and attempts < 50 * (extra_edges + 1):
        attempts += 1
        u, v = rng.integers(n, size=2)
        if u == v or g.edge_between(int(u), int(v)) is not None:
            continue
        g.add_edge(int(u), int(v), float(rng.uniform(lo, hi)))
        added += 1
    if weighted_nodes:
        for u in g.nodes():
            g.add_node(u, float(rng.uniform(0.5, 3.0)))
    return g


def edge_laplacian(g: WeightedGraph) -> np.ndarray:
    """Dense edge-weighted Laplacian B^T W_e B in ascending node order,
    summed edge by edge; shares no code with the library's assembly."""
    order = g.nodes()
    idx = {u: i for i, u in enumerate(order)}
    nn = len(order)
    S = np.zeros((nn, nn))
    for eid in g.edge_ids():
        u, v, w = g.edge(eid)
        iu, iv = idx[u], idx[v]
        S[iu, iu] += w
        S[iv, iv] += w
        S[iu, iv] -= w
        S[iv, iu] -= w
    return S


def pinv_by_eigen(g: WeightedGraph) -> np.ndarray:
    """Independent pseudoinverse oracle via the symmetrized eigenproblem.

    Diagonalizes W^{1/2} L W^{-1/2}, inverts the nonzero eigenvalues, and maps
    back; shares no code path with the rank-one-correction construction.
    """
    S = edge_laplacian(g)
    wn = np.array([g.node_weight(u) for u in g.nodes()])
    d = np.sqrt(wn)
    sym = S / d[:, None] / d[None, :]
    vals, vecs = np.linalg.eigh(sym)
    inv = np.where(vals > 1e-10 * vals.max(), 1.0 / np.where(vals > 0, vals, 1.0), 0.0)
    sym_pinv = (vecs * inv) @ vecs.T
    return sym_pinv / d[:, None] * d[None, :]
