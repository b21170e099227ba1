"""Untimed output checks, the reference pseudoinverse, and output digests."""

from __future__ import annotations

import hashlib
import math

import numpy as np

from graphreduce.laplacian import IDENTITY_TOL, identity_residual, lift


def reference_pinv(g) -> np.ndarray:
    """Pseudoinverse of W_n^{-1} B^T W_e B, assembled here from the edge list.

    Uses inv(L + J) - J like the library, but shares none of its assembly
    code, so a fault in the library's Laplacian would show as an error.
    """
    nodes = g.nodes()
    index = {u: i for i, u in enumerate(nodes)}
    edges = [g.edge(e) for e in g.edge_ids()]
    a = np.array([index[u] for u, _, _ in edges])
    b = np.array([index[v] for _, v, _ in edges])
    w = np.array([w for _, _, w in edges])
    wn = np.array([g.node_weight(u) for u in nodes])
    n = len(nodes)
    s = np.zeros((n, n))
    np.add.at(s, (a, a), w)
    np.add.at(s, (b, b), w)
    np.add.at(s, (a, b), -w)
    np.add.at(s, (b, a), -w)
    j = np.outer(np.ones(n), wn) / wn.sum()
    return np.linalg.inv(s / wn[:, None] + j) - j


def lifted_pinv(result) -> np.ndarray:
    nodes = result.graph.nodes()
    weights = np.array([result.graph.node_weight(u) for u in nodes])
    return lift(result.state.pinv, result.cmap, nodes, weights)


def squared_error(result, reference: np.ndarray) -> float:
    """Realized ||lift(result pinv) - original pinv||_F^2."""
    return float(np.sum((lifted_pinv(result) - reference) ** 2))


def output_problems(original, result, stop) -> list[str]:
    """Every way `result` violates the reduction's invariants; empty if none."""
    g, cmap, problems = result.graph, result.cmap, []
    if not g.is_connected():
        problems.append("reduced graph is disconnected")
    if not math.isclose(
        g.total_node_weight(), original.total_node_weight(), rel_tol=1e-12
    ):
        problems.append("total node weight not conserved")
    groups = cmap.groups()
    if set(groups) != set(g.nodes()):
        problems.append("cmap supernodes differ from the graph's nodes")
    else:
        for sup, members in groups.items():
            total = math.fsum(original.node_weight(o) for o in members)
            if not math.isclose(total, g.node_weight(sup), rel_tol=1e-12):
                problems.append(f"cmap group {sup} disagrees with its node weight")
                break
    residual = identity_residual(result.state, g)
    if not residual <= IDENTITY_TOL:
        problems.append(f"identity residual {residual:.3e} > {IDENTITY_TOL:g}")
    if not stop.done(g, result.state.estimated_error):
        problems.append(f"{stop} not met")
    if result.trace.stopped_by != type(stop).__name__:
        problems.append(f"stopped by {result.trace.stopped_by!r}, not {stop}")
    return problems


def edge_list(g) -> list[tuple[int, int, int, float]]:
    return [(e, *g.edge(e)) for e in g.edge_ids()]


def digest(result) -> str:
    """sha256 of the final edge list, node weights and contraction map."""
    g, cmap = result.graph, result.cmap
    text = repr((
        edge_list(g),
        [(u, g.node_weight(u)) for u in g.nodes()],
        [(o, cmap.assignment[o]) for o in cmap.originals],
    ))
    return hashlib.sha256(text.encode()).hexdigest()


def same_output(a, b) -> bool:
    """Bit-identical graphs, contraction maps and pseudoinverses."""
    return (
        digest(a) == digest(b)
        and a.state.nodes == b.state.nodes
        and np.array_equal(a.state.pinv, b.state.pinv)
    )


def reducer_counts(result) -> dict[str, float]:
    """Counts read from the reduction's own trace; they repeat for a seed."""
    records = result.trace.records
    matched = sum(r.matched for r in records)
    iterations = len(records)
    redraws = sum(r.redraws for r in records)
    return {
        "reducer.iterations": iterations,
        "reducer.redraws": redraws,
        "reducer.kept_frac": sum(r.selected for r in records) / max(matched, 1),
        "reducer.redraw_frac": redraws / max(iterations, 1),
        **{f"reducer.{k}": v for k, v in result.trace.totals().items()},
    }
