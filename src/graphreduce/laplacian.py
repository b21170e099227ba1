"""Node-weighted Laplacians, their pseudoinverses, and rank-one maintenance.

The operator of interest for a graph with edge-weight matrix W_e, node-weight
matrix W_n and signed incidence B is W_n^{-1} B^T W_e B. Its pseudoinverse is
obtained through the rank-one correction J = ones * w_n^T / sum(w_n):

    pinv = inv(L + J) - J,            L @ pinv = pinv @ L = I - J.

A reweighted edge changes the pseudoinverse by a rank-one term with a scalar
denominator (Sherman-Morrison); contraction is the infinite-weight limit of
that update followed by merging the two rows/columns. Both updates are exact,
so a long chain of them agrees with recomputation up to float drift; callers
are expected to rebuild periodically (see `REBUILD_INTERVAL`).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .graph import ContractionMap, ContractionRecord, WeightedGraph

__all__ = [
    "DisconnectedGraphError",
    "SingularUpdateError",
    "PseudoinverseState",
    "REBUILD_INTERVAL",
    "laplacian_matrix",
    "weighted_projector",
    "build_pseudoinverse",
    "effective_resistance",
    "edge_leverage",
    "update_norm",
    "woodbury_reweight",
    "contraction_update",
    "lift",
    "identity_residual",
    "save_matrix_csv",
    "save_matrix_json",
]

# Dense rebuild cadence used by incremental consumers to bound float drift.
REBUILD_INTERVAL = 512

IDENTITY_TOL = 1e-8


class DisconnectedGraphError(ValueError):
    """The operation needs a connected graph."""


class SingularUpdateError(ValueError):
    """A rank-one update with non-positive denominator was requested.

    Deleting a bridge is the canonical way to get here: its leverage is 1, so
    the deletion denominator 1 - w * resistance vanishes.
    """


@dataclass
class PseudoinverseState:
    """Dense pseudoinverse of a graph's node-weighted Laplacian.

    `nodes` fixes the row/column ordering of `pinv`; `weights` holds the node
    weights in that order. `estimated_error` accumulates the expected squared
    Frobenius error of the probabilistic updates applied so far (maintained by
    the reducer, not by this module). `updates` counts rank-one updates since
    the last dense build.
    """

    nodes: tuple[int, ...]
    weights: np.ndarray
    pinv: np.ndarray
    estimated_error: float = 0.0
    updates: int = 0
    index: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.index:
            self.index = {u: i for i, u in enumerate(self.nodes)}

    @property
    def n(self) -> int:
        return len(self.nodes)


def laplacian_matrix(g: WeightedGraph, nodes=None) -> np.ndarray:
    """Dense W_n^{-1} B^T W_e B in the given (default: ascending) node order."""
    ends, w, wn = g.edge_arrays(nodes)
    n = len(wn)
    S = np.zeros((n, n))
    iu, iv = ends.T
    S[iu, iv] = -w
    S[iv, iu] = -w
    # add.at sums each diagonal entry edge by edge in edge-id order, so the
    # rounding is that of the seeded goldens.
    flat = ends.ravel()
    np.add.at(S, (flat, flat), np.repeat(w, 2))
    return S / wn[:, None]


def weighted_projector(weights: np.ndarray) -> np.ndarray:
    """Rank-one projector ones * w^T / sum(w) onto the kernel direction."""
    w = np.asarray(weights, dtype=float)
    return np.outer(np.ones(len(w)), w) / w.sum()


def build_pseudoinverse(g: WeightedGraph) -> PseudoinverseState:
    """Dense pseudoinverse of a connected graph's node-weighted Laplacian."""
    if g.n_nodes == 0:
        raise ValueError("empty graph")
    if not g.is_connected():
        raise DisconnectedGraphError("pseudoinverse requires a connected graph")
    order = g.nodes()
    wn = np.array([g.node_weight(u) for u in order])
    L = laplacian_matrix(g, order)
    J = weighted_projector(wn)
    try:
        P = np.linalg.inv(L + J) - J
    except np.linalg.LinAlgError as exc:  # pragma: no cover - inv of L+J is
        raise SingularUpdateError(f"L + J not invertible: {exc}") from exc
    return PseudoinverseState(nodes=tuple(order), weights=wn, pinv=P)


def _column_gap(state: PseudoinverseState, iu: int, iv: int) -> np.ndarray:
    # P W_n^{-1} b for the incidence vector b of (u, v).
    P, w = state.pinv, state.weights
    return P[:, iu] / w[iu] - P[:, iv] / w[iv]


def effective_resistance(state: PseudoinverseState, u: int, v: int) -> float:
    """Node-weighted effective resistance b^T pinv W_n^{-1} b of a node pair."""
    iu, iv = state.index[u], state.index[v]
    y = _column_gap(state, iu, iv)
    return float(y[iu] - y[iv])


def edge_leverage(state: PseudoinverseState, u: int, v: int, weight: float) -> float:
    """weight * resistance; lies in (0, 1] for graph edges, 1 iff bridge."""
    return weight * effective_resistance(state, u, v)


def update_norm(state: PseudoinverseState, u: int, v: int, weight: float) -> float:
    """Frobenius norm of the rank-one pseudoinverse update matrix of an edge.

    Equals weight * b^T pinv pinv W_n^{-1} b; multiplied by the update scalar
    it gives the Frobenius norm of the pseudoinverse change of any single
    action on the edge (measured in the lifted/original index space).
    """
    iu, iv = state.index[u], state.index[v]
    y = _column_gap(state, iu, iv)
    z = state.pinv[iu, :] - state.pinv[iv, :]
    return float(weight * (z @ y))


def woodbury_reweight(
    state: PseudoinverseState, u: int, v: int, delta_w: float
) -> PseudoinverseState:
    """Apply the rank-one pseudoinverse update for edge weight change delta_w.

    Mutates `state` in place (and returns it). The graph itself is updated by
    the caller; `delta_w = -weight` realizes a deletion and raises
    SingularUpdateError on a bridge, where the denominator vanishes.
    """
    iu, iv = state.index[u], state.index[v]
    y = _column_gap(state, iu, iv)
    omega = y[iu] - y[iv]
    denom = 1.0 + delta_w * omega
    if denom <= 1e-12:
        raise SingularUpdateError(
            f"update denominator {denom:.3e} <= 0 for delta_w={delta_w}; "
            "deleting a bridge or overshooting a high-leverage edge"
        )
    z = state.pinv[iu, :] - state.pinv[iv, :]
    state.pinv -= (delta_w / denom) * np.outer(y, z)
    state.updates += 1
    return state


def contraction_update(
    state: PseudoinverseState, record: ContractionRecord
) -> PseudoinverseState:
    """Shrink the pseudoinverse after the graph contraction in `record`.

    Applies the infinite-weight limit of the reweight update, then merges the
    two node slots: rows by node-weighted average (they are equal in exact
    arithmetic at the limit), columns by sum. Mutates and returns `state`.
    """
    iu = state.index[record.survivor]
    iv = state.index[record.removed]
    y = _column_gap(state, iu, iv)
    omega = y[iu] - y[iv]
    if omega <= 0:
        raise SingularUpdateError(f"non-positive resistance {omega:.3e}")
    z = state.pinv[iu, :] - state.pinv[iv, :]
    P = state.pinv - np.outer(y, z) / omega

    wu, wv = state.weights[iu], state.weights[iv]
    P[iu, :] = (wu * P[iu, :] + wv * P[iv, :]) / (wu + wv)
    P[:, iu] += P[:, iv]
    keep = [i for i in range(state.n) if i != iv]
    state.pinv = P[np.ix_(keep, keep)]
    state.weights = state.weights[keep]
    state.nodes = tuple(u for u in state.nodes if u != record.removed)
    state.index = {u: i for i, u in enumerate(state.nodes)}
    state.weights[state.index[record.survivor]] += wv
    state.updates += 1
    return state


def lift(
    matrix: np.ndarray,
    cmap: ContractionMap,
    reduced_nodes,
    reduced_weights: np.ndarray,
    original_weights: np.ndarray | None = None,
) -> np.ndarray:
    """Expand a reduced-graph operator back to the original index space.

    `matrix` acts on the reduced nodes (rows/columns in `reduced_nodes` order,
    node weights `reduced_weights` in the same order). The lifted operator is
    C^T A W_r^{-1} C W_o: copy values up, average down. With unit original
    weights (the default) this leaves merged rows and columns identical.
    Original node order is `cmap.originals`.
    """
    reduced = list(reduced_nodes)
    pos = {u: i for i, u in enumerate(reduced)}
    wr = np.asarray(reduced_weights, dtype=float)
    assign = np.array([pos[cmap.assignment[o]] for o in cmap.originals])
    scaled = matrix / wr[None, :]
    lifted = scaled[np.ix_(assign, assign)]
    if original_weights is not None:
        lifted = lifted * np.asarray(original_weights, dtype=float)[None, :]
    return lifted


def identity_residual(state: PseudoinverseState, g: WeightedGraph) -> float:
    """Max-entry residual of pinv @ L = I - J; small for a healthy state."""
    L = laplacian_matrix(g, state.nodes)
    J = weighted_projector(state.weights)
    eye = np.eye(state.n)
    return float(np.abs(state.pinv @ L - (eye - J)).max())


def save_matrix_csv(path, matrix: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in np.asarray(matrix):
            writer.writerow([repr(float(x)) for x in row])


def save_matrix_json(path, matrix: np.ndarray, nodes=None) -> None:
    payload = {"data": np.asarray(matrix).tolist()}
    if nodes is not None:
        payload["nodes"] = [int(u) for u in nodes]
    with open(path, "w") as fh:
        json.dump(payload, fh)
