"""Node-weighted Laplacians, their pseudoinverses, and rank-k maintenance.

The operator of interest for a graph with edge-weight matrix W_e, node-weight
matrix W_n and signed incidence B is W_n^{-1} B^T W_e B. Its pseudoinverse is
obtained through the rank-one correction J = ones * w_n^T / sum(w_n):

    pinv = inv(L + J) - J,            L @ pinv = pinv @ L = I - J.

Changing the weights of k node-disjoint edges by D = diag(delta_w) is one
rank-k Woodbury update, pinv -= Y (I + D Omega)^{-1} D Z with Y = pinv W_n^{-1}
B, Z = B^T pinv and the k x k capacitance built from Omega = B^T Y; deletion
is delta_w = -weight. Contracting k such edges is the infinite-weight limit of
that update, pinv -= Y Omega^{-1} Z, followed by merging each pair's rows and
columns and one compaction. Both updates are exact, so a long chain of them
agrees with recomputation up to float drift; callers are expected to rebuild
periodically (see `REBUILD_INTERVAL`).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Sequence

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
]

# Dense rebuild cadence used by incremental consumers to bound float drift,
# in rank applied since the last build (`PseudoinverseState.updates`).
REBUILD_INTERVAL = 512

IDENTITY_TOL = 1e-8


class DisconnectedGraphError(ValueError):
    """The operation needs a connected graph."""


class SingularUpdateError(ValueError):
    """An update with a non-positive denominator was requested.

    Deleting a bridge is the canonical way to get here: its leverage is 1, so
    the deletion denominator 1 - w * resistance vanishes. In a rank-k update
    the denominators are those of its k rank-one steps taken in order; the
    message names the node pair of the first that fails.
    """


@dataclass
class PseudoinverseState:
    """Dense pseudoinverse of a graph's node-weighted Laplacian.

    `nodes` fixes the row/column ordering of `pinv`; `weights` holds the node
    weights in that order. `estimated_error` accumulates the expected squared
    Frobenius error of the probabilistic updates applied so far (maintained by
    the reducer, not by this module). `updates` counts the rank applied since
    the last dense build: a batch of k reweights or contractions adds k.
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


def _positions(state: PseudoinverseState, u, v) -> tuple[np.ndarray, np.ndarray]:
    # Row positions of the endpoint ids, which may be scalars or arrays.
    index = state.index
    iu = np.array([index[a] for a in np.atleast_1d(u).tolist()], dtype=np.intp)
    iv = np.array([index[b] for b in np.atleast_1d(v).tolist()], dtype=np.intp)
    return iu, iv


def _like(u, values: np.ndarray):
    # A float for scalar endpoints, the array for arrays of endpoints.
    return float(values[0]) if np.ndim(u) == 0 else values


def _resistances(state: PseudoinverseState, iu: np.ndarray, iv: np.ndarray) -> np.ndarray:
    # b^T pinv W_n^{-1} b from the four entries of pinv each pair touches.
    P, w = state.pinv, state.weights
    return (P[iu, iu] / w[iu] - P[iu, iv] / w[iv]) - (
        P[iv, iu] / w[iu] - P[iv, iv] / w[iv]
    )


def _gaps(state: PseudoinverseState, iu: np.ndarray, iv: np.ndarray):
    # Y = pinv W_n^{-1} B (n x k) and Z = B^T pinv (k x n) for the incidence
    # columns B of the pairs; Omega = B^T Y is then Y[iu] - Y[iv].
    P, w = state.pinv, state.weights
    return P[:, iu] / w[iu] - P[:, iv] / w[iv], P[iu, :] - P[iv, :]


def _check_pivots(
    state: PseudoinverseState, iu: np.ndarray, iv: np.ndarray, A: np.ndarray,
    floor: float, describe,
) -> None:
    """Raise SingularUpdateError unless every pivot of A exceeds `floor`.

    The pivots of unpivoted elimination on the capacitance matrix A are the
    denominators the rank-one steps would meet, applied one after another in
    row order. The first that fails is named by its node pair.
    """
    A = np.array(A, dtype=float)
    for j in range(len(A)):
        pivot = A[j, j]
        if not pivot > floor:
            pair = (state.nodes[iu[j]], state.nodes[iv[j]])
            raise SingularUpdateError(f"edge {pair}: {describe(j, pivot)}")
        A[j + 1 :, j + 1 :] -= np.outer(A[j + 1 :, j], A[j, j + 1 :] / pivot)


def effective_resistance(state: PseudoinverseState, u, v):
    """Node-weighted effective resistance b^T pinv W_n^{-1} b of node pairs.

    `u` and `v` are node ids or equal-length arrays of them; a float comes
    back for scalars, an array for arrays.
    """
    return _like(u, _resistances(state, *_positions(state, u, v)))


def edge_leverage(state: PseudoinverseState, u, v, weight):
    """weight * resistance; lies in (0, 1] for graph edges, 1 iff bridge.

    Takes scalars or equal-length arrays, as `effective_resistance` does.
    """
    iu, iv = _positions(state, u, v)
    return _like(u, np.asarray(weight, dtype=float) * _resistances(state, iu, iv))


def update_norm(state: PseudoinverseState, u, v, weight):
    """Frobenius norm of the rank-one pseudoinverse update matrix of an edge.

    Equals weight * b^T pinv pinv W_n^{-1} b; multiplied by the update scalar
    it gives the Frobenius norm of the pseudoinverse change of any single
    action on the edge (measured in the lifted/original index space). Takes
    scalars or equal-length arrays, as `effective_resistance` does.

    pinv W_n^{-1} is symmetric, so pinv W_n^{-1} b = W_n^{-1} (b^T pinv)^T and
    the norm needs only the rows z = b^T pinv: weight * sum(z**2 / w_n).
    """
    iu, iv = _positions(state, u, v)
    Z = state.pinv[iu, :] - state.pinv[iv, :]
    return _like(u, np.asarray(weight, dtype=float) * (np.square(Z) @ (1.0 / state.weights)))


def woodbury_reweight(
    state: PseudoinverseState, u, v, delta_w
) -> PseudoinverseState:
    """Apply the pseudoinverse update for edge weight changes delta_w.

    `u`, `v` and `delta_w` are scalars or equal-length arrays of node-disjoint
    pairs; k pairs are one rank-k Woodbury update

        pinv -= Y (I + D Omega)^{-1} D Z,    D = diag(delta_w).

    Mutates `state` in place (and returns it). The graph itself is updated by
    the caller; `delta_w = -weight` realizes a deletion. A bridge deletion
    makes a denominator vanish and raises SingularUpdateError before `state`
    is touched.
    """
    iu, iv = _positions(state, u, v)
    delta = np.broadcast_to(np.asarray(delta_w, dtype=float), iu.shape)
    Y, Z = _gaps(state, iu, iv)
    capacitance = np.eye(len(iu)) + delta[:, None] * (Y[iu] - Y[iv])
    _check_pivots(
        state, iu, iv, capacitance, 1e-12,
        lambda j, denom: (
            f"update denominator {denom:.3e} <= 0 for delta_w={delta[j]}; "
            "deleting a bridge or overshooting a high-leverage edge"
        ),
    )
    state.pinv -= Y @ np.linalg.solve(capacitance, delta[:, None] * Z)
    state.updates += len(iu)
    return state


def contraction_update(
    state: PseudoinverseState, records: ContractionRecord | Sequence[ContractionRecord]
) -> PseudoinverseState:
    """Shrink the pseudoinverse after the graph contractions in `records`.

    Takes one record or a sequence of node-disjoint ones. Applies the
    infinite-weight limit of the reweight update, pinv -= Y Omega^{-1} Z,
    then merges each pair's node slots: rows by node-weighted average (they
    are equal in exact arithmetic at the limit), columns by sum; one gather
    drops the removed slots. Mutates and returns `state`.
    """
    if isinstance(records, ContractionRecord):
        records = [records]
    iu, iv = _positions(
        state, [r.survivor for r in records], [r.removed for r in records]
    )
    Y, Z = _gaps(state, iu, iv)
    omega = Y[iu] - Y[iv]
    _check_pivots(
        state, iu, iv, omega, 0.0,
        lambda j, res: f"non-positive resistance {res:.3e}",
    )
    P = state.pinv
    P -= Y @ np.linalg.solve(omega, Z)

    wu, wv = state.weights[iu, None], state.weights[iv, None]
    P[iu, :] = (wu * P[iu, :] + wv * P[iv, :]) / (wu + wv)
    P[:, iu] += P[:, iv]
    weights = state.weights.copy()
    weights[iu] += weights[iv]
    keep = np.ones(state.n, dtype=bool)
    keep[iv] = False
    kept = np.flatnonzero(keep)
    state.pinv = P[np.ix_(kept, kept)]
    state.weights = weights[kept]
    state.nodes = tuple(state.nodes[i] for i in kept)
    state.index = {u: i for i, u in enumerate(state.nodes)}
    state.updates += len(iu)
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
