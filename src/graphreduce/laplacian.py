"""Node-weighted Laplacians, their pseudoinverses, and rank-k maintenance.

The operator of interest for a graph with edge-weight matrix W_e, node-weight
matrix W_n and signed incidence B is W_n^{-1} B^T W_e B. It is assembled only
here, from one read of the graph into R = W_e^{1/2} B W_n^{-1/2} (see
`weighted_incidence`). Its pseudoinverse, with J = ones * w_n^T / sum(w_n),
satisfies L @ pinv = pinv @ L = I - J and equals inv(L + J) - J. It is built
in the symmetrized basis: with Lhat = R^T R and the unit kernel vector
what = w_n^{1/2} / sqrt(sum(w_n)), A = Lhat + what what^T is positive
definite, a Cholesky factor gives inv(A) = pinv(Lhat) + what what^T in place,
and pinv = W_n^{-1/2} inv(A) W_n^{1/2} - J.

Changing the weights of k node-disjoint edges by D = diag(delta_w) is one
rank-k Woodbury update, pinv -= Y (D^{-1} + Omega)^{-1} Z, read from the k
rows Z = B^T pinv alone: pinv W_n^{-1} is symmetric, so Y = pinv W_n^{-1} B =
(Z W_n^{-1})^T, and Omega = B^T Y, whose diagonal times the edge weights is
their leverage. `edge_rows` reads them once and `woodbury_reweight` updates
from that read. Deletion is delta_w = -weight; contraction is delta_w = +inf,
where pinv stays finite and D^{-1} reads 1/inf = 0. So one batch mixes all
three, and one k x k inverse and two BLAS products, the second accumulated
into pinv in place, apply it. A contraction only binds: the state keeps its
nodes, pinv becomes the contracted graph's lifted pseudoinverse (see `lift`),
whose reads are the contracted graph's, and `restrict` merges the bound pairs
whenever a smaller state is wanted; the reducer does so during a run, as its
graph shrinks, and once at the end. The update is exact, so a long chain of
them agrees with recomputation up to float drift, which `probe_residual`
measures in one n^2 product. Exact mode's working set is one n x n matrix, a
rank-k update's k x n rows and a block of 64 rows, in which the build,
`update_norm` and `restrict` (which compacts into the same buffer) each work.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.linalg import blas, lapack
from scipy.sparse import csgraph

from .graph import ContractionMap, ContractionRecord, WeightedGraph

__all__ = [
    "DisconnectedGraphError",
    "SingularUpdateError",
    "PseudoinverseState",
    "weighted_incidence",
    "symmetrized_laplacian",
    "laplacian_matrix",
    "weighted_projector",
    "build_pseudoinverse",
    "edge_leverage",
    "update_norm",
    "EdgeRows",
    "edge_rows",
    "woodbury_reweight",
    "contraction_update",
    "restrict",
    "lift",
    "identity_residual",
    "probe_residual",
    "save_matrix_csv",
]

IDENTITY_TOL = 1e-8
_ROW_BLOCK = 64  # rows per block; 64 rows of n <= a few thousand fit in L2


class DisconnectedGraphError(ValueError):
    """The operation needs a connected graph."""


class SingularUpdateError(ValueError):
    """An update with a non-positive denominator was requested.

    Deleting a bridge is the canonical way to get here: its leverage is 1, so
    the deletion denominator 1 - w * resistance vanishes. In a rank-k update
    the denominators are those of its k rank-one steps taken in order; the
    message names the node pair of the first that fails. A dense build
    raises it when rounding leaves L + J numerically indefinite, a sketch
    build when its grounded factor is exactly singular.
    """


@dataclass
class PseudoinverseState:
    """Dense pseudoinverse of a graph's node-weighted Laplacian.

    `nodes` holds the node ids in ascending order, searched for an id's
    row/column of `pinv`; `weights` holds the node weights in that order.
    Both stay as built through every `woodbury_reweight`, so after a bind
    `pinv` is the contracted graph's lifted pseudoinverse until `restrict`,
    the one place `nodes` changes. `ids` is `nodes` as an array, derived
    when the state is made and again by `restrict`.
    `estimated_error` accumulates the expected squared Frobenius error of the
    probabilistic updates so far (kept by the reducer, not by this module).
    """

    nodes: tuple[int, ...]
    weights: np.ndarray
    pinv: np.ndarray
    estimated_error: float = 0.0
    ids: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.ids = np.fromiter(self.nodes, np.intp, len(self.nodes))

    @property
    def n(self) -> int:
        return len(self.nodes)


def weighted_incidence(g: WeightedGraph):
    """Sparse R = W_e^{1/2} B W_n^{-1/2} and the node weight square roots.

    Rows are edges in edge-id order, columns nodes in ascending id order, as
    `WeightedGraph.edge_arrays` lays them out. Lhat = R^T R,
    W_n^{-1} B^T W_e B = W_n^{-1/2} Lhat W_n^{1/2} and the sketch's edge
    probe rows Q R all derive from it.
    """
    ends, w, wn = g.edge_arrays()
    w_sqrt = np.sqrt(wn)
    vals = np.sqrt(w)[:, None] / w_sqrt[ends] * [1.0, -1.0]
    indptr = np.arange(0, 2 * len(w) + 1, 2)
    R = sp.csr_matrix((vals.ravel(), ends.ravel(), indptr), shape=(len(w), len(wn)))
    return R, w_sqrt


def symmetrized_laplacian(g: WeightedGraph):
    """Sparse Lhat = R^T R and the node weight square roots."""
    R, w_sqrt = weighted_incidence(g)
    return (R.T @ R).tocsr(), w_sqrt


def laplacian_matrix(g: WeightedGraph) -> np.ndarray:
    """Dense W_n^{-1} B^T W_e B in ascending node order."""
    lhat, w_sqrt = symmetrized_laplacian(g)
    L = lhat.toarray()
    L /= w_sqrt[:, None]
    L *= w_sqrt
    return L


def weighted_projector(weights: np.ndarray) -> np.ndarray:
    """Rank-one projector ones * w^T / sum(w) onto the kernel direction."""
    w = np.asarray(weights, dtype=float)
    return np.outer(np.ones(len(w)), w) / w.sum()


def build_pseudoinverse(g: WeightedGraph) -> PseudoinverseState:
    """Dense pseudoinverse of a connected graph's node-weighted Laplacian.

    Factors A = Lhat + what what^T by Cholesky and inverts it in place (see
    the module docstring); raises DisconnectedGraphError when Lhat's sparsity
    pattern has more than one component, and SingularUpdateError if rounding
    leaves A numerically indefinite, as extreme edge weight ratios can.
    """
    if g.n_nodes == 0:
        raise ValueError("empty graph")
    lhat, w_sqrt = symmetrized_laplacian(g)
    if csgraph.connected_components(lhat, directed=False)[0] > 1:
        raise DisconnectedGraphError("pseudoinverse requires a connected graph")
    order = g.nodes()
    wn = np.array([g.node_weight(u) for u in order])
    what = w_sqrt / np.sqrt(wn.sum())
    A = np.outer(what, what)
    lhat = lhat.tocoo()
    A[lhat.row, lhat.col] += lhat.data
    # A.T is A's F-ordered view, so LAPACK factors and inverts in place; the
    # upper triangle it reads and writes is A's lower one.
    c, info = lapack.dpotrf(A.T, lower=0, clean=0, overwrite_a=1)
    if not info:
        c, info = lapack.dpotri(c, lower=0, overwrite_c=1)
    if info:
        raise SingularUpdateError(f"L + J is not positive definite (LAPACK info {info})")
    A = c.T
    _lower_inverse_to_pinv(A, w_sqrt, wn / wn.sum())
    return PseudoinverseState(nodes=tuple(order), weights=wn, pinv=A)


def _lower_inverse_to_pinv(A: np.ndarray, d: np.ndarray, j_row: np.ndarray) -> None:
    # From inv(A) in A's lower triangle, A := D^{-1} inv(A) D - J in place with
    # D = diag(d) and every row of J equal to j_row. Row blocks are finished
    # top down, each copying its upper part from the rows below it, which
    # are still untouched; a block stays in a core's L2 cache while it is
    # mirrored, scaled and shifted.
    n, step = len(A), _ROW_BLOCK
    for i0 in range(0, n, step):
        i1 = min(i0 + step, n)
        rows = A[i0:i1]
        rows[:, i1:] = A[i1:, i0:i1].T
        block = rows[:, i0:i1]
        block[...] = np.tril(block) + np.tril(block, -1).T
        rows *= d
        rows /= d[i0:i1, None]
        rows -= j_row


def _node_slots(nodes: np.ndarray, ids) -> np.ndarray:
    # Positions of node ids, a scalar or an array, in the ascending `nodes`.
    ids = np.atleast_1d(ids)
    at = np.searchsorted(nodes, ids)
    missing = nodes.take(at, mode="clip") != ids
    if missing.any():
        raise KeyError(f"node ids {ids[missing].tolist()} are not in the state")
    return at


def _positions(state: PseudoinverseState, u, v) -> tuple[np.ndarray, np.ndarray]:
    return _node_slots(state.ids, u), _node_slots(state.ids, v)


def _like(u, values: np.ndarray):
    # A float for scalar endpoints, the array for arrays of endpoints.
    return float(values[0]) if np.ndim(u) == 0 else values


def _resistances(state: PseudoinverseState, iu: np.ndarray, iv: np.ndarray) -> np.ndarray:
    # b^T pinv W_n^{-1} b from the four entries of pinv each pair touches.
    P, w = state.pinv, state.weights
    return (P[iu, iu] / w[iu] - P[iu, iv] / w[iv]) - (
        P[iv, iu] / w[iu] - P[iv, iv] / w[iv]
    )


def _check_pivots(
    state: PseudoinverseState, iu: np.ndarray, iv: np.ndarray, A: np.ndarray,
    delta: np.ndarray,
) -> None:
    """Raise SingularUpdateError unless every pivot of A clears its row's floor.

    A is the capacitance D^{-1} + Omega. Its pivots in unpivoted elimination,
    times delta_w on a finite row, are the denominators the rank-one steps
    meet in row order: 1 + delta_w * resistance on a reweight row, which must
    exceed 1e-12, and on a contraction row (1/delta_w = 0) the resistance,
    which must exceed 0. The first that fails is named by its node pair.
    It precedes one k x k inverse and two BLAS products, which name no edge.
    """
    A, delta = np.array(A, dtype=float), delta.tolist()
    for j in range(len(A)):
        contract = delta[j] == np.inf
        pivot = A[j, j] if contract else delta[j] * A[j, j]
        if not pivot > (0.0 if contract else 1e-12):
            pair = (state.nodes[iu[j]], state.nodes[iv[j]])
            problem = (
                f"non-positive resistance {pivot:.3e}" if contract else
                f"update denominator {pivot:.3e} <= 0 for delta_w={delta[j]}; "
                "deleting a bridge or overshooting a high-leverage edge"
            )
            raise SingularUpdateError(f"edge {pair}: {problem}")
        A[j + 1 :, j + 1 :] -= A[j + 1 :, j, None] * (A[j, j + 1 :] / A[j, j])


def edge_leverage(state: PseudoinverseState, u, v, weight):
    """weight * b^T pinv W_n^{-1} b, the node-weighted effective resistance
    of the pair scaled by `weight`; lies in (0, 1] for graph edges, 1 iff
    bridge. A weight of 1 gives the resistance itself.

    `u`, `v` and `weight` are scalars or equal-length arrays; a float comes
    back for scalar endpoints, an array for arrays.
    """
    iu, iv = _positions(state, u, v)
    return _like(u, np.asarray(weight, dtype=float) * _resistances(state, iu, iv))


def update_norm(state: PseudoinverseState, u, v, weight):
    """Frobenius norm of the rank-one pseudoinverse update matrix of an edge.

    Equals weight * b^T pinv pinv W_n^{-1} b; multiplied by the update scalar
    it gives the Frobenius norm of the pseudoinverse change of any single
    action on the edge (measured in the lifted/original index space). Takes
    scalars or equal-length arrays, as `edge_leverage` does.

    pinv W_n^{-1} is symmetric, so pinv W_n^{-1} b = W_n^{-1} (b^T pinv)^T and
    the norm needs only the rows z = b^T pinv: weight * sum(z**2 / w_n),
    formed 64 edges at a time. `restrict` reuses the state's buffer, so
    `pinv` may be a view of a larger one.
    """
    iu, iv = _positions(state, u, v)
    sums, inv_w = np.empty(len(iu)), 1.0 / state.weights
    # A lone last row joins the block before it, as numpy sums one row by ddot.
    ends = [*range(0, max(len(iu) - 1, 1), _ROW_BLOCK), len(iu)]
    for i0, i1 in zip(ends, ends[1:]):
        Z = state.pinv[iu[i0:i1]]
        Z -= state.pinv[iv[i0:i1]]
        sums[i0:i1] = np.square(Z, out=Z) @ inv_w
    return _like(u, np.asarray(weight, dtype=float) * sums)


@dataclass(frozen=True)
class EdgeRows:
    """The k-space rows of k node-disjoint pairs, read once by `edge_rows`.

    `iu` and `iv` are the pairs' slots in the state; `z` is Z = B^T pinv
    (k x n), `y` is Y = (Z W_n^{-1})^T (n x k) and `omega` is Omega = B^T Y
    (k x k), whose diagonal times the edge weights is their leverage. They
    describe the state they were read from, until its next update.
    """

    iu: np.ndarray
    iv: np.ndarray
    z: np.ndarray
    y: np.ndarray
    omega: np.ndarray


def edge_rows(state: PseudoinverseState, u, v) -> EdgeRows:
    """Read the rows Z, Y and Omega of the node-disjoint pairs (u, v).

    `u` and `v` are scalars or equal-length arrays. This is the one gather of
    a batch's rows: `woodbury_reweight` updates from it. Each row is a gather
    or a subtraction, so the rows of a subset of pairs equal a subset of the
    rows bit for bit. An unknown node id raises KeyError.
    """
    iu, iv = _positions(state, u, v)
    z = state.pinv[iu] - state.pinv[iv]
    y = (z / state.weights).T
    return EdgeRows(iu, iv, z, y, y[iu] - y[iv])


def woodbury_reweight(
    state: PseudoinverseState, rows: EdgeRows, delta_w
) -> PseudoinverseState:
    """Apply the pseudoinverse update for edge weight changes delta_w.

    `rows` is the `edge_rows` read of k node-disjoint pairs from `state`, and
    `delta_w` a scalar or k changes; the pairs are one rank-k Woodbury update
    from those rows alone:

        pinv -= Y (D^{-1} + Omega)^{-1} Z,    D = diag(delta_w).

    `delta_w = -weight` realizes a deletion and `delta_w = +inf` binds `v`
    to `u`, the contraction of their edge, whose entry of D^{-1} is 0; a row
    with delta_w = 0 changes nothing and is dropped (the rows are subset only
    then). One k x k inverse (LAPACK `dgesv`) and two BLAS products, the
    second accumulated into pinv in place, apply the batch. The state keeps
    its nodes, weights and size: a bound pair's rows become equal, and
    `restrict` merges them when the contracted graph's own state is wanted.

    Mutates `state` in place (and returns it); `rows` then no longer
    describes it. The graph itself is updated by the caller. A bridge
    deletion makes a denominator vanish and raises SingularUpdateError before
    `state` is touched.
    """
    iu, iv, z, y, omega = rows.iu, rows.iv, rows.z, rows.y, rows.omega
    delta = np.broadcast_to(np.asarray(delta_w, dtype=float), iu.shape)
    acts = delta != 0.0
    if not acts.any():
        return state
    if not acts.all():
        iu, iv, delta, z, y = iu[acts], iv[acts], delta[acts], z[acts], y[:, acts]
        omega = omega[np.ix_(acts, acts)]
    capacitance = np.diag(1.0 / delta) + omega
    _check_pivots(state, iu, iv, capacitance, delta)
    inverse, info = lapack.dgesv(capacitance, np.eye(len(delta)))[2:]
    if info:
        raise SingularUpdateError(f"capacitance is singular (LAPACK info {info})")
    # X^T = Z^T C^{-T} comes back F-ordered; pinv^T -= X^T Y^T accumulates
    # into pinv's F-ordered view. f2py hands back a copy when that view is not
    # F-ordered float64, so the result is always assigned back.
    xt = blas.dgemm(1.0, z.T, inverse, trans_b=1)
    state.pinv = blas.dgemm(-1.0, xt, y.T, beta=1.0, c=state.pinv.T, overwrite_c=1).T
    return state


def restrict(state: PseudoinverseState, nodes, weights) -> PseudoinverseState:
    """Compact a lifted state onto the nodes of its contracted graph.

    The inverse of `lift` for a state: gathers the rows and columns of the
    survivors `nodes`, ascending as `WeightedGraph.nodes` lists them, and
    rescales each column by its merged weight in `weights` over its original
    one. Mutates and returns `state`, whose `pinv` may then be a view of the
    buffer it had; ids not strictly ascending or without one weight each
    raise ValueError, an unknown id KeyError.
    """
    ids, weights = np.asarray(nodes), np.asarray(weights, dtype=float)
    if ids.ndim != 1 or weights.shape != ids.shape or np.any(ids[1:] <= ids[:-1]):
        raise ValueError("restrict wants strictly ascending node ids and one weight each")
    at = _node_slots(state.ids, ids)
    # Rows [i0, i1) are gathered, then land on flat entries [i0 s, i1 s); rows
    # still to read start at at[i1] n >= i1 s, as at[i] >= i and n >= s.
    s = len(at)
    out = state.pinv.reshape(-1)[: s * s].reshape(s, s)
    for i0 in range(0, s, _ROW_BLOCK):
        out[i0 : i0 + _ROW_BLOCK] = state.pinv[at[i0 : i0 + _ROW_BLOCK]].take(at, axis=1)
    out *= weights / state.weights[at]
    state.pinv, state.nodes, state.weights = out, tuple(nodes), weights
    state.ids = state.ids[at]
    return state


def contraction_update(
    state: PseudoinverseState, records: ContractionRecord | Sequence[ContractionRecord]
) -> PseudoinverseState:
    """Shrink the pseudoinverse after the graph contractions in `records`.

    Takes one record or a sequence of node-disjoint ones, binds each removed
    node to its survivor in one `woodbury_reweight` batch with delta_w = +inf,
    from one `edge_rows` read of the pairs, and merges them with `restrict`.
    Mutates and returns `state`.
    """
    if isinstance(records, ContractionRecord):
        records = [records]
    rows = edge_rows(state, [r.survivor for r in records], [r.removed for r in records])
    woodbury_reweight(state, rows, np.inf)
    weights = dict(zip(state.nodes, state.weights.tolist()))
    for r in records:
        weights[r.survivor] += weights.pop(r.removed)
    return restrict(state, list(weights), list(weights.values()))


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
    pos = {u: i for i, u in enumerate(reduced_nodes)}
    assign = np.array([pos[cmap.assignment[o]] for o in cmap.originals])
    lifted = (matrix / np.asarray(reduced_weights, dtype=float))[np.ix_(assign, assign)]
    if original_weights is not None:
        lifted = lifted * np.asarray(original_weights, dtype=float)[None, :]
    return lifted


def _check_nodes(state: PseudoinverseState, g: WeightedGraph) -> None:
    if state.nodes != tuple(g.nodes()):
        raise ValueError(
            f"state over {state.n} nodes does not match the graph's {g.n_nodes} nodes"
        )


def identity_residual(state: PseudoinverseState, g: WeightedGraph) -> float:
    """Max-entry residual of pinv @ L = I - J; small for a healthy state.

    pinv @ L is ((pinv W_n^{-1/2}) @ Lhat) W_n^{1/2} with the sparse Lhat:
    O(n nnz) work and no dense product, so no BLAS pool is left spinning.
    Raises ValueError when `state` is not over `g`'s nodes in ascending order.
    """
    _check_nodes(state, g)
    lhat, w_sqrt = symmetrized_laplacian(g)
    residual = ((state.pinv / w_sqrt) @ lhat) * w_sqrt
    # + J: every row of J is w / sum(w).
    residual += state.weights / state.weights.sum()
    residual[np.diag_indices(state.n)] -= 1.0
    return float(np.abs(residual).max())


def probe_residual(state: PseudoinverseState, g: WeightedGraph) -> float:
    """Max-entry residual of pinv @ L @ x = x - J @ x for one fixed x.

    `identity_residual` on a single non-constant vector, x = linspace(-1, 1),
    which draws nothing from any generator: L is applied through the sparse
    Lhat, so the cost is one sparse product and one n^2 matvec with O(n)
    extra memory. Raises ValueError as `identity_residual` does.
    """
    _check_nodes(state, g)
    lhat, w_sqrt = symmetrized_laplacian(g)
    x = np.linspace(-1.0, 1.0, state.n)
    lx = (lhat @ (w_sqrt * x)) / w_sqrt  # L = W_n^{-1/2} Lhat W_n^{1/2}
    w = state.weights
    return float(np.abs(state.pinv @ lx - (x - w @ x / w.sum())).max())


def save_matrix_csv(path, matrix: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in np.asarray(matrix):
            writer.writerow([repr(float(x)) for x in row])
