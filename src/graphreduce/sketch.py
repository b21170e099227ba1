"""Randomized estimation of per-edge leverage and update norms.

Works in the symmetrized basis: with S the ordinary edge-weighted Laplacian
and W the node weight diagonal, Lhat = W^{-1/2} S W^{-1/2} is symmetric PSD
with kernel spanned by what = W^{1/2} 1 (normalized). Per-edge quantities are
squared norms of Lhat^+ applied to fixed vectors, so a Johnson-Lindenstrauss
projection followed by a handful of linear solves estimates all of them at
once without ever forming a dense inverse.

With a budget of k vectors, leverages use k random edge probes. Update norms
are dominated by the low-frequency end of the spectrum, so they split the
budget: the r = k // 4 lowest non-kernel eigenpairs of Lhat are handled
exactly and k - r sign probes sample only the orthogonal rest (a deflated
sketch in the spirit of Hutch++). The probes are +-1/sqrt(k) signs projected
once off the kernel, so their average Q^T Q is the projector I - what what^T
and every squared norm they estimate is unbiased (Spielman & Srivastava's
resistance sketch). The two parts are orthogonal, so the whole estimate stays
unbiased, and its variance only comes from the residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .graph import WeightedGraph
from .laplacian import DisconnectedGraphError

# Relative residual every probe solve is run to.
SOLVER_TOL = 1e-8


class ConvergenceError(RuntimeError):
    """An iterative routine failed to reach its tolerance."""


def default_probe_count(n_nodes: int, epsilon: float) -> int:
    """Projection rank giving ~epsilon-accurate norms with high probability."""
    if n_nodes < 2:
        return 1
    return max(1, math.ceil(4.0 * math.log(n_nodes) / epsilon**2))


def pcg(
    matrix: sp.spmatrix,
    rhs: np.ndarray,
    rtol: float = 1e-10,
    max_iter: int | None = None,
    deflate: np.ndarray | None = None,
) -> np.ndarray:
    """Jacobi-preconditioned conjugate gradients for SPD / PSD systems.

    `deflate`, if given, must be a unit vector spanning the kernel; the
    iteration keeps everything orthogonal to it, which makes singular
    Laplacian systems with compatible right-hand sides well posed.
    Raises ConvergenceError when the residual fails to reach
    rtol * ||rhs|| within max_iter steps.
    """
    n = matrix.shape[0]
    if max_iter is None:
        max_iter = 20 * n + 50
    diag = np.asarray(matrix.diagonal(), dtype=float)
    if np.any(diag <= 0):
        raise ValueError("matrix diagonal must be strictly positive")

    def strip(vec: np.ndarray) -> np.ndarray:
        if deflate is not None:
            vec = vec - deflate * (deflate @ vec)
        return vec

    rhs = np.asarray(rhs, dtype=float)
    b = strip(rhs)
    x = np.zeros(n)
    if float(np.linalg.norm(b)) == 0.0:
        return x
    # Against the rhs as given: a probe row that lies along the kernel strips
    # to roundoff, which no iteration can reduce by a further factor rtol.
    tol = rtol * float(np.linalg.norm(rhs))
    r = b.copy()
    z = strip(r / diag)
    p = z.copy()
    rz = float(r @ z)
    for _ in range(max_iter):
        ap = matrix @ p
        denom = float(p @ ap)
        if denom <= 0.0:
            raise ConvergenceError("conjugate gradient hit a non-positive curvature")
        alpha = rz / denom
        x += alpha * p
        r -= alpha * ap
        r = strip(r)
        if np.linalg.norm(r) <= tol:
            return x
        z = strip(r / diag)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise ConvergenceError(
        f"conjugate gradient: no convergence to {rtol:g} in {max_iter} iterations"
    )


def symmetrized_laplacian(
    g: WeightedGraph, nodes: list[int] | None = None
) -> tuple[sp.csr_matrix, np.ndarray]:
    """Sparse Lhat = W^{-1/2} S W^{-1/2} and the node weight square roots."""
    ends, w, wn = g.edge_arrays(nodes)
    n = len(wn)
    w_sqrt = np.sqrt(wn)
    s = w / (w_sqrt[ends[:, 0]] * w_sqrt[ends[:, 1]])
    flat = ends.ravel()
    diag = np.zeros(n)
    # float_power calls pow; array ** 2 multiplies instead, which differs in
    # the last bit on some inputs and would change every seeded reduction.
    np.add.at(diag, flat, np.repeat(w, 2) / np.float_power(w_sqrt[flat], 2))
    rows = np.concatenate([flat, np.arange(n)])
    cols = np.concatenate([ends[:, ::-1].ravel(), np.arange(n)])
    vals = np.concatenate([np.repeat(-s, 2), diag])
    lhat = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    return lhat, w_sqrt


def build_projection(
    n_probes: int,
    w_sqrt: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Random +-1/sqrt(k) signs with the rows projected once off the kernel.

    With what = w_sqrt / ||w_sqrt||, the rows are orthogonal to what up to
    roundoff and E[Q^T Q] = I - what what^T, so ||Q x||^2 estimates ||x||^2
    without bias for every x off the kernel.
    """
    n = len(w_sqrt)
    what = w_sqrt / np.linalg.norm(w_sqrt)
    q = (rng.integers(0, 2, size=(n_probes, n)) * 2.0 - 1.0) / math.sqrt(n_probes)
    q -= np.outer(q @ what, what)
    return q


def lowest_modes(
    lhat: sp.csr_matrix, what: np.ndarray, r: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """The r smallest eigenvalues of Lhat off its kernel, with eigenvectors.

    Returns the eigenvalues in ascending order and an n x r matrix of
    orthonormal eigenvectors orthogonal to the kernel direction `what`.
    Uses Lanczos (ARPACK) on the sparse matrix, which needs only products
    with Lhat and so keeps memory linear in the number of edges; its start
    vector is drawn from `rng`, so a fixed seed gives fixed modes. Only when
    the modes are a quarter of the nodes or more, where Lanczos has little
    room, does it take a dense eigendecomposition. Raises ConvergenceError
    if Lanczos does not converge.
    """
    n = lhat.shape[0]
    if r == 0:
        return np.empty(0), np.empty((n, 0))
    # Index 0 is the kernel (eigenvalue 0, the smallest on a connected graph).
    if n <= 4 * r:
        lam, vec = sla.eigh(lhat.toarray(), subset_by_index=[1, r])
    else:
        try:
            lam, vec = spla.eigsh(
                lhat, k=r + 1, which="SA", v0=rng.standard_normal(n)
            )
        except spla.ArpackNoConvergence as exc:
            raise ConvergenceError(
                f"eigensolve: {r} lowest modes did not converge"
            ) from exc
        keep = np.argsort(lam)[1:]
        lam, vec = lam[keep], vec[:, keep]
    vec -= np.outer(what, what @ vec)
    return lam, vec


def _solve_rows(
    lhat: sp.csr_matrix,
    rhs_rows: np.ndarray,
    what: np.ndarray,
) -> np.ndarray:
    out = np.empty_like(rhs_rows)
    for i in range(rhs_rows.shape[0]):
        out[i] = pcg(lhat, rhs_rows[i], rtol=SOLVER_TOL, deflate=what)
    return out


def edge_projection_rows(
    g: WeightedGraph, projection: np.ndarray
) -> np.ndarray:
    """Rows of projection @ W_e^{1/2} B W^{-1/2} for the current edge order."""
    ends, w, wn = g.edge_arrays()
    m = len(w)
    w_sqrt = np.sqrt(wn)
    root = np.sqrt(w)
    vals = np.column_stack([root / w_sqrt[ends[:, 0]], -root / w_sqrt[ends[:, 1]]])
    incidence = sp.coo_matrix(
        (vals.ravel(), (np.repeat(np.arange(m), 2), ends.ravel())),
        shape=(m, len(wn)),
    ).tocsr()
    return np.asarray(projection @ incidence)


@dataclass
class SketchEstimator:
    """Per-edge quantity estimates frozen at build time.

    `n_probes` = k is the budget per quantity. Update norms read k rows: the
    r = min(k // 4, n - 1) exact rows Lambda_r^{-1} V_r^T W^{-1/2} of the
    lowest modes, then k - r sign probes projected off the kernel and V_r
    and solved by PCG. When r reaches n - 1 the modes span the whole kernel
    complement, the norms are exact and no probes are drawn; below k = 4, r
    is 0 and this is the plain sign sketch. Leverages use k edge probes.

    `measure` reads both quantities for a list of edges. Estimates go stale
    as soon as the graph changes; callers rebuild after every modifying
    round.
    """

    index: dict[int, int]
    # k x n (n-1 x n when the modes cover the complement),
    # update norm = w_e ||col_u - col_v||^2
    norm_columns: np.ndarray
    leverage_columns: np.ndarray  # k x n, leverage = w_e ||col_u - col_v||^2

    @classmethod
    def build(
        cls,
        g: WeightedGraph,
        rng: np.random.Generator,
        n_probes: int = 0,
        epsilon: float = 0.25,
    ) -> "SketchEstimator":
        if not g.is_connected():
            raise DisconnectedGraphError(
                "sketch estimates require a connected graph"
            )
        nodes = g.nodes()
        index = {u: i for i, u in enumerate(nodes)}
        n = len(nodes)
        k = n_probes if n_probes > 0 else default_probe_count(n, epsilon)
        lhat, w_sqrt = symmetrized_laplacian(g, nodes)
        what = w_sqrt / np.linalg.norm(w_sqrt)

        # Update norms: r exact low modes, then k - r probes of the rest.
        r = min(k // 4, n - 1)
        lam, modes = lowest_modes(lhat, what, r, rng)
        rows = [modes.T / lam[:, None]]
        if r < n - 1:
            q_norm = build_projection(k - r, w_sqrt, rng)
            q_norm -= (q_norm @ modes) @ modes.T
            z = _solve_rows(lhat, q_norm, what)
            rows.append(z - (z @ modes) @ modes.T)
        y = np.vstack(rows) / w_sqrt[None, :]

        m = g.n_edges
        q_edge = (rng.integers(0, 2, size=(k, m)) * 2.0 - 1.0) / math.sqrt(k)
        r = edge_projection_rows(g, q_edge)
        gmat = _solve_rows(lhat, r, what)
        h = gmat / w_sqrt[None, :]
        return cls(index, y, h)

    def measure(
        self, g: WeightedGraph, eids: list[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Estimated leverages and update norms of the edges `eids`."""
        leverages = np.empty(len(eids))
        norms = np.empty(len(eids))
        for i, eid in enumerate(eids):
            u, v, w = g.edge(eid)
            iu, iv = self.index[u], self.index[v]
            lgap = self.leverage_columns[:, iu] - self.leverage_columns[:, iv]
            ngap = self.norm_columns[:, iu] - self.norm_columns[:, iv]
            leverages[i] = w * float(lgap @ lgap)
            norms[i] = w * float(ngap @ ngap)
        return leverages, norms
