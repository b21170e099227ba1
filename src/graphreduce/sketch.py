"""Randomized estimation of per-edge leverage and update norms.

Works in the symmetrized basis: with S the ordinary edge-weighted Laplacian
and W the node weight diagonal, Lhat = W^{-1/2} S W^{-1/2} is symmetric PSD
with kernel spanned by what = W^{1/2} 1 (normalized). Per-edge quantities are
squared norms of Lhat^+ applied to fixed vectors, so a Johnson-Lindenstrauss
projection followed by a handful of linear solves estimates all of them at
once without ever forming a dense inverse. A build reads the graph once, as
the R of `laplacian.weighted_incidence`: Lhat = R^T R, edge probe rows Q R.

With a budget of k vectors, leverages use k random edge probes. Update norms
are dominated by the low-frequency end of the spectrum, so they split the
budget: an orthonormal basis V of r = k // 4 directions off the kernel is
handled exactly, by the rows (Lhat^+ V)^T, and k - r sign probes sample only
the orthogonal rest (a deflated sketch in the spirit of Hutch++). The probes
are +-1/sqrt(k) signs projected once off the kernel, so their average Q^T Q
is the projector I - what what^T and every squared norm they estimate is
unbiased (Spielman & Srivastava's resistance sketch). The two parts are
orthogonal, so the whole estimate stays unbiased for any such V; V only sets
the variance, which is least when V spans the lowest eigenmodes, where the
norms concentrate.

Every build follows one rule. It picks V and a solver, projects the norm
probes off V, and makes one block solve of V's rows still unknown, the norm
probes and the edge probes. V's exact rows are Lambda^{-1} V^T when V is
eigenmodes and are solved in that block otherwise. V comes from Lanczos, or
from the basis the last build of the same reduction carried.

The solver is picked by how fast Jacobi-PCG converges on the graph: a
capped attempt on the first edge probe, at most sqrt(n) matvecs. Expanders
(SBM, Erdos-Renyi) finish well within the cap, so PCG solves every row and
Lanczos runs on Lhat; memory stays linear in the number of edges.
Low-dimensional graphs (grids, tori, lattices) need several times the cap,
yet their small separators keep a sparse factor cheap. There Lhat is
grounded (its last row and column dropped), the SPD rest is factored once
under a minimum-degree ordering, the block is one multi-row solve, and
Lanczos runs on the factor's exact Lhat^+. The factor holds fill x
nnz(Lhat) entries, with fill about 5-10 on 2-D grids. The rule reads a
count, never a clock, so a fixed seed gives a fixed result.

Within a reduction each graph is the last one less a round of actions. A
build that factored keeps its exact rows as node values; the next build,
handed them, factors without a choice and takes as V the rows of the
surviving nodes, weighted by today's node weights and orthonormalized: one
subspace-iteration step in place of an eigensolve. Only the first build of
a reduction, one whose carried basis lost rank, and every build on the PCG
path, which has no factor for Lanczos to run on, choose and run Lanczos.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import csgraph

from .graph import WeightedGraph, _check_count
from .laplacian import (
    DisconnectedGraphError, SingularUpdateError, _node_slots, weighted_incidence
)
from .laplacian import symmetrized_laplacian  # re-exported: callers bind it here

# Relative residual every probe solve is run to.
SOLVER_TOL = 1e-8
# A carried basis column closer than this share of its norm to the span of
# the columns before it has lost rank on the surviving nodes.
_RANK_TOL = 1e-8


class ConvergenceError(RuntimeError):
    """An iterative routine failed to reach its tolerance."""


def pcg(
    matrix,
    rhs: np.ndarray,
    rtol: float = 1e-10,
    max_iter: int | None = None,
    deflate: np.ndarray | None = None,
) -> np.ndarray:
    """Scipy's conjugate gradients, preconditioned by strip(r / diag(matrix)).

    `matrix` (SPD or PSD) needs only `shape`, `diagonal()` and `@`. strip
    projects the rhs, each preconditioned residual and the solution off
    `deflate`, a unit vector spanning the kernel if given, so singular
    Laplacian systems with compatible right-hand sides are well posed. Raises
    ConvergenceError on a zero curvature, or when the residual, checked before
    each of the max_iter steps, never reaches rtol * ||rhs||.
    """
    n = matrix.shape[0]
    diag = np.asarray(matrix.diagonal(), dtype=float)
    if np.any(diag <= 0):
        raise ValueError("matrix diagonal must be strictly positive")

    def strip(vec: np.ndarray) -> np.ndarray:
        return vec if deflate is None else vec - deflate * (deflate @ vec)

    rhs = np.asarray(rhs, dtype=float)
    # Against the rhs as given: a probe row that lies along the kernel strips
    # to roundoff, which no iteration can reduce by a further factor rtol.
    tol = rtol * float(np.linalg.norm(rhs))
    max_iter = 20 * n + 50 if max_iter is None else max_iter
    op = spla.LinearOperator((n, n), matvec=lambda v: matrix @ v, dtype=float)
    jacobi = spla.LinearOperator((n, n), matvec=lambda r: strip(r / diag), dtype=float)
    try:
        with np.errstate(divide="raise", invalid="raise"):
            x, info = spla.cg(
                op, strip(rhs), rtol=0.0, atol=tol, maxiter=max_iter, M=jacobi
            )
    except FloatingPointError as exc:
        raise ConvergenceError("conjugate gradient hit a zero curvature") from exc
    if info:
        raise ConvergenceError(
            f"conjugate gradient: no convergence to {rtol:g} in {max_iter} steps"
        )
    return strip(x)


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


def grounded_factor(lhat: sp.csr_matrix) -> spla.SuperLU:
    """Sparse LU of Lhat without its last row and column.

    On a connected graph that submatrix is SPD. The minimum-degree ordering
    of A^T + A keeps the fill of a 2-D grid below COLAMD's: 9.2 against 16
    times nnz on a 48 x 48 torus. Raises SingularUpdateError when rounding
    leaves a zero pivot, as extreme weight ratios can.
    """
    try:
        return spla.splu(
            lhat[:-1, :-1].tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            options=dict(SymmetricMode=True),
        )
    except RuntimeError as exc:  # SuperLU's "Factor is exactly singular"
        raise SingularUpdateError(f"grounded factor of Lhat: {exc}") from exc


@dataclass(frozen=True)
class LaplacianSolver:
    """Applies Lhat^+ to probe rows, by PCG or by one grounded factor.

    With `factor` the LU of Lhat less its last row and column (G), Lhat^+ b
    is P G^{-1} P b, where P projects off `what` and G^{-1} is padded with a
    zero last entry. Without it every row is one Jacobi-PCG solve. Either
    way `solve` raises ConvergenceError when a row's residual exceeds
    SOLVER_TOL times the row's norm.
    """

    lhat: sp.csr_matrix
    what: np.ndarray
    factor: spla.SuperLU | None = None

    @classmethod
    def choose(
        cls, lhat: sp.csr_matrix, what: np.ndarray, first_row: np.ndarray
    ) -> "LaplacianSolver":
        """The solver for Lhat: PCG if it solves `first_row` within sqrt(n)
        matvecs, else the grounded factor.

        The capped attempt only tests convergence; its solution is dropped,
        and the build solves `first_row` again with the rest of its rows.
        """
        cap = math.isqrt(lhat.shape[0])
        try:
            pcg(lhat, first_row, rtol=SOLVER_TOL, max_iter=cap, deflate=what)
        except ConvergenceError:
            return cls(lhat, what, grounded_factor(lhat))
        return cls(lhat, what)

    def pinv(self, b: np.ndarray) -> np.ndarray:
        """P G^{-1} P b for a vector or the columns of a matrix (factor only)."""
        b = b - np.multiply.outer(self.what, self.what @ b)
        x = np.zeros_like(b)
        x[:-1] = self.factor.solve(b[:-1])
        return x - np.multiply.outer(self.what, self.what @ x)

    def solve(self, rows: np.ndarray) -> np.ndarray:
        """Lhat^+ applied to each row of `rows`."""
        if self.factor is None:
            out = np.empty_like(rows)
            for i in range(rows.shape[0]):
                out[i] = pcg(self.lhat, rows[i], rtol=SOLVER_TOL, deflate=self.what)
            return out
        out = self.pinv(rows.T).T
        stripped = rows - np.outer(rows @ self.what, self.what)
        residual = np.linalg.norm((self.lhat @ out.T).T - stripped, axis=1)
        bad = residual > SOLVER_TOL * np.linalg.norm(rows, axis=1)
        if np.any(bad):
            raise ConvergenceError(
                f"grounded factor: {int(bad.sum())} of {len(rows)} solves above "
                f"relative residual {SOLVER_TOL:g}"
            )
        return out


def lowest_modes(
    solver: LaplacianSolver, r: int, start: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """The r smallest eigenvalues of Lhat off its kernel, with eigenvectors.

    Returns the eigenvalues in ascending order and an n x r matrix of
    orthonormal eigenvectors orthogonal to the kernel direction `what`,
    whose exact rows (Lhat^+ V)^T are Lambda^{-1} V^T.
    Uses Lanczos (ARPACK) from the start vector `start`, so a fixed start
    gives fixed modes. With PCG it runs on the sparse Lhat, which needs only
    products with Lhat and keeps memory linear in the number of edges. With
    a factor it finds the r largest eigenvalues of Lhat^+ instead, which are
    far better separated, and inverts them. Only when the modes are a quarter
    of the nodes or more, where Lanczos has little room, does it take a dense
    eigendecomposition and ignore `start`. Raises ConvergenceError if Lanczos
    does not converge.
    """
    lhat, what = solver.lhat, solver.what
    n = lhat.shape[0]
    if r == 0:
        return np.empty(0), np.empty((n, 0))
    # Index 0 is the kernel (eigenvalue 0, the smallest on a connected graph).
    if n <= 4 * r:
        lam, vec = sla.eigh(lhat.toarray(), subset_by_index=[1, r])
    else:
        try:
            if solver.factor is None:
                lam, vec = spla.eigsh(lhat, k=r + 1, which="SA", v0=start)
                keep = np.argsort(lam)[1:]
            else:
                op = spla.LinearOperator((n, n), matvec=solver.pinv, dtype=float)
                mu, vec = spla.eigsh(op, k=r, which="LA", v0=start)
                lam = 1.0 / mu
                keep = np.argsort(lam)
        except spla.ArpackNoConvergence as exc:
            raise ConvergenceError(
                f"eigensolve: {r} lowest modes did not converge"
            ) from exc
        lam, vec = lam[keep], vec[:, keep]
    vec -= np.outer(what, what @ vec)
    return lam, vec


def _carried_basis(
    carry: tuple[np.ndarray, np.ndarray] | None,
    nodes: np.ndarray,
    w_sqrt: np.ndarray,
    r: int,
) -> np.ndarray | None:
    """An orthonormal n x r basis off `what` from an earlier build's, or None.

    `carry` is the (nodes, basis) of that build, its basis in node values.
    The rows at today's `nodes` (contraction survivors keep their ids) are
    scaled by today's `w_sqrt`, so a merged node's weight counts as it does
    now, projected off `what` and orthonormalized by scipy's QR; numpy's QR
    would run in numpy's own BLAS pool, which contends with scipy's inside
    the loop. None without a carry, or when a column's part off the columns
    before it falls to _RANK_TOL of its norm; the build then runs Lanczos.
    Raises ValueError unless the carry has r columns.
    """
    if carry is None:
        return None
    old_nodes, basis = carry
    if basis.shape[1] != r:
        raise ValueError(f"carried basis has {basis.shape[1]} columns, need {r}")
    what = w_sqrt / np.linalg.norm(w_sqrt)
    v = basis[_node_slots(old_nodes, nodes)] * w_sqrt[:, None]
    v -= np.outer(what, what @ v)
    q, tri = sla.qr(v, mode="economic")
    if np.any(np.abs(np.diag(tri)) <= _RANK_TOL * np.linalg.norm(v, axis=0)):
        return None
    return q


def edge_projection_rows(g: WeightedGraph, projection: np.ndarray) -> np.ndarray:
    """Rows of projection @ W_e^{1/2} B W^{-1/2} for the current edge order."""
    return np.asarray(projection @ weighted_incidence(g)[0])


@dataclass
class SketchEstimator:
    """Per-edge quantity estimates frozen at build time.

    `n_probes` = k, which the caller always gives, is the budget per
    quantity; the build derives no count of its own. Update norms read k
    rows: the r = min(k // 4, n - 1) exact rows (Lhat^+ V)^T W^{-1/2} of an
    orthonormal basis V off the kernel, then k - r sign probes projected off
    the kernel and off V. V is the lowest eigenmodes from Lanczos, or, given
    a `carry` (the `nodes` and `basis` of an earlier build of the same
    reduction), that basis at today's nodes, weighted and orthonormalized,
    with a factor and no solver choice. One `LaplacianSolver.solve` takes
    the rows of V still unknown (the carried V's; an eigenmode's is
    Lambda^{-1} V^T), the norm probes and k edge probes, whose rows give
    the leverages. When r reaches n - 1 the modes span the whole kernel
    complement, the norms are exact and no probes are drawn; below k = 4, r
    is 0 and this is the plain sign sketch.

    `build` raises ValueError unless `n_probes` is an integer >= 1 and a
    carried basis has r columns, and DisconnectedGraphError when the Lhat it
    assembles has more than one component. `measure` reads both quantities
    for a list of edges.
    Estimates go stale as soon as the graph changes; callers rebuild after
    every modifying round.
    """

    nodes: np.ndarray  # ascending node ids; column i belongs to nodes[i]
    # k x n (n-1 x n when the modes cover the complement),
    # update norm = w_e ||col_u - col_v||^2
    norm_columns: np.ndarray
    leverage_columns: np.ndarray  # k x n, leverage = w_e ||col_u - col_v||^2
    # n x r basis for the next build: the exact rows as node values,
    # W^{-1/2} Lhat^+ V; kept only when this build factored and n > 4r.
    basis: np.ndarray | None = None

    @classmethod
    def build(
        cls,
        g: WeightedGraph,
        rng: np.random.Generator,
        n_probes: int,
        carry: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> "SketchEstimator":
        _check_count("n_probes", n_probes, 1)
        incidence, w_sqrt = weighted_incidence(g)
        lhat = (incidence.T @ incidence).tocsr()
        if csgraph.connected_components(lhat, directed=False)[0] > 1:
            raise DisconnectedGraphError(
                "sketch estimates require a connected graph"
            )
        nodes = np.array(g.nodes())
        n = len(nodes)
        k = n_probes
        what = w_sqrt / np.linalg.norm(w_sqrt)

        # Draws come in a fixed order: the Lanczos start (only where
        # lowest_modes runs Lanczos), the norm probes (none once the modes
        # cover the kernel's complement), the edge probes.
        n_modes = min(k // 4, n - 1)
        few_modes = n > 4 * n_modes  # else lowest_modes takes a dense eigh
        modes = _carried_basis(carry, nodes, w_sqrt, n_modes) if few_modes else None
        start = rng.standard_normal(n) if few_modes and n_modes and modes is None else None
        q_norm = np.empty((0, n))
        if n_modes < n - 1:
            q_norm = build_projection(k - n_modes, w_sqrt, rng)
            # A row along the kernel projects to roundoff; its exact value is 0.
            q_norm[np.linalg.norm(q_norm, axis=1) < 1e-12 * math.sqrt(n / len(q_norm))] = 0.0
        signs = rng.integers(0, 2, size=(k, g.n_edges)) * 2.0 - 1.0
        edge_rows = np.asarray((signs / math.sqrt(k)) @ incidence)

        # V's exact rows (Lhat^+ V)^T: solved with the probes for a carried
        # basis, whose last build chose the factor; Lambda^{-1} V^T for modes.
        if modes is not None:
            solver = LaplacianSolver(lhat, what, grounded_factor(lhat))
            known, unknown = np.empty((0, n)), modes.T
        else:
            solver = LaplacianSolver.choose(lhat, what, edge_rows[0])
            lam, modes = lowest_modes(solver, n_modes, start)
            known, unknown = modes.T / lam[:, None], np.empty((0, n))
        q_norm -= (q_norm @ modes) @ modes.T
        x = solver.solve(np.vstack([unknown, q_norm, edge_rows])) / w_sqrt[None, :]
        y, h = np.vstack([known / w_sqrt[None, :], x[:-k]]), x[-k:]
        basis = y[:n_modes].T.copy() if few_modes and solver.factor is not None else None
        return cls(nodes, y, h, basis)

    def measure(
        self, g: WeightedGraph, eids: list[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Estimated leverages and update norms of the edges `eids`.

        Each edge's values depend only on its own columns, so an edge reads
        the same whatever else is measured with it.
        """
        u, v, w = g.edge_columns(eids)
        iu, iv = _node_slots(self.nodes, u), _node_slots(self.nodes, v)
        # One edge per row, so every sum runs over a contiguous row.
        lgap = self.leverage_columns.T[iu] - self.leverage_columns.T[iv]
        ngap = self.norm_columns.T[iu] - self.norm_columns.T[iv]
        leverages = w * np.einsum("ij,ij->i", lgap, lgap)
        norms = w * np.einsum("ij,ij->i", ngap, ngap)
        return leverages, norms
