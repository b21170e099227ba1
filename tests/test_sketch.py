import math
import warnings
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp

from graphreduce.action import EdgeQuantities
from graphreduce.generators import generate
from graphreduce.graph import WeightedGraph
from graphreduce.laplacian import (
    DisconnectedGraphError,
    build_pseudoinverse,
    edge_leverage,
    laplacian_matrix,
    update_norm,
)
from graphreduce import sketch
from graphreduce.reducer import (
    EdgeBudget,
    MaxIterations,
    ReductionConfig,
    SketchMode,
    reduce_graph,
)
from graphreduce.sketch import (
    SOLVER_TOL,
    ConvergenceError,
    LaplacianSolver,
    SketchEstimator,
    build_projection,
    edge_projection_rows,
    grounded_factor,
    lowest_modes,
    pcg,
    symmetrized_laplacian,
)
from tests.conftest import edge_laplacian, random_connected_graph


def exact_quantities(g):
    state = build_pseudoinverse(g)
    lev, norm = {}, {}
    for eid in g.edge_ids():
        u, v, w = g.edge(eid)
        lev[eid] = edge_leverage(state, u, v, w)
        norm[eid] = update_norm(state, u, v, w)
    return lev, norm


def estimator_from_rows(g, rows, rtol=1e-12):
    """An estimator whose norm and leverage columns both solve the given
    probe rows, as `SketchEstimator.build` solves its random ones."""
    lhat, w_sqrt = symmetrized_laplacian(g)
    what = w_sqrt / np.linalg.norm(w_sqrt)
    z = np.array([pcg(lhat, r, rtol=rtol, deflate=what) for r in rows])
    columns = z / w_sqrt[None, :]
    return SketchEstimator(np.array(g.nodes()), columns, columns)


def weighted_torus(side):
    # The sketch-torus workload's family: edge weights exp(U(-1, 1)).
    params = {"rows": side, "cols": side, "weight_law": "exp-uniform:-1,1"}
    return generate("torus", params, seed=0)


def probe_rows(g, k, rng):
    """k edge probes and k sign probes, as a build draws them."""
    _, w_sqrt = symmetrized_laplacian(g)
    signs = (rng.integers(0, 2, size=(k, g.n_edges)) * 2.0 - 1.0) / math.sqrt(k)
    edge_rows = edge_projection_rows(g, signs)
    return np.vstack([edge_rows, build_projection(k, w_sqrt, rng)])


def count_factors(monkeypatch):
    """Record each `grounded_factor` call a build makes, without changing it."""
    calls = []

    def spy(lhat):
        calls.append(lhat.shape[0])
        return grounded_factor(lhat)

    monkeypatch.setattr(sketch, "grounded_factor", spy)
    return calls


# -- conjugate gradients ---------------------------------------------------


def test_pcg_solves_spd_system():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(30, 30))
    mat = sp.csr_matrix(a @ a.T + 30 * np.eye(30))
    b = rng.normal(size=30)
    x = pcg(mat, b, rtol=1e-12)
    assert np.linalg.norm(mat @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_pcg_zero_rhs():
    mat = sp.csr_matrix(np.eye(4))
    assert np.allclose(pcg(mat, np.zeros(4)), 0.0)


def test_pcg_singular_laplacian_with_deflation():
    rng = np.random.default_rng(7)
    g = random_connected_graph(rng, 25, extra_edges=30, weighted_nodes=True)
    lhat, w_sqrt = symmetrized_laplacian(g)
    what = w_sqrt / np.linalg.norm(w_sqrt)
    b = rng.normal(size=25)
    b -= what * (what @ b)
    x = pcg(lhat, b, rtol=1e-12, deflate=what)
    assert np.linalg.norm(lhat @ x - b) <= 1e-9 * np.linalg.norm(b)
    assert abs(what @ x) <= 1e-10


def test_pcg_rhs_along_kernel_returns_roundoff():
    # A constant sign row projected off a uniform kernel leaves only roundoff
    # along the kernel; stripped, it is far below rtol times itself.
    g = WeightedGraph.from_edges([(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.9375), (0, 4, 4.0)])
    for u in g.nodes():
        g.add_node(u, 0.2)
    lhat, w_sqrt = symmetrized_laplacian(g)
    what = w_sqrt / np.linalg.norm(w_sqrt)
    # Such a row as one reduction drew it: -2^-53 with one entry an ulp off.
    rhs = np.full(5, -(2.0**-53))
    rhs[3] = np.nextafter(rhs[3], 0.0)
    x = pcg(lhat, rhs, rtol=SOLVER_TOL, deflate=what)
    assert np.linalg.norm(x) <= 1e-20


def test_pcg_iteration_cap():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(40, 40))
    mat = sp.csr_matrix(a @ a.T + 1e-3 * np.eye(40))
    with pytest.raises(ConvergenceError):
        pcg(mat, rng.normal(size=40), rtol=1e-14, max_iter=2)


def test_pcg_rejects_nonpositive_diagonal():
    mat = sp.csr_matrix(np.diag([1.0, 0.0, 2.0]))
    with pytest.raises(ValueError):
        pcg(mat, np.ones(3))


def test_pcg_breakdown_raises_without_a_warning():
    # Without deflation the rhs lies along the kernel (1, -1) of the all-ones
    # matrix, so the first search direction has zero curvature.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ConvergenceError):
            pcg(sp.csr_matrix(np.ones((2, 2))), np.array([1.0, -1.0]))
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


# -- symmetrized operator --------------------------------------------------


def test_symmetrized_laplacian_matches_dense():
    rng = np.random.default_rng(11)
    weighted = random_connected_graph(rng, 12, extra_edges=10, weighted_nodes=True)
    parallel = weighted.copy()
    u, v, _ = parallel.edge(parallel.edge_ids()[3])
    parallel.add_edge(v, u, 0.7)  # merges into the existing edge
    contracted = weighted.copy()
    contracted.contract_edge(contracted.edge_ids()[0])
    contracted.contract_edge(contracted.edge_ids()[5])
    for g in (weighted, parallel, contracted):
        lhat, w_sqrt = symmetrized_laplacian(g)
        S = edge_laplacian(g)  # summed edge by edge, independent of the library
        wn = np.array([g.node_weight(u) for u in g.nodes()])
        d = np.sqrt(wn)
        assert np.allclose(lhat.toarray(), S / d[:, None] / d[None, :], atol=1e-12)
        assert np.allclose(laplacian_matrix(g), S / wn[:, None], atol=1e-12)
        assert np.allclose(lhat.toarray(), lhat.toarray().T, atol=1e-14)
        assert np.allclose(lhat @ w_sqrt, 0.0, atol=1e-12)


# -- projection ------------------------------------------------------------


def test_projection_is_unbiased_and_orthogonal_to_kernel():
    # A small n exposes biases of order 1 / n, such as the n / (n - 1)
    # inflation that renormalising the columns would bring.
    rng = np.random.default_rng(5)
    n, k = 8, 8
    w_sqrt = np.sqrt(rng.uniform(0.5, 3.0, size=n))
    what = w_sqrt / np.linalg.norm(w_sqrt)
    total = np.zeros((n, n))
    draws = 4000
    for _ in range(draws):
        q = build_projection(k, w_sqrt, rng)
        assert np.max(np.abs(q @ what)) <= 1e-12
        total += q.T @ q
    mean = total / draws
    assert abs(np.trace(mean) / (n - 1) - 1.0) <= 0.02
    assert np.max(np.abs(mean - (np.eye(n) - np.outer(what, what)))) <= 0.05


def test_projection_is_signs_projected_once():
    # Uniform weights, and a node whose sqrt weight exceeds the others' sum,
    # where no matrix with unit columns has rows orthogonal to what.
    for w_sqrt in (np.ones(6), np.sqrt([30.0, 1.0, 1.0, 1.0, 1.0, 1.0])):
        what = w_sqrt / np.linalg.norm(w_sqrt)
        q = build_projection(6, w_sqrt, np.random.default_rng(0))
        signs = np.random.default_rng(0).integers(0, 2, size=(6, 6)) * 2.0 - 1.0
        signs /= math.sqrt(6)
        assert np.array_equal(q, signs - np.outer(signs @ what, what))
        assert np.max(np.abs(q @ what)) <= 1e-12


def orthonormal_complement_basis(w_sqrt: np.ndarray) -> np.ndarray:
    """Exact orthonormal basis (as rows) of the space orthogonal to w_sqrt."""
    n = len(w_sqrt)
    what = w_sqrt / np.linalg.norm(w_sqrt)
    full = np.concatenate([what[:, None], np.eye(n)], axis=1)
    q, _ = np.linalg.qr(full)
    return q[:, 1:n].T


def test_orthonormal_complement_basis():
    rng = np.random.default_rng(9)
    w_sqrt = np.sqrt(rng.uniform(0.5, 2.0, size=17))
    basis = orthonormal_complement_basis(w_sqrt)
    assert basis.shape == (16, 17)
    assert np.allclose(basis @ basis.T, np.eye(16), atol=1e-12)
    assert np.max(np.abs(basis @ (w_sqrt / np.linalg.norm(w_sqrt)))) <= 1e-12


# -- exact-basis recovery --------------------------------------------------


def test_exact_basis_recovers_update_norms():
    rng = np.random.default_rng(13)
    g = random_connected_graph(rng, 18, extra_edges=20, weighted_nodes=True)
    _, exact_norm = exact_quantities(g)
    _, w_sqrt = symmetrized_laplacian(g)
    basis = orthonormal_complement_basis(w_sqrt)
    est = estimator_from_rows(g, basis)
    _, approx = est.measure(g, g.edge_ids())
    assert approx == pytest.approx(list(exact_norm.values()), rel=1e-6)


def test_identity_edge_projection_recovers_leverages():
    rng = np.random.default_rng(17)
    g = random_connected_graph(rng, 14, extra_edges=12, weighted_nodes=True)
    exact_lev, _ = exact_quantities(g)
    rows = edge_projection_rows(g, np.eye(g.n_edges))
    est = estimator_from_rows(g, rows)
    approx, _ = est.measure(g, g.edge_ids())
    assert approx == pytest.approx(list(exact_lev.values()), rel=1e-6)


# -- solver paths ------------------------------------------------------------


def test_build_solver_follows_the_graph(monkeypatch):
    # PCG needs about 60 matvecs on a 16 x 16 torus, over its cap of 16, and
    # 17 on this expander, under its cap of 31.
    calls = count_factors(monkeypatch)
    torus = weighted_torus(16)
    SketchEstimator.build(torus, n_probes=33, rng=np.random.default_rng(0))
    assert calls == [256]
    expander = generate("er", {"n": 1000, "p": 0.01}, seed=0)
    SketchEstimator.build(expander, n_probes=33, rng=np.random.default_rng(0))
    assert calls == [256]


def test_direct_and_pcg_solutions_agree():
    g = weighted_torus(16)
    lhat, w_sqrt = symmetrized_laplacian(g)
    what = w_sqrt / np.linalg.norm(w_sqrt)
    rows = probe_rows(g, 8, np.random.default_rng(3))
    direct = LaplacianSolver(lhat, what, grounded_factor(lhat)).solve(rows)
    iterative = LaplacianSolver(lhat, what).solve(rows)
    scale = np.linalg.norm(rows, axis=1)
    stripped = rows - np.outer(rows @ what, what)
    assert np.all(np.linalg.norm(direct @ lhat - stripped, axis=1) <= 1e-12 * scale)
    assert np.max(np.abs(direct @ what)) <= 1e-12 * np.max(np.abs(direct))
    # PCG stops at a residual of SOLVER_TOL; the direct solve is exact to it.
    gap = np.linalg.norm((direct - iterative) @ lhat, axis=1)
    assert np.all(gap <= SOLVER_TOL * scale)


def test_twin_builds_on_factor_path_are_identical(monkeypatch):
    calls = count_factors(monkeypatch)
    g = weighted_torus(16)
    a = SketchEstimator.build(g, n_probes=33, rng=np.random.default_rng(7))
    b = SketchEstimator.build(g, n_probes=33, rng=np.random.default_rng(7))
    assert len(calls) == 2
    assert np.array_equal(a.norm_columns, b.norm_columns)
    assert np.array_equal(a.leverage_columns, b.leverage_columns)


def test_build_reads_the_graph_once(monkeypatch):
    # Lhat and the edge probe rows both derive from one weighted incidence.
    reads = []
    edge_arrays = WeightedGraph.edge_arrays

    def spy(self, *args):
        reads.append(args)
        return edge_arrays(self, *args)

    monkeypatch.setattr(WeightedGraph, "edge_arrays", spy)
    SketchEstimator.build(weighted_torus(8), n_probes=8, rng=np.random.default_rng(0))
    assert len(reads) == 1


def test_direct_solve_above_tolerance_raises():
    # A factor of a slightly shifted matrix solves every row to about 1e-3.
    g = weighted_torus(8)
    lhat, w_sqrt = symmetrized_laplacian(g)
    what = w_sqrt / np.linalg.norm(w_sqrt)
    shifted = grounded_factor((lhat + 1e-3 * sp.eye(g.n_nodes)).tocsr())
    rows = probe_rows(g, 4, np.random.default_rng(1))
    with pytest.raises(ConvergenceError):
        LaplacianSolver(lhat, what, shifted).solve(rows)


# -- exact low modes ---------------------------------------------------------


def test_lowest_modes_lanczos_matches_dense_eigh():
    rng = np.random.default_rng(19)
    g = random_connected_graph(rng, 80, extra_edges=120, weighted_nodes=True)
    lhat, w_sqrt = symmetrized_laplacian(g)
    what = w_sqrt / np.linalg.norm(w_sqrt)
    lam_dense, vec_dense = np.linalg.eigh(lhat.toarray())
    lam_dense, vec_dense = lam_dense[1:7], vec_dense[:, 1:7]
    start = rng.standard_normal(80)
    # 80 nodes > 4 * 6 modes, so both solvers take the Lanczos path: on
    # Lhat itself, and on the grounded factor's Lhat^+.
    for solver in (
        LaplacianSolver(lhat, what),
        LaplacianSolver(lhat, what, grounded_factor(lhat)),
    ):
        lam, vec = lowest_modes(solver, 6, start)
        assert np.allclose(lam, lam_dense, rtol=1e-9)
        assert np.all(lam > 0.0)
        assert np.allclose(vec.T @ vec, np.eye(6), atol=1e-10)
        assert np.max(np.abs(what @ vec)) <= 1e-12
        assert np.allclose(lhat @ vec, vec * lam[None, :], atol=1e-9)
        # Same invariant subspace whatever the solver (eigenvalues are simple).
        assert np.allclose(np.abs(vec_dense.T @ vec), np.eye(6), atol=1e-8)


def test_lowest_modes_nonconvergence_raises(monkeypatch):
    rng = np.random.default_rng(29)
    g = random_connected_graph(rng, 60, extra_edges=80)
    lhat, w_sqrt = symmetrized_laplacian(g)

    def no_convergence(*args, **kwargs):
        raise sketch.spla.ArpackNoConvergence("no convergence", [], [])

    monkeypatch.setattr(sketch.spla, "eigsh", no_convergence)
    solver = LaplacianSolver(lhat, w_sqrt / np.linalg.norm(w_sqrt))
    with pytest.raises(ConvergenceError):
        lowest_modes(solver, 4, rng.standard_normal(60))


def test_modes_covering_complement_give_exact_norms():
    rng = np.random.default_rng(43)
    g = random_connected_graph(rng, 10, extra_edges=12, weighted_nodes=True)
    _, exact_norm = exact_quantities(g)
    # 4 * 9 probes: r = 9 = n - 1 modes cover the complement, no probes left.
    est = SketchEstimator.build(g, n_probes=36, rng=np.random.default_rng(0))
    assert est.norm_columns.shape == (9, 10)
    _, norms = est.measure(g, g.edge_ids())
    assert norms == pytest.approx(list(exact_norm.values()), rel=1e-9)


def test_probe_count_below_four_uses_plain_sketch():
    rng = np.random.default_rng(47)
    g = random_connected_graph(rng, 12, extra_edges=10)
    est = SketchEstimator.build(g, n_probes=3, rng=np.random.default_rng(5))
    _, w_sqrt = symmetrized_laplacian(g)
    q = build_projection(3, w_sqrt, np.random.default_rng(5))
    plain = estimator_from_rows(g, q, rtol=SOLVER_TOL)
    assert est.norm_columns.shape == (3, 12)
    _, norms = est.measure(g, g.edge_ids())
    _, plain_norms = plain.measure(g, g.edge_ids())
    assert norms == pytest.approx(plain_norms, rel=1e-6)


def test_deflated_sketch_deterministic_on_lanczos_path():
    rng = np.random.default_rng(53)
    # 120 nodes > 4 * (24 // 4) modes: the modes come from Lanczos.
    g = random_connected_graph(rng, 120, extra_edges=120)
    a = SketchEstimator.build(g, n_probes=24, rng=np.random.default_rng(7))
    b = SketchEstimator.build(g, n_probes=24, rng=np.random.default_rng(7))
    assert np.array_equal(a.norm_columns, b.norm_columns)
    assert np.array_equal(a.leverage_columns, b.leverage_columns)



def test_deflated_sketch_unbiased_and_tightens_with_probes():
    rng = np.random.default_rng(59)
    # r = k // 4 stays well below n - 1, so the probes of the residual
    # carry part of every estimate.
    g = random_connected_graph(rng, 200, extra_edges=200, weighted_nodes=True)
    _, exact_norm = exact_quantities(g)

    def ratios(k, seed):
        est = SketchEstimator.build(g, n_probes=k, rng=np.random.default_rng(seed))
        assert est.norm_columns.shape == (k, g.n_nodes)
        _, norms = est.measure(g, g.edge_ids())
        return norms / np.array([exact_norm[eid] for eid in g.edge_ids()])

    spread = {}
    for k in (16, 64):
        runs = [ratios(k, seed) for seed in range(6)]
        assert abs(np.mean([r.mean() for r in runs]) - 1.0) <= 0.03
        spread[k] = np.mean([r.std() for r in runs])
    assert spread[64] < 0.6 * spread[16]


def carry_of(g, v):
    """The carry a build takes for the orthonormal basis v (symmetrized):
    ascending node ids and v as node values, W^{-1/2} v."""
    _, w_sqrt = symmetrized_laplacian(g)
    return np.array(g.nodes()), v / w_sqrt[:, None]


def off_kernel_basis(g, r, rng):
    """A random orthonormal n x r basis orthogonal to `what`: no eigenbasis."""
    _, w_sqrt = symmetrized_laplacian(g)
    what = w_sqrt / np.linalg.norm(w_sqrt)
    v = rng.standard_normal((g.n_nodes, r))
    v -= np.outer(what, what @ v)
    return np.linalg.qr(v)[0]


def test_norm_sketch_is_unbiased_for_any_orthonormal_basis(monkeypatch):
    # With V orthonormal and off the kernel, the exact rows (Lhat^+ V)^T and
    # probes projected off V before the solve estimate every update norm
    # without bias, eigenbasis or not. Projecting the solved probes off V
    # as well, right only for eigenvectors, would bias them by far more than
    # the standard error here.
    g = weighted_torus(6)
    _, exact_norm = exact_quantities(g)
    exact = np.array([exact_norm[eid] for eid in g.edge_ids()])
    carry = carry_of(g, off_kernel_basis(g, 2, np.random.default_rng(5)))
    eigensolves = []
    monkeypatch.setattr(sketch, "lowest_modes", lambda *a: eigensolves.append(a))
    reps = 400
    norms = np.array([
        SketchEstimator.build(g, np.random.default_rng(seed), 8, carry).measure(
            g, g.edge_ids()
        )[1]
        for seed in range(reps)
    ])
    assert not eigensolves
    z = (norms.mean(axis=0) - exact) / (norms.std(axis=0, ddof=1) / math.sqrt(reps))
    assert np.max(np.abs(z)) < 4.0, np.max(np.abs(z))


def test_carried_build_keeps_its_exact_rows_as_the_next_basis(monkeypatch):
    # Its exact rows are X = Lhat^+ V for the V it was handed, kept as its
    # basis in node values, and it factors without a solver choice.
    calls = count_factors(monkeypatch)
    monkeypatch.setattr(LaplacianSolver, "choose", None)
    g = weighted_torus(8)
    for u in g.nodes():
        g.add_node(u, 1.0 + u % 3)
    v = off_kernel_basis(g, 4, np.random.default_rng(2))
    est = SketchEstimator.build(g, np.random.default_rng(0), 16, carry_of(g, v))
    lhat, w_sqrt = symmetrized_laplacian(g)
    assert calls == [64]
    # As node values, W^{-1/2} X: the exact rows. QR may flip V's signs.
    assert np.array_equal(est.basis, est.norm_columns[:4].T)
    x = est.basis * w_sqrt[:, None]
    assert np.allclose(np.abs(v.T @ (lhat @ x)), np.eye(4), atol=1e-10)


def test_a_basis_that_lost_rank_falls_back_to_lanczos(monkeypatch):
    g = weighted_torus(8)
    v = off_kernel_basis(g, 4, np.random.default_rng(2))
    v[:, 3] = v[:, 0] + 1e-12 * v[:, 3]
    eigensolves = []
    modes = sketch.lowest_modes
    monkeypatch.setattr(
        sketch, "lowest_modes", lambda *a: eigensolves.append(a) or modes(*a)
    )
    fallback = SketchEstimator.build(g, np.random.default_rng(3), 16, carry_of(g, v))
    fresh = SketchEstimator.build(g, np.random.default_rng(3), 16)
    assert len(eigensolves) == 2
    assert np.array_equal(fallback.norm_columns, fresh.norm_columns)
    assert np.array_equal(fallback.basis, fresh.basis)


def test_a_carry_of_another_width_is_refused():
    g = weighted_torus(8)
    carry = carry_of(g, off_kernel_basis(g, 3, np.random.default_rng(2)))
    with pytest.raises(ValueError, match="3 columns, need 4"):
        SketchEstimator.build(g, np.random.default_rng(0), 16, carry)


def test_only_a_factored_build_with_room_for_lanczos_keeps_a_basis():
    torus = SketchEstimator.build(weighted_torus(8), np.random.default_rng(0), 16)
    assert torus.basis.shape == (64, 4)
    expander = generate("er", {"n": 300, "p": 0.04}, seed=0)
    pcg_path = SketchEstimator.build(expander, np.random.default_rng(0), 33)
    assert pcg_path.basis is None
    # 4 * (64 // 4) modes >= 64 nodes: the dense eigendecomposition.
    dense = SketchEstimator.build(weighted_torus(8), np.random.default_rng(0), 64)
    assert dense.basis is None


def test_a_build_makes_one_solve_call_on_every_path(monkeypatch):
    calls, solve = [], LaplacianSolver.solve
    monkeypatch.setattr(
        LaplacianSolver, "solve", lambda s, rows: calls.append(len(rows)) or solve(s, rows)
    )
    torus = weighted_torus(8)
    fresh = SketchEstimator.build(torus, np.random.default_rng(0), 16)
    carry = (fresh.nodes, fresh.basis)
    SketchEstimator.build(torus, np.random.default_rng(1), 16, carry)
    expander = generate("er", {"n": 300, "p": 0.04}, seed=0)
    assert SketchEstimator.build(expander, np.random.default_rng(0), 33).basis is None
    # Fresh: 12 norm and 16 edge probes; carried: 4 basis rows besides;
    # PCG: 25 norm and 33 edge probes.
    assert calls == [28, 32, 58]


def test_solved_exact_rows_match_the_eigenmodes_closed_form():
    # Carrying a fresh build's own basis hands the next build its eigenmodes
    # back, up to sign, so the rows it solves are Lambda^{-1} V^T again.
    g = weighted_torus(8)
    fresh = SketchEstimator.build(g, np.random.default_rng(0), 16)
    carried = SketchEstimator.build(
        g, np.random.default_rng(0), 16, (fresh.nodes, fresh.basis)
    )
    closed, solved = fresh.norm_columns[:4], carried.norm_columns[:4]
    solved = solved * np.sign(np.sum(closed * solved, axis=1))[:, None]
    gap = np.linalg.norm(solved - closed, axis=1)
    assert np.all(gap <= 1e-8 * np.linalg.norm(closed, axis=1)), gap


# -- the basis carried through a reduction ----------------------------------


def count_build_work(monkeypatch):
    """Count builds, eigensolves and solver choices; record each build's
    graph, carry and estimator."""
    calls, builds = Counter(), []
    modes, choose = sketch.lowest_modes, LaplacianSolver.choose.__func__
    build = SketchEstimator.build.__func__

    def modes_spy(*args):
        calls["lowest_modes"] += 1
        return modes(*args)

    def choose_spy(cls, *args):
        calls["choose"] += 1
        return choose(cls, *args)

    def build_spy(cls, g, rng, n_probes, carry=None):
        est = build(cls, g, rng, n_probes, carry)
        builds.append((g.copy(), carry, est))
        return est

    monkeypatch.setattr(sketch, "lowest_modes", modes_spy)
    monkeypatch.setattr(LaplacianSolver, "choose", classmethod(choose_spy))
    monkeypatch.setattr(SketchEstimator, "build", classmethod(build_spy))
    return calls, builds


def test_one_eigensolve_and_solver_choice_per_reduction_on_the_factor_path(monkeypatch):
    calls, builds = count_build_work(monkeypatch)
    g = weighted_torus(16)
    config = ReductionConfig(mode=SketchMode(33))
    result = reduce_graph(g, EdgeBudget(g.n_edges // 2), config, seed=5)
    assert len(builds) == len(result.trace.records) > 5
    assert calls == {"lowest_modes": 1, "choose": 1}
    assert builds[0][1] is None and all(carry is not None for _, carry, _ in builds[1:])


def test_the_pcg_path_chooses_and_solves_for_modes_in_every_build(monkeypatch):
    calls, builds = count_build_work(monkeypatch)
    g = generate("er", {"n": 300, "p": 0.04}, seed=0)
    config = ReductionConfig(mode=SketchMode(33))
    reduce_graph(g, MaxIterations(3), config, seed=5)
    assert len(builds) == 3
    assert calls == {"lowest_modes": 3, "choose": 3}
    assert all(carry is None and est.basis is None for _, carry, est in builds)


def test_a_basis_carried_past_contractions_reads_accurate_norms(monkeypatch):
    # The round before the second build contracted edges, so that build
    # takes the carried rows of the surviving nodes only.
    _, builds = count_build_work(monkeypatch)
    g = weighted_torus(16)
    result = reduce_graph(g, MaxIterations(2), ReductionConfig(mode=SketchMode(33)), seed=5)
    assert result.trace.records[0].contracted > 0
    (g0, _, est0), (g1, carry, est1) = builds
    assert carry[0] is est0.nodes and carry[1] is est0.basis
    assert est0.basis.shape == (g0.n_nodes, 8)
    assert est1.basis.shape == (g1.n_nodes, 8) and g1.n_nodes < g0.n_nodes
    _, exact_norm = exact_quantities(g1)
    _, norms = est1.measure(g1, g1.edge_ids())
    ratios = norms / np.array([exact_norm[eid] for eid in g1.edge_ids()])
    # test_07's bar for one build at 33 probes.
    assert np.mean((ratios >= 1 / 1.5) & (ratios <= 1.5)) >= 0.95


# -- randomized estimates --------------------------------------------------


def test_estimator_accuracy_on_random_graph():
    rng = np.random.default_rng(23)
    g = random_connected_graph(rng, 60, extra_edges=120)
    est = SketchEstimator.build(g, n_probes=400, rng=rng)
    exact_lev, exact_norm = exact_quantities(g)
    leverages, norms = est.measure(g, g.edge_ids())
    norm_ratios = norms / np.array([exact_norm[eid] for eid in g.edge_ids()])
    lev_ratios = leverages / np.array([exact_lev[eid] for eid in g.edge_ids()])
    # 400 probes put almost every edge within ~25% of truth.
    assert np.quantile(np.abs(np.log(norm_ratios)), 0.95) <= math.log(1.35)
    assert np.quantile(np.abs(np.log(lev_ratios)), 0.95) <= math.log(1.35)


def test_probe_count_improves_accuracy():
    rng = np.random.default_rng(31)
    g = random_connected_graph(rng, 50, extra_edges=80)
    _, exact_norm = exact_quantities(g)

    def worst_dev(k, seed):
        est = SketchEstimator.build(
            g, n_probes=k, rng=np.random.default_rng(seed)
        )
        _, norms = est.measure(g, g.edge_ids())
        exact = np.array([exact_norm[eid] for eid in g.edge_ids()])
        return float(np.mean(np.abs(np.log(norms / exact))))

    coarse = np.mean([worst_dev(25, s) for s in range(5)])
    fine = np.mean([worst_dev(400, s) for s in range(5)])
    assert fine < coarse / 1.5


def test_estimator_measure_returns_valid_quantities():
    rng = np.random.default_rng(37)
    g = random_connected_graph(rng, 30, extra_edges=40)
    est = SketchEstimator.build(g, n_probes=64, rng=rng)
    eids = g.edge_ids()
    leverages, norms = est.measure(g, eids)
    assert leverages.shape == norms.shape == (len(eids),)
    assert np.all(leverages > 0.0) and np.all(norms > 0.0)
    # The loop clamps raw estimates into the solver's domain.
    for eid, lev, norm in zip(eids, leverages, norms):
        eq = EdgeQuantities.from_measurements(lev, norm, g.triangle_count(eid))
        assert 0.0 < eq.leverage <= 1.0
        assert eq.update_norm > 0.0
    # The per-edge loop the column read replaces, as a reference.
    for i, eid in enumerate(eids):
        u, v, w = g.edge(eid)
        iu, iv = g.nodes().index(u), g.nodes().index(v)
        lgap = est.leverage_columns[:, iu] - est.leverage_columns[:, iv]
        ngap = est.norm_columns[:, iu] - est.norm_columns[:, iv]
        assert leverages[i] == pytest.approx(w * float(lgap @ lgap), rel=1e-13)
        assert norms[i] == pytest.approx(w * float(ngap @ ngap), rel=1e-13)
    # Each edge reads the same whatever else is measured with it.
    sub_leverages, sub_norms = est.measure(g, eids[::-3])
    assert np.array_equal(sub_leverages, leverages[::-3])
    assert np.array_equal(sub_norms, norms[::-3])



def test_estimator_measure_raises_on_an_unknown_node_id():
    # Built over the even ids 0, 2, ..., 10: the absent node 7 must not read
    # the column of node 8, its neighbour in the sorted ids.
    g = WeightedGraph.from_edges([(i, (i + 2) % 12, 1.0) for i in range(0, 12, 2)])
    est = SketchEstimator.build(g, np.random.default_rng(1), 4)
    other = WeightedGraph.from_edges([(4, 7, 1.0)])
    with pytest.raises(KeyError, match=r"\[7\]"):
        est.measure(other, other.edge_ids())

def test_a_norm_probe_along_the_kernel_is_solved_as_zero():
    # Over the unit 6-cycle with 4 probes, default_rng(0) draws a norm probe
    # of equal signs. Projected off the kernel it is zero, not roundoff that
    # the solve cannot converge on.
    g = WeightedGraph.from_edges([(i, (i + 2) % 12, 1.0) for i in range(0, 12, 2)])
    rng = np.random.default_rng(0)
    rng.standard_normal(g.n_nodes)  # the Lanczos start, drawn first
    signs = rng.integers(0, 2, size=(3, g.n_nodes))
    assert (signs[0] == signs[0, 0]).all()
    est = SketchEstimator.build(g, np.random.default_rng(0), 4)
    leverages, norms = est.measure(g, g.edge_ids())
    assert np.all(np.isfinite(leverages)) and np.all(norms > 0)


def test_estimator_rejects_a_bad_probe_count():
    # Checked where it enters, before the build draws or solves anything.
    g = random_connected_graph(np.random.default_rng(5), 10, extra_edges=6)
    for bad in (0, -1, 2.5, True):
        with pytest.raises(ValueError, match="n_probes must be an integer >= 1"):
            SketchEstimator.build(g, np.random.default_rng(0), bad)


def test_estimator_rejects_disconnected_graph():
    g = WeightedGraph.from_edges([(0, 1, 1.0), (2, 3, 1.0)])
    with pytest.raises(DisconnectedGraphError):
        SketchEstimator.build(g, n_probes=4, rng=np.random.default_rng(0))


def test_estimator_deterministic_given_rng_seed():
    rng = np.random.default_rng(41)
    g = random_connected_graph(rng, 20, extra_edges=15)
    a = SketchEstimator.build(g, n_probes=16, rng=np.random.default_rng(99))
    b = SketchEstimator.build(g, n_probes=16, rng=np.random.default_rng(99))
    assert np.array_equal(a.norm_columns, b.norm_columns)
    assert np.array_equal(a.leverage_columns, b.leverage_columns)
