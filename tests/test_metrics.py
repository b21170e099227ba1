import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphreduce.graph import WeightedGraph
from graphreduce.laplacian import build_pseudoinverse
from graphreduce.metrics import (
    ComparisonReport,
    check_sigma_approx,
    compare_operators,
    eigen_relative_error,
    hyperbolic_distance,
    kernel_project,
    laplacian_spectrum,
)
from tests.conftest import random_connected_graph


def random_psd(rng, n, floor=1e-3):
    m = rng.normal(size=(n, n))
    return m @ m.T + floor * np.eye(n)


# -- distance basics -------------------------------------------------------


def test_scaling_distance_is_log_factor():
    # For an eigenvector of a, the distance between a and c*a is |ln c|.
    rng = np.random.default_rng(0)
    a = random_psd(rng, 5)
    _, vecs = np.linalg.eigh(a)
    for c in (2.0, 0.5, 3.7):
        d = hyperbolic_distance(a, c * a, vecs[:, 2])
        assert d == pytest.approx(abs(math.log(c)), abs=1e-10)


def test_doubling_gives_ln_two():
    rng = np.random.default_rng(1)
    a = random_psd(rng, 6)
    _, vecs = np.linalg.eigh(a)
    d = hyperbolic_distance(a, 2 * a, vecs[:, 0])
    assert d == pytest.approx(math.log(2.0), abs=1e-10)


def test_identity_and_symmetry():
    rng = np.random.default_rng(2)
    a, b = random_psd(rng, 4), random_psd(rng, 4)
    x = rng.normal(size=4)
    assert hyperbolic_distance(a, a, x) == 0.0
    assert hyperbolic_distance(a, b, x) == pytest.approx(
        hyperbolic_distance(b, a, x), rel=1e-12
    )


def test_scale_invariance_in_vector():
    rng = np.random.default_rng(3)
    a, b = random_psd(rng, 5), random_psd(rng, 5)
    x = rng.normal(size=5)
    d1 = hyperbolic_distance(a, b, x)
    d2 = hyperbolic_distance(a, b, 7.5 * x)
    assert d1 == pytest.approx(d2, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10_000))
def test_triangle_inequality(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    a, b, c = (random_psd(rng, n) for _ in range(3))
    x = rng.normal(size=n)
    dac = hyperbolic_distance(a, c, x)
    dab = hyperbolic_distance(a, b, x)
    dbc = hyperbolic_distance(b, c, x)
    assert dac <= dab + dbc + 1e-9


def test_vectorized_matches_scalar():
    rng = np.random.default_rng(4)
    a, b = random_psd(rng, 6), random_psd(rng, 6)
    xs = rng.normal(size=(6, 40))
    batch = hyperbolic_distance(a, b, xs)
    for t in range(40):
        assert batch[t] == pytest.approx(hyperbolic_distance(a, b, xs[:, t]))


def test_kernel_vector_rejected():
    g = WeightedGraph.from_edges([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    p = build_pseudoinverse(g).pinv
    with pytest.raises(ValueError):
        hyperbolic_distance(p, p * 1.1, np.ones(3), node_weights=np.ones(3))


def test_projection_respects_node_weights():
    w = np.array([1.0, 2.0, 1.0])
    x = np.array([1.0, 1.0, 5.0])
    proj = kernel_project(x, w)
    assert w @ proj == pytest.approx(0.0, abs=1e-12)
    # Unweighted projection gives a different vector.
    assert not np.allclose(proj, kernel_project(x))


def test_distance_uses_weighted_projection():
    # On a node-weighted graph the pseudoinverse annihilates the constant
    # only after the weighted projection, so distances must be finite and
    # small for a mild perturbation.
    rng = np.random.default_rng(5)
    g = random_connected_graph(rng, 10, extra_edges=12, weighted_nodes=True)
    p = build_pseudoinverse(g).pinv
    w = np.array([g.node_weight(u) for u in g.nodes()])
    x = rng.normal(size=10) + 3.0  # large constant component
    d = hyperbolic_distance(p, 1.05 * p, x, node_weights=w)
    # Scaling by 1.05 forces at least ln(1.05); a general vector may see
    # more, but the weighted projection keeps the distance finite and tame.
    assert math.log(1.05) - 1e-9 <= d < 1.0


# -- the sigma guarantee ---------------------------------------------------


def test_sigma_check_on_reweighted_graph():
    rng = np.random.default_rng(6)
    g = random_connected_graph(rng, 16, extra_edges=24)
    h = g.copy()
    for eid in h.edge_ids():
        u, v, w = h.edge(eid)
        h.set_edge_weight(eid, w * float(rng.uniform(0.9, 1.1)))
    pa = build_pseudoinverse(g).pinv
    pb = build_pseudoinverse(h).pinv
    xs = rng.normal(size=(16, 5000))
    report = check_sigma_approx(pa, pb, xs, sigma=1.3)
    assert report.ok
    assert report.n_vectors == 5000
    assert report.n_premise > 0


def test_sigma_premise_filter():
    # a vs 3a: every distance is ln 3 > ln 1.3, so nothing is checked even
    # though every ratio is far outside [1/1.3, 1.3].
    rng = np.random.default_rng(7)
    a = random_psd(rng, 8)
    xs = rng.normal(size=(8, 100))
    report = check_sigma_approx(a, 3.0 * a, xs, sigma=1.3)
    assert report.n_premise == 0
    assert report.ok


def test_sigma_validation():
    rng = np.random.default_rng(8)
    a = random_psd(rng, 4)
    with pytest.raises(ValueError):
        check_sigma_approx(a, a, rng.normal(size=(4, 3)), sigma=1.0)


@pytest.mark.parametrize("sigma", [math.nan, math.inf])
def test_sigma_must_be_finite(sigma):
    # NaN meets no premise, so nothing is checked; inf admits every ratio.
    rng = np.random.default_rng(8)
    a = random_psd(rng, 4)
    with pytest.raises(ValueError, match="sigma must be finite and exceed 1"):
        check_sigma_approx(a, a, rng.normal(size=(4, 3)), sigma=sigma)


# -- spectra ---------------------------------------------------------------


def test_triangle_spectrum():
    g = WeightedGraph.from_edges([(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])
    spec = laplacian_spectrum(g)
    assert np.allclose(spec, [0.0, 3.0, 3.0], atol=1e-12)


def test_spectrum_matches_dense_eigendecomposition():
    rng = np.random.default_rng(9)
    g = random_connected_graph(rng, 12, extra_edges=15, weighted_nodes=True)
    from graphreduce.laplacian import laplacian_matrix

    spec = laplacian_spectrum(g)
    # The node-weighted Laplacian is similar to the symmetrized form, so the
    # (generally non-symmetric) dense matrix has the same spectrum.
    dense = np.sort(np.linalg.eigvals(laplacian_matrix(g)).real)
    assert np.allclose(spec, dense, atol=1e-8)


def test_eigen_relative_error_values():
    spec = np.array([0.0, 1.0, 2.0, 4.0])
    assert eigen_relative_error(spec, spec, 3) == 0.0
    doubled = np.array([0.0, 2.0, 4.0, 8.0])
    assert eigen_relative_error(spec, doubled, 3) == pytest.approx(1.0)
    mixed = np.array([0.0, 1.1, 2.0, 4.0])
    assert eigen_relative_error(spec, mixed, 2) == pytest.approx(0.05)


def test_eigen_relative_error_validation():
    spec = np.array([0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        eigen_relative_error(spec, spec, 0)
    with pytest.raises(ValueError):
        eigen_relative_error(spec, np.array([0.0, 1.0]), 2)


# -- reports ---------------------------------------------------------------


def test_comparison_report_roundtrip(tmp_path):
    rng = np.random.default_rng(11)
    a, b = random_psd(rng, 5), random_psd(rng, 5)
    vectors = {"fiedler": rng.normal(size=5), "median": rng.normal(size=5)}
    report = compare_operators(a, b, vectors, eigen_error=0.125)
    assert report.sup_distance == pytest.approx(max(report.distances.values()))
    assert set(report.distances) == {"fiedler", "median"}

    path = tmp_path / "report.csv"
    report.write_csv(str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "metric,label,value"
    assert len(lines) == 1 + 1 + 2 + 1

    blob = json.loads(report.to_json())
    assert blob["eigen_error"] == 0.125
    assert blob["sup_distance"] == pytest.approx(report.sup_distance)


def test_comparison_over_no_vectors_refused():
    # A maximum over no distances would report the operators as equal.
    rng = np.random.default_rng(12)
    a, b = random_psd(rng, 4), random_psd(rng, 4)
    with pytest.raises(ValueError, match="at least one vector"):
        compare_operators(a, b, {})
