"""Distances and spectral diagnostics for comparing resistance operators.

The central comparison is a per-vector hyperbolic distance between two PSD
operators: small distance certifies that the quadratic forms agree up to a
multiplicative factor, which is exactly the guarantee the reduction aims to
preserve for effective resistances.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .graph import ContractionMap, WeightedGraph
from .laplacian import PseudoinverseState, build_pseudoinverse, lift, symmetrized_laplacian


def kernel_project(
    vectors: np.ndarray, node_weights: np.ndarray | None = None
) -> np.ndarray:
    """Remove the constant component (weighted mean) from each column."""
    arr = np.asarray(vectors, dtype=float)
    flat = arr.ndim == 1
    x = arr[:, None] if flat else arr
    if node_weights is None:
        w = np.ones(x.shape[0])
    else:
        w = np.asarray(node_weights, dtype=float)
    out = x - np.outer(np.ones(x.shape[0]), (w @ x) / w.sum())
    return out[:, 0] if flat else out


def _distances(a, b, xs):
    """Per-column hyperbolic distances of 2-D `xs`, with the forms x'ax, x'bx.

    Raises ValueError when a column's quadratic form is not positive.
    """
    ga = a @ xs
    gb = b @ xs
    qa = np.einsum("it,it->t", xs, ga)
    qb = np.einsum("it,it->t", xs, gb)
    diff2 = np.einsum("it,it->t", ga - gb, ga - gb)
    x2 = np.einsum("it,it->t", xs, xs)
    bad = (qa <= 0) | (qb <= 0)
    if np.any(bad):
        raise ValueError(
            f"vector {int(np.argmax(bad))} has a non-positive quadratic form; "
            "it lies in the kernel or an operator is not PSD"
        )
    return np.arccosh(1.0 + np.maximum(diff2 * x2 / (2.0 * qa * qb), 0.0)), qa, qb


def hyperbolic_distance(
    a: np.ndarray,
    b: np.ndarray,
    vector: np.ndarray,
    node_weights: np.ndarray | None = None,
) -> float | np.ndarray:
    """Distance between PSD operators `a` and `b` along `vector`, or per
    column when `vector` is 2-D (one distance per column, as an array).

    When `node_weights` is given, columns are first projected off the
    weighted constant direction (the pseudoinverse kernel); a column with no
    remaining mass (or a non-positive quadratic form) raises ValueError.
    The distance is arccosh of 1 + |(a-b)x|^2 |x|^2 / (2 x'ax x'bx),
    symmetric, zero iff ax = bx, and obeys the triangle inequality in the
    operator argument for each fixed x.
    """
    xs = np.asarray(vector, dtype=float)
    squeeze = xs.ndim == 1
    if squeeze:
        xs = xs[:, None]
    if node_weights is not None:
        xs = kernel_project(xs, node_weights)
    out, _, _ = _distances(a, b, xs)
    return float(out[0]) if squeeze else out


@dataclass(frozen=True)
class SigmaReport:
    sigma: float
    n_vectors: int
    n_premise: int
    violation_indices: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.violation_indices


def check_sigma_approx(
    a: np.ndarray,
    b: np.ndarray,
    vectors: np.ndarray,
    sigma: float,
    node_weights: np.ndarray | None = None,
    slack: float = 1e-12,
) -> SigmaReport:
    """Verify the distance-implies-ratio guarantee on a batch of vectors.

    For every column whose distance is at most ln(sigma), the ratio of the
    two quadratic forms must land in [1/sigma, sigma]. Columns failing the
    distance premise are not checked. `slack` absorbs roundoff at the
    boundary.
    """
    if not 1.0 < sigma < math.inf:
        raise ValueError(f"sigma must be finite and exceed 1, got {sigma}")
    xs = np.asarray(vectors, dtype=float)
    if node_weights is not None:
        xs = kernel_project(xs, node_weights)
    dist, qa, qb = _distances(a, b, xs)
    premise = dist <= math.log(sigma)
    ratio = qa / qb
    bad = premise & (
        (ratio < 1.0 / sigma - slack) | (ratio > sigma + slack)
    )
    return SigmaReport(
        sigma=sigma,
        n_vectors=xs.shape[1],
        n_premise=int(premise.sum()),
        violation_indices=tuple(np.nonzero(bad)[0].tolist()),
    )


def laplacian_spectrum(g: WeightedGraph) -> np.ndarray:
    """Ascending eigenvalues of the node-weighted Laplacian."""
    lhat, _ = symmetrized_laplacian(g)
    return np.linalg.eigvalsh(lhat.toarray())


def eigen_relative_error(
    reference: np.ndarray, approx: np.ndarray, k: int
) -> float:
    """Mean relative gap of the k smallest nontrivial eigenvalues.

    Both inputs are ascending spectra whose first entry is the trivial zero,
    which is skipped. Requires k of them to exist on both sides.
    """
    a = np.asarray(reference, dtype=float)
    b = np.asarray(approx, dtype=float)
    limit = min(len(a), len(b)) - 1
    if not 1 <= k <= limit:
        raise ValueError(f"k must be in [1, {limit}], got {k}")
    ref = a[1 : k + 1]
    if np.any(ref <= 0):
        raise ValueError("reference spectrum has a non-positive nontrivial value")
    return float(np.mean(np.abs(b[1 : k + 1] - ref) / ref))


@dataclass
class ComparisonReport:
    """Distances between a reference operator and one or more candidates."""

    sup_distance: float
    distances: dict[str, float] = field(default_factory=dict)
    eigen_error: float | None = None

    def rows(self) -> list[tuple[str, str, float]]:
        out = [("hyperbolic_sup", "", self.sup_distance)]
        out += [("hyperbolic", label, d) for label, d in sorted(self.distances.items())]
        if self.eigen_error is not None:
            out.append(("eigen_relative_error", "", self.eigen_error))
        return out

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["metric", "label", "value"])
            for metric, label, value in self.rows():
                writer.writerow([metric, label, repr(value)])

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def compare_operators(
    a: np.ndarray,
    b: np.ndarray,
    vectors: dict[str, np.ndarray],
    node_weights: np.ndarray | None = None,
    eigen_error: float | None = None,
) -> ComparisonReport:
    """Hyperbolic distances of `b` from `a` along each named vector, and their
    maximum. ValueError for no vectors: a maximum over none would read 0."""
    if not vectors:
        raise ValueError("compare_operators needs at least one vector")
    distances = {
        label: hyperbolic_distance(a, b, vec, node_weights)
        for label, vec in vectors.items()
    }
    return ComparisonReport(
        sup_distance=max(distances.values()),
        distances=distances,
        eigen_error=eigen_error,
    )


def compare_output(
    base: PseudoinverseState,
    vectors: dict[str, np.ndarray],
    graph: WeightedGraph,
    cmap: ContractionMap,
    spectrum: np.ndarray | None = None,
    eigen_k: int | None = None,
) -> tuple[ComparisonReport, np.ndarray]:
    """The report and lifted candidate of `graph`: its pseudoinverse, lifted
    through `cmap`, against the original's `base` along `vectors`. With
    `eigen_k`, the eigenvalue error against the original's `spectrum`, or
    None when `graph` has at most `eigen_k` nodes."""
    if graph.n_nodes == 1:
        raise ValueError("the reduced graph has one node: its pseudoinverse is 0, "
                         "so no distance is defined")
    state = build_pseudoinverse(graph)
    candidate = lift(state.pinv, cmap, state.nodes, state.weights, base.weights)
    eig = None
    if eigen_k is not None and graph.n_nodes > eigen_k:
        eig = eigen_relative_error(spectrum, laplacian_spectrum(graph), eigen_k)
    report = compare_operators(base.pinv, candidate, vectors, base.weights, eig)
    return report, candidate
