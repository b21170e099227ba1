"""JSON-driven comparison experiments producing long-format CSV tables.

An experiment fixes one input graph (generated or loaded from an edge list),
runs each configured algorithm (reduce / sparsify / coarsen) down to every
target size in a decreasing schedule, lifts each output's pseudoinverse back
to the original nodes, compares it against the original along fixed test
vectors, and aggregates mean and standard deviation over repeats. Rows come
out in long format (level, algorithm, metric, vector, mean, std) so they can
be plotted without further reshaping.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, astuple, dataclass, field, fields
from typing import Sequence

import numpy as np

from .action import Priority
from .baselines import matching_coarsen, samples_for_edge_target, ss_sparsify
from .generators import generate
from .graph import ContractionMap, WeightedGraph, _check_count, read_edgelist
from .laplacian import (
    DisconnectedGraphError, build_pseudoinverse, lift, symmetrized_laplacian
)
from .metrics import (
    eigen_relative_error,
    hyperbolic_distance,
    laplacian_spectrum,
)
from .reducer import (
    BetaCap,
    EdgeBudget,
    ErrorCap,
    ExactMode,
    MaxIterations,
    NodeBudget,
    RedrawLimitError,
    ReductionConfig,
    SketchMode,
    StopCriterion,
    reduce_graph,
)
from .sketch import ConvergenceError

# Runtime failures recorded per cell instead of aborting the sweep. A
# reduction that stops before its level is no failure: it is compared at the
# size it reached.
ALGORITHM_FAILURES = (DisconnectedGraphError, RedrawLimitError, ConvergenceError)


_COUNT_STOPS = {"edges": EdgeBudget, "nodes": NodeBudget, "iters": MaxIterations}
_CAP_STOPS = {"error": ErrorCap, "beta": BetaCap}


def parse_stop(spec: str | dict) -> list[StopCriterion]:
    """Stop criteria from "edges=40" style strings or {"edges": 40} dicts.

    Only string values go through int(); a dict's counts are checked as given.
    """
    text = isinstance(spec, str)
    if text:
        key, _, value = spec.partition("=")
        if not value:
            raise ValueError(f"stop wants key=value, got {spec!r}")
        spec = {key: value}
    out: list[StopCriterion] = []
    for key, value in spec.items():
        if key in _COUNT_STOPS:
            out.append(_COUNT_STOPS[key](int(value) if text else value))
        elif key in _CAP_STOPS:
            out.append(_CAP_STOPS[key](float(value)))
        else:
            raise ValueError(f"unknown stop criterion {key!r}")
    return out


def parse_mode(spec: str) -> ExactMode | SketchMode:
    """Quantity mode from "exact" or "sketch:K", K the sketch's probe count."""
    if spec == "exact":
        return ExactMode()
    name, _, probes = spec.partition(":") if isinstance(spec, str) else ("", "", "")
    if name != "sketch" or not probes.isdecimal():
        raise ValueError(f"mode must be 'exact' or 'sketch:K', got {spec!r}")
    return SketchMode(n_probes=int(probes))


def parse_config(options: dict, default_priority: str = "edges") -> ReductionConfig:
    """Reduction config from the keys q, d, priority, no_contraction and mode.

    The `reduce` command's flags and an experiment's reduce options share these
    names; each missing key takes its default, and no value is converted.
    """
    no_contraction = options.get("no_contraction", False)
    if not isinstance(no_contraction, bool):
        raise ValueError(f"no_contraction must be true or false, got {no_contraction!r}")
    return ReductionConfig(
        keep_fraction=options.get("q", 0.25),
        target_reduction=options.get("d", 0.25),
        priority=Priority(options.get("priority", default_priority)),
        allow_contraction=not no_contraction,
        mode=parse_mode(options.get("mode", "exact")),
    )


def probe_vectors(g: WeightedGraph, labels: Sequence[str]) -> dict[str, np.ndarray]:
    """Named eigenvectors of the node-weighted Laplacian used as probes."""
    lhat, w_sqrt = symmetrized_laplacian(g)
    _, vecs = np.linalg.eigh(lhat.toarray())
    n = g.n_nodes
    out = {}
    for label in labels:
        if label == "fiedler":
            idx = 1
        elif label == "median":
            idx = n // 2
        else:
            raise ValueError(f"unknown test vector {label!r}")
        if idx >= n:
            raise ValueError(f"graph too small for {label!r} vector")
        out[label] = vecs[:, idx] / w_sqrt
    return out


def _key(d: dict, key: str, where: str):
    """d[key], or a ValueError saying that `where` lacks the key."""
    if key not in d:
        raise ValueError(f"{where} needs a {key!r} key")
    return d[key]


@dataclass(frozen=True)
class LevelSchedule:
    """Decreasing sequence of target sizes, counted in edges or nodes."""

    target: str  # "edges" | "nodes"
    sizes: tuple[int, ...]

    def __post_init__(self):
        if self.target not in ("edges", "nodes"):
            raise ValueError(f"level target must be edges or nodes, got {self.target!r}")
        if not self.sizes:
            raise ValueError("need at least one level")
        for size in self.sizes:
            _check_count("level size", size, 1)
        if any(b >= a for a, b in zip(self.sizes, self.sizes[1:])):
            raise ValueError(f"level sizes must strictly decrease, got {self.sizes}")


# The options each algorithm kind reads; AlgorithmSpec refuses any other.
_OPTIONS = {"reduce": {"q", "d", "priority", "no_contraction", "mode", "stop"},
            "sparsify": set(), "coarsen": {"strategy"}}


@dataclass(frozen=True)
class AlgorithmSpec:
    name: str
    kind: str  # reduce | sparsify | coarsen
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _OPTIONS:
            raise ValueError(f"unknown algorithm kind {self.kind!r}")
        unknown = sorted(set(self.options) - _OPTIONS[self.kind])
        if unknown:
            raise ValueError(f"{self.kind} {self.name!r} reads no options {unknown}")


@dataclass(frozen=True)
class ExperimentSpec:
    graph: dict  # {"kind", "params"} generator spec or {"path", "node_weights"}
    levels: LevelSchedule
    algorithms: tuple[AlgorithmSpec, ...]
    runs: int = 8
    seed: int = 0
    vectors: tuple[str, ...] = ("fiedler",)
    eigen_k: int | None = None
    csv_path: str | None = None
    json_path: str | None = None

    def __post_init__(self):
        _check_count("runs", self.runs, 1)
        _check_count("seed", self.seed, 0)
        if self.eigen_k is not None:
            _check_count("eigen_k", self.eigen_k, 1)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentSpec":
        levels = _key(d, "levels", "an experiment spec")
        outputs = d.get("outputs", {})
        # A bare string would split into one-letter vector names.
        vectors = d.get("vectors", ["fiedler"])
        if not isinstance(vectors, list) or not all(isinstance(v, str) for v in vectors):
            raise ValueError(f"vectors must be a list of names, got {vectors!r}")
        return cls(
            graph=_key(d, "graph", "an experiment spec"),
            levels=LevelSchedule(
                _key(levels, "target", "levels"), tuple(_key(levels, "sizes", "levels"))
            ),
            algorithms=tuple(
                AlgorithmSpec(
                    _key(a, "name", "an algorithm"),
                    _key(a, "kind", "an algorithm"),
                    a.get("options", {}),
                )
                for a in d.get("algorithms", [])
            ),
            runs=d.get("runs", 8),
            seed=d.get("seed", 0),
            vectors=tuple(vectors),
            eigen_k=d.get("eigen_k"),
            csv_path=outputs.get("csv"),
            json_path=outputs.get("json"),
        )

    @classmethod
    def from_json(cls, path: str) -> "ExperimentSpec":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


@dataclass(frozen=True)
class ResultRow:
    level: int
    algorithm: str
    metric: str
    vector: str
    mean: float
    std: float


def load_graph(spec: ExperimentSpec) -> WeightedGraph:
    if "path" in spec.graph:
        return read_edgelist(spec.graph["path"], spec.graph.get("node_weights"))
    if "kind" not in spec.graph:
        raise ValueError("the experiment graph needs a 'kind' or a 'path' key")
    return generate(spec.graph["kind"], spec.graph.get("params", {}), spec.seed)


def _run_reduce(g, options: dict, target: str, size: int, seed: int):
    config = parse_config(options, "edges" if target == "edges" else "nodes")
    stops = [EdgeBudget(size) if target == "edges" else NodeBudget(size)]
    extras = options.get("stop", [])
    if not isinstance(extras, list):
        raise ValueError(f"the stop option wants a list of key=value strings, got {extras!r}")
    for extra in extras:
        stops.extend(parse_stop(extra))
    result = reduce_graph(g, stops, config, seed=seed)
    return result.graph, result.cmap, result.state


def _run_sparsify(g, options: dict, target: str, size: int, seed: int):
    if target != "edges":
        raise ValueError("sparsify targets edge counts, schedule counts nodes")
    n_samples = samples_for_edge_target(g, size)
    h = ss_sparsify(g, n_samples, np.random.default_rng(seed))
    # build_pseudoinverse raises when h is disconnected
    return h, ContractionMap.identity(h.nodes()), build_pseudoinverse(h)


def _run_coarsen(g, options: dict, target: str, size: int, seed: int):
    if target != "nodes":
        raise ValueError("coarsen targets node counts, schedule counts edges")
    coarse, cmap = matching_coarsen(
        g,
        strategy=options.get("strategy", "random"),
        levels=1,
        rng=np.random.default_rng(seed),
        target_nodes=size,
    )
    return coarse, cmap, build_pseudoinverse(coarse)


# Each runner returns (output graph, contraction map, pseudoinverse state).
_RUNNERS = {"reduce": _run_reduce, "sparsify": _run_sparsify, "coarsen": _run_coarsen}


def _aggregate(values: list[float]) -> tuple[float, float]:
    if not values:
        return math.nan, math.nan
    arr = np.asarray(values)
    std = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
    return float(arr.mean()), std


def run_experiment(spec: ExperimentSpec) -> list[ResultRow]:
    g = load_graph(spec)
    base = build_pseudoinverse(g)
    node_w = base.weights
    vectors = probe_vectors(g, spec.vectors)
    base_spectrum = laplacian_spectrum(g) if spec.eigen_k else None

    rows: list[ResultRow] = []
    for ai, algo in enumerate(spec.algorithms):
        for li, size in enumerate(spec.levels.sizes):
            distances: dict[str, list[float]] = {label: [] for label in vectors}
            eig_errors: list[float] = []
            out_edges: list[float] = []
            out_nodes: list[float] = []
            failures = 0
            for r in range(spec.runs):
                sub_seed = int(
                    np.random.SeedSequence((spec.seed, ai, li, r)).generate_state(1)[0]
                )
                try:
                    out_graph, cmap, state = _RUNNERS[algo.kind](
                        g, algo.options, spec.levels.target, size, sub_seed
                    )
                except ALGORITHM_FAILURES:
                    failures += 1
                    continue
                candidate = lift(state.pinv, cmap, state.nodes, state.weights, node_w)
                for label, vec in vectors.items():
                    distances[label].append(
                        hyperbolic_distance(
                            base.pinv, candidate, vec, node_weights=node_w
                        )
                    )
                if spec.eigen_k:
                    eig_errors.append(
                        eigen_relative_error(
                            base_spectrum, laplacian_spectrum(out_graph), spec.eigen_k
                        )
                    )
                out_edges.append(out_graph.n_edges)
                out_nodes.append(out_graph.n_nodes)

            for label in vectors:
                mean, std = _aggregate(distances[label])
                rows.append(ResultRow(size, algo.name, "hyperbolic", label, mean, std))
            if spec.eigen_k:
                mean, std = _aggregate(eig_errors)
                rows.append(
                    ResultRow(size, algo.name, "eigen_relative_error", "", mean, std)
                )
            for metric, values in (("edges", out_edges), ("nodes", out_nodes)):
                mean, std = _aggregate(values)
                rows.append(ResultRow(size, algo.name, metric, "", mean, std))
            rows.append(
                ResultRow(size, algo.name, "failures", "", float(failures), 0.0)
            )
    return rows


def write_rows_csv(rows: Sequence[ResultRow], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f.name for f in fields(ResultRow)])
        writer.writerows(astuple(row) for row in rows)


def read_rows_csv(path: str) -> list[ResultRow]:
    with open(path, newline="") as fh:
        return [
            ResultRow(int(r["level"]), r["algorithm"], r["metric"], r["vector"],
                      float(r["mean"]), float(r["std"]))
            for r in csv.DictReader(fh)
        ]


def write_rows_json(rows: Sequence[ResultRow], path: str) -> None:
    with open(path, "w") as fh:
        json.dump({"rows": [asdict(row) for row in rows]}, fh, indent=1)
        fh.write("\n")


def run_experiment_to_files(spec: ExperimentSpec) -> list[ResultRow]:
    rows = run_experiment(spec)
    if spec.csv_path:
        write_rows_csv(rows, spec.csv_path)
    if spec.json_path:
        write_rows_json(rows, spec.json_path)
    return rows
