"""JSON-driven comparison experiments producing long-format CSV tables.

An experiment fixes one input graph (generated or loaded from an edge list),
runs each configured algorithm (reduce / sparsify / coarsen) down to every
target size in a decreasing schedule, scores each output with
`metrics.compare_output` (the path `graphreduce metrics` takes too), and
aggregates mean and standard deviation over repeats. An output with at most
eigen_k nodes gives no eigen sample, so the eigen row averages the others.
Rows come out in long format (level, algorithm, metric, vector, mean, std)
so they can be plotted without further reshaping; writing them is the
caller's job. A spec is checked when it is built: a missing or unknown key,
a value of the wrong type, an algorithm that cannot run to the levels'
target, a node level below 2 or an eigen_k that a node level cannot hold
raises ValueError.
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
from .laplacian import DisconnectedGraphError, build_pseudoinverse, symmetrized_laplacian
from .metrics import compare_output, laplacian_spectrum
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


def parse_stop(spec: str) -> StopCriterion:
    """The stop criterion of one key=value string, such as "edges=40": the keys
    edges, nodes and iters take integers, error and beta floats."""
    key, _, value = spec.partition("=") if isinstance(spec, str) else ("", "", "")
    if not value:
        raise ValueError(f"stop wants key=value, got {spec!r}")
    kinds = {**_COUNT_STOPS, **_CAP_STOPS}
    if key not in kinds:
        raise ValueError(f"unknown stop criterion {key!r}")
    convert, wanted = (int, "an integer") if key in _COUNT_STOPS else (float, "a number")
    try:
        number = convert(value)
    except ValueError:
        raise ValueError(f"stop {spec!r}: {key} wants {wanted}") from None
    return kinds[key](number)


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
        idx = {"fiedler": 1, "median": n // 2}.get(label)
        if idx is None:
            raise ValueError(f"unknown test vector {label!r}")
        if idx >= n:
            raise ValueError(f"graph too small for {label!r} vector")
        out[label] = vecs[:, idx] / w_sqrt
    return out


def _keys(d, where: str, required: tuple[str, ...], optional: tuple[str, ...] = ()):
    """`d`, unless it is not an object, lacks a required key or holds another
    key that is not optional: then a ValueError naming the key and `where`."""
    if not isinstance(d, dict):
        raise ValueError(f"{where} must be an object, got {d!r}")
    for key in required:
        if key not in d:
            raise ValueError(f"{where} needs a {key!r} key")
    unknown = sorted(set(d) - set(required) - set(optional))
    if unknown:
        raise ValueError(f"{where} takes no keys {unknown}")
    return d


def _list(value, name: str, item: type = object) -> list:
    # A bare string would split into one-letter names, a number fail in tuple().
    if not isinstance(value, list) or not all(isinstance(v, item) for v in value):
        raise ValueError(f"{name} must be a list, got {value!r}")
    return value


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
            if self.target == "nodes" and size < 2:
                raise ValueError(f"node level {size} is below 2: a one-node output's "
                                 "pseudoinverse is 0, so no distance is defined")
        if any(b >= a for a, b in zip(self.sizes, self.sizes[1:])):
            raise ValueError(f"level sizes must strictly decrease, got {self.sizes}")


# The options each algorithm kind reads and the level targets it can count;
# the spec types refuse any other.
_OPTIONS = {"reduce": {"q", "d", "priority", "no_contraction", "mode", "stop"},
            "sparsify": set(), "coarsen": {"strategy"}}
_TARGETS = {"reduce": {"edges", "nodes"}, "sparsify": {"edges"}, "coarsen": {"nodes"}}
# The keys of a generated graph and of one read from an edge list.
_GRAPH_KEYS = {"kind": ("kind", "params"), "path": ("path", "node_weights")}


@dataclass(frozen=True)
class AlgorithmSpec:
    name: str
    kind: str  # reduce | sparsify | coarsen
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _OPTIONS:
            raise ValueError(f"unknown algorithm kind {self.kind!r}")
        if not isinstance(self.options, dict):
            raise ValueError(f"{self.kind} {self.name!r} options must be an object, "
                             f"got {self.options!r}")
        unknown = sorted(set(self.options) - _OPTIONS[self.kind])
        if unknown:
            raise ValueError(f"{self.kind} {self.name!r} reads no options {unknown}")
        if self.kind == "reduce":  # parsed now, so a bad value fails before any run
            extras = self.options.get("stop", [])
            if not isinstance(extras, list):
                raise ValueError(
                    f"the stop option wants a list of key=value strings, got {extras!r}")
            for extra in extras:
                parse_stop(extra)
            parse_config(self.options)


@dataclass(frozen=True)
class ExperimentSpec:
    graph: dict  # {"kind", "params"} generator spec or {"path", "node_weights"}
    levels: LevelSchedule
    algorithms: tuple[AlgorithmSpec, ...]
    runs: int = 8
    seed: int = 0
    vectors: tuple[str, ...] = ("fiedler",)
    eigen_k: int | None = None

    def __post_init__(self):
        graph = self.graph if isinstance(self.graph, dict) else {}
        source = "path" if "path" in graph else "kind"
        if source not in graph:
            raise ValueError("the experiment graph needs a 'kind' or a 'path' key")
        _keys(graph, f"the experiment graph with a {source!r} key", (), _GRAPH_KEYS[source])
        for algo in self.algorithms:
            if self.levels.target not in _TARGETS[algo.kind]:
                raise ValueError(
                    f"{algo.kind} {algo.name!r} cannot target {self.levels.target}")
            if algo.kind == "reduce":  # its priority defaults to the target
                try:
                    parse_config(algo.options, self.levels.target)
                except ValueError as exc:
                    raise ValueError(f"reduce {algo.name!r} at {self.levels.target} "
                                     f"levels: {exc}") from None
        if not self.vectors:  # cells would hold no distance, only sizes
            raise ValueError("an experiment needs at least one vector")
        _check_count("runs", self.runs, 1)
        _check_count("seed", self.seed, 0)
        if self.eigen_k is not None:
            _check_count("eigen_k", self.eigen_k, 1)
            if self.levels.target == "nodes" and self.eigen_k >= self.levels.sizes[-1]:
                raise ValueError(f"eigen_k {self.eigen_k} needs every node level "
                                 f"above {self.eigen_k}, got {self.levels.sizes[-1]}")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentSpec":
        _keys(d, "an experiment spec", ("graph", "levels"),
              ("algorithms", "runs", "seed", "vectors", "eigen_k"))
        levels = _keys(d["levels"], "levels", ("target", "sizes"))
        return cls(
            graph=d["graph"],
            levels=LevelSchedule(levels["target"], tuple(_list(levels["sizes"], "sizes"))),
            algorithms=tuple(
                AlgorithmSpec(**_keys(a, "an algorithm", ("name", "kind"), ("options",)))
                for a in _list(d.get("algorithms", []), "algorithms")
            ),
            vectors=tuple(_list(d.get("vectors", ["fiedler"]), "vectors", str)),
            **{key: d[key] for key in ("runs", "seed", "eigen_k") if key in d},
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
    return generate(spec.graph["kind"], spec.graph.get("params", {}), spec.seed)


def _run_reduce(g, options: dict, target: str, size: int, seed: int):
    stops = [_COUNT_STOPS[target](size), *map(parse_stop, options.get("stop", []))]
    result = reduce_graph(g, stops, parse_config(options, target), seed=seed)
    return result.graph, result.cmap


def _run_sparsify(g, options: dict, target: str, size: int, seed: int):
    n_samples = samples_for_edge_target(g, size)
    h = ss_sparsify(g, n_samples, np.random.default_rng(seed))
    return h, ContractionMap.identity(h.nodes())


def _run_coarsen(g, options: dict, target: str, size: int, seed: int):
    return matching_coarsen(
        g,
        strategy=options.get("strategy", "random"),
        levels=1,
        rng=np.random.default_rng(seed),
        target_nodes=size,
    )


# Each runner returns (output graph, contraction map). `compare_output` builds
# and scores it, and raises DisconnectedGraphError for a disconnected one.
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
    vectors = probe_vectors(g, spec.vectors)
    base_spectrum = laplacian_spectrum(g) if spec.eigen_k else None

    # One list of samples per row of a cell, keyed by (metric, vector) in row order.
    keys = [("hyperbolic", label) for label in vectors]
    keys += [("eigen_relative_error", "")] if spec.eigen_k else []
    keys += [("edges", ""), ("nodes", "")]
    rows: list[ResultRow] = []
    for ai, algo in enumerate(spec.algorithms):
        for li, size in enumerate(spec.levels.sizes):
            samples: dict[tuple[str, str], list[float]] = {key: [] for key in keys}
            failures = 0
            for r in range(spec.runs):
                sub_seed = int(
                    np.random.SeedSequence((spec.seed, ai, li, r)).generate_state(1)[0]
                )
                try:
                    out_graph, cmap = _RUNNERS[algo.kind](
                        g, algo.options, spec.levels.target, size, sub_seed
                    )
                    report, _ = compare_output(
                        base, vectors, out_graph, cmap, base_spectrum, spec.eigen_k
                    )
                except ALGORITHM_FAILURES:
                    failures += 1
                    continue
                for label, distance in report.distances.items():
                    samples["hyperbolic", label].append(distance)
                if report.eigen_error is not None:
                    samples["eigen_relative_error", ""].append(report.eigen_error)
                samples["edges", ""].append(out_graph.n_edges)
                samples["nodes", ""].append(out_graph.n_nodes)

            rows += [
                ResultRow(size, algo.name, metric, vector, *_aggregate(values))
                for (metric, vector), values in samples.items()
            ]
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
