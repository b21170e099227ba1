"""Randomized reduction loop: repeatedly act on matched edge sets.

Each iteration matches an independent set of edges, measures every matched
edge's leverage and update norm, scores it by the beta at which its expected
reduction reaches the per-edge target, keeps the cheapest fraction, and
applies an unbiased delete / contract / reweight draw to each kept edge. The
accumulated expected error is tracked against the budget. A round's edges
travel as arrays: the score reads the matched column; the closed form, the
draws and the update read only the kept rows. The matching is array work too:
the graph's greedy matching over one random order runs as numpy rank rounds
over its edge arrays. Python loops remain in two places, both local: the
triangle counts, over the matched edges and only where a score reads them
(EDGES priority with contraction); and the connectivity check, a search from
each drawn deletion that stops where its endpoints meet. The draw is one
weight change ratio delta_w / w per edge: -1 deletes, +inf contracts, and the
two actions are the limits of one reweight. One generator made from the seed
feeds, in loop order, every round's matching, any sketch build and the action
draws, which go to the kept edges in matched order.

One loop serves both modes; a backend chosen once from `config.mode` measures
the edges and follows the graph. Right after selection it reads the kept
edges' k-space rows once, in matched order; matched edges share no endpoints,
so a round's weight changes, contractions as delta_w = +inf, reach it as one
batch with that read. The exact backend's read is `edge_rows`, from which one
rank-k update, in which contractions bind their pairs, applies the batch to
the dense pseudoinverse; once the graph has at most 3/4 of the state's nodes,
the next measurement restricts the state to them, after the loop has let go of
the round's rows. The sketch backend's read carries nothing: it estimates from
a `SketchEstimator` it rebuilds after every round that acted, handing each
build the last one's deflation basis. The backend only drives the draws: the
result's pseudoinverse is `build_pseudoinverse` of the reduced graph, run on
the first read of `ReductionResult.state`, so a sketch reduction allocates no
n x n array unless asked. Exact mode ends by restricting its state to the
reduced graph and recording its drift.

The loop ends on what it has seen, a stopping time that adds no bias of its
own: once a stop criterion is `done` given the graph, the error estimate, the
rounds run and the round's beta, or by itself with no edge left or saturated.
Every stop returns the reduction reached and names its reason.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from numbers import Real
from typing import Sequence

import numpy as np

from .action import (
    EdgeQuantities,
    Priority,
    activation_beta,
    expected_error,
    optimal_action,
)
from .graph import ContractionMap, WeightedGraph, _check_count
from .laplacian import (
    DisconnectedGraphError,
    EdgeRows,
    PseudoinverseState,
    build_pseudoinverse,
    contraction_update,  # unused here; perfbench/tracer.py patches it by this name
    edge_leverage,
    edge_rows,
    probe_residual,
    restrict,
    update_norm,
    woodbury_reweight,
)
from .sketch import SketchEstimator

MAX_REDRAWS = 32
# The exact state is compacted once the live graph has at most this share of
# its nodes: every round's reads and update scale with the state's size, and
# each compaction costs a gather of the survivors' rows.
_COMPACT_AT = 3 / 4


class RedrawLimitError(RuntimeError):
    """Every redraw of an iteration's actions kept disconnecting the graph."""


@dataclass(frozen=True)
class ExactMode:
    """Maintain the dense pseudoinverse throughout the reduction."""


@dataclass(frozen=True)
class SketchMode:
    """Estimate per-edge quantities with random projections and linear solves.

    No dense pseudoinverse is built unless the result's `state` is read.
    `n_probes` = k, an integer >= 1, is the sketch's one setting and has no
    default: the per-quantity budget of each `SketchEstimator` build, which
    picks its own solver and deflation basis.
    """

    n_probes: int

    def __post_init__(self):
        _check_count("n_probes", self.n_probes, 1)


@dataclass(frozen=True)
class EdgeBudget:
    """Stop once at most `edges` edges remain."""

    edges: int

    def __post_init__(self):
        _check_count("edge budget", self.edges, 0)

    def done(self, graph: WeightedGraph, error: float, rounds=0, beta=0.0) -> bool:
        return graph.n_edges <= self.edges


@dataclass(frozen=True)
class NodeBudget:
    """Stop once at most `nodes` nodes remain."""

    nodes: int

    def __post_init__(self):
        _check_count("node budget", self.nodes, 1)

    def done(self, graph: WeightedGraph, error: float, rounds=0, beta=0.0) -> bool:
        return graph.n_nodes <= self.nodes


@dataclass(frozen=True)
class ErrorCap:
    """Stop once the accumulated expected error estimate reaches `cap`."""

    cap: float

    def __post_init__(self):
        if not self.cap > 0:
            raise ValueError(f"error cap must be positive, got {self.cap}")

    def done(self, graph: WeightedGraph, error: float, rounds=0, beta=0.0) -> bool:
        return error >= self.cap


@dataclass(frozen=True)
class BetaCap:
    """Stop once an iteration's selected beta would exceed `cap`.

    `reduce_graph` passes the shared beta right after a selection that kept
    edges, before any of the iteration's actions are applied; elsewhere beta
    is 0 and this never fires.
    """

    cap: float

    def __post_init__(self):
        if not self.cap > 0:
            raise ValueError(f"beta cap must be positive, got {self.cap}")

    def done(self, graph: WeightedGraph, error: float, rounds=0, beta=0.0) -> bool:
        return beta > self.cap


@dataclass(frozen=True)
class MaxIterations:
    """Stop once `iterations` matching rounds have run (zero is legal)."""

    iterations: int

    def __post_init__(self):
        _check_count("iterations", self.iterations, 0)

    def done(self, graph: WeightedGraph, error: float, rounds=0, beta=0.0) -> bool:
        return rounds >= self.iterations


StopCriterion = EdgeBudget | NodeBudget | ErrorCap | BetaCap | MaxIterations


@dataclass(frozen=True)
class ReductionConfig:
    """Tuning knobs for `reduce_graph`.

    keep_fraction: fraction of each matching kept for action, by score.
    target_reduction: per-edge expected reduction the score beta must deliver.
    priority: whether deletions or contractions earn reduction credit.
    allow_contraction: False restricts to pure sparsification.
    mode: ExactMode or SketchMode quantity estimation.
    """

    keep_fraction: float = 0.25
    target_reduction: float = 0.25
    priority: Priority = Priority.EDGES
    allow_contraction: bool = True
    mode: ExactMode | SketchMode = field(default_factory=ExactMode)

    def __post_init__(self):
        # Types as given: a bool is a number too, and only allow_contraction is one.
        for name, kind in (("keep_fraction", Real), ("target_reduction", Real),
                           ("priority", Priority), ("allow_contraction", bool)):
            value = getattr(self, name)
            if not isinstance(value, kind) or isinstance(value, bool) != (kind is bool):
                raise ValueError(f"{name} must be {kind.__name__}, got {value!r}")
        if not 0.0 < self.keep_fraction <= 1.0:
            raise ValueError(f"keep_fraction in (0, 1], got {self.keep_fraction}")
        if not 0.0 < self.target_reduction < math.inf:
            raise ValueError(
                f"target_reduction must be positive and finite, "
                f"got {self.target_reduction}"
            )
        if not isinstance(self.mode, (ExactMode, SketchMode)):
            raise ValueError(f"mode must be ExactMode or SketchMode, got {self.mode!r}")
        if self.priority is Priority.NODES and not self.allow_contraction:
            # Deletion earns no node credit, so no edge could ever be selected.
            raise ValueError("NODES priority needs allow_contraction=True")


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    matched: int
    selected: int
    beta: float
    deleted: int
    contracted: int
    reweighted: int
    redraws: int
    nodes_after: int
    edges_after: int
    error_after: float

    def to_json(self) -> str:
        out = dict(self.__dict__)
        if math.isinf(out["beta"]):
            out["beta"] = None
        return json.dumps(out)


@dataclass
class ReductionTrace:
    """Per-round records, why the loop stopped, and the exact state's drift.

    `drift` is `probe_residual` of the incrementally updated pseudoinverse
    against the reduced graph, taken once as the loop ends; it is None in
    sketch mode, which keeps no dense state.
    """

    records: list[IterationRecord] = field(default_factory=list)
    stopped_by: str = ""
    drift: float | None = None

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for rec in self.records:
                fh.write(rec.to_json() + "\n")
            end = {"stopped_by": self.stopped_by, "drift": self.drift}
            fh.write(json.dumps(end) + "\n")

    def totals(self) -> dict[str, int]:
        return {
            "deleted": sum(r.deleted for r in self.records),
            "contracted": sum(r.contracted for r in self.records),
            "reweighted": sum(r.reweighted for r in self.records),
        }


@dataclass
class ReductionResult:
    """The reduced graph, its contraction map, the trace and the error estimate.

    `state` is `build_pseudoinverse(graph)` with `estimated_error` set, built
    on its first read and kept: an O(n^3) build and an n x n array that a
    caller who wants only the graph never pays for. It describes `graph` as
    it is at that read; later edits of `graph` leave it as built.
    """

    graph: WeightedGraph
    cmap: ContractionMap
    trace: ReductionTrace
    estimated_error: float

    @functools.cached_property
    def state(self) -> PseudoinverseState:
        state = build_pseudoinverse(self.graph)
        state.estimated_error = self.estimated_error
        return state


def select_beta(
    scores: Sequence[float] | np.ndarray, keep_fraction: float
) -> tuple[float, list[int]]:
    """Pick the ceil(keep_fraction * len) lowest finite scores.

    Returns the largest kept score (the iteration's shared beta) and the kept
    indices in ascending order, the matched order in which draws are handed
    out. Scores are ranked rounded to float32, equal keys in index order, so
    a rounding-level difference (another BLAS thread count, say) cannot move
    a tie across the quota cut, except for the two values of a tie that
    straddle a float32 rounding boundary: about one tie in 10^7 when they are
    1e-14 apart. Scores beyond float32's range rank with the infinite ones.
    The quota counts infinite scores, so a matching whose edges are mostly
    saturated may keep fewer than the quota, possibly none.
    """
    scores = np.asarray(scores, dtype=float)
    with np.errstate(over="ignore"):
        key = scores.astype(np.float32)
    order = np.argsort(key, kind="stable")[: math.ceil(keep_fraction * len(scores))]
    kept = np.sort(order[np.isfinite(scores[order])])
    if not kept.size:
        return math.inf, []
    return float(scores[kept].max()), kept.tolist()


class _ExactBackend:
    """Dense pseudoinverse kept current by one rank-k update per round.

    Built once from the input graph and never rebuilt: a round's reweights,
    deletions and contractions are one exact Woodbury update from the kept
    edges' `edge_rows`, the contractions as its infinite-weight rows, which
    bind their pairs. Once the graph has at most `_COMPACT_AT` of the
    state's nodes, the next `measure` first lets `restrict` merge the bound
    pairs, with no round's rows alive, so the work of later rounds follows
    the live graph. Rounding is the only drift; `reduce_graph` records it at
    the end.
    """

    def __init__(self, g: WeightedGraph):
        self.state = build_pseudoinverse(g)

    def measure(self, g: WeightedGraph, eids: list[int]):
        if g.n_nodes <= _COMPACT_AT * self.state.n:
            self.compact(g)
        u, v, w = g.edge_columns(eids)
        return edge_leverage(self.state, u, v, w), update_norm(self.state, u, v, w)

    def edge_rows(self, u: np.ndarray, v: np.ndarray) -> EdgeRows:
        return edge_rows(self.state, u, v)

    def apply(self, rows: EdgeRows, delta_w: np.ndarray) -> None:
        woodbury_reweight(self.state, rows, delta_w)

    def compact(self, g: WeightedGraph) -> PseudoinverseState:
        """Restrict the state to `g`'s nodes, merging its bound pairs."""
        nodes = g.nodes()
        return restrict(self.state, nodes, [g.node_weight(x) for x in nodes])


class _SketchBackend:
    """Sketched estimates, rebuilt for the first round after any action.

    Between builds it holds only the last build's node ids and basis, and
    hands them to the next build as its `carry` (see `SketchEstimator`). Its
    kept edges' rows carry nothing: an action only drops the estimator. It
    refuses an empty or disconnected input up front, as the exact backend's
    input build does, so a stop met before the first build still raises.
    """

    def __init__(self, g: WeightedGraph, mode: SketchMode, rng: np.random.Generator):
        if g.n_nodes == 0:
            raise ValueError("empty graph")
        if not g.is_connected():
            raise DisconnectedGraphError("sketch estimates require a connected graph")
        self.mode = mode
        self.rng = rng
        self.estimator: SketchEstimator | None = None
        self.carry: tuple[np.ndarray, np.ndarray] | None = None

    def measure(self, g: WeightedGraph, eids: list[int]):
        if self.estimator is None:
            est = SketchEstimator.build(g, self.rng, self.mode.n_probes, self.carry)
            self.carry = None if est.basis is None else (est.nodes, est.basis)
            self.estimator = est
        return self.estimator.measure(g, eids)

    def edge_rows(self, u: np.ndarray, v: np.ndarray) -> None:
        return None

    def apply(self, rows: None, delta_w: np.ndarray) -> None:
        self.estimator = None


def _apply(
    g: WeightedGraph,
    backend: _ExactBackend | _SketchBackend,
    cmap: ContractionMap,
    eids: list[int],
    w: np.ndarray,
    rows: EdgeRows | None,
    ratios: np.ndarray,
) -> tuple[int, int, int]:
    """Apply a round's drawn actions; returns (deleted, contracted, reweighted).

    `w` holds the kept edges' weights, `rows` the backend's read of them and
    `ratios` each edge's drawn delta_w / w: -1 deletes, +inf contracts, 0
    leaves the edge alone and any other value reweights. The graph deletes
    and reweights first (all endpoints still present), then contracts.
    Matched edges are disjoint, so ids stay valid. If any edge acts, the
    backend updates from `rows` in one call, in matched order; it drops the
    rows whose delta_w is 0.
    """
    deleted = ratios == -1.0
    contracted = ratios == np.inf
    reweighted = ~(deleted | contracted) & (ratios != 0.0)
    for i in np.flatnonzero(deleted):
        g.delete_edge(eids[i])
    new_weights = w * (1.0 + ratios)
    for i in np.flatnonzero(reweighted):
        g.set_edge_weight(eids[i], new_weights[i])
    for i in np.flatnonzero(contracted):
        rec = g.contract_edge(eids[i])
        cmap.merge(rec.survivor, rec.removed)
    counts = int(deleted.sum()), int(contracted.sum()), int(reweighted.sum())
    if any(counts):
        backend.apply(rows, w * ratios)
    return counts


def reduce_graph(
    graph: WeightedGraph,
    stop: StopCriterion | Sequence[StopCriterion],
    config: ReductionConfig | None = None,
    seed: int = 0,
) -> ReductionResult:
    """Reduce `graph` until a stop criterion fires.

    Each kept edge's draw leaves the expected pseudoinverse unchanged on its
    own, but a round draws all of its kept edges from the same state, and on
    sparse graphs where they couple strongly the round as a whole is biased.

    The criteria are asked in the order given, before each round and, with
    the shared beta, after a selection that kept edges; the first one done
    names the stop in `trace.stopped_by`. The loop stops by itself as
    "no_edges", or as "saturated" once every edge was matched since the last
    action and none acted: such a round leaves the graph and the backend as
    they were, so no later one would act. Every stop returns the graph, map
    and error reached, so a budget may be unmet.

    The input graph is not modified. Raises DisconnectedGraphError for
    disconnected input; RedrawLimitError when an iteration cannot find a
    connectivity-preserving draw; SingularUpdateError when an update's pivot
    falls below its floor, or when rounding leaves a dense build or a
    sketch's grounded factor singular, as extreme weight ratios can; and
    ConvergenceError when a sketch build cannot solve to its tolerance. The
    output's dense build waits for the first read of `result.state`, so a
    singular one raises SingularUpdateError there, and a `result.graph`
    made disconnected before that read raises DisconnectedGraphError there.
    """
    config = config or ReductionConfig()
    _check_count("seed", seed, 0)
    stops = list(stop) if isinstance(stop, (list, tuple)) else [stop]
    if not stops:
        raise ValueError("at least one stop criterion is required")
    for s in stops:
        if not callable(getattr(s, "done", None)):
            raise ValueError(f"not a stop criterion: {s!r}")

    g = graph.copy()
    cmap = ContractionMap.identity(g.nodes())
    rng = np.random.default_rng(seed)
    if isinstance(config.mode, SketchMode):
        backend = _SketchBackend(g, config.mode, rng)
    else:
        backend = _ExactBackend(g)

    trace = ReductionTrace()
    estimated_error = 0.0
    idle: set[int] = set()  # edges matched since the last action
    iteration = 0  # index t of the iteration about to run

    def stop_reason(beta: float = 0.0) -> str | None:
        for s in stops:
            if s.done(g, estimated_error, iteration, beta):
                return type(s).__name__
        if not g.n_edges:
            return "no_edges"
        if len(idle) == g.n_edges:
            return "saturated"
        return None

    while (reason := stop_reason()) is None:
        matched = g.independent_edge_set(rng)
        leverages, norms = backend.measure(g, matched)
        # Only r_contract under EDGES reads triangle counts; a score that
        # never contracts, or counts nodes, is the same for any counts.
        if config.priority is Priority.EDGES and config.allow_contraction:
            triangles = np.array([g.triangle_count(eid) for eid in matched])
        else:
            triangles = np.zeros(len(matched), dtype=np.int64)
        eq = EdgeQuantities.from_measurements(
            leverages, norms, triangles, config.priority
        )
        scores = activation_beta(eq, config.target_reduction, config.allow_contraction)
        beta, kept = select_beta(scores, config.keep_fraction)
        if kept and (reason := stop_reason(beta)) is not None:
            break

        # Only the kept rows draw an action, so only they are solved.
        eq = EdgeQuantities(
            eq.leverage[kept], eq.update_norm[kept], eq.triangles[kept], eq.priority
        )
        dist = optimal_action(eq, beta, config.allow_contraction)
        eids = [matched[i] for i in kept]
        # The kept edges' rows, read once; the update applies from them.
        u, v, w = g.edge_columns(eids)
        rows = backend.edge_rows(u, v)

        # Redraw the whole iteration's actions until deletions keep the graph
        # connected. Contractions and reweights never disconnect, so checking
        # the deletions alone suffices; each is a local search in the graph
        # without them (`connected_without`).
        for attempt in range(MAX_REDRAWS):
            draws = rng.random(len(eids))
            ratios = np.where(
                draws < dist.p_delete, -1.0,
                np.where(
                    draws < dist.p_delete + dist.p_contract, np.inf, dist.reweight_ratio
                ),
            )
            cut = np.flatnonzero(ratios == -1.0)
            if not cut.size or g.connected_without([eids[i] for i in cut]):
                break
        else:
            raise RedrawLimitError(
                f"iteration {iteration}: {MAX_REDRAWS} action draws all "
                "disconnected the graph"
            )
        redraws = attempt

        n_del, n_con, n_rew = _apply(g, backend, cmap, eids, w, rows, ratios)
        del rows, u, v, w  # not held through the next compaction or build
        # Python's sum adds edge by edge in kept order; np.sum's pairwise
        # order would round the total differently.
        estimated_error += sum(expected_error(eq, dist).tolist())
        if n_del + n_con + n_rew:
            idle.clear()
        else:
            idle.update(matched)
        trace.records.append(
            IterationRecord(
                iteration, len(matched), len(kept), beta, n_del, n_con, n_rew,
                redraws, g.n_nodes, g.n_edges, estimated_error,
            )
        )
        iteration += 1
    trace.stopped_by = reason

    if isinstance(backend, _ExactBackend):
        trace.drift = probe_residual(backend.compact(g), g)
    return ReductionResult(g, cmap, trace, estimated_error)
