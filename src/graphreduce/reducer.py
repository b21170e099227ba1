"""Randomized reduction loop: repeatedly act on matched edge sets.

Each iteration matches an independent set of edges, measures every matched
edge's leverage and update norm, scores it by the beta at which its expected
reduction reaches the per-edge target, keeps the cheapest fraction, and
applies an unbiased delete / contract / reweight draw to each kept edge. The
accumulated expected error is tracked against the budget. A round's edges
travel as one column: they are scored, selected, solved, drawn and applied as
arrays; only the greedy matching and the triangle counts loop over edges. The
draw is one weight change ratio delta_w / w per edge: -1 deletes, +inf
contracts, and the two actions are the limits of one reweight. One generator
made from the seed feeds, in loop order, every round's matching, any sketch
build and the action draws.

One loop serves both modes; a backend chosen once from `config.mode` measures
the edges and follows the graph. Matched edges share no endpoints, so a
round's weight changes, contractions last as delta_w = +inf, reach the
backend as one batch. The exact backend applies it to the dense
pseudoinverse as one rank-k update; the sketch backend estimates from a
`SketchEstimator` it rebuilds after every round that acted, and forms the
dense pseudoinverse only at the end.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .action import (
    EdgeQuantities,
    Priority,
    activation_beta,
    expected_error,
    optimal_action,
)
from .graph import ContractionMap, WeightedGraph
from .laplacian import (
    REBUILD_INTERVAL,
    PseudoinverseState,
    build_pseudoinverse,
    contraction_update,  # unused here; perfbench/tracer.py patches it by this name
    edge_leverage,
    update_norm,
    woodbury_reweight,
)
from .sketch import SketchEstimator

MAX_REDRAWS = 32


class RedrawLimitError(RuntimeError):
    """Every redraw of an iteration's actions kept disconnecting the graph."""


class StallError(RuntimeError):
    """Every edge was matched since the last action and none acted."""


@dataclass(frozen=True)
class ExactMode:
    """Maintain the dense pseudoinverse throughout the reduction."""


@dataclass(frozen=True)
class SketchMode:
    """Estimate per-edge quantities with random projections and linear solves.

    The dense pseudoinverse is only built once at the end. `n_probes` of 0
    picks the default rank, `default_probe_count(n, epsilon)`; that is
    `epsilon`'s only use. Of the k = `n_probes` vectors, update norms spend
    k // 4 on exact lowest eigenmodes and the rest on unbiased sign probes;
    leverages use k edge probes. Each build solves with Jacobi-PCG while its
    first probe converges within sqrt(n) matvecs (expanders), with memory
    linear in the edges; otherwise (grids, tori, lattices) with one sparse
    factor of the grounded Laplacian, holding fill x nnz entries, that also
    serves the eigensolve.
    """

    n_probes: int = 0
    epsilon: float = 0.25

    def __post_init__(self):
        if not self.n_probes >= 0:
            raise ValueError(f"n_probes must be >= 0, got {self.n_probes}")
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")


@dataclass(frozen=True)
class EdgeBudget:
    """Stop once at most `edges` edges remain."""

    edges: int

    def __post_init__(self):
        if not self.edges >= 0:
            raise ValueError(f"edge budget must be >= 0, got {self.edges}")

    def done(self, graph: WeightedGraph, error: float) -> bool:
        return graph.n_edges <= self.edges


@dataclass(frozen=True)
class NodeBudget:
    """Stop once at most `nodes` nodes remain."""

    nodes: int

    def __post_init__(self):
        if not self.nodes >= 1:
            raise ValueError(f"node budget must be >= 1, got {self.nodes}")

    def done(self, graph: WeightedGraph, error: float) -> bool:
        return graph.n_nodes <= self.nodes


@dataclass(frozen=True)
class ErrorCap:
    """Stop once the accumulated expected error estimate reaches `cap`."""

    cap: float

    def __post_init__(self):
        if not self.cap > 0:
            raise ValueError(f"error cap must be positive, got {self.cap}")

    def done(self, graph: WeightedGraph, error: float) -> bool:
        return error >= self.cap


@dataclass(frozen=True)
class BetaCap:
    """Stop once an iteration's selected beta would exceed `cap`.

    Checked against the shared beta right after selection, before any of the
    iteration's actions are applied.
    """

    cap: float

    def __post_init__(self):
        if not self.cap > 0:
            raise ValueError(f"beta cap must be positive, got {self.cap}")

    def done(self, graph: WeightedGraph, error: float) -> bool:
        return False


@dataclass(frozen=True)
class MaxIterations:
    """Stop after `iterations` matching rounds (zero is legal)."""

    iterations: int

    def __post_init__(self):
        if not self.iterations >= 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")

    def done(self, graph: WeightedGraph, error: float) -> bool:
        return False


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
    records: list[IterationRecord] = field(default_factory=list)
    stopped_by: str = ""

    def append(self, rec: IterationRecord) -> None:
        self.records.append(rec)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for rec in self.records:
                fh.write(rec.to_json() + "\n")
            fh.write(json.dumps({"stopped_by": self.stopped_by}) + "\n")

    def totals(self) -> dict[str, int]:
        return {
            "deleted": sum(r.deleted for r in self.records),
            "contracted": sum(r.contracted for r in self.records),
            "reweighted": sum(r.reweighted for r in self.records),
        }


@dataclass
class ReductionResult:
    graph: WeightedGraph
    cmap: ContractionMap
    state: PseudoinverseState
    trace: ReductionTrace


def select_beta(
    scores: Sequence[float] | np.ndarray, keep_fraction: float
) -> tuple[float, list[int]]:
    """Pick the ceil(keep_fraction * len) lowest finite scores.

    Returns the largest kept score (the iteration's shared beta) and the kept
    indices, lowest score first; equal scores keep their index order. The
    quota counts infinite scores, so a matching whose edges are mostly
    saturated may keep fewer than the quota, possibly none.
    """
    scores = np.asarray(scores, dtype=float)
    order = np.argsort(scores, kind="stable")[: math.ceil(keep_fraction * len(scores))]
    kept = order[np.isfinite(scores[order])]
    if not kept.size:
        return math.inf, []
    return float(scores[kept[-1]]), kept.tolist()


class _ExactBackend:
    """Dense pseudoinverse kept current by one rank-k update per round.

    A round's reweights, deletions and contractions are one Woodbury update,
    the contractions as its infinite-weight rows, then one compaction. The
    state is rebuilt at the first `measure` or `finalize` after the rank
    applied since the last build reaches `REBUILD_INTERVAL`.
    """

    def __init__(self, g: WeightedGraph):
        self.state = build_pseudoinverse(g)

    def _current(self, g: WeightedGraph) -> PseudoinverseState:
        # Rebuilt between rounds, once the updates may have drifted.
        if self.state.updates >= REBUILD_INTERVAL:
            self.state = build_pseudoinverse(g)
        return self.state

    def measure(self, g: WeightedGraph, eids: list[int]):
        state = self._current(g)
        u, v, w = g.edge_columns(eids)
        return edge_leverage(state, u, v, w), update_norm(state, u, v, w)

    def apply(self, u: np.ndarray, v: np.ndarray, delta_w: np.ndarray) -> None:
        woodbury_reweight(self.state, u, v, delta_w)

    def finalize(self, g: WeightedGraph) -> PseudoinverseState:
        return self._current(g)


class _SketchBackend:
    """Sketched estimates, rebuilt for the first round after any action."""

    def __init__(self, mode: SketchMode, rng: np.random.Generator):
        self.mode = mode
        self.rng = rng
        self.estimator: SketchEstimator | None = None

    def measure(self, g: WeightedGraph, eids: list[int]):
        if self.estimator is None:
            self.estimator = SketchEstimator.build(
                g,
                n_probes=self.mode.n_probes,
                epsilon=self.mode.epsilon,
                rng=self.rng,
            )
        return self.estimator.measure(g, eids)

    def apply(self, u: np.ndarray, v: np.ndarray, delta_w: np.ndarray) -> None:
        self.estimator = None

    def finalize(self, g: WeightedGraph) -> PseudoinverseState:
        return build_pseudoinverse(g)


def _apply(
    g: WeightedGraph,
    backend: _ExactBackend | _SketchBackend,
    cmap: ContractionMap,
    eids: list[int],
    ratios: np.ndarray,
) -> tuple[int, int, int]:
    """Apply a round's drawn actions; returns (deleted, contracted, reweighted).

    `ratios` holds each edge's drawn delta_w / w: -1 deletes, +inf contracts,
    0 leaves the edge alone and any other value reweights. The graph deletes
    and reweights first (all endpoints still present), then contracts.
    Matched edges are disjoint, so ids stay valid, and the acting edges reach
    the backend in one call, contractions last. An edge stores its smaller
    endpoint first, which is the one a contraction keeps.
    """
    u, v, w = g.edge_columns(eids)
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
    acting = np.concatenate(
        [np.flatnonzero(deleted | reweighted), np.flatnonzero(contracted)]
    )
    if acting.size:
        backend.apply(u[acting], v[acting], w[acting] * ratios[acting])
    return int(deleted.sum()), int(contracted.sum()), int(reweighted.sum())


def reduce_graph(
    graph: WeightedGraph,
    stop: StopCriterion | Sequence[StopCriterion],
    config: ReductionConfig | None = None,
    seed: int = 0,
) -> ReductionResult:
    """Reduce `graph` until a stop criterion fires, preserving E[pinv].

    The input graph is not modified. Raises DisconnectedGraphError for
    disconnected input, RedrawLimitError when an iteration cannot find a
    connectivity-preserving draw, StallError once every edge was matched
    since the last action without acting: a round that acts on nothing
    leaves the graph and the backend as they were, so none ever will.
    """
    config = config or ReductionConfig()
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    stops = list(stop) if isinstance(stop, (list, tuple)) else [stop]
    if not stops:
        raise ValueError("at least one stop criterion is required")
    beta_cap = min((s.cap for s in stops if isinstance(s, BetaCap)), default=math.inf)
    max_iters = min(
        (s.iterations for s in stops if isinstance(s, MaxIterations)), default=None
    )

    g = graph.copy()
    cmap = ContractionMap.identity(g.nodes())
    rng = np.random.default_rng(seed)
    if isinstance(config.mode, SketchMode):
        backend = _SketchBackend(config.mode, rng)
    else:
        backend = _ExactBackend(g)

    trace = ReductionTrace()
    estimated_error = 0.0
    idle: set[int] = set()  # edges matched since the last action
    iteration = 0  # index t of the iteration about to run

    def stop_reason() -> str | None:
        if max_iters is not None and iteration >= max_iters:
            return "MaxIterations"
        for s in stops:
            if s.done(g, estimated_error):
                return type(s).__name__
        return None

    while True:
        reason = stop_reason()
        if reason is not None:
            trace.stopped_by = reason
            break
        if g.n_edges == 0:
            trace.stopped_by = "no_edges"
            break

        matched = g.independent_edge_set(rng)
        leverages, norms = backend.measure(g, matched)
        triangles = np.array([g.triangle_count(eid) for eid in matched])
        eq = EdgeQuantities.from_measurements(
            leverages, norms, triangles, config.priority
        )
        scores = activation_beta(eq, config.target_reduction, config.allow_contraction)
        beta, kept = select_beta(scores, config.keep_fraction)

        if kept and beta > beta_cap:
            trace.stopped_by = "BetaCap"
            break

        eq = EdgeQuantities(
            eq.leverage[kept], eq.update_norm[kept], eq.triangles[kept], eq.priority
        )
        dist = optimal_action(eq, beta, config.allow_contraction)
        eids = [matched[i] for i in kept]

        # Redraw the whole iteration's actions until deletions keep the graph
        # connected. Contractions and reweights never disconnect, and matched
        # edges share no endpoints, so checking the deletions alone suffices.
        # Of those, only the triangle-free ones are checked: a deleted edge
        # (u, v) with a common neighbour w keeps the path u-w-v, whose edges
        # touch a matched edge and so are not deleted themselves. The graph
        # without all deletions is connected iff it is without these.
        for attempt in range(MAX_REDRAWS):
            draws = rng.random(len(eids))
            ratios = np.where(
                draws < dist.p_delete,
                -1.0,
                np.where(
                    draws < dist.p_delete + dist.p_contract, np.inf, dist.reweight_ratio
                ),
            )
            cut = np.flatnonzero((ratios == -1.0) & (eq.triangles == 0))
            if not cut.size or g.connected_without([eids[i] for i in cut]):
                break
        else:
            raise RedrawLimitError(
                f"iteration {iteration}: {MAX_REDRAWS} action draws all "
                "disconnected the graph"
            )
        redraws = attempt

        n_del, n_con, n_rew = _apply(g, backend, cmap, eids, ratios)
        # Python's sum adds edge by edge in kept order; np.sum's pairwise
        # order would round the total differently.
        estimated_error += sum(expected_error(eq, dist).tolist())
        if n_del + n_con + n_rew:
            idle.clear()
        else:
            idle.update(matched)
            if len(idle) == g.n_edges:
                raise StallError(
                    f"iteration {iteration}: all {g.n_edges} edges matched "
                    "since the last action and none acted"
                )
        trace.append(
            IterationRecord(
                iteration, len(matched), len(kept), beta, n_del, n_con, n_rew,
                redraws, g.n_nodes, g.n_edges, estimated_error,
            )
        )
        iteration += 1

    state = backend.finalize(g)
    state.estimated_error = estimated_error
    return ReductionResult(g, cmap, state, trace)
