"""Weighted undirected graphs with stable ids, contraction, and edge-list IO.

Nodes are integers carrying a positive weight; edges are undirected, carry a
positive weight, and keep the integer id they were assigned at insertion for
the whole lifetime of the graph. Parallel edges are merged by summing weights,
self loops are dropped. Contracting an edge merges its endpoints into the
smaller endpoint id and accumulates node weights, so a supernode's weight is
always the total weight of the original nodes inside it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "WeightedGraph",
    "ContractionRecord",
    "ContractionMap",
    "read_edgelist",
    "write_edgelist",
    "read_node_weights",
    "write_node_weights",
    "read_contraction_map",
    "write_contraction_map",
]


def _check_weight(kind: str, weight: float) -> None:
    if not (weight > 0 and math.isfinite(weight)):
        raise ValueError(f"{kind} weight must be positive and finite, got {weight}")


@dataclass(frozen=True)
class ContractionRecord:
    """The node a single edge contraction kept and the node it merged away."""

    survivor: int
    removed: int


class WeightedGraph:
    """Undirected graph with weighted nodes and edges.

    Node ids are arbitrary non-negative integers. Edge ids are assigned from a
    monotone counter at insertion and never reused; they survive reweighting
    and endpoint re-attachment during contraction.
    """

    def __init__(self) -> None:
        self._node_weight: dict[int, float] = {}
        self._adj: dict[int, dict[int, int]] = {}
        self._edges: dict[int, tuple[int, int, float]] = {}
        self._next_edge = 0

    # -- construction ------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        edges,
        node_weights: dict[int, float] | None = None,
    ) -> "WeightedGraph":
        """Build a graph from (u, v) or (u, v, w) tuples."""
        g = cls()
        for spec in edges:
            if len(spec) == 2:
                u, v = spec
                w = 1.0
            else:
                u, v, w = spec
            g.add_edge(u, v, w)
        if node_weights:
            for u, w in node_weights.items():
                g.add_node(u, w)
        return g

    def add_node(self, u: int, weight: float = 1.0) -> None:
        _check_weight("node", weight)
        self._node_weight[u] = float(weight)
        self._adj.setdefault(u, {})

    def add_edge(self, u: int, v: int, weight: float = 1.0) -> int:
        """Insert an edge, creating missing endpoints with unit weight.

        A parallel edge merges into the existing one (weights sum) and the
        existing id is returned. Self loops are dropped; the returned id is -1.
        """
        _check_weight("edge", weight)
        for n in (u, v):
            if n not in self._node_weight:
                self.add_node(n)
        if u == v:
            return -1
        existing = self._adj[u].get(v)
        if existing is not None:
            a, b, w0 = self._edges[existing]
            self._edges[existing] = (a, b, w0 + float(weight))
            return existing
        eid = self._next_edge
        self._next_edge += 1
        a, b = (u, v) if u < v else (v, u)
        self._edges[eid] = (a, b, float(weight))
        self._adj[u][v] = eid
        self._adj[v][u] = eid
        return eid

    def copy(self) -> "WeightedGraph":
        g = WeightedGraph()
        g._node_weight = dict(self._node_weight)
        g._adj = {u: dict(nbrs) for u, nbrs in self._adj.items()}
        g._edges = dict(self._edges)
        g._next_edge = self._next_edge
        return g

    # -- inspection --------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self._node_weight)

    @property
    def n_edges(self) -> int:
        return len(self._edges)

    def nodes(self) -> list[int]:
        """Node ids in ascending order."""
        return sorted(self._node_weight)

    def edge_ids(self) -> list[int]:
        """Edge ids in ascending (insertion) order."""
        return sorted(self._edges)

    def edge_arrays(self, nodes=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Array view of the graph for assembling matrices.

        Returns (ends, edge_weights, node_weights): an m x 2 array holding
        each edge's endpoints as positions in `nodes` (default: ascending
        ids), with rows and `edge_weights` in edge-id order, and the node
        weights in `nodes` order.
        """
        order = self.nodes() if nodes is None else list(nodes)
        pos = {u: i for i, u in enumerate(order)}
        edges = [self._edges[eid] for eid in self.edge_ids()]
        ends = np.column_stack([
            np.array([pos[u] for u, _, _ in edges], dtype=np.intp),
            np.array([pos[v] for _, v, _ in edges], dtype=np.intp),
        ])
        return (
            ends,
            np.array([w for _, _, w in edges], dtype=float),
            np.array([self._node_weight[u] for u in order], dtype=float),
        )

    def edge_columns(self, eids) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Endpoint ids and weights of the edges `eids`, as three arrays."""
        edges = [self._edges[eid] for eid in eids]
        return (
            np.array([u for u, _, _ in edges], dtype=np.intp),
            np.array([v for _, v, _ in edges], dtype=np.intp),
            np.array([w for _, _, w in edges], dtype=float),
        )

    def node_weight(self, u: int) -> float:
        return self._node_weight[u]

    def total_node_weight(self) -> float:
        return math.fsum(self._node_weight.values())

    def endpoints(self, eid: int) -> tuple[int, int]:
        u, v, _ = self._edges[eid]
        return u, v

    def edge_weight(self, eid: int) -> float:
        return self._edges[eid][2]

    def edge(self, eid: int) -> tuple[int, int, float]:
        return self._edges[eid]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj.get(u, ())

    def edge_between(self, u: int, v: int) -> int | None:
        return self._adj.get(u, {}).get(v)

    def degree(self, u: int) -> int:
        return len(self._adj[u])

    def triangle_count(self, eid: int) -> int:
        """Number of triangles through an edge (common-neighbor count)."""
        u, v, _ = self._edges[eid]
        return len(self._adj[u].keys() & self._adj[v].keys())

    # -- mutation ----------------------------------------------------------

    def set_edge_weight(self, eid: int, weight: float) -> None:
        _check_weight("edge", weight)
        u, v, _ = self._edges[eid]
        self._edges[eid] = (u, v, float(weight))

    def delete_edge(self, eid: int) -> None:
        u, v, _ = self._edges.pop(eid)
        del self._adj[u][v]
        del self._adj[v][u]

    def contract_edge(self, eid: int) -> ContractionRecord:
        """Merge the endpoints of an edge into the smaller endpoint id.

        The contracted edge disappears, the survivor inherits the removed
        node's edges (parallel pairs merge by weight sum, the loop the edge
        itself would form is dropped) and the node weights add.
        """
        u, v, _ = self._edges.pop(eid)
        survivor, removed = (u, v) if u < v else (v, u)
        del self._adj[survivor][removed]
        del self._adj[removed][survivor]

        for nbr in sorted(self._adj[removed]):
            other = self._adj[removed][nbr]
            _, _, ow = self._edges[other]
            kept = self._adj[survivor].get(nbr)
            if kept is not None:
                ka, kb, kw = self._edges[kept]
                self._edges[kept] = (ka, kb, kw + ow)
                del self._edges[other]
            else:
                lo, hi = (survivor, nbr) if survivor < nbr else (nbr, survivor)
                self._edges[other] = (lo, hi, ow)
                self._adj[survivor][nbr] = other
                self._adj[nbr][survivor] = other
            del self._adj[nbr][removed]
        del self._adj[removed]
        self._node_weight[survivor] += self._node_weight.pop(removed)
        return ContractionRecord(survivor, removed)

    # -- connectivity ------------------------------------------------------

    def is_connected(self) -> bool:
        """True when every node is reachable from every other (empty: True)."""
        return self.connected_without(())

    def connected_without(self, excluded_edges) -> bool:
        """Connectivity as if the given edge ids had been deleted."""
        if self.n_nodes <= 1:
            return True
        excluded = set(excluded_edges)
        start = next(iter(self._node_weight))
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for v, eid in self._adj[u].items():
                if eid in excluded or v in seen:
                    continue
                seen.add(v)
                stack.append(v)
        return len(seen) == self.n_nodes

    # -- matchings ---------------------------------------------------------

    def independent_edge_set(self, rng: np.random.Generator) -> list[int]:
        """Greedy maximal set of vertex-disjoint edges, in one random order.

        The edges are shuffled once and passed to `greedy_matching`. The
        result is maximal, so it has at least half the edges of a maximum
        matching.
        """
        return self.greedy_matching(rng.permutation(self.edge_ids()).tolist())

    def greedy_matching(self, order) -> list[int]:
        """Edge ids of `order` kept greedily: each edge whose endpoints are
        both still unmatched joins the matching. Maximal when `order` holds
        every edge."""
        used: set[int] = set()
        matched = []
        for eid in order:
            u, v, _ = self._edges[eid]
            if u in used or v in used:
                continue
            used.add(u)
            used.add(v)
            matched.append(eid)
        return matched


@dataclass
class ContractionMap:
    """Assignment of original nodes to the supernodes of a reduced graph."""

    originals: tuple[int, ...]
    assignment: dict[int, int] = field(default_factory=dict)
    # Supernode -> its originals, so a merge touches only the removed ones.
    _members: dict[int, list[int]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        for orig, sup in self.assignment.items():
            self._members.setdefault(sup, []).append(orig)

    @classmethod
    def identity(cls, nodes) -> "ContractionMap":
        ns = tuple(sorted(nodes))
        return cls(originals=ns, assignment={u: u for u in ns})

    def merge(self, survivor: int, removed: int) -> None:
        """Reassign everything mapped to `removed` onto `survivor`."""
        moved = self._members.pop(removed, [])
        for orig in moved:
            self.assignment[orig] = survivor
        self._members.setdefault(survivor, []).extend(moved)

    def supernode(self, original: int) -> int:
        return self.assignment[original]

    def groups(self) -> dict[int, list[int]]:
        """Supernode id -> sorted list of its original nodes."""
        out: dict[int, list[int]] = {}
        for orig in self.originals:
            out.setdefault(self.assignment[orig], []).append(orig)
        for members in out.values():
            members.sort()
        return out

    def matrix(self, reduced_nodes) -> np.ndarray:
        """0/1 membership matrix C, one row per reduced node, one column per
        original node (in `originals` order): C[i, j] = 1 iff original j
        belongs to reduced node i."""
        reduced = list(reduced_nodes)
        row = {u: i for i, u in enumerate(reduced)}
        C = np.zeros((len(reduced), len(self.originals)))
        for j, orig in enumerate(self.originals):
            C[row[self.assignment[orig]], j] = 1.0
        return C


# -- text formats ----------------------------------------------------------

def write_edgelist(g: WeightedGraph, path, node_weight_path=None) -> None:
    """Write `u v w` lines (and optionally `u w` node-weight lines)."""
    with open(path, "w") as fh:
        for eid in g.edge_ids():
            u, v, w = g.edge(eid)
            fh.write(f"{u} {v} {w!r}\n")
    if node_weight_path is not None:
        write_node_weights(g, node_weight_path)


def write_node_weights(g: WeightedGraph, path) -> None:
    with open(path, "w") as fh:
        for u in g.nodes():
            fh.write(f"{u} {g.node_weight(u)!r}\n")


def read_edgelist(path, node_weight_path=None) -> WeightedGraph:
    """Read a graph from `u v w` lines; `#` starts a comment, w defaults to 1."""
    g = WeightedGraph()
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise ValueError(f"{path}:{line_no}: expected 'u v [w]', got {raw!r}")
            u, v = int(parts[0]), int(parts[1])
            w = float(parts[2]) if len(parts) == 3 else 1.0
            g.add_edge(u, v, w)
    if node_weight_path is not None:
        for u, w in read_node_weights(node_weight_path).items():
            g.add_node(u, w)
    return g


def read_node_weights(path) -> dict[int, float]:
    out: dict[int, float] = {}
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{line_no}: expected 'u w', got {raw!r}")
            out[int(parts[0])] = float(parts[1])
    return out


def write_contraction_map(cmap: ContractionMap, path) -> None:
    payload = {
        "originals": list(cmap.originals),
        # JSON keys are strings; store as pairs to keep ints intact
        "assignment": [[u, cmap.assignment[u]] for u in cmap.originals],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def read_contraction_map(path) -> ContractionMap:
    with open(path) as fh:
        payload = json.load(fh)
    assignment = {int(u): int(s) for u, s in payload["assignment"]}
    return ContractionMap(
        originals=tuple(int(u) for u in payload["originals"]),
        assignment=assignment,
    )
