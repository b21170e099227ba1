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
import numbers
from collections import Counter
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


def _check_node(u) -> None:
    # A bool would alias node 0 or 1, so ids are Python or numpy integers only;
    # the exact-type test keeps the common case to one comparison.
    if not (
        type(u) is int or isinstance(u, numbers.Integral) and not isinstance(u, bool)
    ) or u < 0:
        raise ValueError(f"node id must be a non-negative integer, got {u!r}")


def _check_count(name: str, value, least: int) -> None:
    # Counts and seeds are Python or numpy integers; a float or a bool is
    # refused where it enters, not truncated or failing deep inside a build.
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class ContractionRecord:
    """The node a single edge contraction kept and the node it merged away."""

    survivor: int
    removed: int


class WeightedGraph:
    """Undirected graph with weighted nodes and edges.

    Node ids are arbitrary non-negative integers (Python or numpy, never
    bool); `add_node` and `add_edge` refuse anything else. Edge ids are
    assigned from a monotone counter at insertion and never reused; they
    survive reweighting and endpoint re-attachment during contraction.
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
        _check_node(u)
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
            _check_node(n)  # an existing node equal to a bool skips add_node
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

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Array view of the graph for assembling matrices.

        Returns (ends, edge_weights, node_weights): an m x 2 array holding
        each edge's endpoints as positions in the ascending node ids, with
        rows and `edge_weights` in edge-id order, and the node weights in
        ascending id order. Every matrix the library assembles takes its
        node order from here.
        """
        order = self.nodes()
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

    def edge_between(self, u: int, v: int) -> int | None:
        return self._adj.get(u, {}).get(v)

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
        if self.n_nodes <= 1:
            return True
        start = next(iter(self._node_weight))
        seen = {start}
        stack = [start]
        while stack:
            for v in self._adj[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == self.n_nodes

    def connected_without(self, excluded_edges) -> bool:
        """Whether deleting the edge ids `excluded_edges` keeps `self` connected.

        Precondition: `self` is connected. Then G - D is connected iff the
        endpoints of every edge in D stay joined in G - D, so each excluded
        edge gets one search in G - D from both of its endpoints at once. The
        side that has reached fewer nodes grows by a level; the search stops
        when the sides meet (joined) or one side runs out (cut), so a cut is
        found after each side reaches about as many nodes as the smaller part
        holds. An edge in a triangle is joined within two levels.
        """
        excluded = set(excluded_edges)
        return all(self._joined_without(eid, excluded) for eid in excluded)

    def _joined_without(self, eid: int, excluded: set[int]) -> bool:
        # Two-sided breadth-first search between the endpoints of `eid`.
        u, v, _ = self._edges[eid]
        near, far = {u}, {v}
        near_level, far_level = [u], [v]
        while near_level and far_level:
            if len(near) > len(far):
                near, far, near_level, far_level = far, near, far_level, near_level
            grown = []
            for x in near_level:
                for y, e in self._adj[x].items():
                    if y in near or e in excluded:
                        continue
                    if y in far:
                        return True
                    near.add(y)
                    grown.append(y)
            near_level = grown
        return False

    # -- matchings ---------------------------------------------------------

    def independent_edge_set(self, rng: np.random.Generator) -> list[int]:
        """Greedy maximal set of vertex-disjoint edges, in one random order.

        The edges are shuffled once and passed to `greedy_matching`. The
        result is maximal, so it has at least half the edges of a maximum
        matching.
        """
        # Shuffle draws depend only on the length, so permuting positions
        # into the sorted ids equals rng.permutation(self.edge_ids()), down
        # to the generator's state afterwards.
        ids = np.fromiter(self._edges, dtype=np.intp, count=len(self._edges))
        ids.sort()
        return self.greedy_matching(ids[rng.permutation(len(ids))].tolist())

    def greedy_matching(self, order) -> list[int]:
        """Edge ids of `order` kept greedily: each edge whose endpoints are
        both still unmatched joins the matching. Maximal when `order` holds
        every edge."""
        edges = self._edges
        used: set[int] = set()
        matched = []
        for eid in order:
            u, v, _ = edges[eid]
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

    def groups(self) -> dict[int, list[int]]:
        """Supernode id -> sorted list of its original nodes."""
        out: dict[int, list[int]] = {}
        for orig in self.originals:
            out.setdefault(self.assignment[orig], []).append(orig)
        for members in out.values():
            members.sort()
        return out


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


def _read_records(path, usage: str, counts: tuple[int, ...], parse) -> None:
    """Call `parse(*fields)` on each non-blank line of `path` (`#` starts a
    comment). A field count not in `counts` or a ValueError from `parse` is
    raised as `path:line: reason`."""
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            parts = raw.split("#", 1)[0].split()
            if not parts:
                continue
            try:
                if len(parts) not in counts:
                    raise ValueError(f"expected '{usage}', got {raw!r}")
                parse(*parts)
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from None


def read_edgelist(path, node_weight_path=None) -> WeightedGraph:
    """Read a graph from `u v w` lines; `#` starts a comment, w defaults to 1."""
    g = WeightedGraph()
    _read_records(path, "u v [w]", (2, 3),
                  lambda u, v, w="1": g.add_edge(int(u), int(v), float(w)))
    if node_weight_path is not None:
        for u, w in read_node_weights(node_weight_path).items():
            g.add_node(u, w)
    return g


def read_node_weights(path) -> dict[int, float]:
    """Read positive finite node weights from `u w` lines."""
    out: dict[int, float] = {}

    def record(u, w):
        _check_node(int(u))
        _check_weight("node", float(w))
        out[int(u)] = float(w)

    _read_records(path, "u w", (2,), record)
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
    """Read a map written by `write_contraction_map`.

    Raises ValueError naming `path` for a file that is not JSON, a payload
    without "originals" and "assignment" lists, an assignment entry that is
    not a pair, a node id that is not an integer, or an original node that
    is not listed exactly once and assigned exactly once. Originals come
    back ascending.
    """
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not JSON: {exc}") from None

    def node(x) -> int:
        if isinstance(x, bool) or not isinstance(x, int):
            raise ValueError(f"{path}: node id {x!r} is not an integer")
        return x

    def pair(entry) -> tuple[int, int]:
        if not isinstance(entry, list) or len(entry) != 2:
            raise ValueError(f"{path}: assignment entry {entry!r} is not an "
                             "[original, supernode] pair")
        return node(entry[0]), node(entry[1])

    if not (isinstance(payload, dict) and isinstance(payload.get("originals"), list)
            and isinstance(payload.get("assignment"), list)):
        raise ValueError(f'{path}: a contraction map needs "originals" and '
                         '"assignment" lists')
    pairs = [pair(entry) for entry in payload["assignment"]]
    listed = Counter(node(u) for u in payload["originals"])
    assigned = Counter(u for u, _ in pairs)
    for u in sorted(listed.keys() | assigned.keys()):
        if listed[u] != 1 or assigned[u] != 1:
            raise ValueError(f"{path}: original node {u} is listed {listed[u]} "
                             f"and assigned {assigned[u]} times, not once each")
    return ContractionMap(originals=tuple(sorted(listed)), assignment=dict(pairs))
