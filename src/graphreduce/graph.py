"""Weighted undirected graphs with stable ids, contraction, and edge-list IO.

Nodes are integers carrying a positive weight; edges are undirected, carry a
positive weight, and keep the integer id they were assigned at insertion for
the whole lifetime of the graph. Parallel edges are merged by summing weights,
self loops are dropped. Contracting an edge merges its endpoints into the
smaller endpoint id and accumulates node weights, so a supernode's weight is
always the total weight of the original nodes inside it.

Edges are held in flat arrays indexed by edge id, so the reads that cover the
whole graph are numpy operations; a dict adjacency serves the local work.
"""

from __future__ import annotations

import json
import math
import numbers
from array import array
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

__all__ = ["WeightedGraph", "ContractionRecord", "ContractionMap", "read_edgelist",
           "write_edgelist", "read_node_weights", "write_node_weights",
           "read_contraction_map", "write_contraction_map"]

# Rank rounds run while more edges than this are left. Per matching, 2 cores, SBM/
# lattice/torus: 108/120/210 us; at 256, 108/136/237; rounds only, 121/127/214.
_GREEDY_TAIL = 64


def _check_weight(kind: str, weight: float) -> None:
    if not (weight > 0 and math.isfinite(weight)):
        raise ValueError(f"{kind} weight must be positive and finite, got {weight}")


def _check_node(u) -> None:
    # A bool would alias node 0 or 1, so ids are Python or numpy integers only;
    # the exact-type test keeps the common case to one comparison.
    if not (type(u) is int or isinstance(u, numbers.Integral)
            and not isinstance(u, bool)) or u < 0:
        raise ValueError(f"node id must be a non-negative integer, got {u!r}")
    if u >> 63:  # ids are stored as int64
        raise ValueError(f"node id must be below 2**63, got {u!r}")


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

    Node ids are arbitrary non-negative integers below 2**63 (Python or
    numpy, never bool); `add_node` and `add_edge` refuse anything else. Edge
    ids are assigned from a monotone counter at insertion and never reused;
    they survive reweighting and endpoint re-attachment during contraction.

    Edge id e indexes `_lo[e]` and `_hi[e]`, its endpoints' slots (smaller
    id first), `_w[e]` and `_live[e]`. A node's slot, dense and never
    reused, indexes `_ids` and `_node_w` and any per-node scratch space. The
    stores are `array`s: they append and read scalars like lists, as Python
    ints and floats, and `np.asarray` views them without a copy (a store
    cannot grow while a view lives, so methods keep only what they index out
    of one). `_adj` (node -> {neighbour: edge id}) stays a dict for the local
    work of `connected_without`, `triangle_count` and `contract_edge`, which
    an array scan would make touch every edge.
    """

    def __init__(self) -> None:
        self._slot: dict[int, int] = {}
        self._ids, self._node_w = array("q"), array("d")
        self._adj: dict[int, dict[int, int]] = {}
        self._lo, self._hi, self._w = array("q"), array("q"), array("d")
        self._live, self._m = bytearray(), 0  # _m counts the live edges

    # -- construction ------------------------------------------------------

    @classmethod
    def from_edges(cls, edges, node_weights: dict | None = None) -> "WeightedGraph":
        """Build a graph from (u, v) or (u, v, w) tuples."""
        g = cls()
        for spec in edges:
            g.add_edge(*spec)
        for u, w in (node_weights or {}).items():
            g.add_node(u, w)
        return g

    def add_node(self, u: int, weight: float = 1.0) -> None:
        _check_node(u)
        _check_weight("node", weight)
        if u in self._slot:
            self._node_w[self._slot[u]] = float(weight)
            return
        u = u if type(u) is int else int(u)
        self._slot[u], self._adj[u] = len(self._ids), {}
        self._ids.append(u)
        self._node_w.append(weight)

    def add_edge(self, u: int, v: int, weight: float = 1.0) -> int:
        """Insert an edge, creating missing endpoints with unit weight.

        A parallel edge merges into the existing one (weights sum) and the
        existing id is returned; a sum that overflows raises ValueError. Self
        loops are dropped; the returned id is -1.
        """
        _check_weight("edge", weight)
        slot = self._slot
        for n in (u, v):
            if n not in slot:
                self.add_node(n)
            elif type(n) is not int:  # equal to a node, but maybe a bool or a float
                _check_node(n)
        if u == v:
            return -1
        nbrs = self._adj[u]
        eid = nbrs.get(v)
        if eid is not None:
            merged = self._w[eid] + float(weight)
            _check_weight("merged edge", merged)
            self._w[eid] = merged
            return eid
        eid = nbrs[v] = self._adj[v][u] = len(self._live)
        self._lo.append(slot[u] if u < v else slot[v])
        self._hi.append(slot[v] if u < v else slot[u])
        self._w.append(weight)  # as float(weight): the store converts
        self._live.append(1)
        self._m += 1
        return eid

    def copy(self) -> "WeightedGraph":
        g = WeightedGraph()
        g._slot, g._m = dict(self._slot), self._m
        g._adj = {u: dict(nbrs) for u, nbrs in self._adj.items()}
        for name in ("_ids", "_node_w", "_lo", "_hi", "_w", "_live"):
            setattr(g, name, getattr(self, name)[:])
        return g

    # -- inspection --------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self._slot)

    @property
    def n_edges(self) -> int:
        return self._m

    def nodes(self) -> list[int]:
        """Node ids in ascending order."""
        return sorted(self._slot)

    def edge_ids(self) -> list[int]:
        """Edge ids in ascending (insertion) order."""
        return np.flatnonzero(self._live).tolist()

    def _checked(self, eids) -> np.ndarray:
        """`eids` as an index array; KeyError unless every id is a live edge."""
        idx = np.asarray(eids, dtype=np.intp)
        if idx.size and not (0 <= idx.min() and idx.max() < len(self._live)
                             and np.asarray(self._live)[idx].all()):
            raise KeyError(f"edge ids {sorted(set(idx.tolist()) - set(self.edge_ids()))}")
        return idx

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(ends, edge_weights, node_weights) for assembling matrices: an m x 2
        array of each edge's endpoints as positions in the ascending node ids,
        rows and edge weights in edge-id order, node weights in ascending id
        order. Every matrix the library assembles takes its node order here."""
        slots = np.fromiter(self._slot.values(), np.intp, len(self._slot))
        slots = slots[np.argsort(np.asarray(self._ids)[slots])]
        pos = np.empty(len(self._ids), np.intp)
        pos[slots] = np.arange(len(slots))
        live = np.flatnonzero(self._live)
        ends = pos[np.stack((np.asarray(self._lo)[live], np.asarray(self._hi)[live]), 1)]
        return ends, np.asarray(self._w)[live], np.asarray(self._node_w)[slots]

    def edge_columns(self, eids) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Endpoint ids and weights of the edges `eids`, as three arrays."""
        idx, ids = self._checked(eids), np.asarray(self._ids)
        lo, hi = np.asarray(self._lo)[idx], np.asarray(self._hi)[idx]
        return ids[lo], ids[hi], np.asarray(self._w)[idx]

    def node_weight(self, u: int) -> float:
        return self._node_w[self._slot[u]]

    def total_node_weight(self) -> float:
        return math.fsum(map(self._node_w.__getitem__, self._slot.values()))

    def _edge(self, eid: int) -> int:
        # Refuses a dead or unknown id, -1 included, rather than read its entry.
        if 0 <= eid < len(self._live) and self._live[eid]:
            return eid
        raise KeyError(eid)

    def endpoints(self, eid: int) -> tuple[int, int]:
        """The edge's endpoint ids, smaller first."""
        e = self._edge(eid)
        return self._ids[self._lo[e]], self._ids[self._hi[e]]

    def edge_weight(self, eid: int) -> float:
        return self._w[self._edge(eid)]

    def edge(self, eid: int) -> tuple[int, int, float]:
        return (*self.endpoints(eid), self._w[eid])

    def edge_between(self, u: int, v: int) -> int | None:
        return self._adj.get(u, {}).get(v)

    def triangle_count(self, eid: int) -> int:
        """Number of triangles through an edge (common-neighbor count)."""
        u, v = self.endpoints(eid)
        return len(self._adj[u].keys() & self._adj[v].keys())

    # -- mutation ----------------------------------------------------------

    def set_edge_weight(self, eid: int, weight: float) -> None:
        _check_weight("edge", weight)
        self._w[self._edge(eid)] = float(weight)

    def delete_edge(self, eid: int) -> None:
        u, v = self.endpoints(eid)
        self._live[eid], self._m = 0, self._m - 1
        del self._adj[u][v], self._adj[v][u]

    def contract_edge(self, eid: int) -> ContractionRecord:
        """Merge the endpoints of an edge into the smaller endpoint id.

        The contracted edge disappears, the survivor inherits the removed
        node's edges (parallel pairs merge by weight sum, checked first; the
        loop the edge itself would form is dropped) and the node weights add.
        """
        survivor, removed = self.endpoints(eid)
        adj, w, keep = self._adj, self._w, self._lo[eid]
        for nbr in adj[removed].keys() & adj[survivor].keys():  # before any change
            _check_weight("merged edge", w[adj[survivor][nbr]] + w[adj[removed][nbr]])
        self._live[eid], self._m = 0, self._m - 1
        del adj[survivor][removed], adj[removed][survivor]
        for nbr in sorted(adj[removed]):
            other = adj[removed][nbr]
            kept = adj[survivor].get(nbr)
            if kept is not None:
                w[kept] += w[other]
                self._live[other], self._m = 0, self._m - 1
            else:
                ends = (keep, self._slot[nbr])
                self._lo[other], self._hi[other] = ends if survivor < nbr else ends[::-1]
                adj[survivor][nbr] = adj[nbr][survivor] = other
            del adj[nbr][removed]
        del adj[removed]
        self._node_w[keep] += self._node_w[self._slot.pop(removed)]
        return ContractionRecord(survivor, removed)

    # -- connectivity ------------------------------------------------------

    def is_connected(self) -> bool:
        """True when every node is reachable from every other (empty: True)."""
        if self.n_nodes <= 1:
            return True
        start = next(iter(self._adj))
        seen, stack = {start}, [start]
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
        holds; a shared neighbour through two kept edges joins them at once.
        """
        excluded = set(excluded_edges)
        return all(self._joined_without(eid, excluded) for eid in excluded)

    def _joined_without(self, eid: int, excluded: set[int]) -> bool:
        # A shared neighbour through kept edges, else a two-sided search.
        u, v = self.endpoints(eid)
        for w in self._adj[u].keys() & self._adj[v].keys():
            if self._adj[u][w] not in excluded and self._adj[v][w] not in excluded:
                return True
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
        """`greedy_matching` over the live ids shuffled once: a maximal set of
        vertex-disjoint edges, so at least half a maximum matching."""
        # Shuffle draws depend only on the length, so this equals
        # rng.permutation(self.edge_ids()), down to the generator's state.
        ids = np.flatnonzero(self._live)
        return self._rank_rounds(ids[rng.permutation(len(ids))])

    def greedy_matching(self, order) -> list[int]:
        """Edge ids of `order` kept greedily, in that order: an edge joins when
        both its endpoints are still unmatched. Maximal if `order` has every edge."""
        return self._rank_rounds(self._checked(order))

    def _rank_rounds(self, order: np.ndarray) -> list[int]:
        # The greedy pass in rounds (Blelloch, Fineman & Shun, SPAA 2012): the
        # pass keeps each edge ranked lowest of those left at both endpoints,
        # so a round keeps them all, then drops the edges touching them: an
        # endpoint is matched when its lowest-ranked edge was kept.
        lo, hi = np.asarray(self._lo)[order], np.asarray(self._hi)[order]
        rank = np.arange(len(order))
        kept = np.zeros(len(order), bool)
        while rank.size > _GREEDY_TAIL:
            lowest = np.full(len(self._ids), len(order))  # by node slot
            np.minimum.at(lowest, lo, rank)
            np.minimum.at(lowest, hi, rank)
            at_lo, at_hi = lowest[lo], lowest[hi]
            kept[rank[(at_lo == rank) & (at_hi == rank)]] = True
            rest = ~(kept[at_lo] | kept[at_hi])
            lo, hi, rank = lo[rest], hi[rest], rank[rest]
        matched = set()  # the edges left touch no matched node: the plain pass ends it
        for r, a, b in zip(rank.tolist(), lo.tolist(), hi.tolist()):
            if a not in matched and b not in matched:
                matched.update((a, b))
                kept[r] = True
        return order[kept].tolist()


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
        fh.writelines(f"{u} {v} {w!r}\n" for u, v, w in map(g.edge, g.edge_ids()))
    if node_weight_path is not None:
        write_node_weights(g, node_weight_path)


def write_node_weights(g: WeightedGraph, path) -> None:
    with open(path, "w") as fh:
        fh.writelines(f"{u} {g.node_weight(u)!r}\n" for u in g.nodes())


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
    # JSON keys are strings; store as pairs to keep ints intact
    payload = {"originals": list(cmap.originals),
               "assignment": [[u, cmap.assignment[u]] for u in cmap.originals]}
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
