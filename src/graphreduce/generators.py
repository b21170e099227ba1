"""Standard test graph families with optional random edge weights."""

from __future__ import annotations

import inspect
import math
from typing import Callable, Sequence

import numpy as np

from .graph import WeightedGraph, _check_count

WeightLaw = Callable[[np.random.Generator], float]


def parse_weight_law(spec: str | None) -> WeightLaw:
    """Weight distributions: "unit", "uniform:lo,hi", "exp-uniform:lo,hi"."""
    if spec is None or spec == "unit":
        return lambda rng: 1.0
    name, _, args = spec.partition(":")
    try:
        if name == "uniform":
            lo, hi = (float(s) for s in args.split(","))
            return lambda rng: float(rng.uniform(lo, hi))
        if name == "exp-uniform":
            lo, hi = (float(s) for s in args.split(","))
            return lambda rng: float(math.exp(rng.uniform(lo, hi)))
    except ValueError as exc:
        raise ValueError(f"bad weight law arguments in {spec!r}") from exc
    raise ValueError(f"unknown weight law {spec!r}")


def path(n: int, weights: Sequence[float] | None = None) -> WeightedGraph:
    if n < 1:
        raise ValueError(f"need at least one node, got {n}")
    if weights is not None and len(weights) != n - 1:
        raise ValueError(f"expected {n - 1} weights, got {len(weights)}")
    g = WeightedGraph()
    g.add_node(0)
    for i in range(n - 1):
        w = 1.0 if weights is None else float(weights[i])
        g.add_edge(i, i + 1, w)
    return g


def cycle(n: int, weight: float = 1.0) -> WeightedGraph:
    if n < 3:
        raise ValueError(f"cycle needs at least 3 nodes, got {n}")
    g = WeightedGraph()
    for i in range(n):
        g.add_edge(i, (i + 1) % n, weight)
    return g


def torus(
    rows: int,
    cols: int,
    weight_law: str | None = None,
    rng: np.random.Generator | None = None,
) -> WeightedGraph:
    """rows x cols grid with wraparound; 4-regular, rows*cols*2 edges."""
    if rows < 3 or cols < 3:
        raise ValueError("torus needs rows and cols >= 3 to avoid parallel edges")
    law = parse_weight_law(weight_law)
    if rng is None:
        rng = np.random.default_rng()
    g = WeightedGraph()
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            g.add_edge(u, r * cols + (c + 1) % cols, law(rng))
            g.add_edge(u, ((r + 1) % rows) * cols + c, law(rng))
    return g


def triangular_lattice(rows: int, cols: int) -> WeightedGraph:
    """Grid with unit right, down, and down-right edges (no wraparound)."""
    if rows < 2 or cols < 2:
        raise ValueError("lattice needs rows and cols >= 2")
    g = WeightedGraph()
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            if c + 1 < cols:
                g.add_edge(u, u + 1, 1.0)
            if r + 1 < rows:
                g.add_edge(u, u + cols, 1.0)
            if r + 1 < rows and c + 1 < cols:
                g.add_edge(u, u + cols + 1, 1.0)
    return g


MAX_CONNECT_ATTEMPTS = 100


def _sample_until_connected(build, rng) -> WeightedGraph:
    for _ in range(MAX_CONNECT_ATTEMPTS):
        g = build(rng)
        if g.n_nodes > 0 and g.is_connected():
            return g
    raise RuntimeError(
        f"no connected sample in {MAX_CONNECT_ATTEMPTS} attempts; "
        "the edge probabilities are too sparse"
    )


def er(
    n: int,
    p: float,
    rng: np.random.Generator | None = None,
    weight_law: str | None = None,
) -> WeightedGraph:
    """Connected Erdos-Renyi sample (resamples until connected): a one-block SBM."""
    if n < 2 or not 0.0 < p <= 1.0:
        raise ValueError(f"need n >= 2 and p in (0, 1], got n={n} p={p}")
    return sbm(n, 1, p, p, rng, weight_law)


def sbm(
    n: int,
    k: int,
    p_in: float,
    p_out: float,
    rng: np.random.Generator | None = None,
    weight_law: str | None = None,
) -> WeightedGraph:
    """Connected stochastic block model sample with k near-equal blocks."""
    if n < 2 or k < 1 or k > n:
        raise ValueError(f"need 1 <= k <= n, got n={n} k={k}")
    if not (0.0 <= p_out <= p_in <= 1.0):
        raise ValueError(
            f"need 0 <= p_out <= p_in <= 1, got p_in={p_in} p_out={p_out}"
        )
    law = parse_weight_law(weight_law)
    if rng is None:
        rng = np.random.default_rng()
    # Plain ints: the pair loop compares n(n-1)/2 labels.
    block = [u * k // n for u in range(n)]

    def build(rng):
        g = WeightedGraph()
        for u in range(n):
            g.add_node(u)
        for u in range(n):
            for v in range(u + 1, n):
                prob = p_in if block[u] == block[v] else p_out
                if rng.random() < prob:
                    g.add_edge(u, v, law(rng))
        return g

    return _sample_until_connected(build, rng)


_FAMILIES = {"path": path, "cycle": cycle, "torus": torus, "er": er, "sbm": sbm,
             "triangular-lattice": triangular_lattice}


def generate(kind: str, params: dict, seed: int | None = None) -> WeightedGraph:
    """Build a named family from its arguments by name, `rng` made from `seed`.

    The CLI and experiment entry: params that are not a dict, an unknown key
    or a count (n, rows, cols, k) that is not an integer >= 1 raises ValueError.
    """
    if kind not in _FAMILIES:
        raise ValueError(f"unknown graph kind {kind!r}")
    if not isinstance(params, dict):
        raise ValueError(f"params must be an object, got {params!r}")
    family = _FAMILIES[kind]
    takes = inspect.signature(family).parameters
    unknown = sorted(set(params) - (set(takes) - {"rng"}))
    if unknown:
        raise ValueError(f"{kind} takes no params {unknown}")
    for name in sorted({"n", "rows", "cols", "k"} & set(params)):
        _check_count(name, params[name], 1)
    if "rng" in takes:
        params = {**params, "rng": np.random.default_rng(seed)}
    return family(**params)
