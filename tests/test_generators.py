import hashlib
import json
import math
import re
from collections import Counter

import numpy as np
import pytest

from graphreduce.generators import (
    cycle,
    er,
    generate,
    parse_weight_law,
    path,
    sbm,
    torus,
    triangular_lattice,
)


def degrees(g):
    """Node id -> number of edge endpoints at it, counted over the edge list."""
    return Counter(u for eid in g.edge_ids() for u in g.endpoints(eid))


def edge_set(g):
    return {(u, v, w) for u, v, w in (g.edge(e) for e in g.edge_ids())}


def test_path_weights():
    g = path(4, [1.0, 2.0, 1.0])
    assert g.nodes() == [0, 1, 2, 3]
    assert edge_set(g) == {(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0)}
    assert path(1).n_nodes == 1 and path(1).n_edges == 0


def test_path_validation():
    with pytest.raises(ValueError):
        path(0)
    with pytest.raises(ValueError):
        path(4, [1.0, 2.0])


def test_cycle():
    g = cycle(3)
    assert g.n_nodes == 3 and g.n_edges == 3
    assert all(degrees(g)[u] == 2 for u in g.nodes())
    with pytest.raises(ValueError):
        cycle(2)


def test_torus_shape():
    g = torus(4, 5)
    assert g.n_nodes == 20
    assert g.n_edges == 40
    assert all(degrees(g)[u] == 4 for u in g.nodes())
    assert g.is_connected()


def test_torus_minimum_size():
    assert torus(3, 3).n_edges == 18
    with pytest.raises(ValueError):
        torus(2, 5)


def test_torus_weight_law():
    rng = np.random.default_rng(0)
    g = torus(4, 4, weight_law="exp-uniform:-2,2", rng=rng)
    weights = [g.edge_weight(e) for e in g.edge_ids()]
    assert all(math.exp(-2) <= w <= math.exp(2) for w in weights)
    assert len(set(weights)) > 1


def test_triangular_lattice_counts():
    g = triangular_lattice(3, 3)
    assert g.n_nodes == 9
    assert g.n_edges == 3 * 2 + 2 * 3 + 2 * 2
    big = triangular_lattice(30, 30)
    assert big.n_nodes == 900
    assert big.n_edges == 30 * 29 + 29 * 30 + 29 * 29
    assert big.is_connected()


def test_er_connected_and_deterministic():
    a = er(20, 0.3, np.random.default_rng(5))
    b = er(20, 0.3, np.random.default_rng(5))
    assert a.is_connected()
    assert a.n_nodes == 20
    assert edge_set(a) == edge_set(b)


def test_er_gives_up_when_hopeless():
    with pytest.raises(RuntimeError):
        er(2, 1e-12, np.random.default_rng(0))


def test_er_validation():
    with pytest.raises(ValueError):
        er(1, 0.5)
    with pytest.raises(ValueError):
        er(10, 0.0)


def test_sbm_block_structure():
    rng = np.random.default_rng(7)
    g = sbm(40, 4, 0.8, 0.05, rng)
    assert g.is_connected() and g.n_nodes == 40
    within = across = 0
    for eid in g.edge_ids():
        u, v, _ = g.edge(eid)
        if u // 10 == v // 10:
            within += 1
        else:
            across += 1
    assert within > across


def sbm_digest(params, seed):
    """sha256 prefix of generate("sbm")'s edge list: (id, u, v, weight) rows."""
    g = generate("sbm", params, seed=seed)
    rows = [[e, *g.edge(e)] for e in g.edge_ids()]
    return g.n_edges, hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


# Edge lists as the numpy-array block labels generated them; plain int labels
# must draw the same graphs. The (31, 5) and (40, 6) cases, where k does not
# divide n, were retaken when the blocks became near-equal.
@pytest.mark.parametrize(
    "params, seed, expected",
    [
        ({"n": 24, "k": 3, "p_in": 0.7, "p_out": 0.1}, 4, (65, "a9d2764fa6511524")),
        ({"n": 31, "k": 5, "p_in": 0.6, "p_out": 0.1}, 2, (78, "36efa21ce29739ca")),
        ({"n": 17, "k": 17, "p_in": 1.0, "p_out": 0.3}, 1, (39, "cf402b6909d9b010")),
        ({"n": 50, "k": 1, "p_in": 0.2, "p_out": 0.2}, 3, (252, "3907a0bbc98b34eb")),
        ({"n": 40, "k": 6, "p_in": 0.5, "p_out": 0.05,
          "weight_law": "exp-uniform:-1,1"}, 0, (90, "2d35de4bdc51cb71")),
        ({"n": 256, "k": 4, "p_in": 0.25, "p_out": 2**-6}, 7, (2324, "a49416094cf6fdd3")),
    ],
)
def test_sbm_edge_lists_are_pinned(params, seed, expected):
    assert sbm_digest(params, seed) == expected


@pytest.mark.parametrize("n, k", [(9, 4), (10, 4), (31, 5), (40, 6), (7, 3)])
def test_sbm_blocks_are_k_near_equal_cliques(n, k):
    # At p_in = 1 every block is a clique, and an edge across blocks is in
    # all 20 samples with probability 0.3**20.
    params = {"n": n, "k": k, "p_in": 1.0, "p_out": 0.3}
    common = set.intersection(*(
        {(u, v) for u, v, _ in edge_set(generate("sbm", params, seed=s))}
        for s in range(20)
    ))
    block = {u: {u} for u in range(n)}
    for u, v in common:
        merged = block[u] | block[v]
        for x in merged:
            block[x] = merged
    blocks = {frozenset(b) for b in block.values()}
    sizes = sorted(len(b) for b in blocks)
    assert len(blocks) == k and sizes[-1] - sizes[0] <= 1
    assert len(common) == sum(s * (s - 1) // 2 for s in sizes)


def test_sbm_validation():
    with pytest.raises(ValueError):
        sbm(10, 0, 0.5, 0.1)
    with pytest.raises(ValueError):
        sbm(10, 2, 0.1, 0.5)


def test_parse_weight_law():
    rng = np.random.default_rng(1)
    assert parse_weight_law(None)(rng) == 1.0
    assert parse_weight_law("unit")(rng) == 1.0
    u = parse_weight_law("uniform:2,3")(rng)
    assert 2.0 <= u <= 3.0
    e = parse_weight_law("exp-uniform:0,1")(rng)
    assert 1.0 <= e <= math.e
    with pytest.raises(ValueError):
        parse_weight_law("normal:0,1")
    with pytest.raises(ValueError):
        parse_weight_law("uniform:a,b")


def test_generate_dispatcher():
    assert generate("path", {"n": 5}).n_nodes == 5
    assert generate("cycle", {"n": 6}).n_edges == 6
    assert generate("torus", {"rows": 3, "cols": 4}).n_edges == 24
    assert generate("triangular-lattice", {"rows": 3, "cols": 3}).n_nodes == 9
    a = generate("er", {"n": 16, "p": 0.4}, seed=3)
    b = generate("er", {"n": 16, "p": 0.4}, seed=3)
    assert edge_set(a) == edge_set(b)
    g = generate("sbm", {"n": 24, "k": 3, "p_in": 0.7, "p_out": 0.1}, seed=4)
    assert g.is_connected()
    with pytest.raises(ValueError):
        generate("hypercube", {})


def test_generate_refuses_inexact_counts_and_unknown_keys():
    sbm_probs = {"p_in": 0.5, "p_out": 0.1}
    for kind, params, name in [
        ("path", {"n": 2.5}, "n"),
        ("path", {"n": True}, "n"),
        ("cycle", {"n": 6.0}, "n"),
        ("torus", {"rows": 4, "cols": 4.5}, "cols"),
        ("triangular-lattice", {"rows": False, "cols": 3}, "rows"),
        ("sbm", {"n": 20.9, "k": 2, **sbm_probs}, "n"),
        ("sbm", {"n": 20, "k": 2.7, **sbm_probs}, "k"),
    ]:
        with pytest.raises(ValueError, match=f"{name} must be an integer >= 1"):
            generate(kind, params)
    with pytest.raises(ValueError, match=r"torus takes no params \['weightlaw'\]"):
        generate("torus", {"rows": 4, "cols": 4, "weightlaw": "exp-uniform:-1,1"})
    with pytest.raises(ValueError, match=r"er takes no params \['rng'\]"):
        generate("er", {"n": 8, "p": 0.5, "rng": 0})
    # JSON null and a list reach here from `graphreduce gen --params`.
    for bad in (None, [8], "n=8"):
        with pytest.raises(ValueError, match=re.escape(f"params must be an object, got {bad!r}")):
            generate("cycle", bad)
    # numpy integers are counts too; the seed still makes the weights.
    a = generate("torus", {"rows": np.int64(3), "cols": 4, "weight_law": "uniform:1,2"}, seed=5)
    assert edge_set(a) == edge_set(torus(3, 4, "uniform:1,2", np.random.default_rng(5)))


def test_generate_refuses_a_string_p():
    # It used to fail deep inside er: '<' between a float and a str.
    with pytest.raises(ValueError, match=re.escape("p must be a number, got '0.2'")):
        generate("er", {"n": 30, "p": "0.2"})


def test_generate_refuses_a_string_block_probability():
    for key in ("p_in", "p_out"):
        params = {"n": 30, "k": 2, "p_in": 0.5, "p_out": 0.1, key: "0.3"}
        with pytest.raises(ValueError, match=re.escape(f"{key} must be a number, got '0.3'")):
            generate("sbm", params)


def test_generate_refuses_a_bool_p():
    # True is an int to Python and would read as probability 1.
    with pytest.raises(ValueError, match="p must be a number, got True"):
        generate("er", {"n": 30, "p": True})
    # numpy floats are numbers.
    assert generate("er", {"n": 16, "p": np.float64(0.4)}, seed=3).n_nodes == 16


def test_generate_refuses_a_weight_law_that_is_not_a_string():
    with pytest.raises(ValueError, match="weight_law must be a string, got 5"):
        generate("torus", {"rows": 4, "cols": 4, "weight_law": 5})
    # JSON null is the family's default, unit weights.
    g = generate("torus", {"rows": 3, "cols": 3, "weight_law": None})
    assert {w for _, _, w in edge_set(g)} == {1.0}
