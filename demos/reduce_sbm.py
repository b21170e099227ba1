"""
Reducing a block-model graph and trusting the error estimate
============================================================

Halve the edges of a 4-block stochastic block model while tracking the
running estimate of the squared pseudoinverse error. The estimate is
accumulated from each action's expected contribution, so across seeds its
mean should match the mean realized error. The no-contraction mode is then
compared against classic resistance-weighted edge sampling on the Fiedler
vector's hyperbolic distance.
"""

import math

import numpy as np

from graphreduce import (
    EdgeBudget,
    ReductionConfig,
    build_pseudoinverse,
    hyperbolic_distance,
    lift,
    reduce_graph,
)
from graphreduce.baselines import samples_for_edge_target, ss_sparsify
from graphreduce.experiment import probe_vectors
from graphreduce.generators import generate

g = generate("sbm", {"n": 256, "k": 4, "p_in": 0.25, "p_out": 2**-6}, seed=1)
print(f"block model: {g.n_nodes} nodes, {g.n_edges} edges")
target_pinv = build_pseudoinverse(g).pinv
fiedler = probe_vectors(g, ("fiedler",))["fiedler"]
budget = EdgeBudget(math.ceil(0.5 * g.n_edges))

# full reduction (deletions, contractions, reweights all allowed)
config = ReductionConfig(keep_fraction=1 / 16, target_reduction=0.25)
trues, estimates = [], []
for seed in range(8):
    result = reduce_graph(g, budget, config, seed=seed)
    state = result.state
    lifted = lift(state.pinv, result.cmap, state.nodes, state.weights)
    trues.append(float(np.sum((lifted - target_pinv) ** 2)))
    estimates.append(result.state.estimated_error)
    if seed == 0:
        t = result.trace.totals()
        print(f"run 0: {t['deleted']} deleted, {t['contracted']} contracted, "
              f"{t['reweighted']} reweighted, stopped by {result.trace.stopped_by}")
print(f"squared error, mean over 8 runs: realized {np.mean(trues):.4f}  "
      f"estimated {np.mean(estimates):.4f}")

# sparsification only, against resistance-weighted sampling
sparsify = ReductionConfig(
    keep_fraction=1 / 16, target_reduction=0.25, allow_contraction=False
)
ours, baseline = [], []
n_samples = samples_for_edge_target(g, budget.edges)
for seed in range(8):
    result = reduce_graph(g, budget, sparsify, seed=seed)
    ours.append(hyperbolic_distance(
        target_pinv, build_pseudoinverse(result.graph).pinv, fiedler))
    h = ss_sparsify(g, n_samples, rng=np.random.default_rng(seed))
    baseline.append(hyperbolic_distance(
        target_pinv, build_pseudoinverse(h).pinv, fiedler))
print(f"Fiedler distance at 50% edges: ours {np.mean(ours):.4f}  "
      f"sampling baseline {np.mean(baseline):.4f}")
