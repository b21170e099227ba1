"""The benchmark's workloads: each builds its inputs from the workload seed.

`make(name, seed)` imports graphreduce on every call, so the set-up timer in
`run.py` can measure a fresh package import together with input generation.
The same seed always gives the same graph, stop criterion, configuration and
list of reduction seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Length of the fixed reduction list; a run uses as many as fit its time.
N_REDUCTIONS = 64


@dataclass
class Inputs:
    graph: object
    stop: object
    config: object
    reduction_seeds: list[int]


def _reduction_seeds(seed: int) -> list[int]:
    state = np.random.SeedSequence([seed, 1]).generate_state(N_REDUCTIONS)
    return [int(s) for s in state]


def make(name: str, seed: int) -> Inputs:
    """Build the inputs of workload `name` for workload seed `seed`."""
    from graphreduce import (
        EdgeBudget,
        NodeBudget,
        Priority,
        ReductionConfig,
        SketchMode,
    )
    from graphreduce.generators import generate

    if name == "coarsen-lattice":
        # test_06's workload: dense rank-one and contraction updates on an
        # n = 900 pseudoinverse dominate.
        g = generate("triangular-lattice", {"rows": 30, "cols": 30})
        stop = NodeBudget(450)
        config = ReductionConfig(
            keep_fraction=1 / 16, target_reduction=0.25, priority=Priority.NODES
        )
    elif name == "sparsify-sbm":
        # test_05's workload: deletions and reweights only, so the matrix never
        # shrinks; n is small and the cost is per-edge Python.
        g = generate(
            "sbm", {"n": 256, "k": 4, "p_in": 0.25, "p_out": 2**-6}, seed=seed
        )
        stop = EdgeBudget(math.ceil(g.n_edges / 2))
        config = ReductionConfig(
            keep_fraction=1 / 16, target_reduction=0.25, allow_contraction=False
        )
    elif name == "sketch-torus":
        # Sketch mode bypasses the dense updates; PCG solves dominate. The
        # default probe count (496 here) makes a reduction over ten times
        # slower, too slow to repeat, so it uses test_07's 33 probes.
        g = generate(
            "torus",
            {"rows": 48, "cols": 48, "weight_law": "exp-uniform:-1,1"},
            seed=seed,
        )
        stop = EdgeBudget(math.ceil(g.n_edges / 2))
        config = ReductionConfig(mode=SketchMode(n_probes=33))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Inputs(g, stop, config, _reduction_seeds(seed))
