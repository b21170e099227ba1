"""The benchmark's workloads and output checks must keep working.

`perfbench/workloads.py` builds the benchmark's inputs and
`perfbench/checks.py` validates every reduction it times, both through the
library's public names. A change that breaks either fails here, in the test
suite, rather than in a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from graphreduce.generators import generate
from graphreduce.reducer import (
    EdgeBudget,
    ExactMode,
    MaxIterations,
    ReductionConfig,
    SketchMode,
    reduce_graph,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    # dataclasses look the defining module up while building its classes
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    return load("workloads")


@pytest.fixture(scope="module")
def checks():
    return load("checks")


@pytest.mark.parametrize(
    "name", ["coarsen-lattice", "sparsify-sbm", "sketch-torus"]
)
def test_workloads_build_at_seed_7(workloads, name):
    inputs = workloads.make(name, 7)
    assert inputs.graph.n_edges > 0 and inputs.graph.is_connected()
    assert isinstance(inputs.config, ReductionConfig)
    assert not inputs.stop.done(inputs.graph, 0.0)
    assert len(inputs.reduction_seeds) == workloads.N_REDUCTIONS
    assert workloads.make(name, 7).reduction_seeds == inputs.reduction_seeds


@pytest.mark.parametrize("mode", [ExactMode(), SketchMode(n_probes=8)])
def test_short_reduction_passes_output_checks(checks, mode):
    # MaxIterations never reports itself done, so the checked stop is an edge
    # budget that the first acting round meets; the cap bounds the run.
    g = generate("triangular-lattice", {"rows": 5, "cols": 5})
    stop = EdgeBudget(g.n_edges - 1)
    result = reduce_graph(
        g, [stop, MaxIterations(3)], ReductionConfig(mode=mode), seed=7
    )
    assert checks.output_problems(g, result, stop) == []
    assert checks.squared_error(result, checks.reference_pinv(g)) >= 0.0
    assert len(checks.digest(result)) == 64
