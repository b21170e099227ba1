"""The benchmark's workloads, output checks and tracer must keep working.

`perfbench/workloads.py` builds the benchmark's inputs,
`perfbench/checks.py` validates every reduction it times and
`perfbench/tracer.py` splits a traced reduction into spans, all through the
library's names. A change that breaks any of them fails here, in the test
suite, rather than in a benchmark run.
"""

import importlib.util
import sys
import time
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


@pytest.fixture(scope="module")
def tracer():
    return load("tracer")


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
    # Asked without the round count, as output_problems asks, MaxIterations
    # never reports itself done, so the checked stop is an edge budget that
    # the first acting round meets; the cap bounds the run.
    g = generate("triangular-lattice", {"rows": 5, "cols": 5})
    stop = EdgeBudget(g.n_edges - 1)
    result = reduce_graph(
        g, [stop, MaxIterations(3)], ReductionConfig(mode=mode), seed=7
    )
    assert checks.output_problems(g, result, stop) == []
    assert checks.squared_error(result, checks.reference_pinv(g)) >= 0.0
    assert len(checks.digest(result)) == 64


@pytest.mark.parametrize("mode", [ExactMode(), SketchMode(n_probes=8)])
def test_traced_reduction_accounts_for_its_wall_time(tracer, mode):
    # run.py rejects a traced run whose span self times miss its wall time by
    # more than COVERAGE_TOL. In sketch mode `pcg` gets the tracer's counting
    # stand-in for the matrix, which has only shape, diagonal() and @.
    for module, attr, _ in tracer.FUNCTION_BINDINGS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
    for cls, attr, _ in tracer.METHOD_BINDINGS:
        assert attr in cls.__dict__, f"{cls.__name__}.{attr}"
    g = generate("triangular-lattice", {"rows": 5, "cols": 5})
    stop, config = EdgeBudget(g.n_edges // 2), ReductionConfig(mode=mode)

    def reduce_seeds():
        # Patching costs tens of microseconds outside every span; eight
        # reductions in one traced call keep it far below COVERAGE_TOL.
        return [reduce_graph(g, stop, config, seed=s) for s in range(8)]

    t = tracer.Tracer()
    start = time.perf_counter()
    t.call(reduce_seeds)
    wall = time.perf_counter() - start
    assert abs(sum(t.self_s.values()) / wall - 1.0) <= load("run").COVERAGE_TOL
    assert (t.matvecs > 0) == isinstance(mode, SketchMode)
