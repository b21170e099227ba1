"""The benchmark's tracer patches library names; these must keep existing.

`perfbench/tracer.py` looks every span's function up by name on its module or
class, so a renamed or moved function would make every traced benchmark run
fail. These tests catch that in the test suite instead.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from graphreduce.reducer import (
    EdgeBudget,
    ExactMode,
    ReductionConfig,
    SketchMode,
    reduce_graph,
)
from tests.conftest import random_connected_graph

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bound_objects(tracer):
    functions = [getattr(m, attr) for m, attr, _ in tracer.FUNCTION_BINDINGS]
    methods = [cls.__dict__[attr] for cls, attr, _ in tracer.METHOD_BINDINGS]
    return functions + methods


def test_tracer_bindings_resolve(tracer):
    for module, attr, _ in tracer.FUNCTION_BINDINGS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
    for cls, attr, _ in tracer.METHOD_BINDINGS:
        assert attr in cls.__dict__, f"{cls.__name__}.{attr}"


@pytest.mark.parametrize(
    "mode, spans",
    [
        (ExactMode(), ["laplacian.measure"]),
        (SketchMode(n_probes=8), ["sketch.measure", "sketch.solve"]),
    ],
)
def test_traced_reduction_calls_mode_spans_and_restores(tracer, mode, spans):
    g = random_connected_graph(np.random.default_rng(3), 16, extra_edges=20)
    config = ReductionConfig(mode=mode)
    before = bound_objects(tracer)
    t = tracer.Tracer()
    traced = t.call(reduce_graph, g, EdgeBudget(12), config, seed=5)
    for span in spans:
        assert t.calls[span] > 0, span
    # Each round scores, solves and sums its error as one column.
    for span in ("action.score", "action.solve", "action.error"):
        assert t.calls[span] == len(traced.trace.records), span
    after = bound_objects(tracer)
    assert all(a is b for a, b in zip(before, after))
    plain = reduce_graph(g, EdgeBudget(12), config, seed=5)
    assert traced.graph.edge_ids() == plain.graph.edge_ids()
