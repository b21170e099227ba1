"""Per-layer spans recorded from outside the library.

`Tracer.patched()` replaces the call sites on the reduction path with timing
wrappers for the duration of a `with` block and restores every original on
exit. `reducer` imports its helpers by name, so those are patched in
`graphreduce.reducer`; the rest are patched in their defining module or class.
Each span's self time is its duration minus the time of the spans it encloses,
kept on a stack, so the self times of one call add up to its wall time.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict

import graphreduce.laplacian as laplacian
import graphreduce.reducer as reducer
import graphreduce.sketch as sketch
from graphreduce.graph import ContractionMap, WeightedGraph
from graphreduce.sketch import SketchEstimator

ROOT = "reducer.self"

# (module, function, span); the reducer's helpers are patched where it
# imported them by name.
FUNCTION_BINDINGS = [
    (reducer, "edge_leverage", "laplacian.measure"),
    (reducer, "update_norm", "laplacian.measure"),
    (reducer, "woodbury_reweight", "laplacian.reweight"),
    (reducer, "contraction_update", "laplacian.contract"),
    (reducer, "build_pseudoinverse", "laplacian.build"),
    (reducer, "activation_beta", "action.score"),
    (reducer, "optimal_action", "action.solve"),
    (reducer, "expected_error", "action.error"),
    (reducer, "select_beta", "reducer.select"),
    (laplacian, "laplacian_matrix", "laplacian.assemble"),
    (sketch, "pcg", "sketch.solve"),
    (sketch, "symmetrized_laplacian", "sketch.assemble"),
    (sketch, "edge_projection_rows", "sketch.projection"),
    (sketch, "build_projection", "sketch.projection"),
]
# (class, method, span)
METHOD_BINDINGS = [
    (WeightedGraph, "independent_edge_set", "graph.match"),
    (WeightedGraph, "connected_without", "graph.connect"),
    (WeightedGraph, "contract_edge", "graph.contract"),
    (WeightedGraph, "triangle_count", "graph.triangles"),
    (ContractionMap, "merge", "graph.cmap_merge"),
    (SketchEstimator, "build", "sketch.build"),
    (SketchEstimator, "measure", "sketch.measure"),
]


class _CountingMatrix:
    """Stands in for the matrix handed to `pcg` and counts its products."""

    def __init__(self, matrix, tracer: "Tracer"):
        self._matrix = matrix
        self._tracer = tracer
        self.shape = matrix.shape

    def diagonal(self):
        return self._matrix.diagonal()

    def __matmul__(self, other):
        self._tracer.matvecs += 1
        return self._matrix @ other


class Tracer:
    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.update_bytes = 0  # computed: pinv.nbytes at each update call
        self.matvecs = 0
        self._children: list[float] = []

    def _wrap(self, span: str, fn, prepare=None):
        def traced(*args, **kwargs):
            if prepare is not None:
                args = prepare(args)
            start = time.perf_counter()
            self._children.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.self_s[span] += elapsed - self._children.pop()
                self.calls[span] += 1
                if self._children:
                    self._children[-1] += elapsed

        return traced

    def call(self, fn, *args, **kwargs):
        """Run `fn` patched, as the root span whose self time is the reducer's."""
        with self.patched():
            return self._wrap(ROOT, fn)(*args, **kwargs)

    def _count_update(self, args):
        self.update_bytes += args[0].pinv.nbytes
        return args

    def _count_matvecs(self, args):
        return (_CountingMatrix(args[0], self), *args[1:])

    @contextlib.contextmanager
    def patched(self):
        prepare = {
            "laplacian.reweight": self._count_update,
            "laplacian.contract": self._count_update,
            "sketch.solve": self._count_matvecs,
        }
        saved = []
        try:
            for module, attr, span in FUNCTION_BINDINGS:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(span, fn, prepare.get(span)))
            for cls, attr, span in METHOD_BINDINGS:
                raw = cls.__dict__[attr]
                saved.append((cls, attr, raw))
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self._wrap(span, raw.__func__)))
                else:
                    setattr(cls, attr, self._wrap(span, raw))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
