"""Benchmark of graphreduce's `reduce_graph` on fixed workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload coarsen-lattice --seed 0 --seconds 20 --trace 0

`--workload all` runs every workload, untraced and then traced, one after the
other in child processes.

With `--trace 0` the run sets the inputs up several times (`setup_s`), measures
the peak traced memory of one reduction in an untimed pass, then times
reductions from the workload's fixed seed list for about `--seconds`. Every
reduction's output is checked; one that raises or fails the check counts as
failed. With `--trace 1` the same reductions run with per-layer spans (see
`tracer.py`) and the per-layer metrics are reported instead.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. Details (environment, samples, digests
and counts of the first seed) go to
`perfbench/results/BENCH_<workload>_seed<seed>_trace<trace>.json`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ["coarsen-lattice", "sparsify-sbm", "sketch-torus"]
SETUP_REPS = 11
COVERAGE_TOL = 0.01

END_TO_END = ["reduce_s_p50", "setup_s", "peak_mb", "pinv_rel_err", "err_ratio", "ok_frac"]
UNITS = {"reduce_s_p50": "s", "peak_mb": "MB"}
PER_LAYER = [
    "laplacian.contract_s", "laplacian.contract_calls",
    "laplacian.reweight_s", "laplacian.reweight_calls", "laplacian.update_bytes",
    "laplacian.measure_s", "laplacian.measure_calls",
    "laplacian.build_s", "laplacian.build_calls", "laplacian.assemble_s",
    "action.score_s", "action.score_calls", "action.solve_s", "action.error_s",
    "reducer.self_s", "reducer.select_s",
    "sketch.solve_s", "sketch.solves", "sketch.pcg_iters", "sketch.assemble_s",
    "sketch.projection_s", "sketch.build_s", "sketch.builds", "sketch.measure_s",
    "graph.match_s", "graph.match_calls", "graph.connect_s", "graph.connect_calls",
    "graph.contract_s", "graph.triangles_s", "graph.cmap_merge_s",
    "reducer.iterations", "reducer.redraws", "reducer.kept_frac",
    "reducer.redraw_frac", "reducer.deleted", "reducer.contracted",
    "reducer.reweighted", "trace.overhead_frac",
]
# cProfile split of one coarsen-lattice reduction that the trace should
# reproduce in proportion: seconds per stage and in total.
PROFILE_BASELINE = {"contract": 2.2, "reweight": 1.5, "measure": 0.87, "total": 6.3}


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_frac") or name in END_TO_END:
        return "1"
    return "count"


def pin_blas_threads() -> int:
    """Fix the BLAS pool size before numpy loads; returns the size.

    At most two threads, the core count of the machine the bounds were set on,
    so that runs on larger machines stay comparable.
    """
    threads = min(2, len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def environment(threads: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
    }


def measure_setup(workload: str, seed: int):
    """Median over fresh imports of graphreduce plus input generation."""
    import workloads

    times = []
    for _ in range(SETUP_REPS):
        for name in [m for m in sys.modules if m.split(".")[0] == "graphreduce"]:
            del sys.modules[name]
        gc.collect()
        start = time.perf_counter()
        inputs = workloads.make(workload, seed)
        times.append(time.perf_counter() - start)
    return statistics.median(times), times, inputs


def direct(fn, *args, **kwargs):
    return fn(*args, **kwargs)


class PeakMemory:
    """Calls a function under tracemalloc and keeps the peak it allocated."""

    peak_bytes = 0

    def call(self, fn, *args, **kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            self.peak_bytes = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()


class Run:
    """The reductions of one run and their output checks."""

    def __init__(self, inputs):
        import checks
        from graphreduce import reduce_graph

        self.inputs = inputs
        self.checks = checks
        self.reduce_graph = reduce_graph
        self.reference = checks.reference_pinv(inputs.graph)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def reduce(self, seed: int, call=direct):
        """One reduction made through `call`, then checked outside it.

        Returns (result, or None if it raised or failed the check; wall seconds).
        """
        inp = self.inputs
        self.attempted += 1
        gc.collect()
        start = time.perf_counter()
        try:
            result = call(self.reduce_graph, inp.graph, inp.stop, inp.config, seed=seed)
            wall = time.perf_counter() - start
            bad = self.checks.output_problems(inp.graph, result, inp.stop)
        except Exception as exc:  # a failed reduction is counted, not fatal
            wall = time.perf_counter() - start
            bad = [f"{type(exc).__name__}: {exc}"]
        if bad:
            self.failed += 1
            self.problems.append(f"seed {seed}: {'; '.join(bad)}")
            return None, wall
        return result, wall

    def timed(self, seconds: float, call=direct) -> list:
        """Reduce the seed list in order while the next reduction, taking the
        median time so far, still ends within `seconds`; at least one.

        Returns (seed, result, wall) of every reduction that passed its check.
        """
        done, walls = [], []
        for seed in self.inputs.reduction_seeds:
            if walls and sum(walls) + statistics.median(walls) > seconds:
                break
            result, wall = self.reduce(seed, call)
            walls.append(wall)
            if result is not None:
                done.append((seed, result, wall))
        return done

    def check_repeat(self, first, done) -> None:
        """The timed pass starts with the first seed again: require
        bit-identical edge lists and pseudoinverses."""
        seed, again, _ = done[0]
        first_seed = self.inputs.reduction_seeds[0]
        if seed != first_seed or not self.checks.same_output(first, again):
            self.problems.append("the first seed reduced twice gave different outputs")

    def first_seed(self, result) -> dict:
        """Evidence that outputs are unchanged: digest and reducer counts."""
        if result is None:
            return {}
        return {"digest": self.checks.digest(result), **self.checks.reducer_counts(result)}


def end_to_end(run: Run, seconds: float, setup_s: float):
    """Peak memory of the first seed in an untimed pass, then timed reductions."""
    memory = PeakMemory()
    first, _ = run.reduce(run.inputs.reduction_seeds[0], memory.call)
    done = run.timed(seconds)
    if not done:
        return None, {}
    if first is not None:
        run.check_repeat(first, done)
    ref_sq = float((run.reference**2).sum())
    errors = [run.checks.squared_error(r, run.reference) for _, r, _ in done]
    estimates = [r.state.estimated_error for _, r, _ in done]
    walls = [w for _, _, w in done]
    metrics = {
        "reduce_s_p50": statistics.median(walls),
        "setup_s": setup_s,
        "peak_mb": memory.peak_bytes / 1e6,
        "pinv_rel_err": statistics.fmean(e / ref_sq for e in errors),
        "err_ratio": statistics.fmean(errors) / statistics.fmean(estimates),
        "ok_frac": 1.0 - run.failed / run.attempted,
    }
    detail = {
        "reduce_s": walls,
        "failed_frac": run.failed / run.attempted,
        "samples": {
            "reduce_s_p50": len(walls),
            "setup_s": SETUP_REPS,
            "peak_mb": 1,
            "pinv_rel_err": len(walls),
            "err_ratio": len(walls),
            "ok_frac": run.attempted,
        },
        "first_seed": run.first_seed(first),
    }
    return metrics, detail


def per_layer(run: Run, seconds: float):
    """The first seed untraced, then traced reductions; figures per reduction."""
    from tracer import Tracer

    first, untraced_wall = run.reduce(run.inputs.reduction_seeds[0])
    tracer = Tracer()
    done = run.timed(seconds, tracer.call)
    if not done:
        return None, {}
    if first is not None:
        run.check_repeat(first, done)
    n = len(done)
    walls = [w for _, _, w in done]
    figures = {f"{span}_s": t / n for span, t in tracer.self_s.items()}
    figures.update({f"{span}_calls": c / n for span, c in tracer.calls.items()})
    solves = tracer.calls["sketch.solve"]
    figures.update({
        "sketch.solves": solves / n,
        "sketch.builds": tracer.calls["sketch.build"] / n,
        "sketch.pcg_iters": tracer.matvecs / solves if solves else 0.0,
        "laplacian.update_bytes": tracer.update_bytes / n,
        "trace.overhead_frac": walls[0] / untraced_wall - 1.0,
    })
    counts = [run.checks.reducer_counts(r) for _, r, _ in done]
    figures.update({k: statistics.fmean(c[k] for c in counts) for k in counts[0]})
    metrics = {name: figures.get(name, 0.0) for name in PER_LAYER}

    # Self times telescope, so the spans must account for the traced wall time.
    coverage = sum(tracer.self_s.values()) / sum(walls)
    if abs(coverage - 1.0) > COVERAGE_TOL:
        run.problems.append(f"span self times cover {coverage:.4f} of wall time")
    detail = {
        "reduce_s": walls,
        "untraced_first_s": untraced_wall,
        "coverage": coverage,
        "samples": n,
        "first_seed": run.first_seed(first),
        "profile_split": {
            "baseline_s": PROFILE_BASELINE,
            "traced_s": {
                "contract": metrics["laplacian.contract_s"],
                "reweight": metrics["laplacian.reweight_s"],
                "measure": metrics["laplacian.measure_s"],
                "total": sum(walls) / n,
            },
        },
    }
    return metrics, detail


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced, then traced, each in a process of its own."""
    status = 0
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            status |= subprocess.run([
                sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", trace,
            ]).returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "graphreduce" / "__init__.py").is_file():
        print(f"graphreduce sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    threads = pin_blas_threads()
    sys.path.insert(0, str(SRC))

    setup_s, setup_times, inputs = measure_setup(args.workload, args.seed)
    import graphreduce

    if Path(graphreduce.__file__).resolve().parent != SRC / "graphreduce":
        print(f"imported graphreduce from {graphreduce.__file__}", file=sys.stderr)
        return 2
    run = Run(inputs)
    if args.trace:
        metrics, detail = per_layer(run, args.seconds)
    else:
        metrics, detail = end_to_end(run, args.seconds, setup_s)
    if metrics is None:
        print("no reduction passed its check:", *run.problems, sep="\n  ", file=sys.stderr)
        return 1

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(threads),
        "setup_s": setup_times,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
        **detail,
    }
    out = HERE / "results" / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")

    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{run.failed} of {run.attempted} reductions failed; "
          f"details in {out.relative_to(HERE.parent)}")
    samples = detail["samples"]
    for name, value in metrics.items():
        n = samples[name] if isinstance(samples, dict) else samples
        print(f"  {name:24s} {value:12.6g} {unit(name):6s} n={n}")
    if not args.trace:
        print(f"  {'failed_frac':24s} {detail['failed_frac']:12.6g} {'1':6s} n={run.attempted}")
    print("  environment:", json.dumps(report["environment"]))
    print("  first seed:", json.dumps(detail["first_seed"]))
    for problem in run.problems:
        print(f"  problem: {problem}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
