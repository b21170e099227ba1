"""Command line front end.

Subcommands: gen, reduce, sparsify, coarsen, metrics, compare. Every error
path exits nonzero with a message on stderr; success prints a short summary
line per action on stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .baselines import matching_coarsen, samples_for_edge_target, ss_sparsify
from .experiment import (
    ExperimentSpec,
    parse_config,
    parse_stop,
    probe_vectors,
    run_experiment,
    write_rows_csv,
    write_rows_json,
)
from .generators import generate
from .graph import (
    ContractionMap,
    read_contraction_map,
    read_edgelist,
    write_contraction_map,
    write_edgelist,
)
from .laplacian import build_pseudoinverse, save_matrix_csv
from .metrics import check_sigma_approx, compare_output, laplacian_spectrum
from .reducer import reduce_graph


def _load_input(args) -> "WeightedGraph":
    return read_edgelist(args.input, getattr(args, "node_weights", None))


def _cmd_gen(args) -> int:
    params = json.loads(args.params) if args.params else {}
    g = generate(args.kind, params, args.seed)
    write_edgelist(g, args.out, args.node_weights_out)
    print(f"gen {args.kind}: {g.n_nodes} nodes, {g.n_edges} edges -> {args.out}")
    return 0


def _cmd_reduce(args) -> int:
    g = _load_input(args)
    config = parse_config(vars(args))
    stops = [parse_stop(spec) for spec in args.stop]
    result = reduce_graph(g, stops, config, seed=args.seed)
    # The dense build runs on this read; if it fails, no file is written.
    pinv = result.state.pinv if args.pinv_out else None

    prefix = args.out
    write_edgelist(result.graph, prefix + ".edges", prefix + ".nodeweights")
    write_contraction_map(result.cmap, prefix + ".cmap.json")
    result.trace.write_jsonl(prefix + ".trace.jsonl")
    if args.pinv_out:
        save_matrix_csv(args.pinv_out, pinv)
    totals = result.trace.totals()
    print(
        f"reduce: {g.n_nodes}x{g.n_edges} -> "
        f"{result.graph.n_nodes}x{result.graph.n_edges} "
        f"(deleted {totals['deleted']}, contracted {totals['contracted']}, "
        f"reweighted {totals['reweighted']}; stop {result.trace.stopped_by}; "
        f"error {result.estimated_error:.6g}) -> {prefix}.*"
    )
    return 0


def _cmd_sparsify(args) -> int:
    g = _load_input(args)
    n_samples = (args.samples if args.samples is not None
                 else samples_for_edge_target(g, args.target_edges))
    h = ss_sparsify(g, n_samples, np.random.default_rng(args.seed))
    write_edgelist(h, args.out + ".edges", args.out + ".nodeweights")
    print(
        f"sparsify: {g.n_edges} -> {h.n_edges} edges "
        f"({n_samples} samples) -> {args.out}.*"
    )
    return 0


def _cmd_coarsen(args) -> int:
    g = _load_input(args)
    coarse, cmap = matching_coarsen(
        g,
        strategy=args.strategy,
        levels=1 if args.levels is None else args.levels,
        rng=np.random.default_rng(args.seed),
        target_nodes=args.target_nodes,
    )
    prefix = args.out
    write_edgelist(coarse, prefix + ".edges", prefix + ".nodeweights")
    write_contraction_map(cmap, prefix + ".cmap.json")
    print(
        f"coarsen[{args.strategy}]: {g.n_nodes} -> {coarse.n_nodes} nodes -> {prefix}.*"
    )
    return 0


def _check_cmap(cmap: ContractionMap, original, reduced) -> None:
    """Raise ValueError naming a node unless `cmap` maps the nodes of the
    original graph onto all the nodes of the reduced graph, each supernode
    weighing what its original nodes weigh."""
    nodes, supernodes = set(original.nodes()), set(reduced.nodes())
    if nodes != set(cmap.originals):
        u = min(nodes ^ set(cmap.originals))
        where = "missing from the contraction map" if u in nodes else "not in the graph"
        raise ValueError(f"original node {u} is {where}")
    for u, s in cmap.assignment.items():
        if s not in supernodes:
            raise ValueError(f"original node {u} maps to {s}, not in the reduced graph")
    empty = supernodes - set(cmap.assignment.values())
    if empty:
        raise ValueError(f"reduced node {min(empty)} has no original node in the map")
    for s, members in sorted(cmap.groups().items()):
        weight, total = reduced.node_weight(s), sum(map(original.node_weight, members))
        if not math.isclose(weight, total, rel_tol=1e-9):
            raise ValueError(f"reduced node {s} weighs {weight:.6g}, its original nodes "
                             f"{total:.6g}; pass --reduced-node-weights")


def _cmd_metrics(args) -> int:
    original = read_edgelist(args.original, args.node_weights)
    reduced = read_edgelist(args.reduced, args.reduced_node_weights)
    if args.cmap:
        cmap = read_contraction_map(args.cmap)
    else:
        cmap = ContractionMap.identity(original.nodes())
    _check_cmap(cmap, original, reduced)
    for name, g in (("original", original), ("reduced", reduced)):
        if args.eigen_k is not None and args.eigen_k >= g.n_nodes:
            raise ValueError(f"--eigen-k {args.eigen_k} needs more nodes than the "
                             f"{name} graph's {g.n_nodes}")

    base = build_pseudoinverse(original)
    vectors = probe_vectors(original, args.vectors)
    spectrum = laplacian_spectrum(original) if args.eigen_k is not None else None
    report, candidate = compare_output(base, vectors, reduced, cmap, spectrum, args.eigen_k)
    if args.out:
        report.write_csv(args.out)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(report.to_json() + "\n")
    for metric, label, value in report.rows():
        name = f"{metric}[{label}]" if label else metric
        print(f"{name} = {value:.6g}")

    if args.sigma is not None:
        rng = np.random.default_rng(args.seed)
        probe = rng.standard_normal((original.n_nodes, args.sigma_vectors))
        sig = check_sigma_approx(base.pinv, candidate, probe, args.sigma, base.weights)
        # A check that no vector reached checks nothing, so it does not pass.
        if not sig.n_premise:
            status = "vacuous"
        else:
            status = "ok" if sig.ok else f"violated at {len(sig.violation_indices)}"
        print(
            f"sigma={args.sigma}: {status} "
            f"({sig.n_premise}/{sig.n_vectors} vectors within premise)"
        )
        if status != "ok":
            return 1
    return 0


def _cmd_compare(args) -> int:
    rows = run_experiment(ExperimentSpec.from_json(args.spec))
    if args.csv:
        write_rows_csv(rows, args.csv)
    if args.json:
        write_rows_json(rows, args.json)
    wrote = [p for p in (args.csv, args.json) if p]
    print(f"compare: {len(rows)} rows -> {', '.join(wrote) if wrote else 'stdout'}")
    if not wrote:
        for row in rows:
            name = f"{row.metric}[{row.vector}]" if row.vector else row.metric
            print(
                f"level={row.level} {row.algorithm} {name}: "
                f"{row.mean:.6g} +- {row.std:.6g}"
            )
    return 0


def _at_least_one(text: str) -> int:
    # A guarantee checked over no vectors would pass whatever the graphs are,
    # and no eigenvalue gap is defined for k = 0.
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _seed(text: str) -> int:
    # numpy's own refusal of a negative seed does not name the option.
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _sigma(text: str) -> float:
    # Refused before any output is written; sigma = inf would pass any graph.
    value = float(text)
    if not 1.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and exceed 1, got {text}")
    return value


def _vector_labels(text: str) -> list[str]:
    # An empty list would compare nothing and report a distance of 0.
    labels = [v for v in text.split(",") if v]
    if not labels:
        raise argparse.ArgumentTypeError(f"names no vector, got {text!r}")
    return labels


def _add_input_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="edge list file (u v w lines)")
    p.add_argument("--node-weights", default=None, help="node weight file (u w lines)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphreduce",
        description="Reduce weighted graphs while preserving the Laplacian "
        "pseudoinverse in expectation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a named graph family")
    p.add_argument("--kind", required=True,
                   help="path|cycle|torus|triangular-lattice|er|sbm")
    p.add_argument("--params", default="", help="JSON parameter object")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True, help="edge list output path")
    p.add_argument("--node-weights-out", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("reduce", help="probabilistic unified reduction")
    _add_input_args(p)
    p.add_argument("--q", type=float, default=0.25,
                   help="fraction of matched edges acted on per iteration")
    p.add_argument("--d", type=float, default=0.25,
                   help="expected per-iteration reduction target")
    p.add_argument("--priority", choices=["edges", "nodes"], default="edges")
    p.add_argument("--stop", action="append", required=True,
                   help="edges=N|nodes=N|error=X|beta=X|iters=N (repeatable)")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--mode", default="exact", help="exact|sketch:K")
    p.add_argument("--no-contraction", action="store_true",
                   help="restrict to deletion/reweight (sparsify-only mode)")
    p.add_argument("--out", required=True, help="output path prefix")
    p.add_argument("--pinv-out", default=None,
                   help="also write the reduced pseudoinverse as CSV")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("sparsify", help="leverage-score sampling baseline")
    _add_input_args(p)
    size = p.add_mutually_exclusive_group(required=True)
    size.add_argument("--samples", type=int, default=None)
    size.add_argument("--target-edges", type=int, default=None,
                      help="pick the sample count whose expected distinct edge "
                           "count reaches this")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=_cmd_sparsify)

    p = sub.add_parser("coarsen", help="matching-based coarsening baseline")
    _add_input_args(p)
    p.add_argument("--strategy", choices=["random", "heavy-edge"], default="random")
    size = p.add_mutually_exclusive_group()
    size.add_argument("--levels", type=int, default=None,
                      help="matching levels to contract (1 when neither is given)")
    size.add_argument("--target-nodes", type=int, default=None)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=_cmd_coarsen)

    p = sub.add_parser("metrics", help="compare a reduced graph to its original")
    p.add_argument("--original", required=True)
    p.add_argument("--node-weights", default=None)
    p.add_argument("--reduced", required=True)
    p.add_argument("--reduced-node-weights", default=None)
    p.add_argument("--cmap", default=None,
                   help="contraction map JSON (identity when omitted)")
    p.add_argument("--vectors", type=_vector_labels, default="fiedler,median")
    p.add_argument("--eigen-k", type=_at_least_one, default=None)
    p.add_argument("--sigma", type=_sigma, default=None,
                   help="also check the sigma-approximation guarantee")
    p.add_argument("--sigma-vectors", type=_at_least_one, default=1000)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default=None, help="metric CSV output")
    p.add_argument("--json", default=None, help="metric JSON output")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("compare", help="run an experiment spec end to end")
    p.add_argument("--spec", required=True, help="experiment JSON file")
    p.add_argument("--csv", default=None, help="long-format CSV output")
    p.add_argument("--json", default=None, help="JSON output")
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - single exit point for the CLI
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
