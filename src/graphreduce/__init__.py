"""Probabilistic reduction of weighted graphs that keeps the Laplacian
pseudoinverse unbiased: unified edge deletion, contraction, and reweighting,
plus sparsification and coarsening baselines and comparison metrics."""

from .action import (
    ActionDistribution,
    EdgeQuantities,
    Priority,
    Regime,
    activation_beta,
    optimal_action,
    regime_thresholds,
)
from .graph import (
    ContractionMap,
    WeightedGraph,
    read_edgelist,
    write_edgelist,
)
from .laplacian import (
    DisconnectedGraphError,
    PseudoinverseState,
    SingularUpdateError,
    build_pseudoinverse,
    edge_leverage,
    lift,
    update_norm,
)
from .metrics import (
    check_sigma_approx,
    compare_operators,
    hyperbolic_distance,
)
from .reducer import (
    BetaCap,
    EdgeBudget,
    ErrorCap,
    ExactMode,
    MaxIterations,
    NodeBudget,
    ReductionConfig,
    ReductionResult,
    SketchMode,
    reduce_graph,
)

__version__ = "0.1.0"

__all__ = [
    "ActionDistribution",
    "BetaCap",
    "ContractionMap",
    "DisconnectedGraphError",
    "EdgeBudget",
    "EdgeQuantities",
    "ErrorCap",
    "ExactMode",
    "MaxIterations",
    "NodeBudget",
    "PseudoinverseState",
    "Priority",
    "ReductionConfig",
    "ReductionResult",
    "Regime",
    "SingularUpdateError",
    "SketchMode",
    "WeightedGraph",
    "activation_beta",
    "build_pseudoinverse",
    "check_sigma_approx",
    "compare_operators",
    "edge_leverage",
    "hyperbolic_distance",
    "lift",
    "optimal_action",
    "read_edgelist",
    "reduce_graph",
    "regime_thresholds",
    "update_norm",
    "write_edgelist",
]
