"""Optimal probabilistic actions on a column of edges.

An edge can be deleted, contracted, or reweighted. Each action changes the
Laplacian pseudoinverse by `scalar * M_e`, where M_e is the edge's fixed
rank-one update matrix (Frobenius norm `update_norm`) and the scalar depends
only on the relative weight change and the edge leverage:

    update_scalar(ratio, leverage) = -ratio / (1 + ratio * leverage)

Deletion is ratio = -1, contraction the ratio -> infinity limit. A randomized
action over {delete, contract, reweight} is unbiased when the probability-
weighted scalars cancel; among all unbiased mixtures, the one minimizing

    E[|scalar|^2] * update_norm^2  -  beta^2 * E[reduction]

has a closed form with three regimes in the pressure parameter beta: below
both onset thresholds nothing happens; between onset and saturation a single
action (whichever onset is lower) is mixed with a compensating reweight; above
saturation the edge is deleted with probability 1 - leverage and contracted
with probability leverage.

The closed form runs elementwise on a column: an `EdgeQuantities` whose fields
are arrays, one entry per edge, such as a round's matched set. Fields that are
numbers make a column of one edge; the same code then returns floats, a
`Regime` and a branch string. `grid_search_action` minimizes the same
objective numerically for one edge and exists to cross-check the closed form,
not to be fast.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Priority",
    "Regime",
    "EdgeQuantities",
    "Thresholds",
    "ActionDistribution",
    "update_scalar",
    "regime_thresholds",
    "optimal_action",
    "activation_beta",
    "expected_reduction",
    "expected_error",
    "action_cost",
    "grid_search_action",
]

# Leverage this close to 1 is treated as an exact bridge: the deletion scalar
# would exceed 1e9 and no sane policy deletes such an edge anyway.
BRIDGE_SNAP = 1e-9


class Priority(enum.Enum):
    """What the reduction is trying to shrink.

    EDGES counts removed edges: deletion removes one, contraction removes the
    edge plus one per triangle through it (parallel merges). NODES counts
    removed nodes: only contraction removes one.
    """

    EDGES = "edges"
    NODES = "nodes"

    def reduction_counts(self, triangles: int) -> tuple[float, float]:
        """(count removed by deletion, count removed by contraction)."""
        if self is Priority.EDGES:
            return 1.0, 1.0 + triangles
        return 0.0, 1.0


class Regime(enum.Enum):
    NO_ACTION = 1
    SINGLE_ACTION = 2
    DELETE_OR_CONTRACT = 3


@dataclass(frozen=True)
class EdgeQuantities:
    """Everything the action solver needs to know about a column of edges.

    leverage = weight * effective resistance, in (0, 1], 1 iff bridge;
    update_norm = Frobenius norm of the edge's rank-one update matrix;
    triangles = triangle count through the edge in the current graph.
    Each is an array with one entry per edge, or a number for one edge; the
    priority is shared.
    """

    leverage: float | np.ndarray
    update_norm: float | np.ndarray
    triangles: int | np.ndarray
    priority: Priority = Priority.EDGES

    def __post_init__(self) -> None:
        lev = np.asarray(self.leverage)
        if not np.all((lev > 0.0) & (lev <= 1.0)):
            raise ValueError(f"leverage must be in (0, 1], got {self.leverage}")
        if not np.all(np.asarray(self.update_norm) > 0.0):
            raise ValueError(f"update_norm must be positive, got {self.update_norm}")
        if not np.all(np.asarray(self.triangles) >= 0):
            raise ValueError(f"triangles must be >= 0, got {self.triangles}")

    @classmethod
    def from_measurements(
        cls,
        leverage: float | np.ndarray,
        update_norm: float | np.ndarray,
        triangles: int | np.ndarray,
        priority: Priority = Priority.EDGES,
    ) -> "EdgeQuantities":
        """Clamp raw (possibly sketched) measurements into the valid domain."""
        lev = np.minimum(leverage, 1.0)
        lev = np.maximum(np.where(lev > 1.0 - BRIDGE_SNAP, 1.0, lev), 1e-12)
        return cls(lev, np.maximum(update_norm, 1e-300), triangles, priority)

    @property
    def r_delete(self) -> float | np.ndarray:
        return self.priority.reduction_counts(self.triangles)[0]

    @property
    def r_contract(self) -> float | np.ndarray:
        return self.priority.reduction_counts(self.triangles)[1]


@dataclass(frozen=True)
class Thresholds:
    """Regime boundaries in beta, per edge of a column.

    onset_delete / onset_contract: below both, no action is worthwhile; the
    smaller one marks where its action starts mixing in. saturation: above it
    the reweight option drops out entirely. Any of these may be +inf.
    """

    onset_delete: float | np.ndarray
    onset_contract: float | np.ndarray
    saturation: float | np.ndarray

    @property
    def onset(self) -> float | np.ndarray:
        return np.minimum(self.onset_delete, self.onset_contract)


@dataclass(frozen=True)
class ActionDistribution:
    """Unbiased mixture over delete / contract / reweight, per edge of a column.

    reweight_ratio is the relative weight change delta_w / w applied when the
    reweight branch is drawn (0.0 when the edge is left alone). branch names
    the single action mixed in ("delete" or "contract") in that regime and is
    None otherwise. For a column, regime and branch are object arrays.
    """

    p_delete: float | np.ndarray
    p_contract: float | np.ndarray
    p_reweight: float | np.ndarray
    reweight_ratio: float | np.ndarray
    regime: Regime | np.ndarray
    branch: str | None | np.ndarray = None


# Indexed by regime code (the `Regime` value) and by branch code.
_REGIMES = np.array([None, *Regime], dtype=object)
_BRANCHES = np.array([None, "delete", "contract"], dtype=object)


def update_scalar(ratio: float, leverage: float) -> float:
    """Scalar multiplying the edge's update matrix for weight change ratio.

    ratio = delta_w / w in [-1, inf]; -1 is deletion, inf is contraction.
    """
    if not 0.0 < leverage <= 1.0:
        raise ValueError(f"leverage must be in (0, 1], got {leverage}")
    if math.isinf(ratio):
        if ratio < 0:
            raise ValueError("ratio must be >= -1")
        return -1.0 / leverage
    if ratio < -1.0:
        raise ValueError(f"ratio must be >= -1, got {ratio}")
    if ratio == -1.0 and leverage == 1.0:
        raise ValueError("deletion of a bridge diverges (leverage 1)")
    denom = 1.0 + ratio * leverage
    return -ratio / denom


def regime_thresholds(eq: EdgeQuantities) -> Thresholds:
    """Closed-form regime boundaries of the cost minimization."""
    x, m = np.asarray(eq.leverage, dtype=float), eq.update_norm
    sd, sc = np.sqrt(eq.r_delete), np.sqrt(eq.r_contract)
    # A bridge (x = 1) or a deletion without payoff (r_delete = 0) divides the
    # positive m by zero, which puts that threshold at +inf.
    with np.errstate(divide="ignore"):
        return Thresholds(
            (m / ((1.0 - x) * sd))[()],
            (m / (x * sc))[()],
            (m / (x * (1.0 - x) * (sd + sc)))[()],
        )


def optimal_action(
    eq: EdgeQuantities, beta: float, allow_contraction: bool = True
) -> ActionDistribution:
    """Cost-minimizing unbiased action mixture per edge at the shared beta.

    With allow_contraction False the same objective is minimized subject to
    zero contraction probability; an edge then only acts while the deletion
    branch is active and strictly below the beta where its compensating
    reweight would degenerate into a contraction.
    """
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    th = regime_thresholds(eq)
    x = np.asarray(eq.leverage, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        # Ties break toward contraction: it reduces at least as much. Without
        # contraction, deletion is the only single action.
        delete = (th.onset_delete < th.onset_contract) | (not allow_contraction)
        # The corner owns the saturation point itself: both mixtures cost the
        # same there, but only the corner delivers the jumped expected
        # reduction that activation_beta promises. It takes precedence over
        # the single action because onset can equal saturation (leverage 1/2
        # with equal reduction payoffs leaves regime 2 empty), and that point
        # must corner, not idle.
        corner = (
            allow_contraction & np.isfinite(th.saturation) & (beta >= th.saturation)
        )
        if allow_contraction:
            single = ~corner & (beta > th.onset)
        else:
            # p_delete reaches its cap 1 - leverage at onset_delete / leverage;
            # at the cap the reweight ratio diverges, so stop strictly before.
            single = (beta > th.onset_delete) & (beta < th.onset_delete / x)
        onset = np.where(delete, th.onset_delete, th.onset_contract)
        f_a = np.where(delete, 1.0 / (1.0 - x), -1.0 / x)
        p = 1.0 - onset / beta
        # beta so far past onset that p rounds to 1; keep the compensating
        # reweight finite (its weight update then trips the singularity guard
        # instead of propagating nan)
        p = np.where(p >= 1.0, np.nextafter(1.0, 0.0), p)
        f_r = -p * f_a / (1.0 - p)
        ratio = -f_r / (1.0 + f_r * x)
    return ActionDistribution(
        np.where(corner, 1.0 - x, np.where(single & delete, p, 0.0))[()],
        np.where(corner, x, np.where(single & ~delete, p, 0.0))[()],
        np.where(corner, 0.0, np.where(single, 1.0 - p, 1.0))[()],
        np.where(single, ratio, 0.0)[()],
        _REGIMES[np.where(corner, 3, np.where(single, 2, 1))],
        _BRANCHES[np.where(single, np.where(delete, 1, 2), 0)],
    )


def activation_beta(
    eq: EdgeQuantities, min_reduction: float, allow_contraction: bool = True
) -> float | np.ndarray:
    """Smallest beta at which each edge's expected reduction reaches the target.

    Acts as an importance score: low values mark edges that give up a lot of
    reduction for little error. +inf when no beta delivers the target.
    """
    d = min_reduction
    if not d > 0:
        raise ValueError(f"min_reduction must be positive, got {d}")
    th = regime_thresholds(eq)
    x = np.asarray(eq.leverage, dtype=float)
    rd, rc = np.asarray(eq.r_delete, dtype=float), eq.r_contract
    with np.errstate(divide="ignore", invalid="ignore"):
        if not allow_contraction:
            # Deletion alone delivers at most rd * (1 - x), which is 0 for a
            # bridge or a deletion without payoff.
            reachable = d < rd * (1.0 - x)
            return np.where(reachable, th.onset_delete / (1.0 - d / rd), np.inf)[()]
        delete = th.onset_delete < th.onset_contract
        onset = np.where(delete, th.onset_delete, th.onset_contract)
        r_a = np.where(delete, rd, rc)
        beta = onset / (1.0 - d / r_a)
        full = rd * (1.0 - x) + rc * x
        saturated = np.where(
            (d <= full) & np.isfinite(th.saturation), th.saturation, np.inf
        )
        return np.where((d < r_a) & (beta <= th.saturation), beta, saturated)[()]


def expected_reduction(
    eq: EdgeQuantities, dist: ActionDistribution
) -> float | np.ndarray:
    return eq.r_delete * dist.p_delete + eq.r_contract * dist.p_contract


def expected_error(eq: EdgeQuantities, dist: ActionDistribution) -> float | np.ndarray:
    """Expected squared Frobenius change of the pseudoinverse under `dist`."""
    x, m = np.asarray(eq.leverage, dtype=float), eq.update_norm
    ratio = dist.reweight_ratio
    # float_power squares with libm's pow, as Python's float ** 2 does; numpy's
    # ** 2 multiplies, which differs in the last bit for about 1 in 1,200 inputs.
    sq = np.float_power
    with np.errstate(divide="ignore", invalid="ignore"):
        total = (
            np.where(dist.p_delete > 0.0, dist.p_delete * sq(1.0 / (1.0 - x), 2), 0.0)
            + np.where(dist.p_contract > 0.0, dist.p_contract * sq(1.0 / x, 2), 0.0)
            + np.where(
                (dist.p_reweight > 0.0) & (ratio != 0.0),
                dist.p_reweight * sq(-ratio / (1.0 + ratio * x), 2),
                0.0,
            )
        )
    return (m * m * total)[()]


def action_cost(eq: EdgeQuantities, dist: ActionDistribution, beta: float) -> float:
    """Objective value: expected error minus beta^2 * expected reduction."""
    return expected_error(eq, dist) - beta**2 * expected_reduction(eq, dist)


def grid_search_action(
    eq: EdgeQuantities, beta: float, grid_n: int = 2000
) -> tuple[ActionDistribution, float]:
    """Brute-force minimization of the action objective on a probability grid.

    Scans (p_delete, p_contract) on a grid_n x grid_n lattice over the
    feasible rectangle [0, 1-leverage] x [0, leverage] intersected with the
    simplex, with the reweight branch pinned by the unbiasedness constraint.
    Exists as an independent oracle for `optimal_action`; costs O(grid_n^2).
    """
    if grid_n < 1000:
        raise ValueError(f"grid_n must be >= 1000, got {grid_n}")
    x, m = eq.leverage, eq.update_norm
    rd, rc = eq.r_delete, eq.r_contract
    f_c = -1.0 / x
    if x >= 1.0:
        pd = np.array([0.0])
        f_d = 0.0  # never multiplied by a nonzero p_delete
    else:
        pd = np.linspace(0.0, 1.0 - x, grid_n)
        f_d = 1.0 / (1.0 - x)
    pc = np.linspace(0.0, x, grid_n)

    # Scan in row chunks so the temporaries stay cache resident; a single
    # grid_n x grid_n pass is memory bound and an order of magnitude slower.
    m2 = m * m
    b2 = beta * beta
    col_term = pd * (m2 * f_d**2 - b2 * rd)
    row_term = pc * (m2 * f_c**2 - b2 * rc)
    pc_fc = pc * f_c
    pr_base = 1.0 - pc
    best_val = np.inf
    best_i = best_j = 0
    chunk = 64
    for lo in range(0, len(pd), chunk):
        pdc = pd[lo : lo + chunk, None]
        G = pdc * f_d + pc_fc
        PR = pr_base - pdc
        with np.errstate(divide="ignore", invalid="ignore"):
            penalty = G * G / PR
        # Boundary p_reweight = 0 is feasible only where the constraint
        # already holds with no reweight mass; numerically G = 0 there.
        # Points past the simplex stay infeasible no matter what G is.
        boundary = PR <= 1e-12
        if boundary.any():
            penalty[boundary] = np.inf
            penalty[boundary & (PR >= -1e-12) & (np.abs(G) < 1e-9)] = 0.0
        cost = m2 * penalty
        cost += col_term[lo : lo + chunk, None]
        cost += row_term
        flat = int(np.argmin(cost))
        val = float(cost.flat[flat])
        if val < best_val:
            best_val = val
            best_i, best_j = lo + flat // cost.shape[1], flat % cost.shape[1]
    i, j = best_i, best_j
    best_pd, best_pc = float(pd[i]), float(pc[j])
    best_pr = max(1.0 - best_pd - best_pc, 0.0)
    # When deletion has zero reduction payoff the optimum is degenerate:
    # reweight mass whose compensating scalar equals the deletion scalar is a
    # deletion in disguise (ratio -1 removes the edge). Fold it back so the
    # classification below sees the canonical corner. The 2% window cannot
    # catch a genuine single-action point unless beta sits within ~5% of
    # saturation, which callers comparing against the closed form avoid.
    if best_pr > 1e-12 and x < 1.0:
        f_r = -(best_pd * f_d + best_pc * f_c) / best_pr
        if abs(f_r - f_d) <= 0.02 * abs(f_d):
            best_pd += best_pr
            best_pr = 0.0
    step = max((pd[1] - pd[0]) if len(pd) > 1 else 0.0, pc[1] - pc[0])
    tol = 1.5 * step
    if best_pd + best_pc <= tol:
        regime = Regime.NO_ACTION
    elif best_pr <= tol:
        regime = Regime.DELETE_OR_CONTRACT
    else:
        regime = Regime.SINGLE_ACTION
    ratio = 0.0
    if best_pr > 1e-12:
        g = best_pd * f_d + best_pc * f_c
        f_r = -g / best_pr
        if abs(1.0 + f_r * x) > 1e-15:
            ratio = -f_r / (1.0 + f_r * x)
    branch = None
    if regime is Regime.SINGLE_ACTION:
        branch = "delete" if best_pd >= best_pc else "contract"
    dist = ActionDistribution(best_pd, best_pc, best_pr, ratio, regime, branch)
    return dist, best_val
