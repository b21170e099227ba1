"""Optimal probabilistic actions on a column of edges.

An edge can be deleted, contracted, or reweighted. Each action changes the
Laplacian pseudoinverse by `scalar * M_e`, where M_e is the edge's fixed
rank-one update matrix (Frobenius norm `update_norm`) and the scalar depends
only on the relative weight change ratio = delta_w / w and the edge leverage:

    scalar = -ratio / (1 + ratio * leverage)

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
numbers make a column of one edge; the same code then returns floats and a
`Regime`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Priority",
    "Regime",
    "EdgeQuantities",
    "Thresholds",
    "ActionDistribution",
    "regime_thresholds",
    "optimal_action",
    "activation_beta",
    "expected_reduction",
    "expected_error",
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
        if not isinstance(self.priority, Priority):
            raise ValueError(f"priority must be a Priority, got {self.priority!r}")
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
    def r_delete(self) -> float:
        return 1.0 if self.priority is Priority.EDGES else 0.0

    @property
    def r_contract(self) -> float | np.ndarray:
        return 1.0 + self.triangles if self.priority is Priority.EDGES else 1.0


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
    reweight branch is drawn (0.0 when the edge is left alone). In the
    single-action regime the action mixed in is whichever of p_delete and
    p_contract is positive. For a column, regime is an object array.
    """

    p_delete: float | np.ndarray
    p_contract: float | np.ndarray
    p_reweight: float | np.ndarray
    reweight_ratio: float | np.ndarray
    regime: Regime | np.ndarray


# Indexed by regime code (the `Regime` value).
_REGIMES = np.array([None, *Regime], dtype=object)


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
    # p overflows for a tiny beta far below onset; such edges do not act, so
    # their p is discarded.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
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
