"""Reference oracles for the closed-form action solver in `graphreduce.action`.

`update_scalar` is the scalar multiplying an edge's rank-one update matrix
for one weight change, and `action_cost` the objective the closed form
minimizes. `grid_search_action` minimizes that objective numerically for one
edge on a probability grid; it is an independent check of `optimal_action`,
not a fast solver.
"""

from __future__ import annotations

import math

import numpy as np

from graphreduce.action import (
    ActionDistribution,
    EdgeQuantities,
    Regime,
    expected_error,
    expected_reduction,
)


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


def action_cost(eq: EdgeQuantities, dist: ActionDistribution, beta: float) -> float:
    """Objective value: expected error minus beta^2 * expected reduction."""
    return expected_error(eq, dist) - beta**2 * expected_reduction(eq, dist)


# Columns scanned either side of each row's bisection result.
WINDOW = 4


class Grid:
    """The grid_n x grid_n lattice of (p_delete, p_contract) for one edge.

    Rows i step p_delete over [0, 1 - leverage] (one row p_delete = 0 for a
    bridge), columns j step p_contract over [0, leverage]; the reweight
    probability PR = 1 - p_delete - p_contract is pinned by unbiasedness.
    """

    def __init__(self, eq: EdgeQuantities, beta: float, grid_n: int):
        if grid_n < 1000:
            raise ValueError(f"grid_n must be >= 1000, got {grid_n}")
        x, m = eq.leverage, eq.update_norm
        rd, rc = eq.r_delete, eq.r_contract
        self.f_c = -1.0 / x
        if x >= 1.0:
            self.pd = np.array([0.0])
            self.f_d = 0.0  # never multiplied by a nonzero p_delete
        else:
            self.pd = np.linspace(0.0, 1.0 - x, grid_n)
            self.f_d = 1.0 / (1.0 - x)
        self.pc = np.linspace(0.0, x, grid_n)
        self.m2 = m * m
        b2 = beta * beta
        self.col_term = self.pd * (self.m2 * self.f_d**2 - b2 * rd)
        self.row_term = self.pc * (self.m2 * self.f_c**2 - b2 * rc)
        self.pc_fc = self.pc * self.f_c
        self.pr_base = 1.0 - self.pc

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.pd), len(self.pc)

    def reweight_mass(self, i, j) -> np.ndarray:
        return self.pr_base[j] - self.pd[i]

    def cost(self, i, j) -> np.ndarray:
        """Objective at grid indices (i, j), broadcast over index arrays."""
        G = self.pd[i] * self.f_d + self.pc_fc[j]
        PR = self.reweight_mass(i, j)
        with np.errstate(divide="ignore", invalid="ignore"):
            penalty = G * G / PR
        # Boundary p_reweight = 0 is feasible only where the constraint
        # already holds with no reweight mass; numerically G = 0 there.
        # Points past the simplex stay infeasible no matter what G is.
        boundary = PR <= 1e-12
        penalty[boundary] = np.inf
        penalty[boundary & (PR >= -1e-12) & (np.abs(G) < 1e-9)] = 0.0
        cost = self.m2 * penalty
        cost += self.col_term[i]
        cost += self.row_term[j]
        return cost

    def full_argmin(self) -> tuple[int, int, float]:
        """(i, j, cost) of the first minimum in row-major order, by
        evaluating every point."""
        rows, cols = self.shape
        cost = self.cost(np.arange(rows)[:, None], np.arange(cols)[None, :])
        flat = int(np.argmin(cost))
        return flat // cols, flat % cols, float(cost.flat[flat])

    def argmin(self) -> tuple[int, int, float]:
        """(i, j, cost) of the first minimum in row-major order, by bisection
        along each row.

        For a fixed p_delete the objective is G^2 / PR plus terms linear in
        p_contract, with G and PR linear in it: convex wherever PR > 0. The
        corner (last row, last column) is the grid's only point with
        PR <= 1e-12, so it is evaluated on its own. Each row bisects for the
        first column whose successor costs no less, then scans WINDOW columns
        either side of it, so rounding near a flat minimum cannot move the
        argmin.
        """
        rows, cols = self.shape
        # PR falls along rows and columns, so its smallest off-corner values
        # sit next to the corner.
        near = [(rows - 1, cols - 2)] + ([(rows - 2, cols - 1)] if rows > 1 else [])
        if min(self.reweight_mass(i, j) for i, j in near) <= 1e-12:
            raise ValueError("the grid has boundary points off the corner")
        row = np.arange(rows)
        last = np.full(rows, cols - 1)
        last[-1] = cols - 2
        lo, hi = np.zeros(rows, dtype=int), last.copy()
        while np.any(lo < hi):
            act = np.flatnonzero(lo < hi)
            mid = (lo[act] + hi[act]) // 2
            rising = self.cost(act, mid + 1) >= self.cost(act, mid)
            hi[act] = np.where(rising, mid, hi[act])
            lo[act] = np.where(rising, lo[act], mid + 1)
        cand = lo[:, None] + np.arange(-WINDOW, WINDOW + 1)
        inside = (cand >= 0) & (cand <= last[:, None])
        cand = np.clip(cand, 0, last[:, None])
        vals = self.cost(row[:, None], cand)
        vals[~inside] = np.inf
        k = np.argmin(vals, axis=1)
        best_j, best = cand[row, k], vals[row, k]
        corner = float(self.cost(row[-1:], last[-1:] + 1)[0])
        if corner < best[-1]:
            best_j[-1], best[-1] = cols - 1, corner
        i = int(np.argmin(best))
        return i, int(best_j[i]), float(best[i])


def grid_search_action(
    eq: EdgeQuantities, beta: float, grid_n: int = 2000
) -> tuple[ActionDistribution, float]:
    """Brute-force minimization of the action objective on a probability grid.

    Minimizes over the grid_n x grid_n lattice of (p_delete, p_contract) on
    the feasible rectangle [0, 1-leverage] x [0, leverage] intersected with
    the simplex, with the reweight branch pinned by the unbiasedness
    constraint, and classifies the minimizer's regime.
    """
    grid = Grid(eq, beta, grid_n)
    i, j, best_val = grid.argmin()
    x, f_d, f_c = eq.leverage, grid.f_d, grid.f_c
    pd, pc = grid.pd, grid.pc
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
    dist = ActionDistribution(best_pd, best_pc, best_pr, ratio, regime)
    return dist, best_val
