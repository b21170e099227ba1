import math
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphreduce.action import (
    ActionDistribution,
    EdgeQuantities,
    Priority,
    Regime,
    action_cost,
    activation_beta,
    expected_error,
    expected_reduction,
    grid_search_action,
    optimal_action,
    regime_thresholds,
    update_scalar,
)

# Unit triangle edge under EDGES priority (one triangle through the edge).
TRIANGLE_EQ = EdgeQuantities(
    leverage=2 / 3, update_norm=2 / 9, triangles=1, priority=Priority.EDGES
)


def scalars(eq: EdgeQuantities, dist: ActionDistribution):
    """(scalar, probability) pairs of the mixture, for checking unbiasedness."""
    x = eq.leverage
    out = []
    if dist.p_delete > 0:
        out.append((1.0 / (1.0 - x), dist.p_delete))
    if dist.p_contract > 0:
        out.append((-1.0 / x, dist.p_contract))
    if dist.p_reweight > 0:
        out.append((update_scalar(dist.reweight_ratio, x), dist.p_reweight))
    return out


def quantity_strategy():
    return st.builds(
        EdgeQuantities,
        leverage=st.floats(0.02, 0.98),
        update_norm=st.floats(1e-3, 10.0),
        triangles=st.integers(0, 5),
        priority=st.sampled_from(list(Priority)),
    )


# -- update scalar ---------------------------------------------------------


def test_update_scalar_limits():
    assert update_scalar(-1.0, 0.25) == pytest.approx(1 / 0.75)
    assert update_scalar(math.inf, 0.25) == pytest.approx(-4.0)
    assert update_scalar(0.0, 0.5) == 0.0


def test_update_scalar_bridge_deletion_diverges():
    with pytest.raises(ValueError):
        update_scalar(-1.0, 1.0)


def test_update_scalar_invalid_ratio():
    with pytest.raises(ValueError):
        update_scalar(-1.5, 0.5)


@settings(max_examples=50, deadline=None)
@given(st.floats(0.05, 0.95), st.floats(-0.99, 50.0))
def test_update_scalar_monotone_decreasing_in_ratio(x, ratio):
    eps = 1e-6
    assert update_scalar(ratio, x) > update_scalar(ratio + eps, x)


# -- thresholds ------------------------------------------------------------


def test_thresholds_symmetric_point():
    eq = EdgeQuantities(0.5, 1.0, 0, Priority.EDGES)
    th = regime_thresholds(eq)
    assert th.onset_delete == pytest.approx(2.0)
    assert th.onset_contract == pytest.approx(2.0)
    assert th.saturation == pytest.approx(2.0)


def test_thresholds_triangle():
    th = regime_thresholds(TRIANGLE_EQ)
    assert th.onset_delete == pytest.approx(2 / 3)
    assert th.onset_contract == pytest.approx(1 / (3 * math.sqrt(2)))
    assert th.saturation == pytest.approx(1 / (1 + math.sqrt(2)))


def test_thresholds_bridge_and_node_priority():
    bridge = EdgeQuantities(1.0, 0.5, 0, Priority.EDGES)
    th = regime_thresholds(bridge)
    assert math.isinf(th.onset_delete) and math.isinf(th.saturation)
    assert th.onset_contract == pytest.approx(0.5)

    nodes = EdgeQuantities(0.5, 1.0, 3, Priority.NODES)
    th = regime_thresholds(nodes)
    assert math.isinf(th.onset_delete)
    assert th.onset_contract == pytest.approx(2.0)
    assert th.saturation == pytest.approx(4.0)


@settings(max_examples=100, deadline=None)
@given(quantity_strategy())
def test_onset_below_saturation(eq):
    th = regime_thresholds(eq)
    assert th.onset <= th.saturation * (1 + 1e-12)
    # The branch that is not chosen never activates before saturation.
    assert max(th.onset_delete, th.onset_contract) >= th.saturation * (1 - 1e-12)


# -- optimal action --------------------------------------------------------


def test_worked_example_deletion_branch():
    # x = 1/4, unit norm, both reductions 1, beta = 2: delete w.p. 1/3 and
    # otherwise scale the weight up by 4/5.
    eq = EdgeQuantities(0.25, 1.0, 0, Priority.EDGES)
    dist = optimal_action(eq, 2.0)
    assert dist.regime is Regime.SINGLE_ACTION and dist.branch == "delete"
    assert dist.p_delete == pytest.approx(1 / 3)
    assert dist.p_reweight == pytest.approx(2 / 3)
    assert dist.reweight_ratio == pytest.approx(0.8)
    assert expected_error(eq, dist) == pytest.approx(8 / 9)
    th = regime_thresholds(eq)
    assert th.saturation == pytest.approx(8 / 3)


def test_triangle_full_regime():
    dist = optimal_action(TRIANGLE_EQ, 10.0)
    assert dist.regime is Regime.DELETE_OR_CONTRACT
    assert dist.p_delete == pytest.approx(1 / 3)
    assert dist.p_contract == pytest.approx(2 / 3)
    assert dist.p_reweight == 0.0
    assert expected_error(TRIANGLE_EQ, dist) == pytest.approx(2 / 9)


def test_no_action_below_onset():
    dist = optimal_action(TRIANGLE_EQ, 0.1)
    assert dist.regime is Regime.NO_ACTION
    assert (dist.p_delete, dist.p_contract, dist.reweight_ratio) == (0.0, 0.0, 0.0)
    assert expected_error(TRIANGLE_EQ, dist) == 0.0
    assert optimal_action(TRIANGLE_EQ, 0.0).regime is Regime.NO_ACTION


def test_tiny_beta_far_below_onset_is_silent():
    # onset / beta overflows to inf; that edge's p is discarded, not warned on.
    eq = EdgeQuantities(0.5, 1e10, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert optimal_action(eq, 1e-300).regime is Regime.NO_ACTION


def test_corner_owns_the_saturation_point():
    th = regime_thresholds(TRIANGLE_EQ)
    dist = optimal_action(TRIANGLE_EQ, th.saturation)
    assert dist.regime is Regime.DELETE_OR_CONTRACT
    assert dist.p_delete == pytest.approx(1 / 3)
    assert dist.p_contract == pytest.approx(2 / 3)
    below = optimal_action(TRIANGLE_EQ, th.saturation * (1 - 1e-9))
    assert below.regime is Regime.SINGLE_ACTION


def test_empty_middle_regime_still_acts():
    # leverage 1/2 with equal reduction payoffs collapses onset and
    # saturation onto one point; that beta must produce the corner mixture,
    # not a do-nothing reweight (a reducer livelocks otherwise).
    eq = EdgeQuantities(0.5, 1.0, 0, Priority.EDGES)
    th = regime_thresholds(eq)
    assert th.onset == th.saturation == pytest.approx(2.0)
    activation = activation_beta(eq, 0.25)
    assert activation == pytest.approx(th.saturation)
    dist = optimal_action(eq, activation)
    assert dist.regime is Regime.DELETE_OR_CONTRACT
    assert dist.p_delete == pytest.approx(0.5)
    assert dist.p_contract == pytest.approx(0.5)
    assert expected_reduction(eq, dist) >= 0.25


def test_negative_beta_rejected():
    with pytest.raises(ValueError):
        optimal_action(TRIANGLE_EQ, -1.0)


def test_bridge_never_deleted():
    eq = EdgeQuantities(1.0, 0.5, 0, Priority.EDGES)
    for beta in (0.1, 1.0, 10.0, 1e6):
        dist = optimal_action(eq, beta)
        assert dist.p_delete == 0.0
        if dist.regime is Regime.SINGLE_ACTION:
            assert dist.branch == "contract"


@settings(max_examples=200, deadline=None)
@given(quantity_strategy(), st.floats(0.01, 100.0))
def test_action_is_unbiased_and_feasible(eq, beta):
    dist = optimal_action(eq, beta)
    x = eq.leverage
    assert dist.p_delete >= 0 and dist.p_contract >= 0 and dist.p_reweight >= 0
    assert dist.p_delete + dist.p_contract + dist.p_reweight == pytest.approx(1.0)
    assert dist.p_delete <= 1 - x + 1e-9
    assert dist.p_contract <= x + 1e-9
    total = sum(p * f for f, p in scalars(eq, dist))
    assert abs(total) < 1e-12 * max(1.0, 1.0 / (1.0 - x) if x < 1 else 1.0)


@settings(max_examples=50, deadline=None)
@given(quantity_strategy())
def test_expected_reduction_nondecreasing_in_beta(eq):
    th = regime_thresholds(eq)
    hi = min(th.saturation * 3, 1e6)
    betas = np.linspace(1e-3, hi, 80)
    values = [expected_reduction(eq, optimal_action(eq, float(b))) for b in betas]
    for a, b in zip(values, values[1:]):
        assert b >= a - 1e-9


@settings(max_examples=50, deadline=None)
@given(quantity_strategy())
def test_cost_continuous_at_boundaries(eq):
    th = regime_thresholds(eq)
    for boundary in (th.onset, th.saturation):
        if math.isinf(boundary):
            continue
        lo = action_cost(eq, optimal_action(eq, boundary * (1 - 1e-7)), boundary)
        hi = action_cost(eq, optimal_action(eq, boundary * (1 + 1e-7)), boundary)
        scale = max(abs(lo), abs(hi), eq.update_norm**2)
        assert abs(hi - lo) < 1e-4 * scale


# -- activation beta -------------------------------------------------------


def test_activation_beta_triangle():
    # Contraction branch, target reduction 1/4 of r_contract = 2.
    beta = activation_beta(TRIANGLE_EQ, 0.25)
    assert beta == pytest.approx(8 / (21 * math.sqrt(2)))
    dist = optimal_action(TRIANGLE_EQ, beta)
    assert expected_reduction(TRIANGLE_EQ, dist) == pytest.approx(0.25)


def test_activation_beta_unreachable_under_node_priority():
    eq = EdgeQuantities(0.1, 1.0, 0, Priority.NODES)
    # Expected node reduction tops out at leverage = 0.1 < 0.25.
    assert math.isinf(activation_beta(eq, 0.25))


def test_activation_beta_saturation_fallback():
    # Deletion branch active but the regime-2 ceiling is below the target;
    # only the delete-or-contract regime delivers, so the jump point is used.
    eq = EdgeQuantities(0.3, 1.0, 0, Priority.EDGES)
    th = regime_thresholds(eq)
    ceiling = eq.r_delete * (1 - th.onset_delete / th.saturation)
    d = (ceiling + eq.r_delete * 0.7 + eq.r_contract * 0.3) / 2
    assert activation_beta(eq, d) == pytest.approx(th.saturation)


def test_activation_beta_requires_positive_target():
    with pytest.raises(ValueError):
        activation_beta(TRIANGLE_EQ, 0.0)


@settings(max_examples=80, deadline=None)
@given(quantity_strategy(), st.floats(0.01, 3.0))
def test_activation_beta_delivers_target(eq, d):
    beta = activation_beta(eq, d)
    if math.isinf(beta):
        full = eq.r_delete * (1 - eq.leverage) + eq.r_contract * eq.leverage
        th = regime_thresholds(eq)
        if not math.isinf(th.saturation):
            assert d > full * (1 - 1e-9)
        return
    got = expected_reduction(eq, optimal_action(eq, beta))
    th = regime_thresholds(eq)
    # The corner owns the saturation point, so the promise holds at beta
    # itself; below saturation the delivery is exact.
    assert got >= d * (1 - 1e-6)
    if beta < th.saturation:
        assert got == pytest.approx(d, rel=1e-6)


@settings(max_examples=40, deadline=None)
@given(quantity_strategy(), st.floats(0.02, 1.0), st.floats(1.05, 3.0))
def test_activation_beta_monotone_in_target(eq, d, factor):
    assert activation_beta(eq, d * factor) >= activation_beta(eq, d) - 1e-12


# -- no-contraction mode ---------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(quantity_strategy(), st.floats(0.01, 100.0))
def test_no_contraction_mode_never_contracts(eq, beta):
    dist = optimal_action(eq, beta, allow_contraction=False)
    assert dist.p_contract == 0.0
    total = sum(p * f for f, p in scalars(eq, dist))
    assert abs(total) < 1e-10


def test_no_contraction_mode_skips_beyond_cap():
    eq = EdgeQuantities(0.25, 1.0, 0, Priority.EDGES)
    th = regime_thresholds(eq)
    cap = th.onset_delete / eq.leverage
    active = optimal_action(eq, cap * 0.99, allow_contraction=False)
    assert active.regime is Regime.SINGLE_ACTION and active.p_delete > 0
    assert optimal_action(eq, cap * 1.01, allow_contraction=False).regime is Regime.NO_ACTION
    # Contraction-flavored edges never act at all in this mode.
    contracty = EdgeQuantities(0.9, 1.0, 0, Priority.NODES)
    assert (
        optimal_action(contracty, 100.0, allow_contraction=False).regime
        is Regime.NO_ACTION
    )


def test_no_contraction_activation_beta():
    eq = EdgeQuantities(0.25, 1.0, 0, Priority.EDGES)
    beta = activation_beta(eq, 0.25, allow_contraction=False)
    dist = optimal_action(eq, beta, allow_contraction=False)
    assert expected_reduction(eq, dist) == pytest.approx(0.25)
    # Targets at or above the deletion cap 1 - leverage are unreachable.
    assert math.isinf(activation_beta(eq, 0.75, allow_contraction=False))
    assert math.isinf(activation_beta(eq, 0.76, allow_contraction=False))


# -- columns ---------------------------------------------------------------


def column_strategy():
    edge = st.tuples(
        st.one_of(st.floats(0.02, 0.98), st.just(1.0)),  # 1.0 is a bridge
        st.floats(1e-3, 10.0),
        st.integers(0, 5),
    )
    return st.lists(edge, min_size=1, max_size=16)


@settings(max_examples=150, deadline=None)
@given(
    column_strategy(),
    st.sampled_from(list(Priority)),
    st.booleans(),
    st.floats(0.01, 3.0),
    st.floats(0.0, 100.0),
)
def test_column_equals_one_edge_calls(edges, priority, allow_contraction, d, beta):
    column = EdgeQuantities(*(np.array(c) for c in zip(*edges)), priority)
    singles = [EdgeQuantities(*edge, priority) for edge in edges]
    scores = activation_beta(column, d, allow_contraction)
    assert scores.shape == (len(edges),)
    for score, eq in zip(scores, singles):
        assert score == activation_beta(eq, d, allow_contraction)
    # A shared beta taken from the column's own scores sits exactly on some
    # edge's regime boundary, as it does in the reducer.
    for b in [beta, *scores[np.isfinite(scores)]]:
        dist = optimal_action(column, b, allow_contraction)
        errors = expected_error(column, dist)
        for i, eq in enumerate(singles):
            one = optimal_action(eq, b, allow_contraction)
            for f in fields(ActionDistribution):
                assert getattr(dist, f.name)[i] == getattr(one, f.name), f.name
            assert isinstance(one.regime, Regime)
            assert errors[i] == expected_error(eq, one)


# -- grid oracle -----------------------------------------------------------


def draw_margin_tuple(rng):
    """Random quantities and a beta at least 5% away from every threshold.

    A finite grid cannot resolve optima that sit within a grid cell of a
    regime boundary, so the cross-check keeps away from the boundaries.
    """
    while True:
        eq = EdgeQuantities(
            leverage=float(rng.uniform(0.02, 0.98)),
            update_norm=float(np.exp(rng.uniform(-2, 2))),
            triangles=int(rng.integers(0, 6)),
            priority=Priority.EDGES if rng.random() < 0.5 else Priority.NODES,
        )
        th = regime_thresholds(eq)
        beta = float(th.saturation * np.exp(rng.uniform(-3.0, 1.5)))
        margins = [
            abs(beta / t - 1.0)
            for t in (th.onset_delete, th.onset_contract, th.saturation)
            if not math.isinf(t)
        ]
        if min(margins) > 0.05:
            return eq, beta


def test_grid_search_matches_closed_form():
    rng = np.random.default_rng(20240817)
    for _ in range(40):
        eq, beta = draw_margin_tuple(rng)
        dist = optimal_action(eq, beta)
        grid_dist, grid_cost = grid_search_action(eq, beta, grid_n=1000)
        assert grid_dist.regime is dist.regime
        analytic = action_cost(eq, dist, beta)
        assert abs(grid_cost - analytic) <= 1e-3 * abs(analytic) + 1e-9 * eq.update_norm**2
        assert grid_dist.p_delete == pytest.approx(dist.p_delete, abs=2e-3)
        assert grid_dist.p_contract == pytest.approx(dist.p_contract, abs=2e-3)


def test_grid_search_bridge():
    eq = EdgeQuantities(1.0, 0.5, 0, Priority.EDGES)
    dist = optimal_action(eq, 2.0)
    grid_dist, grid_cost = grid_search_action(eq, 2.0, grid_n=1000)
    assert grid_dist.p_delete == 0.0
    assert grid_dist.regime is dist.regime is Regime.SINGLE_ACTION
    analytic = action_cost(eq, dist, 2.0)
    assert abs(grid_cost - analytic) <= 1e-3 * abs(analytic)


def test_grid_search_rejects_coarse_grid():
    with pytest.raises(ValueError):
        grid_search_action(TRIANGLE_EQ, 1.0, grid_n=100)
