"""Discrete action: value, gradient, clearance, residuals, positivity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homoclinic.action import (
    GRAD_NORM_CONVENTION,
    eval_action,
    eval_gradient_fd_check,
    grad_norm,
    ode_residual,
    positivity_probe,
    segment_clearance,
    singularity_clearance,
    sphere_action_bound,
    truncation_residual,
)
from homoclinic.errors import SingularityProximity
from homoclinic.grids import (
    Grid,
    GridFunction,
    kinetic_seminorm_sq,
    random_smooth_function,
    shift_periods,
    zero_function,
)
from homoclinic.potential import eval_a, eval_W, eval_gradW, example_potential

GRID = Grid(period=1.0, nodes_per_period=10, half_periods=4)
POT = example_potential()


def raised_node(grid, point, d=2):
    vals = np.zeros((grid.n, d))
    vals[grid.center_index] = point
    return GridFunction(grid, vals)


def test_action_value_by_hand():
    # single raised node v: kinetic = |v|^2/h, potential = -h a(0) W(v)
    v = np.array([-1.0, 0.5])
    u = raised_node(GRID, v)
    h = GRID.h
    expected = float(v @ v) / h - h * eval_a(POT, 0.0) * eval_W(POT, v)
    ae = eval_action(u, POT)
    assert ae.value == pytest.approx(expected, rel=1e-14)


def test_gradient_by_hand():
    v = np.array([-1.0, 0.5])
    u = raised_node(GRID, v)
    h = GRID.h
    ae = eval_action(u, POT)
    j = GRID.center_index
    # at the raised node: 2v/h - h a(0) gradW(v); neighbors: -v/h (gradW(0)=0)
    from homoclinic.potential import eval_gradW

    g_j = 2.0 * v / h - h * eval_a(POT, 0.0) * eval_gradW(POT, v)
    assert np.allclose(ae.gradient[j], g_j, rtol=1e-13)
    assert np.allclose(ae.gradient[j - 1], -v / h, rtol=1e-13)
    assert np.allclose(ae.gradient[j + 1], -v / h, rtol=1e-13)
    assert np.all(ae.gradient[0] == 0.0)
    assert np.all(ae.gradient[-1] == 0.0)


def test_action_on_zero_function():
    z = zero_function(GRID, 2)
    ae = eval_action(z, POT)
    assert ae.value == 0.0
    assert np.all(ae.gradient == 0.0)
    assert ae.feasible
    # both sides vanish: the analytic gradient exactly, the differences
    # to within their own truncation noise
    rep = eval_gradient_fd_check(z, POT, rng=np.random.default_rng(0))
    assert rep.max_rel_err <= 1e-6
    res = ode_residual(z, POT)
    assert res.sup_residual == 0.0
    assert res.tail_sup_u == 0.0
    assert res.tail_sup_du == 0.0


@given(seed=st.integers(0, 300))
@settings(max_examples=20, deadline=None)
def test_action_dominates_kinetic_part(seed):
    # W <= 0 and a > 0, so the well term only adds
    u = random_smooth_function(GRID, 2, np.random.default_rng(seed))
    ae = eval_action(u, POT)
    if not ae.feasible:
        return
    assert ae.value >= 0.5 * kinetic_seminorm_sq(u) - 1e-12


def test_action_on_sech_bump_matches_fine_quadrature():
    # independent oracle: Simpson quadrature of the continuum action on a
    # ten-fold refined sampling, with the analytic derivative
    from scipy.integrate import simpson

    g = Grid(period=1.0, nodes_per_period=40, half_periods=8)
    vals = np.zeros((g.n, 2))
    vals[:, 0] = 1.0 / np.cosh(g.times)
    vals[0] = 0.0
    vals[-1] = 0.0
    ae = eval_action(GridFunction(g, vals), POT)

    tf = np.linspace(-g.half_length, g.half_length, 10 * (g.n - 1) + 1)
    sech = 1.0 / np.cosh(tf)
    du2 = (sech * np.tanh(tf)) ** 2
    w = -(sech**2) / (sech - 2.0) ** 2
    oracle = simpson(0.5 * du2 - eval_a(POT, tf) * w, x=tf)
    assert ae.value == pytest.approx(oracle, rel=1e-3)


def test_grad_norm_convention():
    g = np.zeros((GRID.n, 2))
    g[5, 0] = 3.0
    assert GRAD_NORM_CONVENTION == "l2_over_sqrt_h"
    assert grad_norm(GRID, g) == pytest.approx(3.0 / np.sqrt(GRID.h))


@given(seed=st.integers(0, 300))
@settings(max_examples=15, deadline=None)
def test_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    u = random_smooth_function(GRID, 2, rng)
    ae = eval_action(u, POT)
    if not ae.feasible:
        return
    rep = eval_gradient_fd_check(u, POT, rng=np.random.default_rng(seed + 1))
    assert rep.max_rel_err <= 1e-6


def test_fd_check_small_amplitude():
    # sup 0.1 keeps the well nearly quadratic, so differences are benign
    g = Grid(period=1.0, nodes_per_period=40, half_periods=8)
    w = random_smooth_function(g, 2, np.random.default_rng(4))
    vals = w.values * (0.1 / np.max(np.linalg.norm(w.values, axis=1)))
    rep = eval_gradient_fd_check(GridFunction(g, vals), POT, rng=np.random.default_rng(5))
    assert rep.max_rel_err <= 1e-6


def test_fd_check_near_singularity():
    # profile grazing the guard: closest node 2 delta_seg from q, step
    # scaled down by delta_seg so perturbations stay on the feasible side
    g = Grid(period=1.0, nodes_per_period=40, half_periods=8)
    amp = POT.q[0] - 2.0 * POT.delta_seg
    vals = np.zeros((g.n, 2))
    vals[:, 0] = amp / np.cosh(g.times)
    vals[0] = 0.0
    vals[-1] = 0.0
    u = GridFunction(g, vals)
    assert singularity_clearance(u, POT) == pytest.approx(2.0 * POT.delta_seg, rel=1e-10)
    step = 1e-3 * POT.delta_seg
    for seed in range(3):
        rep = eval_gradient_fd_check(u, POT, step=step, rng=np.random.default_rng(seed))
        assert rep.max_rel_err <= 1e-5


def test_translation_invariance_of_action():
    g = Grid(period=1.0, nodes_per_period=20, half_periods=6)
    rng = np.random.default_rng(7)
    base = random_smooth_function(g, 2, rng)
    # hard-zero outside the middle third so shifts move values verbatim
    vals = base.values.copy()
    third = g.n // 3
    vals[:third] = 0.0
    vals[-third:] = 0.0
    u = GridFunction(g, vals)
    i0 = eval_action(u, POT).value
    for k in (-2, -1, 1, 2):
        ik = eval_action(shift_periods(u, k), POT).value
        assert abs(ik - i0) <= 1e-10 * abs(i0)


def test_segment_clearance_sees_between_nodes():
    # segment from (1,1) to (3,1) passes within 1 of q=(2,0); both nodes
    # are sqrt(2) away
    q = np.array([2.0, 0.0])
    seg = np.array([[1.0, 1.0], [3.0, 1.0]])
    c = segment_clearance(seg, q)
    assert c == pytest.approx(1.0, abs=1e-12)
    assert min(np.linalg.norm(seg - q, axis=1)) > c


def test_clearance_trivial_cases():
    assert singularity_clearance(zero_function(GRID, 2), POT) == pytest.approx(2.0)
    at_q = raised_node(GRID, POT.q.copy())
    assert singularity_clearance(at_q, POT) == 0.0
    # consecutive nodes straddling q on a straight segment
    vals = np.zeros((GRID.n, 2))
    j = GRID.center_index
    vals[j] = [1.9, 0.0]
    vals[j + 1] = [2.1, 0.0]
    assert singularity_clearance(GridFunction(GRID, vals), POT) == pytest.approx(0.0, abs=1e-15)


def test_eval_action_rejects_node_in_guard_ball():
    u = raised_node(GRID, POT.q + np.array([0.1 * POT.eps_q, 0.0]))
    with pytest.raises(SingularityProximity):
        eval_action(u, POT)
    with pytest.raises(SingularityProximity):
        ode_residual(u, POT)


def test_infeasible_flag():
    # polyline passing straight through a neighborhood of q
    vals = np.zeros((GRID.n, 2))
    j = GRID.center_index
    vals[j - 1] = [1.0, 0.0]
    vals[j] = [2.0, 1e-6]
    vals[j + 1] = [3.0, 0.0]
    u = GridFunction(GRID, vals)
    ae = eval_action(u, POT)
    assert not ae.feasible
    assert ae.min_seg_dist < POT.delta_seg


def test_ode_residual_zero_for_linear_free_motion():
    # piecewise-linear tent solves the free equation away from the kink;
    # with W ~ 0 along the segment the interior residual concentrates at
    # the kink only
    g = GRID
    vals = np.zeros((g.n, 2))
    ramp = np.minimum(
        np.arange(g.n) / g.center_index, (g.n - 1 - np.arange(g.n)) / g.center_index
    )
    vals[:, 1] = ramp  # moves along the axis perpendicular to q
    vals[0] = vals[-1] = 0.0
    u = GridFunction(g, vals)
    rep = ode_residual(u, POT)
    # residual away from the kink is the potential force only
    assert rep.sup_residual < 10.0


def test_ode_residual_on_hat_by_hand():
    # hat of height (1/2, 0) at t = 0: a(0) = 3, and at u = (1/2, 0) the
    # gradient of the well is (-16/27, 0), so the stencil rows are
    #   node:      -2v/h^2 + 3 gradW(v)  -> norm 1/h^2 + 16/9
    #   neighbors:  v/h^2                -> norm 1/(2 h^2)
    u = raised_node(GRID, np.array([0.5, 0.0]))
    h = GRID.h
    res = ode_residual(u, POT)
    assert res.sup_residual == pytest.approx(1.0 / h**2 + 16.0 / 9.0, rel=1e-13)
    assert res.tail_sup_u == 0.0
    assert res.tail_sup_du == 0.0


def test_residual_report_tails(solved):
    rep = ode_residual(solved.trajectory, POT)
    assert rep.tail_sup_u < 0.1
    assert rep.tail_sup_du < 0.1
    assert rep.sup_residual < 1e-4


def test_truncation_residual_positive_and_finite(solved):
    r = truncation_residual(solved.trajectory, POT)
    assert np.isfinite(r)
    assert r > 0.0


def test_positivity_probe_deterministic():
    p1 = positivity_probe(POT, GRID, rng=np.random.default_rng(3))
    p2 = positivity_probe(POT, GRID, rng=np.random.default_rng(3))
    assert p1.min_action == p2.min_action
    assert p1.min_action > 0.0
    assert p1.n_samples == 200


@pytest.mark.parametrize("m", [40, 160])
@pytest.mark.parametrize("alpha", [2.0, 3.0, 4.0])
def test_sphere_action_bound_below_sampled_minimum(alpha, m):
    # a sampled minimum bounds the sphere infimum from above, the closed form from below
    pot = example_potential(alpha=alpha)
    grid = Grid(period=1.0, nodes_per_period=m, half_periods=8)
    bound = sphere_action_bound(pot)
    probe = positivity_probe(pot, grid, rng=np.random.default_rng(3))
    assert 0.0 < bound <= probe.min_action


def test_sphere_action_bound_none_at_zero_a_min():
    # a(t) = 1 + cos(2 pi t) touches 0, so the bound a_min (...)^-alpha is void
    assert sphere_action_bound(example_potential(a_base=1.0, a_amp=1.0)) is None
