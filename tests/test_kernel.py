"""The fused stencil kernel against the plain per-term formulas, bit for bit."""

import numpy as np
import pytest

from homoclinic.action import ActionKernel, eval_action, segment_clearance
from homoclinic.errors import SingularityProximity
from homoclinic.grids import Grid, GridFunction, random_smooth_function
from homoclinic.potential import eval_a, eval_gradW, eval_W, example_potential

GRID = Grid(period=1.0, nodes_per_period=20, half_periods=4)
POT = example_potential()


def reference_clearance(values, q):
    # the segment test written with numpy's axis-1 sums
    p0 = values[:-1] - q
    p1 = values[1:] - q
    seg = p1 - p0
    denom = np.sum(seg * seg, axis=1)
    t = np.zeros_like(denom)
    np.divide(-np.sum(p0 * seg, axis=1), denom, out=t, where=denom > 0.0)
    np.clip(t, 0.0, 1.0, out=t)
    closest = p0 + t[:, None] * seg
    return float(np.sqrt(np.min(np.sum(closest * closest, axis=1))))


def reference_value(values, pot, grid):
    # forward-difference kinetic term plus trapezoid potential term
    h = grid.h
    diffs = np.diff(values, axis=0)
    kinetic = 0.5 * np.sum(diffs * diffs) / h
    aw = eval_a(pot, grid.times) * eval_W(pot, values)
    potential = -h * (np.sum(aw) - 0.5 * (aw[0] + aw[-1]))
    return float(kinetic + potential)


def reference_gradient(values, pot, grid):
    h = grid.h
    a = eval_a(pot, grid.times)
    gw = eval_gradW(pot, values)
    g = np.zeros_like(values)
    g[1:-1] = -(values[2:] - 2.0 * values[1:-1] + values[:-2]) / h - h * (
        a[1:-1, None] * gw[1:-1]
    )
    return g


def feasible_samples(pot, d, count=12, seed=0):
    """Random smooth trajectories scaled out towards q, clear of the floor."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        u = random_smooth_function(GRID, d, rng)
        peak = np.max(np.linalg.norm(u.values, axis=1))
        vals = u.values * (rng.uniform(0.5, 3.0) * pot.q_norm / peak)
        if reference_clearance(vals, pot.q) >= pot.delta_seg:
            out.append(vals)
    return out


CASES = [
    pytest.param(example_potential(alpha=alpha, dimension=d), id="alpha%g-d%d" % (alpha, d))
    for alpha in (2.0, 3.0, 4.0)
    for d in (2, 3)
]


@pytest.mark.parametrize("pot", CASES)
def test_kernel_matches_reference_bitwise(pot):
    kernel = ActionKernel(pot, GRID)
    for vals in feasible_samples(pot, pot.dimension):
        for p in (kernel.evaluate(vals), kernel.trial(vals)):
            assert p is not None
            assert p.value == reference_value(vals, pot, GRID)
            assert p.clearance == reference_clearance(vals, pot.q)
            assert np.array_equal(kernel.gradient(p), reference_gradient(vals, pot, GRID))
        assert segment_clearance(vals, pot.q) == reference_clearance(vals, pot.q)


def test_rowsum_parity_beyond_eight_columns():
    # wide rows fall back to numpy's own sum, so d >= 8 stays exact too
    pot = example_potential(dimension=9)
    kernel = ActionKernel(pot, GRID)
    for vals in feasible_samples(pot, 9, count=3):
        p = kernel.evaluate(vals)
        assert p.value == reference_value(vals, pot, GRID)
        assert np.array_equal(kernel.gradient(p), reference_gradient(vals, pot, GRID))


def node_at(offset):
    vals = np.zeros((GRID.n, 2))
    vals[GRID.center_index] = POT.q + np.array([offset, 0.0])
    return vals


def test_guard_ball_rejections():
    kernel = ActionKernel(POT, GRID)
    inside = node_at(0.5 * POT.eps_q)
    # eval_action and the kernel's strict evaluation refuse the point
    with pytest.raises(SingularityProximity):
        kernel.evaluate(inside)
    with pytest.raises(SingularityProximity):
        eval_action(GridFunction(GRID, inside), POT)
    # the solver's trial refuses anything within twice the guard radius
    assert kernel.trial(inside) is None
    assert kernel.trial(node_at(1.5 * POT.eps_q)) is None
    # outside the strict ball the point evaluates, but is not feasible
    p = kernel.evaluate(node_at(1.5 * POT.eps_q))
    assert p.clearance < POT.delta_seg


def test_segment_through_q_rejected():
    pot = POT
    kernel = ActionKernel(pot, GRID)
    vals = np.zeros((GRID.n, 2))
    j = GRID.center_index
    vals[j] = [1.5, 0.0]
    vals[j + 1] = [2.5, 0.0]  # both nodes 0.5 from q, the segment crosses it
    assert kernel.trial(vals) is None
    p = kernel.evaluate(vals)
    assert p.clearance == reference_clearance(vals, pot.q) == 0.0
    ae = eval_action(GridFunction(GRID, vals), pot)
    assert not ae.feasible
    assert ae.value == reference_value(vals, pot, GRID)
