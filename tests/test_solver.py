"""Two-stage solver: guesses, constrained stage, descent, Newton polish."""

import numpy as np
import pytest
from dataclasses import replace

from homoclinic import (
    ConstraintE,
    ConvergedToZero,
    GridFunction,
    InfeasibleGuess,
    SolverConfig,
    descend_to_critical,
    eval_action,
    grad_norm,
    initial_guess_bump,
    minimize_over_E,
    multibump_guess,
    polish_to_critical,
    shift_periods,
    snap_center,
    solve_homoclinic,
    sup_norm,
)


def test_snap_center_clamps_to_interior(grid):
    assert snap_center(grid, 0.0) == grid.center_index
    assert snap_center(grid, 1e9) == grid.n - 2
    assert snap_center(grid, -1e9) == 1
    assert snap_center(grid, 0.025) == grid.center_index + 1


def test_guess_hits_k0_q_at_center(pot, grid):
    u = initial_guess_bump(grid, pot, k0=1.5)
    j = grid.center_index
    assert np.allclose(u.values[j], 1.5 * pot.q, atol=1e-13)
    # transverse swing vanishes at the center and flips sign across it
    assert u.values[j - 4, 1] * u.values[j + 4, 1] < 0.0


def test_guess_rejects_low_k0(pot, grid):
    with pytest.raises(ValueError):
        initial_guess_bump(grid, pot, k0=1.05)


def test_guess_without_swing_is_infeasible(pot, grid):
    # the radial profile alone crosses q on the way out
    with pytest.raises(InfeasibleGuess):
        initial_guess_bump(grid, pot, k0=1.5, transverse=0.0)


def test_e_stage_properties(pot, grid, cfg):
    guess = initial_guess_bump(grid, pot, k0=cfg.k0)
    constraint = ConstraintE(node_index=grid.center_index, k_min=cfg.k_min, k=cfg.k0)
    res = minimize_over_E(guess, constraint, pot, cfg)
    assert res.value > 0.0
    assert res.value <= eval_action(guess, pot).value
    assert res.k > constraint.k_min or res.constraint_active
    # the pinned node still sits on the ray through q beyond the crossing
    j = grid.center_index
    v = res.trajectory.values[j]
    k_measured = float(v @ pot.q) / float(pot.q @ pot.q)
    assert k_measured == pytest.approx(res.k, rel=1e-12)


def test_descent_reaches_tolerance(pot, grid, cfg, solved):
    assert solved.grad_norm <= cfg.grad_tol
    assert solved.action > 0.0
    assert solved.clearance >= pot.delta_seg
    # action never increases along the accepted Armijo iterates
    hist = solved.history.get("action", [])
    diffs = np.diff(np.asarray(hist))
    assert np.all(diffs <= 1e-12 * abs(hist[0]))


def test_solution_is_translation_normalized(solved, grid):
    i_star = int(np.argmax(solved.trajectory.node_norms()))
    m = grid.nodes_per_period
    assert grid.center_index <= i_star < grid.center_index + m


def test_solver_deterministic(pot, grid, cfg, solved):
    again = solve_homoclinic(pot, grid, cfg)
    assert np.array_equal(again.trajectory.values, solved.trajectory.values)
    assert again.action == solved.action


def test_descent_of_unwound_guess_collapses(pot, grid, cfg):
    # a small loop that never crosses beyond q carries no topology; the
    # flow flattens it onto the trivial solution
    vals = 0.2 * initial_guess_bump(grid, pot, k0=1.5).values
    u = GridFunction(grid, vals)
    with pytest.raises(ConvergedToZero):
        descend_to_critical(u, pot, replace(cfg, max_iters=100000))


def test_polish_on_glued_pair(pot, grid, cfg, solved):
    # direct sum: the real solution's tails overlap, which is exactly the
    # regime the Newton polish is for (multibump_guess would refuse it)
    v = solved.trajectory
    pair = GridFunction(
        grid, shift_periods(v, -3).values + shift_periods(v, 3).values
    )
    cand = polish_to_critical(pair, pot, replace(cfg, polish_steps=40))
    assert cand.grad_norm <= cfg.grad_tol
    # both loops survive: action close to twice the single-bump level
    assert cand.action == pytest.approx(2.0 * solved.action, rel=0.02)
    assert sup_norm(cand.trajectory) == pytest.approx(sup_norm(v), rel=0.05)


def test_polish_rejects_infeasible_start(pot, grid, cfg):
    vals = np.zeros((grid.n, 2))
    j = grid.center_index
    vals[j - 1] = [1.0, 0.0]
    vals[j] = [2.0, 1e-9]
    vals[j + 1] = [3.0, 0.0]
    u = GridFunction(grid, vals)
    with pytest.raises(InfeasibleGuess):
        polish_to_critical(u, pot, cfg)


def test_shift_cost_bounded_by_clipped_tail(pot, grid, cfg, solved):
    """Whole-period shifts change the action only through clipped tail mass.

    The dominant term is the re-pinned boundary jump |u|^2 / (2h); bound
    the observed change by a small multiple of that plus the strip's own
    kinetic content, computed from the trajectory itself.
    """
    u = solved.trajectory
    i0 = eval_action(u, pot).value
    h = grid.h
    m = grid.nodes_per_period
    norms2 = u.node_norms() ** 2
    for k in (-2, 1, 3):
        strip = norms2[-abs(k) * m - 1 :] if k > 0 else norms2[: abs(k) * m + 1]
        budget = strip.max() / (2.0 * h) + strip.sum() / h
        ik = eval_action(shift_periods(u, k), pot).value
        assert abs(ik - i0) <= 10.0 * budget
        assert abs(ik - i0) <= 1e-2 * abs(i0)


def test_alpha_gap_and_e_stage_attached(solved):
    assert solved.alpha_gap is not None and solved.alpha_gap > 0.0
    assert solved.e_stage is not None
    assert solved.e_stage["k"] > 1.0
    assert solved.schedule_item is not None


def test_history_records_descent(solved, cfg):
    hist = solved.history
    assert len(hist["action"]) >= 1
    assert hist["action"][-1] == pytest.approx(solved.action, rel=1e-9)
    assert all(c > 0.0 for c in hist["clearance"])
