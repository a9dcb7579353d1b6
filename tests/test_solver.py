"""Two-stage solver: guesses, constrained stage, descent, Newton polish."""

import time

import numpy as np
import pytest
from dataclasses import replace

from homoclinic import action, solve
from homoclinic.action import eval_action, grad_norm, sphere_action_bound
from homoclinic.errors import ConvergedToZero, InfeasibleGuess, MaxItersExceeded
from homoclinic.grids import Grid, GridFunction, shift_periods, sup_norm
from homoclinic.multiplicity import search_distinct
from homoclinic.potential import example_potential
from homoclinic.solve import (
    ConstraintE,
    H1Preconditioner,
    SolverConfig,
    descend_to_critical,
    initial_guess_bump,
    minimize_over_E,
    polish_to_critical,
    ray_direction,
    snap_center,
    solve_homoclinic,
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
    constraint = ConstraintE(node_index=grid.center_index, k=cfg.k0)
    res = minimize_over_E(guess, constraint, pot, cfg)
    assert res.value > 0.0
    assert res.value <= eval_action(guess, pot).value
    assert res.k > cfg.k_min or res.constraint_active
    # the pinned node still sits on the ray through q beyond the crossing
    j = grid.center_index
    v = res.trajectory.values[j]
    k_measured = float(v @ pot.q) / float(pot.q @ pot.q)
    assert k_measured == pytest.approx(res.k, rel=1e-12)


@pytest.mark.parametrize("alpha,iterations,newton_steps", [(2.0, 7, 4), (3.0, 7, 3), (4.0, 9, 4)])
def test_e_stage_iterates_are_pinned(grid, cfg, alpha, iterations, newton_steps):
    # the default guess's E-stage: quasi-Newton steps to the handoff, then bordered Newton
    pot = example_potential(alpha=alpha)
    guess = initial_guess_bump(grid, pot, k0=cfg.k0)
    constraint = ConstraintE(node_index=grid.center_index, k=cfg.k0)
    res = minimize_over_E(guess, constraint, pot, cfg)
    assert res.converged
    assert (res.iterations, res.newton_steps) == (iterations, newton_steps)


@pytest.mark.parametrize("center,k0,iterations", [(0.0, 1.5, 7), (0.5, 1.35, 13)])
def test_e_stage_solves_once_per_armijo_step(pot, grid, cfg, monkeypatch, center, k0, iterations):
    # one H1 solve per quasi-Newton step (the two-loop recursion's initial
    # inverse), none at the converged last iteration; the c=1/2 start is the
    # search's phase-3 item
    calls = []
    apply = H1Preconditioner.apply

    def counted(self, g):
        calls.append(g.shape)
        return apply(self, g)

    monkeypatch.setattr(H1Preconditioner, "apply", counted)
    guess = initial_guess_bump(grid, pot, k0=k0, center=center)
    constraint = ConstraintE(node_index=snap_center(grid, center), k=k0)
    res = minimize_over_E(guess, constraint, pot, cfg)
    assert res.converged and res.iterations == iterations
    assert calls == [(grid.n, 2)] * (iterations - 1)


@pytest.mark.parametrize("center,k0", [(0.0, 1.5), (0.5, 1.35)])
def test_alpha4_e_stage_newton_stops_well_inside_its_cap(grid, cfg, center, k0):
    # the quasi-Newton steps hand the bordered Newton an iterate inside its
    # quadratic phase; the steepest-descent handoff left it all 12 steps
    pot = example_potential(alpha=4.0)
    guess = initial_guess_bump(grid, pot, k0=k0, center=center)
    constraint = ConstraintE(node_index=snap_center(grid, center), k=k0)
    res = minimize_over_E(guess, constraint, pot, cfg)
    assert res.converged
    assert res.newton_steps <= cfg.polish_steps // 2


def test_descent_reaches_tolerance(pot, grid, cfg, solved):
    assert solved.grad_norm <= cfg.grad_tol
    assert solved.action > 0.0
    assert solved.clearance >= pot.delta_seg


def test_solution_is_translation_normalized(solved, grid):
    i_star = int(np.argmax(solved.trajectory.node_norms()))
    m = grid.nodes_per_period
    assert grid.center_index <= i_star < grid.center_index + m


def test_solver_deterministic(pot, grid, cfg, solved):
    again = solve_homoclinic(pot, grid, cfg)
    assert np.array_equal(again.trajectory.values, solved.trajectory.values)
    assert again.action == solved.action


@pytest.mark.parametrize("center,phase", [(3.0, 0.0), (-3.0, 0.0), (1.5, 0.5)])
def test_off_period_center_solves_its_phase(pot, grid, cfg, solved, center, phase):
    # a is periodic, so bump_center is a crossing phase: a center whole
    # periods away solves, bit for bit, the orbit of its central phase
    cand = solve_homoclinic(pot, grid, replace(cfg, bump_center=center))
    base = solved if phase == 0.0 else solve_homoclinic(pot, grid, replace(cfg, bump_center=phase))
    assert np.array_equal(cand.trajectory.values, base.trajectory.values)
    assert cand.schedule_item["center"] == center


def test_descent_of_unwound_guess_collapses(pot, grid, cfg):
    # a small loop that never crosses beyond q carries no topology; the
    # flow flattens it onto the trivial solution
    vals = 0.2 * initial_guess_bump(grid, pot, k0=1.5).values
    u = GridFunction(grid, vals)
    with pytest.raises(ConvergedToZero):
        descend_to_critical(u, pot, replace(cfg, max_iters=100000))


def test_polish_on_glued_pair(pot, grid, cfg, solved):
    # direct sum: the real solution's tails overlap, which is exactly the
    # regime the Newton polish is for
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


@pytest.mark.parametrize("alpha,gap", [(2.0, 0.136455), (3.0, 0.050406), (4.0, 0.018620)])
def test_solve_reports_closed_form_gap_without_sampling(grid, cfg, monkeypatch, alpha, gap):
    def no_sampling(*args, **kwargs):
        raise AssertionError("solve sampled the H1 sphere")

    monkeypatch.setattr(action, "positivity_probe", no_sampling)
    monkeypatch.setattr(solve, "positivity_probe", no_sampling, raising=False)
    pot = example_potential(alpha=alpha)
    cand = solve_homoclinic(pot, grid, cfg)
    assert cand.alpha_gap == sphere_action_bound(pot)
    assert cand.alpha_gap == pytest.approx(gap, abs=5e-7)


def test_ray_direction_pins_transverse_part(pot, grid):
    # off the symmetric phase, where the old solve-then-project direction stalled
    j = snap_center(grid, 0.25 * grid.period)
    guess = initial_guess_bump(grid, pot, k0=1.35, center=0.25 * grid.period)
    g = eval_action(guess, pot).gradient
    q_hat = pot.q / np.linalg.norm(pot.q)
    pre = H1Preconditioner(grid)
    column = pre.column(j)
    assert column[j] == 1.0
    direction = ray_direction(pre, column, j, g, q_hat)
    along = direction @ q_hat
    across = direction - np.outer(along, q_hat)
    assert np.abs(across[j]).max() <= 1e-14 * np.abs(across).max()
    assert np.abs(along - pre.apply(g @ q_hat)).max() <= 1e-14 * np.abs(along).max()
    # away from j the transverse part solves (K + M) v = g_perp with v_j = 0
    h = grid.h
    g_perp = g - np.outer(g @ q_hat, q_hat)
    kv = (2.0 / h + h) * across[1:-1] - (across[2:] + across[:-2]) / h
    free = np.arange(1, grid.n - 1) != j
    assert np.abs(kv - g_perp[1:-1])[free].max() <= 1e-10 * np.abs(g_perp).max()
    assert np.abs(across).max() > 0.0
    # on the clamp node j does not move at all
    assert np.all(ray_direction(pre, column, j, g, q_hat, clamped=True)[j] == 0.0)


@pytest.mark.parametrize("width", [2.0, 1.25])
@pytest.mark.parametrize("phase", [0.25, 0.75])
def test_e_stage_converges_off_the_symmetric_phases(pot, grid, cfg, phase, width):
    center = phase * grid.period
    guess = initial_guess_bump(grid, pot, k0=1.35, center=center, width=width)
    constraint = ConstraintE(node_index=snap_center(grid, center), k=1.35)
    res = minimize_over_E(guess, constraint, pot, cfg)
    assert res.converged
    assert res.iterations <= 500
    assert res.grad_norm <= cfg.grad_tol


@pytest.mark.parametrize("center", [0.1, 0.25, 0.4, 0.6, 0.75, 0.95])
def test_every_alpha3_phase_reaches_the_lower_orbit_quickly(grid, cfg, center):
    # off the symmetric phases the Newton release stalls, and the descent
    # from the E-stage minimizer goes on to the index-0 orbit 22.562398
    pot = example_potential(alpha=3.0)
    t0 = time.perf_counter()
    cand = solve_homoclinic(pot, grid, replace(cfg, bump_center=center))
    assert time.perf_counter() - t0 < 0.5
    assert cand.action <= 22.562399
    assert cand.grad_norm <= cfg.grad_tol


def test_e_stage_level_is_the_released_action(solved, grid, cfg):
    # the constrained critical point is already critical: d_h is the action
    assert abs(solved.e_stage["value"] - solved.action) <= 1e-8
    assert solved.e_stage["node"] == snap_center(grid, cfg.bump_center)
    assert solved.e_stage["converged"]
    assert solved.e_stage["newton_steps"] >= 0


def _e_stage_point(pot, grid, cfg):
    """Converged E-stage iterate of the default guess, as a kernel point."""
    j = grid.center_index
    guess = initial_guess_bump(grid, pot, k0=cfg.k0)
    res = minimize_over_E(guess, ConstraintE(node_index=j, k=cfg.k0), pot, cfg)
    assert res.converged
    kernel = action.ActionKernel(pot, grid)
    return kernel, kernel.trial(np.array(res.trajectory.values)), res


def test_newton_free_step_is_the_banded_solve(pot, grid, cfg):
    # at a loose tolerance the E-stage stops where the full step is accepted
    kernel, p, _ = _e_stage_point(pot, grid, replace(cfg, grad_tol=1e-3))
    g = kernel.gradient(p)
    p1, k, gn, norms = solve._damped_newton(kernel, grid, p, replace(cfg, polish_steps=1))
    step = solve.solve_banded(kernel.hessian_blocks(p), -1.0 / grid.h, g[1:-1, :, None])
    assert np.array_equal(p1.values[1:-1], p.values[1:-1] - step[:, :, 0])
    assert k is None
    assert norms == [gn] and gn < grad_norm(grid, g)


def test_newton_iterates_stay_on_the_ray(grid, cfg):
    # q off the coordinate axes, so an unsnapped step leaves the ray by rounding;
    # start at the Armijo handoff point, far enough out for several steps
    pot = example_potential(q=[2.0 * np.cos(0.3), 2.0 * np.sin(0.3)])
    kernel, p, res = _e_stage_point(pot, grid, replace(cfg, grad_tol=1.0))
    assert res.newton_steps == 0
    j = grid.center_index
    taken = []
    for cap in range(1, cfg.polish_steps + 1):
        p_s, k, gn, norms = solve._damped_newton(
            kernel, grid, p, replace(cfg, polish_steps=cap), (j, res.k, cfg.k_min)
        )
        assert np.array_equal(p_s.values[j], k * pot.q)
        assert k >= cfg.k_min
        taken.append(len(norms))
    assert taken[:3] == [1, 2, 3]
    assert gn <= cfg.grad_tol


def test_newton_adds_the_ray_row_on_the_clamp(pot, grid, cfg, monkeypatch):
    # k_min = 1.3 lies above the item's free optimum: the gradient pushes k
    # into its clamp, so every E-stage Newton solve carries the ray row too
    columns = []
    solve_banded = solve.solve_banded

    def recording(blocks, coupling, b):
        columns.append(b.shape[-1])
        return solve_banded(blocks, coupling, b)

    monkeypatch.setattr(solve, "solve_banded", recording)
    clamp_cfg = replace(cfg, eps_k=0.3)
    item = {"center": 0.5, "width": 2.0, "k0": 1.35}
    e_stage = solve.single_loop_attempt(pot, grid, clamp_cfg, item).e_stage
    assert e_stage["k"] == clamp_cfg.k_min
    assert e_stage["constraint_active"]
    assert e_stage["newton_steps"] == 2
    d = pot.q.shape[0]
    assert columns[:2] == [1 + d] * 2  # gradient, the d - 1 q-perp rows, the ray row
    assert set(columns[2:]) == {1}  # the release solves against the gradient alone


def _count_descents(monkeypatch):
    calls = []
    descend = solve.descend_to_critical

    def counting(*args, **kwargs):
        calls.append(1)
        return descend(*args, **kwargs)

    monkeypatch.setattr(solve, "descend_to_critical", counting)
    return calls


def test_release_fallback_collapses_off_phase(pot, grid, cfg, monkeypatch):
    # off the symmetric phase Newton stalls, and the Armijo descent from
    # the E-stage minimizer unwinds the loop
    descents = _count_descents(monkeypatch)
    with pytest.raises(ConvergedToZero):
        solve.single_loop_attempt(pot, grid, cfg, {"center": 0.25, "width": 2.0, "k0": 1.35})
    assert len(descents) == 1


@pytest.mark.parametrize(
    "alpha,changes,item,fallbacks,polished",
    [
        (2.0, {}, {"center": 0.0}, 0, 0),  # the E-stage minimizer is already critical
        (2.0, {"eps_k": 0.3}, {"center": 0.5, "width": 2.0, "k0": 1.35}, 0, 7),
        # Newton stalls at its step cap and the descent converges without
        # polish: the stalled norms are kept
        (3.0, {"grad_tol": 1e-3}, {"center": 0.4, "width": 2.0, "k0": 1.5}, 1, 12),
        # the descent hits max_iters: its best iterate keeps the stalled norms too
        (3.0, {"max_iters": 20}, {"center": 0.1}, 1, 12),
    ],
)
def test_release_records_every_polish_step(
    grid, cfg, monkeypatch, alpha, changes, item, fallbacks, polished
):
    descents = _count_descents(monkeypatch)
    released = []  # accepted norms of every unconstrained Newton run
    newton = solve._damped_newton

    def recording(kernel, grid, p, cfg, ray=None):
        out = newton(kernel, grid, p, cfg, ray)
        if ray is None:
            released.extend(out[3])
        return out

    monkeypatch.setattr(solve, "_damped_newton", recording)
    pot = example_potential(alpha=alpha)
    stalls = "max_iters" in changes
    if stalls:
        with pytest.raises(MaxItersExceeded) as info:
            solve.single_loop_attempt(pot, grid, replace(cfg, **changes), item)
        cand = info.value.best
    else:
        cand = solve.single_loop_attempt(pot, grid, replace(cfg, **changes), item)
    assert len(descents) == fallbacks
    assert cand.history["polish_grad_norm"] == released
    assert len(released) == polished
    if fallbacks and not stalls:
        # the Armijo descent converged; the shared line search keeps its iterates
        assert (cand.e_stage["iterations"], cand.iterations) == (9, 25)
        assert cand.action == pytest.approx(22.562398622403798, rel=0.0, abs=1e-12)


def test_armijo_steps_never_raise_the_action(grid, cfg, monkeypatch):
    # off-centre alpha=3 solve whose Newton release stalls, so both the
    # E-stage and the descent fallback step through the shared line search
    pot = example_potential(alpha=3.0)
    descents = _count_descents(monkeypatch)
    steps = []  # (ray, action before, action after, clearance after) per accepted step
    armijo = solve._armijo_step

    def recording(kernel, p, g, direction, step, trials, ray=None):
        out = armijo(kernel, p, g, direction, step, trials, ray)
        if out is not None:
            steps.append((ray, p.value, out[0].value, out[0].clearance))
        return out

    monkeypatch.setattr(solve, "_armijo_step", recording)
    cand = solve_homoclinic(pot, grid, replace(cfg, bump_center=0.4, grad_tol=1e-3))
    assert len(descents) == 1
    free = [s for s in steps if s[0] is None]
    assert len(free) == cand.iterations == 25
    assert len(steps) - len(free) == cand.e_stage["iterations"] - 1
    for _, before, after, clearance in steps:
        assert after <= before
        assert clearance >= pot.delta_seg



def _fine_pipeline(pot, grid, cfg, item):
    """The attempt run directly at m: guess, E-stage and release there."""
    center, k0 = item["center"], item.get("k0", cfg.k0)
    guess = initial_guess_bump(grid, pot, k0=k0, center=center, width=item.get("width", cfg.bump_width))
    constraint = ConstraintE(node_index=snap_center(grid, center), k=k0)
    e_res = solve.minimize_over_E(guess, constraint, pot, cfg)
    return solve._release(e_res.trajectory, pot, cfg)


@pytest.mark.parametrize("alpha", [2.0, 3.0, 4.0])
@pytest.mark.parametrize(
    "item", [{"center": 0.0}, {"center": 0.5, "width": 2.0, "k0": 1.35}], ids=["c0", "c1/2"]
)
def test_nested_attempt_matches_the_fine_pipeline(cfg, monkeypatch, alpha, item):
    # at m=160 the attempt runs whole at m=40 and continues that orbit to
    # m=160 with the free Newton; the attempt run directly at m=160 finds
    # the same orbit
    grid = Grid(nodes_per_period=160)
    pot = example_potential(alpha=alpha)
    ref = _fine_pipeline(pot, grid, cfg, item)
    stages = []
    minimize = solve.minimize_over_E

    def spying(u0, *args):
        stages.append(u0.grid.nodes_per_period)
        return minimize(u0, *args)

    monkeypatch.setattr(solve, "minimize_over_E", spying)
    cand = solve.single_loop_attempt(pot, grid, cfg, item)
    assert stages == [40]
    assert cand.trajectory.grid == grid
    assert abs(cand.action - ref.action) <= 1e-8
    # at alpha=3 the Hessian's soft eigenvalue, near 3e-5, lets two solves
    # stopped at grad_tol 1e-6 sit 2.4e-6 apart at c=1/2
    assert np.abs(cand.trajectory.values - ref.trajectory.values).max() <= 1e-5
    assert cand.e_stage["m"] == 40 and cand.e_stage["converged"]
    assert "coarse_error" not in cand.e_stage and cand.schedule_item == item
    assert cand.iterations == 0 and 1 <= len(cand.history["polish_grad_norm"]) <= 5
    assert cand.grad_norm <= cfg.grad_tol


@pytest.mark.parametrize("alpha", [2.0, 3.0, 4.0])
@pytest.mark.parametrize("shape", [{}, {"bump_center": 0.5, "k0": 1.35}], ids=["c0", "c1/2"])
def test_continued_orbit_matches_the_direct_solve(cfg, alpha, shape):
    # refine's fine level: the m=40 orbit, prolonged to m=160 and released
    # there by the free Newton, is the orbit the attempt run directly at
    # m=160 finds
    pot = example_potential(alpha=alpha)
    cfg = replace(cfg, **shape)
    coarse = solve_homoclinic(pot, Grid(nodes_per_period=40), cfg)
    fine = Grid(nodes_per_period=160)
    cand = solve.continue_to_grid(coarse.trajectory, pot, fine, cfg)
    item = {"center": cfg.bump_center, "k0": cfg.k0, "width": cfg.bump_width}
    ref = _fine_pipeline(pot, fine, cfg, item)
    assert cand.trajectory.grid == fine
    assert abs(cand.action - ref.action) <= 1e-12
    # at alpha=3 the Hessian's soft eigenvalue, near 3e-5, lets two solves
    # stopped at grad_tol 1e-6 sit 2.4e-6 apart at c=1/2
    assert np.abs(cand.trajectory.values - ref.trajectory.values).max() <= 1e-5
    assert cand.iterations == 0 and 1 <= len(cand.history["polish_grad_norm"]) <= 5
    assert cand.e_stage is None and cand.grad_norm <= cfg.grad_tol


# the default search library at m=40, alpha=2, targets=9, in insertion order
_LIBRARY9_ACTIONS = [
    27.308803721782354,
    27.308803721782354,
    54.623019122015066,
    54.5989568751207,
    54.631586360405905,
    54.56401253523263,
    54.655425060666445,
    54.45604486018254,
    20.28553988584698,
]


def test_search_reproduces_the_library(library9):
    actions = [e.action for e in library9.entries]
    assert len(actions) == len(_LIBRARY9_ACTIONS)
    assert np.allclose(actions, _LIBRARY9_ACTIONS, rtol=0.0, atol=1e-8)


def test_search_alpha3_needs_no_descent(grid, cfg, monkeypatch):
    # alpha=3, targets 9: the two c=0 index-1 loops, one glue and the lower
    # c=1/2 loop; no attempt falls back to the Armijo descent
    calls = _count_descents(monkeypatch)
    lib = search_distinct(example_potential(alpha=3.0), grid, cfg, targets=9)
    actions = [e.action for e in lib.entries]
    assert np.allclose(actions, [22.563663, 22.563663, 48.260729, 22.562398], rtol=0.0, atol=1e-6)
    assert calls == []
