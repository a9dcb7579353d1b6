"""Acceptance gate: ten numbered criteria with pinned tolerances.

Each test prints one `[criterion NN] PASS/FAIL ...` line with the measured
margins.  Criterion 04 is expected to fail on the tail sup |u| bound at the
pinned parameters; see the README for the analysis.  The measured action
and d_h levels asserted here are regression anchors for this solver, not
external ground truth.
"""

import time
from dataclasses import replace

import gate_oracle
import numpy as np
import pytest

from homoclinic.action import (
    eval_action,
    eval_gradient_fd_check,
    ode_residual,
    positivity_probe,
    truncation_residual,
)
from homoclinic.grids import (
    Grid,
    GridFunction,
    h1_norm,
    random_smooth_function,
    shift_periods,
    sobolev_bound_check,
)
from homoclinic.multiplicity import LibraryEntry, SolutionLibrary, ps_split
from homoclinic.potential import check_H2, check_H3, default_witness, example_potential
from homoclinic.solve import (
    ConstraintE,
    initial_guess_bump,
    minimize_over_E,
    snap_center,
    solve_homoclinic,
)

TIGHT = 1e-8  # gradient tolerance for the refinement pair


@pytest.fixture(scope="session")
def refined40(pot, grid, cfg, fixture_seconds):
    t0 = time.perf_counter()
    cand = solve_homoclinic(pot, grid, replace(cfg, grad_tol=TIGHT))
    fixture_seconds["refined40"] = time.perf_counter() - t0
    return cand


@pytest.fixture(scope="session")
def refined80(pot, cfg, fixture_seconds):
    fine = Grid(period=1.0, nodes_per_period=80, half_periods=8)
    t0 = time.perf_counter()
    cand = solve_homoclinic(pot, fine, replace(cfg, grad_tol=TIGHT))
    fixture_seconds["refined80"] = time.perf_counter() - t0
    return cand


CRITERION_LINES = {}


def report(num, ok, detail):
    line = "[criterion %02d] %s %s" % (num, "PASS" if ok else "FAIL", detail)
    CRITERION_LINES[num] = line
    print(line)


def test_criterion_01_gradient_consistency(pot, grid):
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    count = 0
    while count < 20:
        u = random_smooth_function(grid, 2, rng)
        if not eval_action(u, pot).feasible:
            continue
        rep = eval_gradient_fd_check(u, pot, rng=rng)
        worst = max(worst, rep.max_rel_err)
        count += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed <= 10.0
    report(1, ok, "fd gradient rel err %.3e <= 1e-6 on 20 trajectories, %.2fs" % (worst, elapsed))
    assert worst <= 1e-6
    assert elapsed <= 10.0


def test_criterion_02_hypothesis_checker_exactness():
    # the closed-form gate against the dense sampling oracle: the Hessian's
    # eigenvalues against difference quotients, and the barrier margin, an
    # exact minimum, at or below the sampled one
    worst = 0.0
    for alpha in (2.0, 3.0, 4.0):
        pot = example_potential(alpha=alpha)
        rep = check_H2(pot)
        eigs = gate_oracle.hessian_eigenvalues(pot)
        worst = max(worst, abs(rep["eigen_min"] - eigs[0]), abs(rep["eigen_max"] - eigs[-1]))
    pot = example_potential(alpha=2.0)
    barrier = check_H3(pot, default_witness(pot))
    sampled = gate_oracle.barrier_margin(pot, barrier["radius"])
    ok = worst <= 1e-4 and 0.0 <= barrier["min_margin"] <= sampled and barrier["radius"] == 0.1
    report(
        2,
        ok,
        "eigenvalue error %.2e <= 1e-4 for alpha in {2,3,4}; log-witness margin %.3e "
        "(sampled %.3e) at r=0.1" % (worst, barrier["min_margin"], sampled),
    )
    assert worst <= 1e-4
    assert 0.0 <= barrier["min_margin"] <= sampled


def test_criterion_03_translation_invariance(pot, grid):
    rng = np.random.default_rng(3)
    m = grid.nodes_per_period
    worst = 0.0
    for _ in range(10):
        base = random_smooth_function(grid, 2, rng)
        vals = base.values.copy()
        vals[: 4 * m + 1] = 0.0  # room for |k| <= 4 on both sides
        vals[-4 * m - 1 :] = 0.0
        u = GridFunction(grid, vals)
        i0 = eval_action(u, pot).value
        for k in range(-4, 5):
            ik = eval_action(shift_periods(u, k), pot).value
            worst = max(worst, abs(ik - i0) / abs(i0))
    ok = worst <= 1e-10
    report(3, ok, "action shift error %.3e <= 1e-10 (10 trajectories, |k| <= 4)" % worst)
    assert worst <= 1e-10


def test_criterion_04_existence_run(pot, grid, cfg):
    t0 = time.perf_counter()
    cand = solve_homoclinic(pot, grid, cfg)
    elapsed = time.perf_counter() - t0
    res = ode_residual(cand.trajectory, pot)
    q_norm = float(np.linalg.norm(pot.q))
    parts = [
        ("grad_norm", cand.grad_norm, "<=", 1e-6),
        ("clearance", cand.clearance, ">=", 1e-3 * q_norm),
        ("tail sup |u|", res.tail_sup_u, "<=", 1e-3),
        ("tail sup |du|", res.tail_sup_du, "<=", 1e-2),
        ("runtime", elapsed, "<=", 60.0),
    ]

    def holds(v, op, b):
        return v <= b if op == "<=" else v >= b

    ok = cand.action > 0.0 and all(holds(v, op, b) for _, v, op, b in parts)
    detail = "action %.4f > 0; " % cand.action + "; ".join(
        "%s %.3e %s %.0e" % (name, v, op if holds(v, op, b) else "violates " + op, b)
        for name, v, op, b in parts
    )
    report(4, ok, detail)
    assert cand.action > 0.0
    assert cand.grad_norm <= 1e-6
    assert cand.clearance >= 1e-3 * q_norm
    assert res.tail_sup_du <= 1e-2
    assert elapsed <= 60.0
    # unattained at the pinned parameters: any admissible loop has
    # amplitude >= (1 + eps_k)|q|, which already forces the |t| >= 7
    # tail of the m=40 minimizer above 1e-3 (measured 1.5e-3)
    assert res.tail_sup_u <= 1e-3


def test_criterion_05_discretization_order(pot, refined40, refined80, fixture_seconds):
    t0 = time.perf_counter()
    r40 = truncation_residual(refined40.trajectory, pot)
    r80 = truncation_residual(refined80.trajectory, pot)
    ratio = r40 / r80
    drift = abs(refined80.action - refined40.action) / abs(refined40.action)
    elapsed = time.perf_counter() - t0
    ok = 3.5 <= ratio <= 4.5 and drift <= 0.05
    report(
        5,
        ok,
        "residual ratio %.3f in [3.5, 4.5]; action drift %.3e <= 5e-2 "
        "(solves m=40 %.1fs, m=80 %.1fs; check %.1fs)"
        % (
            ratio,
            drift,
            fixture_seconds["refined40"],
            fixture_seconds["refined80"],
            elapsed,
        ),
    )
    assert 3.5 <= ratio <= 4.5
    assert drift <= 0.05


def test_criterion_06_constrained_level_positive_and_stable(pot, cfg, refined40):
    # refined80 is refined40's level continued, so d_h at m=80 comes from
    # its own E-stage, run from the guess at m=80
    fine = Grid(period=1.0, nodes_per_period=80, half_periods=8)
    tight = replace(cfg, grad_tol=TIGHT)
    guess = initial_guess_bump(fine, pot, cfg.k0, cfg.bump_center, cfg.bump_width, eps_k=cfg.eps_k)
    constraint = ConstraintE(snap_center(fine, cfg.bump_center), cfg.k0)
    d40 = refined40.e_stage["value"]
    d80 = minimize_over_E(guess, constraint, pot, tight).value
    rel = abs(d80 - d40) / abs(d40)
    k40 = refined40.e_stage["k"]
    released = k40 > 1.0 + cfg.eps_k / 2.0 or refined40.e_stage["constraint_active"]
    ok = d40 > 0.0 and released and rel <= 0.05
    report(
        6,
        ok,
        "d_h %.6f > 0; k %.4f > %.2f (or constraint flagged); level drift %.3e <= 5e-2"
        % (d40, k40, 1.0 + cfg.eps_k / 2.0, rel),
    )
    assert d40 > 0.0
    assert released
    assert rel <= 0.05


def test_criterion_07_multiplicity(library3, fixture_seconds):
    # library3 is produced by search with targets=3 at jobs=1
    t0 = time.perf_counter()
    D = library3.distance_matrix()
    elapsed = time.perf_counter() - t0
    n = len(library3)
    min_d = float(D[np.triu_indices(n, 1)].min()) if n > 1 else float("inf")
    ok = n >= 3 and min_d >= 0.1
    report(
        7,
        ok,
        "%d distinct candidates; min pairwise distance %.4f >= 0.1 "
        "(search %.1fs; distance matrix %.1fs)"
        % (n, min_d, fixture_seconds["library3"], elapsed),
    )
    assert n >= 3
    assert min_d >= 0.1


def test_criterion_08_splitting_fidelity(pot, solved):
    v = solved.trajectory
    src = v.grid
    wide = Grid(period=src.period, nodes_per_period=src.nodes_per_period, half_periods=16)
    lift = np.zeros((wide.n, 2))
    off = wide.center_index - src.center_index
    lift[off : off + src.n] = v.values
    lift[0] = lift[-1] = 0.0
    u0 = GridFunction(wide, lift)
    manufactured = GridFunction(wide, u0.values + shift_periods(u0, 10).values)

    lib = SolutionLibrary()
    lib.try_insert_entry(
        LibraryEntry(
            trajectory=u0,
            action=solved.action,
            grad_norm=solved.grad_norm,
            clearance=solved.clearance,
        )
    )
    dec = ps_split(manufactured, lib)

    # tail mass of v over |t| >= L - T on its native grid
    band = np.abs(src.times) >= src.half_length - src.period
    vv = v.values.copy()
    vv[~band] = 0.0
    h = src.h
    diffs = np.where((band[1:] & band[:-1])[:, None], np.diff(v.values, axis=0), 0.0)
    tail_mass = float(np.sqrt(np.sum(diffs * diffs) / h + h * np.sum(vv * vv)))

    scale = h1_norm(u0)
    worst_match = max((b.distance for b in dec.bumps), default=np.inf)
    ok = (
        len(dec.bumps) == 2
        and worst_match <= 0.05 * scale
        and dec.residual_norm <= 2.0 * tail_mass
    )
    report(
        8,
        ok,
        "%d bumps; worst match %.4f <= %.4f; residual %.2e <= %.2e"
        % (len(dec.bumps), worst_match, 0.05 * scale, dec.residual_norm, 2.0 * tail_mass),
    )
    assert len(dec.bumps) == 2
    assert worst_match <= 0.05 * scale
    assert dec.residual_norm <= 2.0 * tail_mass


def test_criterion_09_sobolev_bound(grid, solved, library3):
    rng = np.random.default_rng(9)
    m = grid.nodes_per_period
    lo, hi = m, grid.n - 1 - m
    checked = 0
    for _ in range(100):
        u = random_smooth_function(grid, 2, rng)
        i = int(rng.integers(lo, hi))
        rep = sobolev_bound_check(u, float(grid.times[i]))
        assert rep.passed, "random function violates the window bound"
        checked += 1
    sols = [solved.trajectory] + [e.trajectory for e in library3.entries]
    for u in sols:
        for _ in range(20):
            i = int(rng.integers(lo, hi))
            rep = sobolev_bound_check(u, float(u.grid.times[i]))
            assert rep.passed, "solution violates the window bound"
            checked += 1
    report(9, True, "window inequality held at all %d probes (tol 1e-8)" % checked)


def test_criterion_10_positivity_gap(pot, grid, solved, library3):
    probe = positivity_probe(pot, grid, radius=1.0, n_samples=1000, rng=np.random.default_rng(10))
    actions = [solved.action] + [e.action for e in library3.entries]
    gap = solved.alpha_gap
    ok = (
        probe.min_action > 0.0
        and all(a > probe.min_action for a in actions)
        and 0.0 < gap <= probe.min_action
    )
    report(
        10,
        ok,
        "proven unit-sphere action gap %.4f <= sampled minimum %.4f; smallest library action %.4f exceeds both"
        % (gap, probe.min_action, min(actions)),
    )
    assert probe.min_action > 0.0
    for a in actions:
        assert a > probe.min_action
    assert 0.0 < gap <= probe.min_action
    for a in actions:
        assert a > gap
