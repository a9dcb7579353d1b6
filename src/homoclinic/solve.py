"""Constrained minimization and descent to critical points of the action.

Pipeline: build a one-loop initial guess that crosses the ray {k q : k > 1},
minimize the action over the discrete constraint class E_h (one node pinned
to the ray, ray coordinate clamped at k_min = 1 + eps_k), release the
constraint, then run monotone Armijo descent with whole-period translation
renormalization until the scaled gradient norm ||g||_2 / sqrt(h) drops
below tolerance.

The descent direction is the negative gradient mapped through the inverse
of the discrete H1 operator (tridiagonal solve per component), which
improves conditioning by roughly the square of the node count per unit
time.  It changes only the direction, never the accepted-value
bookkeeping: action sequences stay monotone and iterates segment-feasible.

Every accepted iterate keeps segment clearance >= delta_seg; trial points
that would violate it (or park a node inside the guard ball around q) are
rejected during backtracking, so the strong-force barrier is never crossed.

All value, clearance and gradient evaluations go through one
action.ActionKernel per stage.  Each loop keeps the accepted trial's
StencilPoint, so the next gradient reuses the offsets from q and the well
terms computed when that trial was valued.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import LinAlgError, cholesky_banded, get_lapack_funcs, solve_banded

from .action import (
    ActionKernel,
    ResidualReport,
    StencilPoint,
    eval_action,
    grad_norm,
    ode_residual,
    positivity_probe,
    segment_clearance,
)
from .errors import (
    ConvergedToZero,
    InfeasibleGuess,
    MaxItersExceeded,
    NoSolutionFound,
)
from .grids import Grid, GridFunction, from_values, renormalize_translation
from .potential import PotentialSpec, check_hypotheses, eval_hessW

Array = np.ndarray

_RENORMALIZE_EVERY = 25  # accepted descent steps between whole-period shifts
_STEP_CAP = 8.0  # longest step tried along the H1 direction


@dataclass
class SolverConfig:
    grad_tol: float = 1e-6
    max_iters: int = 20000
    armijo_c1: float = 1e-4
    backtrack: float = 0.5
    max_backtracks: int = 60
    eps_k: float = 0.1
    k0: float = 1.5
    bump_center: float = 0.0
    bump_width: float = 2.0
    transverse: float = 0.5
    orientation: int = 1
    seed: int = 0
    max_restarts: int = 4
    zero_tol: float = 1e-4
    constraint_active_iters: int = 50
    probe_radius: float = 1.0
    probe_samples: int = 200
    polish_steps: int = 12

    @property
    def k_min(self) -> float:
        return 1.0 + self.eps_k


@dataclass
class ConstraintE:
    """One node pinned to the ray {k q : k >= k_min}."""

    node_index: int
    k_min: float
    k: float


@dataclass
class EStageResult:
    trajectory: GridFunction
    k: float
    value: float
    grad_norm: float
    iterations: int
    converged: bool
    constraint_active: bool
    history: dict = field(repr=False, compare=False, default_factory=dict)


@dataclass
class HomoclinicCandidate:
    trajectory: GridFunction
    action: float
    grad_norm: float
    residual: ResidualReport
    clearance: float
    crossing: Optional[tuple[int, float]]
    iterations: int
    alpha_gap: Optional[float] = None
    e_stage: Optional[dict] = None
    schedule_item: Optional[dict] = None
    history: dict = field(repr=False, compare=False, default_factory=dict)


class H1Preconditioner:
    """Solve (K + M) v = g per component on the interior nodes.

    K is the forward-difference stiffness (1/h) tridiag(-1, 2, -1), M the
    trapezoid mass h I; the factorization is computed once per grid.
    apply() calls LAPACK's banded solve directly, without scipy's wrapper
    overhead, and keeps that wrapper's finiteness check.
    """

    def __init__(self, grid: Grid):
        n_int = grid.n - 2
        h = grid.h
        ab = np.zeros((2, n_int))
        ab[0, 1:] = -1.0 / h
        ab[1, :] = 2.0 / h + h
        self._cb = cholesky_banded(ab, lower=False)
        self._pbtrs = get_lapack_funcs("pbtrs", (self._cb,))

    def apply(self, g: Array) -> Array:
        b = g[1:-1]
        if not np.isfinite(b).all():
            raise ValueError("array must not contain infs or NaNs")
        x, info = self._pbtrs(self._cb, b, lower=0)
        if info != 0:
            raise ValueError("illegal value in argument %d of pbtrs" % -info)
        out = np.zeros(g.shape)
        out[1:-1] = x
        return out


def _transverse_unit(q: Array) -> Array:
    """Deterministic unit vector orthogonal to q."""
    i = int(np.argmin(np.abs(q)))
    e = np.zeros_like(q)
    e[i] = 1.0
    qh = q / np.linalg.norm(q)
    p = e - (e @ qh) * qh
    return p / np.linalg.norm(p)


def snap_center(grid: Grid, center: float) -> int:
    """Nearest node index to a requested bump center."""
    i = int(round(center / grid.h)) + grid.center_index
    return min(max(i, 1), grid.n - 2)


def initial_guess_bump(
    grid: Grid,
    pot: PotentialSpec,
    k0: float,
    center: float = 0.0,
    width: float = 2.0,
    transverse: float = 0.5,
    orientation: int = 1,
    eps_k: float = 0.1,
) -> GridFunction:
    """One-loop guess hitting k0 * q at the center node.

    The radial sech profile alone would cross the singular point on its way
    out (every multiple c*q with c in (0, k0] lies on the path), so an
    antisymmetric transverse component tanh * sech is added: the path bows
    to one side before the center node, passes through k0 * q exactly, and
    returns on the other side, winding once around q.  orientation flips
    the winding sense.
    """
    if k0 < 1.0 + eps_k:
        raise ValueError("k0 must be at least 1 + eps_k")
    if width <= 0:
        raise ValueError("width must be positive")
    idx = snap_center(grid, center)
    tau = grid.times - grid.times[idx]
    sech = 1.0 / np.cosh(width * tau)
    swing = np.tanh(width * tau) * sech
    p_hat = _transverse_unit(pot.q)
    vals = k0 * np.outer(sech, pot.q) + (
        orientation * transverse * pot.well.q_norm
    ) * np.outer(swing, p_hat)
    u = from_values(grid, vals)
    clearance = segment_clearance(u.values, pot.q)
    if clearance < pot.delta_seg:
        raise InfeasibleGuess(
            "guess clearance %.3e below the %.3e floor" % (clearance, pot.delta_seg)
        )
    return u


_FLAT_RTOL = 4.0 * np.finfo(float).eps


def _flat_threshold(value: float, dec: float) -> float:
    # near the floating-point floor of the action, fall back to plain
    # nonincrease instead of demanding an unresolvable decrement
    if -dec < _FLAT_RTOL * abs(value):
        return value
    return value + dec


def _newton_polish(
    kernel: ActionKernel,
    grid: Grid,
    p: StencilPoint,
    cfg: SolverConfig,
    history: dict,
) -> tuple[StencilPoint, float]:
    """Drive the interior stencil equations down by damped Newton steps.

    A value-monotone line search cannot certify progress once the
    remaining action improvement drops below one ulp of the action, which
    happens at gradient norms around 1e-6 on desk grids.  The stencil
    equations have no such floor, so each step solves the banded Jacobian
    system and is accepted only when the gradient norm decreases and the
    iterate stays feasible.  Returns the updated state; stops early on a
    singular Jacobian or when no damping factor helps.
    """
    h = kernel.h
    n, d = p.values.shape
    n_int = n - 2
    g = kernel.gradient(p)
    gn = grad_norm(grid, g)
    eye = np.eye(d)
    for _ in range(cfg.polish_steps):
        if gn <= cfg.grad_tol:
            break
        blocks = (2.0 / h) * eye - h * (
            kernel.a[1:-1, None, None] * eval_hessW(kernel.well, p.values[1:-1])
        )
        ab = np.zeros((2 * d + 1, n_int * d))
        for c in range(d):
            for c2 in range(d):
                ab[d + c - c2, c2::d] = blocks[:, c, c2]
        ab[0, d:] = -1.0 / h
        ab[2 * d, : n_int * d - d] = -1.0 / h
        try:
            delta = solve_banded((d, d), ab, g[1:-1].reshape(-1))
        except LinAlgError:
            break
        dvals = delta.reshape(n_int, d)
        improved = False
        scale = 1.0
        for _ in range(8):
            trial = p.values.copy()
            trial[1:-1] -= scale * dvals
            res = kernel.trial(trial)
            if res is not None:
                g_t = kernel.gradient(res)
                gn_t = grad_norm(grid, g_t)
                if gn_t < gn:
                    p, g, gn = res, g_t, gn_t
                    improved = True
                    break
            scale *= 0.5
        if not improved:
            break
        history.setdefault("polish_grad_norm", []).append(float(gn))
        history.setdefault("polish_action", []).append(p.value)
    return p, gn


def minimize_over_E(
    u0: GridFunction,
    constraint: ConstraintE,
    pot: PotentialSpec,
    cfg: SolverConfig,
) -> EStageResult:
    """Projected Armijo descent over the constraint class E_h.

    Free variables are all interior nodes except the pinned one plus the
    ray coordinate k; each trial step is projected back onto the ray (with
    k clamped at k_min) before the sufficient-decrease test, so every
    iterate lies in E_h exactly.  Returns the best iterate with flags when
    the iteration cap is hit; the infimum estimate is the final value.
    """
    grid = u0.grid
    kernel = ActionKernel(pot, grid)
    j = constraint.node_index
    if not (0 < j < grid.n - 1):
        raise ValueError("constrained node must be interior")
    q = pot.q
    q2 = float(q @ q)
    k_min = constraint.k_min

    vals = np.array(u0.values, copy=True)
    k = max(float(constraint.k), k_min)
    vals[j] = k * q
    p = kernel.trial(vals)
    if p is None:
        raise InfeasibleGuess("starting point of the constrained stage is infeasible")

    pre = H1Preconditioner(grid)
    alpha = 1.0

    history = {"action": [p.value], "clearance": [p.clearance], "k": [k]}
    active_run = 0
    constraint_active = False
    converged = False
    pg_norm = math.inf
    iters = 0

    for iters in range(1, cfg.max_iters + 1):
        vals = p.values
        g = kernel.gradient(p)
        # projected gradient: at node j only the ray-tangential part counts,
        # and it is blocked when pushing k below the clamp
        pg = g.copy()
        tang = float(g[j] @ q) / q2
        if k <= k_min * (1.0 + 1e-12) and tang > 0.0:
            tang = 0.0
        pg[j] = tang * q
        pg_norm = grad_norm(grid, pg)
        if pg_norm <= cfg.grad_tol:
            converged = True
            break

        direction = pre.apply(g)
        accepted = False
        alpha_try = min(alpha * 2.0, _STEP_CAP)
        for _ in range(cfg.max_backtracks):
            trial = vals - alpha_try * direction
            k_t = max(k_min, float(trial[j] @ q) / q2)
            trial[j] = k_t * q
            trial[0] = 0.0
            trial[-1] = 0.0
            res = kernel.trial(trial)
            if res is not None:
                delta = trial - vals
                dec = cfg.armijo_c1 * float((g * delta).sum())
                if dec < 0.0 and res.value <= _flat_threshold(p.value, dec):
                    accepted = True
                    break
            alpha_try *= cfg.backtrack
        if not accepted or (trial == vals).all():
            break  # stalled at the floating-point floor
        p = res
        k = k_t
        alpha = alpha_try
        history["action"].append(p.value)
        history["clearance"].append(p.clearance)
        history["k"].append(k)
        if k <= k_min * (1.0 + 1e-12):
            active_run += 1
            if active_run >= cfg.constraint_active_iters:
                constraint_active = True
        else:
            active_run = 0

    return EStageResult(
        trajectory=GridFunction(grid, p.values),
        k=float(k),
        value=float(p.value),
        grad_norm=float(pg_norm),
        iterations=iters,
        converged=converged,
        constraint_active=constraint_active,
        history=history,
    )


def _detect_crossing(u: GridFunction, pot: PotentialSpec) -> Optional[tuple[int, float]]:
    """Node sitting on the ray {k q : k > 1}, if any."""
    q = pot.q
    qn = pot.well.q_norm
    qh = q / qn
    along = u.values @ qh
    perp = u.values - np.outer(along, qh)
    perp_norm = np.sqrt(np.sum(perp * perp, axis=1))
    on_ray = (perp_norm <= 1e-8 * qn) & (along > qn)
    idx = np.nonzero(on_ray)[0]
    if len(idx) == 0:
        return None
    best = idx[np.argmin(perp_norm[idx])]
    return int(best), float(along[best] / qn)


def descend_to_critical(
    u0: GridFunction,
    pot: PotentialSpec,
    cfg: SolverConfig,
) -> HomoclinicCandidate:
    """Unconstrained monotone descent to a critical point.

    Applies whole-period renormalization every _RENORMALIZE_EVERY accepted
    steps (and once at the end), raises ConvergedToZero when the iterate
    collapses below zero_tol in sup norm, and MaxItersExceeded when the
    cap is reached; the best iterate rides along on the exception.
    """
    grid = u0.grid
    kernel = ActionKernel(pot, grid)
    p = kernel.trial(np.array(u0.values, copy=True))
    if p is None:
        raise InfeasibleGuess("starting point of descent is infeasible")

    pre = H1Preconditioner(grid)
    alpha = 1.0

    history = {"action": [p.value], "clearance": [p.clearance], "renorm": []}
    since_renorm = 0
    iters = 0
    gn = math.inf

    def renormalize_now():
        nonlocal p
        shifted, l = renormalize_translation(GridFunction(grid, p.values))
        if l != 0:
            res = kernel.trial(np.array(shifted.values, copy=True))
            if res is None:
                return  # shift would break feasibility; keep the iterate
            history["renorm"].append((p.value, res.value, l))
            p = res

    while iters < cfg.max_iters:
        g = kernel.gradient(p)
        gn = grad_norm(grid, g)
        if gn <= cfg.grad_tol:
            before = p
            renormalize_now()
            if p is before:  # no shift happened, fully converged
                break
            g = kernel.gradient(p)
            gn = grad_norm(grid, g)
            if gn <= cfg.grad_tol:
                break
        direction = pre.apply(g)
        gdotd = float((g * direction).sum())
        if gdotd <= 0.0:
            break
        accepted = False
        alpha_try = min(alpha * 2.0, _STEP_CAP)
        for _ in range(cfg.max_backtracks):
            trial = p.values - alpha_try * direction
            res = kernel.trial(trial)
            if res is not None:
                dec = -cfg.armijo_c1 * alpha_try * gdotd
                if res.value <= _flat_threshold(p.value, dec):
                    accepted = True
                    break
            alpha_try *= cfg.backtrack
        if not accepted or (trial == p.values).all():
            break
        p = res
        alpha = alpha_try
        iters += 1
        since_renorm += 1
        history["action"].append(p.value)
        history["clearance"].append(p.clearance)
        if float(np.sqrt(p.r2.max())) < cfg.zero_tol:
            raise ConvergedToZero("iterate collapsed onto the trivial solution")
        if since_renorm >= _RENORMALIZE_EVERY:
            renormalize_now()
            since_renorm = 0

    if gn > cfg.grad_tol and cfg.polish_steps > 0:
        for _ in range(2):
            p, gn = _newton_polish(kernel, grid, p, cfg, history)
            if float(np.sqrt(p.r2.max())) < cfg.zero_tol:
                raise ConvergedToZero("iterate collapsed onto the trivial solution")
            if gn > cfg.grad_tol:
                break
            before = p
            renormalize_now()
            if p is before:
                break
            gn = grad_norm(grid, kernel.gradient(p))
            if gn <= cfg.grad_tol:
                break

    u = GridFunction(grid, p.values)
    if gn > cfg.grad_tol:
        best = _wrap_candidate(u, pot, cfg, iters, history, verify=False)
        raise MaxItersExceeded(
            "gradient norm %.3e above tolerance %.3e after %d iterations"
            % (gn, cfg.grad_tol, iters),
            best=best,
        )
    return _wrap_candidate(u, pot, cfg, iters, history, verify=True)


def polish_to_critical(
    u0: GridFunction,
    pot: PotentialSpec,
    cfg: SolverConfig,
) -> HomoclinicCandidate:
    """Converge to the nearest critical point by damped Newton alone.

    Unlike descend_to_critical this never follows the action downhill, so
    a glued multibump guess is not dragged down the unwinding canyon that
    monotone descent finds when bump tails interact; acceptance is
    monotone in the gradient norm instead.  Raises MaxItersExceeded (best
    iterate attached) when the polish stalls above tolerance.
    """
    grid = u0.grid
    kernel = ActionKernel(pot, grid)
    p = kernel.trial(np.array(u0.values, copy=True))
    if p is None:
        raise InfeasibleGuess("starting point of polish is infeasible")
    history = {}
    p, gn = _newton_polish(kernel, grid, p, cfg, history)
    if float(np.sqrt(p.r2.max())) < cfg.zero_tol:
        raise ConvergedToZero("polish collapsed onto the trivial solution")
    steps = len(history.get("polish_grad_norm", []))
    u = GridFunction(grid, p.values)
    if gn > cfg.grad_tol:
        best = _wrap_candidate(u, pot, cfg, steps, history, verify=False)
        raise MaxItersExceeded(
            "polish stalled at gradient norm %.3e above tolerance %.3e" % (gn, cfg.grad_tol),
            best=best,
        )
    return _wrap_candidate(u, pot, cfg, steps, history, verify=True)


def _wrap_candidate(
    u: GridFunction,
    pot: PotentialSpec,
    cfg: SolverConfig,
    iters: int,
    history: dict,
    verify: bool,
) -> HomoclinicCandidate:
    ae = eval_action(u, pot)
    gn = grad_norm(u.grid, ae.gradient)
    res = ode_residual(u, pot)
    cand = HomoclinicCandidate(
        trajectory=u,
        action=float(ae.value),
        grad_norm=float(gn),
        residual=res,
        clearance=float(ae.min_seg_dist),
        crossing=_detect_crossing(u, pot),
        iterations=iters,
        history=history,
    )
    if verify:
        if cand.action <= 0.0:
            raise ConvergedToZero("converged point has nonpositive action")
        if cand.clearance < pot.delta_seg:
            raise InfeasibleGuess("converged point violates segment clearance")
    return cand


def _restart_schedule(grid: Grid, cfg: SolverConfig) -> list[dict]:
    t_half = grid.period / 2.0
    base = {
        "k0": cfg.k0,
        "center": cfg.bump_center,
        "width": cfg.bump_width,
        "orientation": cfg.orientation,
    }
    variations = [
        base,
        {**base, "orientation": -cfg.orientation},
        {**base, "k0": min(2.5, cfg.k0 * 1.25), "width": cfg.bump_width * 0.75},
        {**base, "center": cfg.bump_center + t_half},
        {**base, "k0": max(1.0 + cfg.eps_k, cfg.k0 * 0.85), "width": cfg.bump_width * 1.5},
    ]
    return variations[: max(1, cfg.max_restarts + 1)]


def single_loop_attempt(
    pot: PotentialSpec, grid: Grid, cfg: SolverConfig, item: dict
) -> HomoclinicCandidate:
    """One guess -> constrained stage -> descent attempt for a schedule item.

    Missing guess parameters (k0, center, width, orientation) fall back to
    cfg; the candidate carries the constrained-stage summary and the item.
    """
    center = float(item.get("center", cfg.bump_center))
    k0 = float(item.get("k0", cfg.k0))
    guess = initial_guess_bump(
        grid,
        pot,
        k0=k0,
        center=center,
        width=float(item.get("width", cfg.bump_width)),
        transverse=cfg.transverse,
        orientation=int(item.get("orientation", cfg.orientation)),
        eps_k=cfg.eps_k,
    )
    constraint = ConstraintE(node_index=snap_center(grid, center), k_min=cfg.k_min, k=k0)
    e_res = minimize_over_E(guess, constraint, pot, cfg)
    cand = descend_to_critical(e_res.trajectory, pot, cfg)
    cand.e_stage = {
        key: getattr(e_res, key)
        for key in ("value", "k", "iterations", "converged", "constraint_active", "grad_norm")
    }
    cand.schedule_item = dict(item)
    return cand


def solve_homoclinic(
    pot: PotentialSpec,
    grid: Grid,
    cfg: Optional[SolverConfig] = None,
) -> HomoclinicCandidate:
    """Full pipeline: hypothesis gate, constrained stage, release, descent.

    Retries over a small restart schedule of guess parameters; raises
    NoSolutionFound when every attempt fails.  The returned candidate
    carries the constrained-stage summary (infimum estimate d_h, final k,
    constraint-activity flag) and the sampled action gap alpha_gap.
    """
    if cfg is None:
        cfg = SolverConfig()
    check_hypotheses(pot)

    failures = []
    for item in _restart_schedule(grid, cfg):
        try:
            cand = single_loop_attempt(pot, grid, cfg, item)
        except (InfeasibleGuess, ConvergedToZero, MaxItersExceeded) as exc:
            failures.append("%s: %s" % (type(exc).__name__, exc))
            continue
        probe = positivity_probe(
            pot,
            grid,
            radius=cfg.probe_radius,
            n_samples=cfg.probe_samples,
            rng=np.random.default_rng(cfg.seed),
        )
        cand.alpha_gap = probe.min_action
        return cand
    raise NoSolutionFound(
        "all %d attempts failed: %s" % (len(failures), "; ".join(failures))
    )
