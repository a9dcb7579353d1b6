"""Constrained minimization and descent to critical points of the action.

Pipeline: build a one-loop initial guess that crosses the ray {k q : k > 1},
minimize the action over the discrete constraint class E_h (one node pinned
to the ray, ray coordinate clamped at k_min = 1 + eps_k), then release the
constraint and converge until the scaled gradient norm ||g||_2 / sqrt(h)
drops below tolerance.

The constrained stage runs projected Armijo descent along the negative
gradient mapped through the inverse of the discrete H1 operator
(tridiagonal solve per component), which improves conditioning by roughly
the square of the node count per unit time.  The component along q is
solved with the full operator, the transverse components with the pinned
node held fixed, so the pinned node only moves along the ray.  Once the
projected gradient is small the stage finishes with damped Newton steps on
the banded action Hessian, bordered by the ray constraint.

The release is the same damped Newton without the ray constraint, with
whole-period translation renormalization; polish_to_critical (the glue
polish of multibump guesses) is that Newton alone.  Only when the release
stalls above tolerance does monotone Armijo descent along the H1 direction
restart from the constrained minimizer; it changes only the direction,
never the accepted-value bookkeeping: action sequences stay monotone and
iterates segment-feasible.  Both Armijo descents step through one
backtracking line search, _armijo_step.

Every accepted iterate keeps segment clearance >= delta_seg; trial points
that would violate it (or park a node inside the guard ball around q) are
rejected during backtracking, so the strong-force barrier is never crossed.

All value, clearance and gradient evaluations go through one
action.ActionKernel per stage.  Each loop keeps the accepted trial's
StencilPoint, so the next gradient reuses the offsets from q and the well
terms computed when that trial was valued; the candidate's certificate is
read from the stage's kernel at its last accepted point.  solve_homoclinic
is one attempt, whose error propagates; run_attempt runs every attempt of
the search, turning any HomoclinicError into an error text so the search
moves on to its next item.

This is the one module that uses scipy, and it imports scipy.linalg on the
first factorization (load_linalg), not at module load: importing the
package, and the commands that never factor, do not load LAPACK.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.linalg import LinAlgError

from .action import (
    ActionKernel,
    ResidualReport,
    StencilPoint,
    grad_norm,
    segment_clearance,
    sphere_action_bound,
    stencil_residual,
)
from .errors import (
    ConvergedToZero,
    HomoclinicError,
    InfeasibleGuess,
    MaxItersExceeded,
)
from .grids import Grid, GridFunction, from_values, renormalize_translation
from .potential import PotentialSpec, eval_hessW

Array = np.ndarray

_RENORMALIZE_EVERY = 25  # accepted descent steps between whole-period shifts
_STEP_CAP = 8.0  # longest step tried along the H1 direction
_ARMIJO_C1 = 1e-4  # sufficient-decrease constant of both Armijo loops
_BACKTRACK = 0.5  # step shrink factor per rejected trial
_MAX_BACKTRACKS = 60  # trials per Armijo step before the loop stalls
_ZERO_TOL = 1e-4  # sup norm below which an iterate has collapsed onto 0


def load_linalg():
    """scipy.linalg, imported on first use rather than at module load."""
    import scipy.linalg

    return scipy.linalg


def solve_banded(l_and_u, ab, b):
    """scipy.linalg.solve_banded: the banded Newton solve."""
    return load_linalg().solve_banded(l_and_u, ab, b)


@dataclass
class SolverConfig:
    grad_tol: float = 1e-6
    max_iters: int = 20000
    eps_k: float = 0.1
    k0: float = 1.5
    bump_center: float = 0.0
    bump_width: float = 2.0
    orientation: int = 1
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
    newton_steps: int
    converged: bool
    constraint_active: bool  # the stage ended with k on its clamp k_min


@dataclass
class HomoclinicCandidate:
    """One trajectory with its certificates.  history keeps
    "polish_grad_norm", the gradient norm after each accepted Newton step."""

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
    trapezoid mass h I; the factorization is computed once per grid.  With
    a pinned node the system loses that node's row and column, which cuts
    the coupling across it, and apply() returns exactly zero there.
    The factorization is scipy's cholesky_banded, which load_linalg
    imports when the first preconditioner is built; apply() calls LAPACK's
    pbtrs directly, without scipy's wrapper overhead, and keeps that
    wrapper's finiteness check.
    """

    def __init__(self, grid: Grid, pinned: Optional[int] = None):
        n_int = grid.n - 2
        h = grid.h
        self._pinned = pinned
        if pinned is not None:
            n_int -= 1
        ab = np.zeros((2, n_int))
        ab[0, 1:] = -1.0 / h
        ab[1, :] = 2.0 / h + h
        if pinned is not None and pinned - 1 < n_int:
            ab[0, pinned - 1] = 0.0  # no coupling between the pinned node's neighbours
        linalg = load_linalg()
        self._cb = linalg.cholesky_banded(ab, lower=False)
        self._pbtrs = linalg.get_lapack_funcs("pbtrs", (self._cb,))

    def apply(self, g: Array) -> Array:
        j = self._pinned
        b = g[1:-1] if j is None else np.concatenate((g[1:j], g[j + 1 : -1]))
        if not np.isfinite(b).all():
            raise ValueError("array must not contain infs or NaNs")
        x, info = self._pbtrs(self._cb, b, lower=0)
        if info != 0:
            raise ValueError("illegal value in argument %d of pbtrs" % -info)
        out = np.zeros(g.shape)
        if j is None:
            out[1:-1] = x
        else:
            out[1:j] = x[: j - 1]
            out[j + 1 : -1] = x[j - 1 :]
        return out


def ray_direction(
    full: H1Preconditioner,
    pinned: H1Preconditioner,
    g: Array,
    q_hat: Array,
    clamped: bool = False,
) -> tuple[Array, Array]:
    """H1 direction over E_h, split into its q_hat and q_hat-perp parts.

    The component along q_hat is solved with the full factor, so the
    pinned node moves freely along the ray; the transverse components are
    solved with that node pinned, so they vanish there exactly.  While k
    sits on its clamp and the gradient pushes it lower, the node cannot
    move at all, and the q_hat component is solved pinned too.  Returns
    (along, across): the q_hat coordinate per node and the transverse part
    in the original coordinates; the direction is
    outer(along, q_hat) + across.
    """
    c = g @ q_hat
    return (pinned if clamped else full).apply(c), pinned.apply(g - np.outer(c, q_hat))


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
    the winding sense.  A k0 so large that the values overflow makes the
    guess infeasible.
    """
    if k0 < 1.0 + eps_k:
        raise ValueError("k0 must be at least 1 + eps_k")
    if width <= 0:
        raise ValueError("width must be positive")
    idx = snap_center(grid, center)
    tau = grid.times - grid.times[idx]
    p_hat = _transverse_unit(pot.q)
    # cosh overflows far from a steep profile's center, where sech is 0,
    # and a huge k0 overflows the values
    with np.errstate(over="ignore", invalid="ignore"):
        sech = 1.0 / np.cosh(width * tau)
        swing = np.tanh(width * tau) * sech
        vals = k0 * np.outer(sech, pot.q) + (
            orientation * transverse * pot.well.q_norm
        ) * np.outer(swing, p_hat)
        if not np.isfinite(vals).all():
            raise InfeasibleGuess("guess with k0 %.3g is not finite" % k0)
        u = from_values(grid, vals)
        clearance = segment_clearance(u.values, pot.q)
    if clearance < pot.delta_seg:
        raise InfeasibleGuess(
            "guess clearance %.3e below the %.3e floor" % (clearance, pot.delta_seg)
        )
    return u


_FLAT_RTOL = 4.0 * np.finfo(float).eps
_POLISH_STALL = "polish stalled at gradient norm %(gn).3e above tolerance %(tol).3e"


def _start(
    pot: PotentialSpec, grid: Grid, values: Array, stage: str
) -> tuple[ActionKernel, StencilPoint]:
    """The stage's kernel and its first point; InfeasibleGuess names the stage."""
    kernel = ActionKernel(pot, grid)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing start is infeasible
        p = kernel.trial(np.array(values, copy=True))
    if p is None:
        raise InfeasibleGuess("starting point of %s is infeasible" % stage)
    return kernel, p


def _check_collapse(p: StencilPoint, what: str = "iterate") -> None:
    if float(np.sqrt(p.r2.max())) < _ZERO_TOL:
        raise ConvergedToZero("%s collapsed onto the trivial solution" % what)


def _snap_to_ray(trial: Array, q: Array, j: int, k_min: float) -> float:
    """Put node j of trial on the ray k q, k clamped at k_min; returns k."""
    k = max(k_min, float(trial[j] @ q) / float(q @ q))
    trial[j] = k * q
    return k


def _armijo_step(
    kernel: ActionKernel,
    p: StencilPoint,
    g: Array,
    direction: Array,
    alpha: float,
    ray: Optional[tuple[int, float]] = None,
) -> Optional[tuple[StencilPoint, Optional[float], float]]:
    """One Armijo backtracking step from p along -direction.

    Steps start at min(2 alpha, _STEP_CAP) and shrink by _BACKTRACK; the
    first feasible trial whose action drops by _ARMIJO_C1 <g, trial - p>
    is accepted (near the floating-point floor of the action, plain
    nonincrease is enough).  With ray = (j, k_min) every trial snaps node
    j onto the ray.  Returns (point, k, step), k None without a ray, or
    None when no trial is accepted: the descent has stalled.
    """
    step = min(alpha * 2.0, _STEP_CAP)
    for _ in range(_MAX_BACKTRACKS):
        trial = p.values - step * direction
        k = None if ray is None else _snap_to_ray(trial, kernel.q, *ray)
        res = kernel.trial(trial)
        if res is not None:
            dec = _ARMIJO_C1 * float((g * (trial - p.values)).sum())
            floor = p.value if -dec < _FLAT_RTOL * abs(p.value) else p.value + dec
            if dec < 0.0 and res.value <= floor:
                return res, k, step
        step *= _BACKTRACK
    return None


def _jacobian_band(kernel: ActionKernel, p: StencilPoint) -> Array:
    """Action Hessian on the interior nodes in solve_banded's (d, d) layout.

    Unknowns are node-major (node 1 coordinates, node 2 coordinates, ...);
    the diagonal blocks are (2/h) I - h a(t_i) Hess W(u_i) and the
    neighbour couplings -1/h I.
    """
    h = kernel.h
    n, d = p.values.shape
    n_int = n - 2
    blocks = (2.0 / h) * np.eye(d) - h * (
        kernel.a[1:-1, None, None] * eval_hessW(kernel.well, p.values[1:-1])
    )
    ab = np.zeros((2 * d + 1, n_int * d))
    for c in range(d):
        for c2 in range(d):
            ab[d + c - c2, c2::d] = blocks[:, c, c2]
    ab[0, d:] = -1.0 / h
    ab[2 * d, : n_int * d - d] = -1.0 / h
    return ab


# projected gradient norm at which the E-stage leaves Armijo for bordered Newton
_NEWTON_HANDOFF = 1.0


def _at_clamp(k: float, k_min: float) -> bool:
    return k <= k_min * (1.0 + 1e-12)


def _clamped(g: Array, j: int, q: Array, k: float, k_min: float) -> bool:
    """k sits on its clamp and the gradient pushes it lower."""
    return _at_clamp(k, k_min) and float(g[j] @ q) > 0.0


def _projected_grad_norm(
    grid: Grid, g: Array, j: int, q: Array, k: float, k_min: float
) -> float:
    """Gradient norm over E_h: at node j only the ray-tangential part counts,
    and it is blocked when it would push k below the clamp."""
    pg = g.copy()
    pg[j] = 0.0 if _clamped(g, j, q, k, k_min) else (float(g[j] @ q) / float(q @ q)) * q
    return grad_norm(grid, pg)


def _damped_newton(
    kernel: ActionKernel,
    grid: Grid,
    p: StencilPoint,
    cfg: SolverConfig,
    ray: Optional[tuple[int, float, float]] = None,
) -> tuple[StencilPoint, Optional[float], float, list[float]]:
    """Damped Newton on the stationarity equations, free or over E_h.

    A value-monotone line search cannot certify progress once the action
    improvement drops below one ulp, around gradient norm 1e-6 on desk
    grids; the stencil equations have no such floor.  With ray = (j, k,
    k_min) the directions orthogonal to q at node j are equality
    constraints (plus the ray direction while k sits on its clamp and the
    gradient pushes it lower), each trial snaps node j onto the ray, and
    the norm is the projected one.  Each step solves the banded Hessian
    against the gradient and the constraint columns at once, then enforces
    the constraints through the Schur system of their multipliers (empty
    without a ray).  A step is accepted only when it stays feasible and
    lowers the norm; the loop stops on a singular system or when no
    damping helps.  Returns (point, k, norm, accepted norms); k is None
    without a ray.
    """
    q = kernel.q
    d = q.shape[0]
    # orthonormal rows: first +-q/|q|, then a basis of its complement
    frame = np.linalg.svd((q / math.sqrt(float(q @ q)))[None, :])[2]
    # without a ray there are no constraint rows; node 1 only shapes the empty block
    j, k, k_min = ray if ray is not None else (1, None, None)
    sl = slice((j - 1) * d, j * d)

    def measure(g: Array, k: Optional[float]) -> tuple[float, Array]:
        """Norm to drive down and constraint rows at node j."""
        if ray is None:
            return grad_norm(grid, g), frame[:0]
        rows = frame if _clamped(g, j, q, k, k_min) else frame[1:]
        return _projected_grad_norm(grid, g, j, q, k, k_min), rows

    g = kernel.gradient(p)
    gn, rows = measure(g, k)
    norms = []
    for _ in range(cfg.polish_steps):
        if gn <= cfg.grad_tol:
            break
        rhs = np.zeros((g[1:-1].size, 1 + len(rows)))
        rhs[:, 0] = g[1:-1].reshape(-1)
        rhs[sl, 1:] = rows.T
        try:
            y = solve_banded((d, d), _jacobian_band(kernel, p), rhs)
            yj = rows @ y[sl]
            mu = np.linalg.solve(yj[:, 1:], -yj[:, 0])
        except LinAlgError:
            break
        dvals = (y[:, 0] + y[:, 1:] @ mu).reshape(-1, d)
        improved = False
        scale = 1.0
        for _ in range(8):
            trial = p.values.copy()
            trial[1:-1] -= scale * dvals
            k_t = k if ray is None else _snap_to_ray(trial, q, j, k_min)
            res = kernel.trial(trial)
            if res is not None:
                g_t = kernel.gradient(res)
                gn_t, rows_t = measure(g_t, k_t)
                if gn_t < gn:
                    p, k, g, gn, rows = res, k_t, g_t, gn_t, rows_t
                    improved = True
                    break
            scale *= 0.5
        if not improved:
            break
        norms.append(float(gn))
    return p, k, gn, norms


def minimize_over_E(
    u0: GridFunction,
    constraint: ConstraintE,
    pot: PotentialSpec,
    cfg: SolverConfig,
) -> EStageResult:
    """Minimize the action over the constraint class E_h.

    Free variables are all interior nodes except the pinned one plus the
    ray coordinate k.  Projected Armijo descent follows ray_direction, the
    H1 direction whose transverse part is solved with node j pinned, so
    node j only moves along the ray; each trial's k is clamped at k_min,
    so every iterate lies in E_h exactly.  Once the projected gradient
    norm reaches _NEWTON_HANDOFF the stage finishes with _damped_newton
    along the ray (counted as newton_steps); if that stalls above
    grad_tol, Armijo resumes to grad_tol and the iteration cap.  Returns
    the best iterate with flags when the cap is hit; the infimum estimate
    is the final value.  No per-step history is kept.
    """
    grid = u0.grid
    j = constraint.node_index
    if not (0 < j < grid.n - 1):
        raise ValueError("constrained node must be interior")
    q = pot.q
    q_hat = q / math.sqrt(float(q @ q))
    k_min = constraint.k_min

    vals = np.array(u0.values, copy=True)
    k = max(float(constraint.k), k_min)
    vals[j] = k * q
    kernel, p = _start(pot, grid, vals, "the constrained stage")

    full = H1Preconditioner(grid)
    pinned = H1Preconditioner(grid, pinned=j)
    alpha = 1.0

    converged = False
    handed_off = False
    newton_steps = 0
    pg_norm = math.inf
    iters = 0

    for iters in range(1, cfg.max_iters + 1):
        g = kernel.gradient(p)
        pg_norm = _projected_grad_norm(grid, g, j, q, k, k_min)
        if cfg.grad_tol < pg_norm <= _NEWTON_HANDOFF and not handed_off:
            handed_off = True
            p, k, pg_norm, steps = _damped_newton(kernel, grid, p, cfg, (j, k, k_min))
            newton_steps = len(steps)
            g = kernel.gradient(p)
        if pg_norm <= cfg.grad_tol:
            converged = True
            break

        along, across = ray_direction(full, pinned, g, q_hat, _clamped(g, j, q, k, k_min))
        step = _armijo_step(kernel, p, g, np.outer(along, q_hat) + across, alpha, (j, k_min))
        if step is None:
            break  # stalled at the floating-point floor
        p, k, alpha = step
    return EStageResult(
        trajectory=GridFunction(grid, p.values),
        k=float(k),
        value=float(p.value),
        grad_norm=float(pg_norm),
        iterations=iters,
        newton_steps=newton_steps,
        converged=converged,
        constraint_active=_at_clamp(k, k_min),
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


def _renormalize(kernel: ActionKernel, grid: Grid, p: StencilPoint) -> StencilPoint:
    """Whole-period shift toward the center; the same point when none applies."""
    shifted, l = renormalize_translation(GridFunction(grid, p.values))
    if l != 0:
        res = kernel.trial(np.array(shifted.values, copy=True))
        if res is not None:  # a shift that would break feasibility is skipped
            return res
    return p


def _polish_rounds(
    kernel: ActionKernel, grid: Grid, p: StencilPoint, cfg: SolverConfig
) -> tuple[StencilPoint, float, list[float]]:
    """Newton polish, then renormalize; polish again once if the shift moved it.

    Returns (point, gradient norm, accepted norms of both rounds).  Raises
    ConvergedToZero when the polish collapses onto the trivial solution.
    """
    gn = math.inf
    norms = []
    for _ in range(2):
        p, _, gn, steps = _damped_newton(kernel, grid, p, cfg)
        norms += steps
        _check_collapse(p)
        if gn > cfg.grad_tol:
            break
        before = p
        p = _renormalize(kernel, grid, p)
        if p is before:
            break
        gn = grad_norm(grid, kernel.gradient(p))
        if gn <= cfg.grad_tol:
            break
    return p, gn, norms


def descend_to_critical(
    u0: GridFunction,
    pot: PotentialSpec,
    cfg: SolverConfig,
) -> HomoclinicCandidate:
    """Unconstrained monotone descent to a critical point.

    Applies whole-period renormalization every _RENORMALIZE_EVERY accepted
    steps (and once at the end), raises ConvergedToZero when the iterate
    collapses below _ZERO_TOL in sup norm, and MaxItersExceeded when the
    cap is reached; the best iterate rides along on the exception.
    """
    grid = u0.grid
    kernel, p = _start(pot, grid, u0.values, "descent")
    pre = H1Preconditioner(grid)
    alpha = 1.0

    history = {"polish_grad_norm": []}
    since_renorm = 0
    iters = 0
    gn = math.inf

    while iters < cfg.max_iters:
        g = kernel.gradient(p)
        gn = grad_norm(grid, g)
        if gn <= cfg.grad_tol:
            before = p
            p = _renormalize(kernel, grid, p)
            if p is before:  # no shift happened, fully converged
                break
            g = kernel.gradient(p)
            gn = grad_norm(grid, g)
            if gn <= cfg.grad_tol:
                break
        step = _armijo_step(kernel, p, g, pre.apply(g), alpha)
        if step is None:
            break
        p, _, alpha = step
        iters += 1
        since_renorm += 1
        _check_collapse(p)
        if since_renorm >= _RENORMALIZE_EVERY:
            p = _renormalize(kernel, grid, p)
            since_renorm = 0

    if gn > cfg.grad_tol and cfg.polish_steps > 0:
        p, gn, history["polish_grad_norm"] = _polish_rounds(kernel, grid, p, cfg)
    return _wrap_candidate(
        kernel, grid, p, pot, cfg, iters, history, gn,
        "gradient norm %(gn).3e above tolerance %(tol).3e after %(iters)d iterations",
    )


def _release(u0: GridFunction, pot: PotentialSpec, cfg: SolverConfig) -> HomoclinicCandidate:
    """Release the constraint: Newton polish first, Armijo descent if it stalls.

    The candidate's history holds the accepted Newton norms in
    "polish_grad_norm"; when Newton stalls above grad_tol,
    descend_to_critical starts over from u0, and the stalled norms go ahead
    of its own polish norms (on MaxItersExceeded, those of its best iterate).
    """
    grid = u0.grid
    kernel, p = _start(pot, grid, u0.values, "the release")
    p, gn, polish = _polish_rounds(kernel, grid, p, cfg)
    if gn <= cfg.grad_tol:
        history = {"polish_grad_norm": polish}
        return _wrap_candidate(kernel, grid, p, pot, cfg, 0, history, gn, _POLISH_STALL)
    try:
        cand = descend_to_critical(u0, pot, cfg)
    except MaxItersExceeded as exc:
        exc.best.history["polish_grad_norm"][:0] = polish
        raise
    cand.history["polish_grad_norm"][:0] = polish
    return cand


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
    kernel, p = _start(pot, grid, u0.values, "polish")
    p, _, gn, norms = _damped_newton(kernel, grid, p, cfg)
    _check_collapse(p, "polish")
    history = {"polish_grad_norm": norms}
    return _wrap_candidate(kernel, grid, p, pot, cfg, len(norms), history, gn, _POLISH_STALL)


def _wrap_candidate(
    kernel: ActionKernel,
    grid: Grid,
    p: StencilPoint,
    pot: PotentialSpec,
    cfg: SolverConfig,
    iters: int,
    history: dict,
    gn: float,
    stall: str,
) -> HomoclinicCandidate:
    """Certify the final iterate of a stage whose last gradient norm is gn.

    Action and clearance are the stage kernel's values at its accepted
    point p, and the gradient norm is measured at p.  Above grad_tol this
    raises MaxItersExceeded with the stage's stall message (formatted from
    gn, tol and iters) and the candidate as best; otherwise the candidate
    must have positive action and clearance.
    """
    u = GridFunction(grid, p.values)
    cand = HomoclinicCandidate(
        trajectory=u,
        action=float(p.value),
        grad_norm=float(grad_norm(grid, kernel.gradient(p))),
        residual=stencil_residual(kernel, grid, p),
        clearance=float(p.clearance),
        crossing=_detect_crossing(u, pot),
        iterations=iters,
        history=history,
    )
    if gn > cfg.grad_tol:
        raise MaxItersExceeded(
            stall % {"gn": gn, "tol": cfg.grad_tol, "iters": iters}, best=cand
        )
    if cand.action <= 0.0:
        raise ConvergedToZero("converged point has nonpositive action")
    if cand.clearance < pot.delta_seg:
        raise InfeasibleGuess("converged point violates segment clearance")
    return cand


def single_loop_attempt(
    pot: PotentialSpec, grid: Grid, cfg: SolverConfig, item: dict
) -> HomoclinicCandidate:
    """One guess -> constrained stage -> release attempt for a schedule item.

    The constrained stage is minimize_over_E (pinned-H1 Armijo, then
    bordered Newton); the release is Newton polish, with Armijo descent
    from the constrained minimizer as the fallback when Newton stalls.
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
        orientation=int(item.get("orientation", cfg.orientation)),
        eps_k=cfg.eps_k,
    )
    constraint = ConstraintE(node_index=snap_center(grid, center), k_min=cfg.k_min, k=k0)
    e_res = minimize_over_E(guess, constraint, pot, cfg)
    cand = _release(e_res.trajectory, pot, cfg)
    cand.e_stage = {k: v for k, v in vars(e_res).items() if k != "trajectory"}
    cand.schedule_item = dict(item)
    return cand


def run_attempt(fn, *args) -> tuple[Optional[HomoclinicCandidate], str, float]:
    """fn(*args) as (candidate, "", seconds), or (None, error text, seconds)
    when it raises a HomoclinicError; the search's attempt runner."""
    t0 = time.perf_counter()
    try:
        cand, error = fn(*args), ""
    except HomoclinicError as exc:
        cand, error = None, "%s: %s" % (type(exc).__name__, exc)
    return cand, error, time.perf_counter() - t0


def solve_homoclinic(
    pot: PotentialSpec,
    grid: Grid,
    cfg: Optional[SolverConfig] = None,
) -> HomoclinicCandidate:
    """Full pipeline: one guess from cfg, constrained stage, release.

    Does not check the hypotheses: a caller who wants the gate runs
    potential.run_hypotheses first, as the CLI does.  Runs exactly one
    single_loop_attempt, with the guess parameters of cfg as its schedule
    item; the attempt's HomoclinicError (InfeasibleGuess, ConvergedToZero,
    MaxItersExceeded, ...) propagates.  The returned candidate carries the
    constrained-stage summary (infimum estimate d_h, final k,
    constraint-activity flag) and alpha_gap, the proven action gap on the
    unit H1 sphere from action.sphere_action_bound (None for custom wells).
    """
    if cfg is None:
        cfg = SolverConfig()
    item = {
        "k0": cfg.k0,
        "center": cfg.bump_center,
        "width": cfg.bump_width,
        "orientation": cfg.orientation,
    }
    cand = single_loop_attempt(pot, grid, cfg, item)
    cand.alpha_gap = sphere_action_bound(pot)
    return cand
