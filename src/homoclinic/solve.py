"""Constrained minimization and descent to critical points of the action.

Pipeline: build a one-loop initial guess that crosses the ray {k q : k > 1},
minimize the action over the discrete constraint class E_h (one node pinned
to the ray, ray coordinate clamped at k_min = 1 + eps_k), then release the
constraint and converge until the scaled gradient norm ||g||_2 / sqrt(h)
drops below tolerance.

The constrained stage runs projected Armijo descent along a limited-memory
BFGS direction (Nocedal, Math. Comp. 35 (1980)) whose initial inverse
Hessian is the inverse of the discrete H1 operator (H1Preconditioner, its
Green's function per component), which alone improves conditioning by
roughly the square of the node count per unit time.  One solve per step
gives that initial direction; a rank-one correction by the inverse's
column at the pinned node then removes its transverse part there, so the
pinned node only moves along the ray.  Once the projected gradient is
small the stage finishes with damped Newton steps on the block-tridiagonal
action Hessian (solve_banded, block cyclic reduction), bordered by the ray
constraint.

polish_to_critical is the same damped Newton without the ray constraint:
the release, the continuation to a finer grid and the glue polish of
multibump guesses.  Only when the release stalls above tolerance does
monotone Armijo descent along the free L-BFGS direction restart from the
constrained minimizer; it changes only the direction, never the
accepted-value bookkeeping: action sequences stay monotone and iterates
segment-feasible.
Both Armijo loops step through _descent_step (the quasi-Newton step, or the
plain H1 step when that fails) and one backtracking line search,
_armijo_step, and both stop, not converged, once the action stalls
(_stalled), so a solve that cannot converge fails early.

Above 40 nodes per period an attempt runs at m=40 on the same box, and
continue_to_grid carries its orbit to m: prolonged linearly, then
polished.  Only when the m=40 attempt fails does the attempt run at m.

a is T-periodic, so every orbit comes with its whole-period translates,
and a solve only chooses the crossing phase: single_loop_attempt takes its
guess center modulo the period, and no stage moves an iterate by whole
periods.

Every accepted iterate keeps segment clearance >= delta_seg; trial points
that would violate it (or park a node inside the guard ball around q) are
rejected during backtracking, so the strong-force barrier is never crossed.

All value, clearance and gradient evaluations go through one
action.ActionKernel per stage.  Each loop keeps the accepted trial's
StencilPoint, so the next gradient and Hessian reuse the offsets from q
and the well terms computed when that trial was valued; the candidate's
certificate is read from the stage's kernel at its last accepted point.  solve_homoclinic
is one attempt, whose error propagates; run_attempt runs every attempt of
the search, turning any HomoclinicError into an error text so the search
moves on to its next item.

The module needs numpy alone: both linear solves are numpy kernels, no scipy.
Only _dense_solve and _inv_blocks (when d != 2) call numpy's own LAPACK.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field, replace
from functools import partial
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
    ActionOverflow,
    ConvergedToZero,
    HomoclinicError,
    InfeasibleGuess,
    MaxItersExceeded,
)
from .grids import Grid, GridFunction, from_values
from .potential import PotentialSpec

Array = np.ndarray

_STEP_CAP = 8.0  # longest step tried along the H1 direction
_ARMIJO_C1 = 1e-4  # sufficient-decrease constant of both Armijo loops
_BACKTRACK = 0.5  # step shrink factor per rejected trial
_MAX_BACKTRACKS = 60  # trials per plain Armijo step before the loop stalls
_MEMORY = 8  # (s, y) pairs of the quasi-Newton direction
_QN_TRIALS = 4  # trials of a quasi-Newton step before the plain step
_STALL_STEPS = 50  # a loop stops, not converged, once the action falls by
_STALL_RTOL = 1e-12  # at most this fraction of itself over that many steps
_ZERO_TOL = 1e-4  # sup norm below which an iterate has collapsed onto 0


# block-tridiagonal systems of at most this many nodes are solved densely
_DENSE_NODES = 32


def _inv_blocks(a: Array) -> Array:
    """Inverses of a stack of d x d blocks, 2 x 2 in closed form;
    LinAlgError on an exactly singular block."""
    if a.shape[-1] != 2:
        return np.linalg.inv(a)
    det = a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
    if not det.all():
        raise LinAlgError("singular block")
    inv = np.empty(a.shape)
    inv[:, 0, 0] = a[:, 1, 1] / det
    inv[:, 0, 1] = -a[:, 0, 1] / det
    inv[:, 1, 0] = -a[:, 1, 0] / det
    inv[:, 1, 1] = a[:, 0, 0] / det
    return inv


def _dense_solve(a: Array, u: Array, b: Array) -> Array:
    """The block-tridiagonal system of _reduce, assembled and solved densely."""
    n, d = a.shape[:2]
    full = np.zeros((n, d, n, d))
    i = np.arange(n)
    full[i, :, i, :] = a
    full[i[:-1], :, i[1:], :] = u
    full[i[1:], :, i[:-1], :] = np.swapaxes(u, 1, 2)
    return np.linalg.solve(full.reshape(n * d, n * d), b.reshape(n * d, -1)).reshape(b.shape)


def _reduce(a: Array, u: Array, b: Array) -> Array:
    """Symmetric block cyclic reduction, one level per call.

    Row i reads u_(i-1)' x_(i-1) + a_i x_i + u_i x_(i+1) = b_i, with a of
    shape (n, d, d), u of shape (n - 1, d, d) and b of shape (n, d, r).
    The odd nodes are eliminated, the even ones solved by the next level,
    and the odd ones recovered from them.
    """
    n = len(a)
    if n <= _DENSE_NODES:
        return _dense_solve(a, u, b)
    n_even, n_odd = (n + 1) // 2, n // 2
    inv = _inv_blocks(a[1::2])
    # odd node k couples to even node k by left[k]' and to even node k + 1 by right[k]
    left, right = u[0::2], u[1::2]
    left_t = np.swapaxes(left, 1, 2)
    p = left @ inv
    q = np.swapaxes(right, 1, 2) @ inv[: n_even - 1]
    a_even = a[0::2].copy()
    a_even[:n_odd] -= p @ left_t
    a_even[1:] -= q @ right
    b_odd = b[1::2]
    b_even = b[0::2].copy()
    b_even[:n_odd] -= p @ b_odd
    b_even[1:] -= q @ b_odd[: n_even - 1]
    x_even = _reduce(a_even, -(p[: n_even - 1] @ right), b_even)
    t = b_odd - left_t @ x_even[:n_odd]
    t[: n_even - 1] -= right @ x_even[1:]
    x = np.empty(b.shape)
    x[0::2] = x_even
    x[1::2] = inv @ t
    return x


def solve_banded(blocks: Array, coupling: float, b: Array) -> Array:
    """Solve the symmetric block-tridiagonal Newton system.

    blocks (n, d, d) are the diagonal blocks, every neighbour coupling is
    coupling * I, and b (n, d, r) holds r right-hand sides; the solution
    has b's shape.  Block cyclic reduction (Heller, SIAM J. Numer. Anal. 13
    (1976)) halves the system per level down to _DENSE_NODES nodes, which
    np.linalg.solve takes.  This first level is the one whose couplings
    are all multiples of I.  An exactly singular pivot block or reduced
    system raises LinAlgError, even where row pivoting would get past it.
    """
    n, d = blocks.shape[:2]
    c = coupling
    if n <= _DENSE_NODES:
        return _dense_solve(blocks, np.broadcast_to(c * np.eye(d), (n - 1, d, d)), b)
    n_even, n_odd = (n + 1) // 2, n // 2
    inv = _inv_blocks(blocks[1::2])
    w = inv @ b[1::2]
    a_even = blocks[0::2].copy()
    a_even[:n_odd] -= (c * c) * inv
    a_even[1:] -= (c * c) * inv[: n_even - 1]
    b_even = b[0::2].copy()
    b_even[:n_odd] -= c * w
    b_even[1:] -= c * w[: n_even - 1]
    x_even = _reduce(a_even, (-c * c) * inv[: n_even - 1], b_even)
    t = x_even[:n_odd].copy()
    t[: n_even - 1] += x_even[1:]
    x = np.empty(b.shape)
    x[0::2] = x_even
    x[1::2] = w - c * (inv @ t)
    return x


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
    """One node pinned to the ray {k q : k >= k_min}, k_min from the solver config."""

    node_index: int
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
    stop: str  # "converged", "stalled", "max_iters" or "line_search"


@dataclass
class HomoclinicCandidate:
    """One trajectory with its certificates.  history keeps
    "polish_grad_norm", the gradient norm after each accepted Newton step;
    e_stage summarizes the constrained stage of the attempt that found it,
    with "m" the node count per period the stage ran at and "node" the
    node it pinned to the ray, on that grid (None when the candidate was
    continued or polished outside an attempt)."""

    trajectory: GridFunction
    action: float
    grad_norm: float
    residual: ResidualReport
    clearance: float
    iterations: int
    alpha_gap: Optional[float] = None
    e_stage: Optional[dict] = None
    schedule_item: Optional[dict] = None
    history: dict = field(repr=False, compare=False, default_factory=dict)


# largest exponent lam * nodes of one chunk of the preconditioner's sums
_SPAN = 40.0


class H1Preconditioner:
    """Solve (K + M) v = g per component on the interior nodes, v = 0 at
    both ends.

    K is the forward-difference stiffness (1/h) tridiag(-1, 2, -1), M the
    trapezoid mass h I.  The system has constant coefficients, so its
    inverse is a separable Green's function: with cosh(lam) = 1 + h^2/2
    and f_k = 1 - e^(-2 k lam), column k of the inverse is proportional to
    e^(-|i-k| lam) f_min(i,k) f_(n-1-max(i,k)).  apply() is then
    two exponentially weighted cumulative sums, one from each end, with no
    factorization.  The sums restart every _SPAN / lam nodes and carry
    across, so their weights stay below e^_SPAN on any box.  g is (n,) or
    (n, d) and must be finite.
    """

    def __init__(self, grid: Grid):
        n = grid.n
        h = grid.h
        lam = 2.0 * math.asinh(0.5 * h)  # acosh(1 + h^2/2) without its cancellation
        k = np.arange(n)
        f = -np.expm1(-2.0 * lam * k)
        scale = h / (2.0 * math.sinh(lam) * -math.expm1(-2.0 * lam * (n - 1)))
        self._decay = math.exp(-lam)
        self._chunk = max(1, int(min(_SPAN / lam, n)))
        offset = lam * (k % self._chunk)
        self._grow = f * np.exp(offset)
        self._shrink = np.exp(-offset)
        # v_i = scale (f_i B_i + f'_i (F_i - f_i g_i)) with f'_i = f_(n-1-i), F and
        # B the sums from each end: shrink times the chunk-local sums of _sums
        self._back = scale * f * self._shrink[::-1]
        self._fore = scale * f[::-1] * self._shrink
        self._fg = scale * f * f[::-1]

    def _sums(self, v: Array) -> Array:
        """Chunk-local sums R along the last axis: e^(-(i-s) lam) R_i is the
        sum over k <= i of e^(-(i-k) lam) f_k v_k, s the start of i's chunk."""
        n = v.shape[-1]
        if self._chunk >= n:
            return np.cumsum(self._grow * v, axis=-1)
        out = np.empty(v.shape)
        carry = 0.0
        for s in range(0, n, self._chunk):
            c = slice(s, s + self._chunk)
            out[..., c] = np.cumsum(self._grow[c] * v[..., c], axis=-1) + self._decay * carry
            carry = self._shrink[c][-1] * out[..., c][..., -1:]
        return out

    def _solve(self, v: Array) -> Array:
        backward = self._sums(v[..., ::-1])[..., ::-1]
        return self._back * backward + self._fore * self._sums(v) - self._fg * v

    def column(self, j: int) -> Array:
        """Column j of the inverse, scaled to exactly 1 at node j."""
        c = self._solve(np.eye(1, len(self._fg), j)[0])
        return c / c[j]

    def apply(self, g: Array) -> Array:
        if not np.isfinite(g).all():
            raise ValueError("array must not contain infs or NaNs")
        return np.ascontiguousarray(self._solve(np.ascontiguousarray(g.T)).T)


def ray_direction(
    pre: H1Preconditioner,
    column: Array,
    j: int,
    g: Array,
    q_hat: Array,
    clamped: bool = False,
) -> Array:
    """H1 direction over E_h with node j held on the ray along q_hat.

    pre.apply(g) moves every node freely; subtracting outer(column, t),
    column = pre.column(j), holds part t of node j at 0.  t is the
    transverse part of node j's free solve, or all of it while k sits on
    its clamp and the gradient pushes it lower.  The solve acts per
    component, so this is the free solve of the q_hat part (pinned when
    clamped) plus the pinned solve of the transverse part.
    """
    x = pre.apply(g)
    t = x[j] if clamped else x[j] - (x[j] @ q_hat) * q_hat
    return x - np.outer(column, t)


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
            orientation * transverse * pot.q_norm
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
    step: float,
    trials: int,
    ray: Optional[tuple[int, float]] = None,
) -> Optional[tuple[StencilPoint, Optional[float], float]]:
    """One Armijo backtracking step from p along -direction.

    Trials start at step and shrink by _BACKTRACK, at most trials of them;
    the first feasible trial whose action drops by _ARMIJO_C1 <g, trial - p>
    is accepted (near the floating-point floor of the action, plain
    nonincrease is enough).  With ray = (j, k_min) every trial snaps node
    j onto the ray.  Returns (point, k, step), k None without a ray, or
    None when no trial is accepted.
    """
    for _ in range(trials):
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


class _Memory:
    """The (s, y) pairs of a limited-memory BFGS direction (Nocedal, Math.
    Comp. 35 (1980)), s an accepted step and y the change of the gradient
    across it.

    see() is called once per iterate; a pair with s.y <= 0 is skipped, and
    a change of state (the E-stage's clamp flag) drops every pair, because
    the pairs then span directions the new state's h0 holds fixed.
    """

    def __init__(self) -> None:
        self.pairs: deque = deque(maxlen=_MEMORY)
        self._last: Optional[tuple[Array, Array, bool]] = None

    def see(self, x: Array, g: Array, state: bool = False) -> None:
        if self._last is not None:
            x0, g0, state0 = self._last
            if state != state0:
                self.pairs.clear()
            else:
                s, y = x - x0, g - g0
                sy = float((s * y).sum())
                if sy > 0.0:
                    self.pairs.append((s, y, 1.0 / sy))
        self._last = (x, g, state)

    def direction(self, g: Array, h0) -> Array:
        """The two-loop recursion: the inverse-Hessian estimate times g,
        h0 its initial inverse, applied once."""
        r = g.copy()
        coef = []
        for s, y, rho in reversed(self.pairs):
            a = rho * float((s * r).sum())
            r -= a * y
            coef.append(a)
        r = h0(r)
        for (s, y, rho), a in zip(self.pairs, reversed(coef)):
            r += (a - rho * float((y * r).sum())) * s
        return r


def _descent_step(
    kernel: ActionKernel,
    p: StencilPoint,
    g: Array,
    memory: _Memory,
    h0,
    alpha: float,
    ray: Optional[tuple[int, float]] = None,
) -> Optional[tuple[StencilPoint, Optional[float], float]]:
    """One step of either Armijo loop from p, g its gradient.

    With pairs in memory the quasi-Newton direction is tried first, from
    unit step for _QN_TRIALS trials.  When none is accepted (near the
    clearance barrier it can point straight into it), the memory is
    dropped and the step is the plain H1 one, -h0(g), from
    min(2 alpha, _STEP_CAP) for _MAX_BACKTRACKS trials.  Returns (point, k,
    alpha), alpha the last plain step's length, or None when the plain
    step is not accepted either: the loop has stalled.
    """
    if memory.pairs:
        out = _armijo_step(kernel, p, g, memory.direction(g, h0), 1.0, _QN_TRIALS, ray)
        if out is not None:
            return out[0], out[1], alpha
        memory.pairs.clear()
    step = min(2.0 * alpha, _STEP_CAP)
    return _armijo_step(kernel, p, g, h0(g), step, _MAX_BACKTRACKS, ray)


def _stalled(values: deque) -> bool:
    """The action fell by at most _STALL_RTOL of itself over the last
    _STALL_STEPS accepted steps (values holds their actions)."""
    return len(values) > _STALL_STEPS and (
        values[0] - values[-1] <= _STALL_RTOL * abs(values[-1])
    )


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
    # orthonormal rows: first +-q/|q|, then a basis of its complement
    frame = np.linalg.svd((q / math.sqrt(float(q @ q)))[None, :])[2]
    # without a ray there are no constraint rows; node 1 only shapes the empty block
    j, k, k_min = ray if ray is not None else (1, None, None)

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
        rhs = np.zeros(g[1:-1].shape + (1 + len(rows),))
        rhs[:, :, 0] = g[1:-1]
        rhs[j - 1, :, 1:] = rows.T
        try:
            y = solve_banded(kernel.hessian_blocks(p), -1.0 / kernel.h, rhs)
            yj = rows @ y[j - 1]
            mu = np.linalg.solve(yj[:, 1:], -yj[:, 0])
        except LinAlgError:
            break
        dvals = y[:, :, 0] + y[:, :, 1:] @ mu
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
    ray coordinate k.  Projected Armijo descent follows the L-BFGS
    direction of _descent_step, whose initial inverse is ray_direction: one
    H1 solve per step whose transverse part at node j is removed by a
    rank-one correction, so node j only moves along the ray.  The secant
    pairs keep only the q_hat part of the gradient change at node j, and
    they are dropped whenever the clamp state flips, so the direction
    moves node j along the ray too, or not at all while clamped.  Each
    trial's k is clamped at cfg.k_min, so every iterate lies in E_h exactly.
    Once the projected gradient norm reaches _NEWTON_HANDOFF the stage
    finishes with _damped_newton along the ray (counted as newton_steps);
    if that stalls above grad_tol, Armijo resumes to grad_tol, the
    iteration cap or a stall of the action.  Returns the last iterate,
    with stop naming why the loop ended: "converged", "stalled" (the
    action stopped falling), "max_iters" or "line_search" (no trial
    accepted); the infimum estimate is the final value.  No per-step
    history is kept.
    """
    grid = u0.grid
    j = constraint.node_index
    if not (0 < j < grid.n - 1):
        raise ValueError("constrained node must be interior")
    q = pot.q
    q_hat = q / math.sqrt(float(q @ q))
    k_min = cfg.k_min

    vals = np.array(u0.values, copy=True)
    k = max(float(constraint.k), k_min)
    vals[j] = k * q
    kernel, p = _start(pot, grid, vals, "the constrained stage")

    pre = H1Preconditioner(grid)
    column = pre.column(j)
    alpha = 1.0
    memory = _Memory()
    values = deque(maxlen=_STALL_STEPS + 1)

    stop = "max_iters"
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
            stop = "converged"
            break

        clamped = _clamped(g, j, q, k, k_min)
        y_part = g.copy()  # node j moves along the ray only: its y is the q_hat part
        y_part[j] = (g[j] @ q_hat) * q_hat
        memory.see(p.values, y_part, clamped)
        h0 = partial(ray_direction, pre, column, j, q_hat=q_hat, clamped=clamped)
        step = _descent_step(kernel, p, g, memory, h0, alpha, (j, k_min))
        if step is None:
            stop = "line_search"  # no trial accepted: the floating-point floor
            break
        p, k, alpha = step
        values.append(p.value)
        if _stalled(values):
            stop = "stalled"
            break
    return EStageResult(
        trajectory=GridFunction(grid, p.values),
        k=float(k),
        value=float(p.value),
        grad_norm=float(pg_norm),
        iterations=iters,
        newton_steps=newton_steps,
        converged=stop == "converged",
        constraint_active=_at_clamp(k, k_min),
        stop=stop,
    )


def descend_to_critical(
    u0: GridFunction,
    pot: PotentialSpec,
    cfg: SolverConfig,
) -> HomoclinicCandidate:
    """Unconstrained monotone descent to a critical point.

    Armijo steps along the L-BFGS direction of _descent_step, whose
    initial inverse is the H1 solve.  Finishes with one free Newton polish
    when the descent stops above tolerance (at the cap, when the action
    has stalled or when no trial is accepted); raises ConvergedToZero when
    an iterate collapses below _ZERO_TOL in sup norm, and MaxItersExceeded,
    its message naming the descent's stop ("max_iters", "stalled" or
    "line_search"), when the polish does not reach tolerance either; the
    best iterate rides along on the exception.
    """
    grid = u0.grid
    kernel, p = _start(pot, grid, u0.values, "descent")
    pre = H1Preconditioner(grid)
    alpha = 1.0
    memory = _Memory()
    values = deque(maxlen=_STALL_STEPS + 1)

    history = {"polish_grad_norm": []}
    iters = 0
    gn = math.inf
    stop = "max_iters"

    while iters < cfg.max_iters:
        g = kernel.gradient(p)
        gn = grad_norm(grid, g)
        if gn <= cfg.grad_tol:
            stop = "converged"
            break
        memory.see(p.values, g)
        step = _descent_step(kernel, p, g, memory, pre.apply, alpha)
        if step is None:
            stop = "line_search"
            break
        p, _, alpha = step
        iters += 1
        _check_collapse(p)
        values.append(p.value)
        if _stalled(values):
            stop = "stalled"
            break

    if gn > cfg.grad_tol and cfg.polish_steps > 0:
        p, _, gn, history["polish_grad_norm"] = _damped_newton(kernel, grid, p, cfg)
        _check_collapse(p)
    return _wrap_candidate(
        kernel, grid, p, pot, cfg, iters, history, gn,
        "gradient norm %(gn).3e above tolerance %(tol).3e after %(iters)d iterations"
        " (descent stop: " + stop + ")",
    )


def polish_to_critical(
    u0: GridFunction,
    pot: PotentialSpec,
    cfg: SolverConfig,
) -> HomoclinicCandidate:
    """Converge to the nearest critical point by damped Newton alone.

    The one free Newton finish: the release, the continuation and the glue
    polish.  Unlike descend_to_critical this never follows the action
    downhill, so a glued multibump guess is not dragged down the unwinding
    canyon that monotone descent finds when bump tails interact.  Reports
    0 iterations, its Newton norms in history; raises ConvergedToZero on a
    collapse, MaxItersExceeded (best iterate attached) on a stall.
    """
    grid = u0.grid
    kernel, p = _start(pot, grid, u0.values, "polish")
    p, _, gn, norms = _damped_newton(kernel, grid, p, cfg)
    _check_collapse(p, "polish")
    history = {"polish_grad_norm": norms}
    return _wrap_candidate(kernel, grid, p, pot, cfg, 0, history, gn, _POLISH_STALL)


def _release(u0: GridFunction, pot: PotentialSpec, cfg: SolverConfig) -> HomoclinicCandidate:
    """Release the constraint: polish_to_critical, and only when that
    stalls, descend_to_critical from u0, the stalled norms put ahead of its
    own polish norms (on MaxItersExceeded, those of its best iterate)."""
    try:
        return polish_to_critical(u0, pot, cfg)
    except MaxItersExceeded as exc:
        polish = exc.best.history["polish_grad_norm"]
    try:
        cand = descend_to_critical(u0, pot, cfg)
    except MaxItersExceeded as exc:
        exc.best.history["polish_grad_norm"][:0] = polish
        raise
    cand.history["polish_grad_norm"][:0] = polish
    return cand


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
    point p, and the gradient norm is measured at p.  A gn that is not
    finite raises ActionOverflow: every step from p was rejected, so no
    iteration cap was reached.  Above grad_tol this raises
    MaxItersExceeded with the stage's stall message (formatted from gn, tol
    and iters) and the candidate as best; otherwise the candidate must
    have positive action and clearance.
    """
    if not math.isfinite(gn):
        raise ActionOverflow(
            "the action's gradient overflows at the last accepted iterate (after %d iterations)"
            % iters
        )
    cand = HomoclinicCandidate(
        trajectory=GridFunction(grid, p.values),
        action=float(p.value),
        grad_norm=float(grad_norm(grid, kernel.gradient(p))),
        residual=stencil_residual(kernel, grid, p),
        clearance=float(p.clearance),
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


# an attempt on a finer grid runs on this many nodes per period first
_COARSE_M = 40


def continue_to_grid(
    u: GridFunction, pot: PotentialSpec, grid: Grid, cfg: SolverConfig
) -> HomoclinicCandidate:
    """A solved orbit u continued onto grid, another resolution of its box.

    u is interpolated linearly, per component, onto grid's nodes and
    released there by polish_to_critical alone: the prolonged orbit is
    already near a critical point, so there is no descent to fall back
    on.  This is the one prolongation of nested iteration (Brandt, Math.
    Comp. 31 (1977)): single_loop_attempt above _COARSE_M nodes per period
    and refine's fine level both continue a coarser orbit.  The polish's
    HomoclinicError propagates; the candidate has no constrained stage and
    no schedule item.
    """
    vals = np.column_stack([np.interp(grid.times, u.grid.times, c) for c in u.values.T])
    return polish_to_critical(GridFunction(grid, vals), pot, cfg)


def single_loop_attempt(
    pot: PotentialSpec, grid: Grid, cfg: SolverConfig, item: dict
) -> HomoclinicCandidate:
    """One guess -> constrained stage -> release attempt for a schedule item.

    The constrained stage is minimize_over_E (Armijo along the L-BFGS
    direction with the pinned node held on the ray, then bordered Newton);
    the release is _release: polish_to_critical, with Armijo descent from
    the constrained minimizer as the fallback when the polish stalls.
    Missing guess parameters (k0, center, width, orientation) fall back to
    cfg.  The center is a crossing phase: a is periodic, so it is taken modulo
    grid.period, and an off-period center solves the translate that
    crosses in the central period.

    Above _COARSE_M nodes per period this is the attempt at _COARSE_M on
    the same box, carried to grid by continue_to_grid with that attempt's
    constrained-stage summary.  Only when that attempt raises a
    HomoclinicError does this one run at grid, with the error text under
    "coarse_error" in its summary.  The summary's "m" is the node count
    per period its stage ran at and "node" the node it pinned, indexed on
    that grid; the candidate carries the item as given.
    """
    coarse_error = None
    if grid.nodes_per_period > _COARSE_M:
        coarse_grid = replace(grid, nodes_per_period=_COARSE_M)
        coarse, coarse_error, _ = run_attempt(single_loop_attempt, pot, coarse_grid, cfg, item)
        if coarse is not None:
            cand = continue_to_grid(coarse.trajectory, pot, grid, cfg)
            cand.e_stage, cand.schedule_item = coarse.e_stage, coarse.schedule_item
            return cand
    center = float(item.get("center", cfg.bump_center)) % grid.period
    k0 = float(item.get("k0", cfg.k0))
    width = float(item.get("width", cfg.bump_width))
    sense = int(item.get("orientation", cfg.orientation))
    guess = initial_guess_bump(grid, pot, k0, center, width, orientation=sense, eps_k=cfg.eps_k)
    constraint = ConstraintE(node_index=snap_center(grid, center), k=k0)
    e_res = minimize_over_E(guess, constraint, pot, cfg)
    cand = _release(e_res.trajectory, pot, cfg)
    cand.e_stage = {k: v for k, v in vars(e_res).items() if k != "trajectory"}
    cand.e_stage["m"] = grid.nodes_per_period
    cand.e_stage["node"] = constraint.node_index
    if coarse_error is not None:
        cand.e_stage["coarse_error"] = coarse_error
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
    pot: PotentialSpec, grid: Grid, cfg: Optional[SolverConfig] = None
) -> HomoclinicCandidate:
    """Full pipeline: one guess from cfg, constrained stage, release.

    Does not check the hypotheses: a caller who wants the gate runs
    potential.run_hypotheses first, as the CLI does.  Runs exactly one
    single_loop_attempt, with the guess parameters of cfg as its schedule
    item; the attempt's HomoclinicError (InfeasibleGuess, ConvergedToZero,
    MaxItersExceeded, ...) propagates.  The returned candidate carries the
    constrained-stage summary (infimum estimate d_h, final k,
    constraint-activity flag) and alpha_gap, the proven action gap on the
    unit H1 sphere from action.sphere_action_bound.  To carry a solved
    orbit to another resolution, continue_to_grid releases it there
    instead of solving again.
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
