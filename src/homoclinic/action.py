"""Discrete action functional, its gradient, and trajectory diagnostics.

The functional is

    I(u) = 1/2 int |u'|^2 - int a(t) W(u)

discretized with forward differences for u' and the trapezoid rule for the
potential term.  With that pairing the Euclidean gradient at an interior
node is the local stencil

    g_i = -(u_{i+1} - 2 u_i + u_{i-1}) / h - h a(t_i) grad W(u_i),

so a zero gradient is exactly a zero second-order finite-difference
residual of the equation of motion.  Boundary nodes are pinned and their
gradient rows are zeroed.

Feasibility is a segment test: the polyline through the nodes must keep
distance delta_seg = 1e-3 |q| from the singular point, so a trajectory
cannot tunnel through q between nodes.  Gradient norms are reported as
||g||_2 / sqrt(h), a mesh-independent proxy; GRAD_NORM_CONVENTION names it.

ActionKernel is the one implementation of this stencil.  It is built once
per (potential, grid) and evaluates a trajectory in a single pass over the
nodes: offsets from q, the guard test, the segment clearance, W and the
action value.  The resulting StencilPoint carries |u - q| and |u|^2, so
the gradient at an accepted point reuses them.  The solver, eval_action,
the residuals and the positivity probe all evaluate through it.
The action gap on the H1 sphere is the closed-form sphere_action_bound;
the sampled positivity_probe only cross-checks it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import SingularityProximity
from .grids import Grid, GridFunction, h1_norm, random_smooth_function, sup_norm
from .potential import PotentialSpec, eval_a

Array = np.ndarray

GRAD_NORM_CONVENTION = "l2_over_sqrt_h"


@dataclass
class ActionEval:
    value: float
    gradient: Array  # (n, d), boundary rows zero
    min_seg_dist: float
    feasible: bool


def _rowsum(x: Array) -> Array:
    """Sum over the coordinate axis, one column at a time.

    Below 8 columns numpy's axis-1 sum also accumulates the columns left to
    right, so this is bitwise the same at a fraction of the call overhead.
    """
    d = x.shape[1]
    if not 2 <= d < 8:
        return np.sum(x, axis=1)
    out = x[:, 0] + x[:, 1]
    for c in range(2, d):
        out += x[:, c]
    return out


def _polyline_clearance(dq: Array) -> float:
    """Min distance from the origin to the polyline through the rows of dq."""
    p0 = dq[:-1]
    seg = dq[1:] - p0
    denom = _rowsum(seg * seg)
    t = np.zeros(denom.shape)
    np.divide(-_rowsum(p0 * seg), denom, out=t, where=denom > 0.0)
    np.minimum(np.maximum(t, 0.0, out=t), 1.0, out=t)  # clip to the segment
    closest = p0 + t[:, None] * seg
    return math.sqrt(_rowsum(closest * closest).min())


def segment_clearance(values: Array, q: Array) -> float:
    """Min distance from q to the closed polyline through the node values."""
    return _polyline_clearance(values - q)


def singularity_clearance(u: GridFunction, pot: PotentialSpec) -> float:
    return segment_clearance(u.values, pot.q)


@dataclass
class StencilPoint:
    """Node state of one trajectory, shared by its value and its gradient."""

    values: Array
    dq: Array  # values - q
    s: Array  # |values - q| per node
    r2: Array  # |values|^2 per node
    sa: Array  # s ** -alpha per node
    clearance: float = math.nan
    value: float = math.nan


class ActionKernel:
    """The discrete action stencil on one (potential, grid) pair.

    trial() is the solver's feasibility-aware evaluation: a node within
    2 eps_q of q, a clearance below delta_seg or a value that overflows
    makes it return None.
    evaluate() raises SingularityProximity for a node inside the eps_q
    guard ball and otherwise reports the clearance without judging it.
    """

    def __init__(self, pot: PotentialSpec, grid: Grid):
        self.alpha = pot.alpha
        self.q = pot.q
        self.h = grid.h
        self.a = eval_a(pot, grid.times)
        self.eps_q = pot.eps_q
        self.delta_seg = pot.delta_seg

    def _nodes(self, values: Array, guard2: float) -> Optional[StencilPoint]:
        dq = values - self.q
        d2 = _rowsum(dq * dq)
        if d2.min() < guard2:
            return None
        s = np.sqrt(d2)
        return StencilPoint(values, dq, s, _rowsum(values * values), s ** (-self.alpha))

    def _value(self, p: StencilPoint) -> float:
        v = p.values
        aw = self.a * (-p.r2 * p.sa)
        potential = -self.h * (aw.sum() - 0.5 * (aw[0] + aw[-1]))
        diffs = v[1:] - v[:-1]
        kinetic = 0.5 * (diffs * diffs).sum() / self.h
        return float(kinetic + potential)

    def evaluate(self, values: Array) -> StencilPoint:
        """Value and clearance; raises SingularityProximity inside the guard ball."""
        p = self._nodes(values, self.eps_q * self.eps_q)
        if p is None:
            raise SingularityProximity(
                "a node is within the %.3e guard ball around q" % self.eps_q
            )
        p.clearance = _polyline_clearance(p.dq)
        p.value = self._value(p)
        return p

    def trial(self, values: Array) -> Optional[StencilPoint]:
        """Value and clearance of a solver trial, or None when it is infeasible."""
        p = self._nodes(values, (self.eps_q * self.eps_q) * 4.0)
        if p is None:
            return None
        p.clearance = _polyline_clearance(p.dq)
        if p.clearance < self.delta_seg:
            return None
        p.value = self._value(p)
        return p if math.isfinite(p.value) else None

    def grad_w(self, p: StencilPoint) -> Array:
        """grad W at every node, from the point's stored offsets."""
        alpha = self.alpha
        # W = -|u|^2 s^-alpha, so grad = -2u s^-alpha + alpha |u|^2 s^-(alpha+2) (u-q)
        return -2.0 * p.values * p.sa[:, None] + (
            alpha * p.r2 * p.s ** (-alpha - 2.0)
        )[:, None] * p.dq

    def gradient(self, p: StencilPoint) -> Array:
        """Euclidean action gradient, boundary rows zero."""
        v = p.values
        h = self.h
        g = np.zeros(v.shape)
        g[1:-1] = -(v[2:] - 2.0 * v[1:-1] + v[:-2]) / h - h * (
            self.a[1:-1, None] * self.grad_w(p)[1:-1]
        )
        return g

    def hessian_blocks(self, p: StencilPoint) -> Array:
        """Diagonal blocks (2/h) I - h a(t_i) Hess W(u_i) of the action
        Hessian on the interior nodes, from the point's stored offsets; every
        neighbour coupling is -(1/h) I."""
        alpha = self.alpha
        h = self.h
        u, v = p.values[1:-1], p.dq[1:-1]
        s2 = p.s[1:-1] ** 2
        r2 = p.r2[1:-1]
        sa2 = p.sa[1:-1] / s2
        ha = h * self.a[1:-1]
        # Hess W = (-2 s^-alpha + alpha |u|^2 s^-(alpha+2)) I
        #   + 2 alpha s^-(alpha+2) (u v' + v u') - alpha (alpha+2) |u|^2 s^-(alpha+4) v v'
        uv = u[:, :, None] * v[:, None, :]
        blocks = (-2.0 * alpha * ha * sa2)[:, None, None] * (uv + uv.transpose(0, 2, 1)) + (
            alpha * (alpha + 2.0) * ha * r2 * sa2 / s2
        )[:, None, None] * (v[:, :, None] * v[:, None, :])
        diag = np.arange(v.shape[1])
        blocks[:, diag, diag] += (2.0 / h - ha * (alpha * r2 * sa2 - 2.0 * p.sa[1:-1]))[:, None]
        return blocks


def eval_action(u: GridFunction, pot: PotentialSpec) -> ActionEval:
    """Action value, Euclidean gradient and feasibility in one pass."""
    kernel = ActionKernel(pot, u.grid)
    p = kernel.evaluate(u.values)
    return ActionEval(
        value=p.value,
        gradient=kernel.gradient(p),
        min_seg_dist=p.clearance,
        feasible=p.clearance >= pot.delta_seg,
    )


def grad_norm(grid: Grid, gradient: Array) -> float:
    """Mesh-scaled gradient norm ||g||_2 / sqrt(h)."""
    g = gradient.ravel(order="K")
    return math.sqrt(g.dot(g)) / math.sqrt(grid.h)


@dataclass
class FdCheckReport:
    max_rel_err: float
    n_directions: int
    step: float


def eval_gradient_fd_check(
    u: GridFunction,
    pot: PotentialSpec,
    step: Optional[float] = None,
    n_directions: int = 20,
    rng: Optional[np.random.Generator] = None,
) -> FdCheckReport:
    """Compare the analytic gradient with central differences of the value.

    Perturbs random interior coordinates one at a time.  Each error is
    taken relative to the larger of the two derivatives or the sampled
    gradient's euclidean norm: differencing the action value floors the
    absolute accuracy of every sampled derivative at roughly
    eps * |I(u)| / step, so a bare per-component quotient would report
    pure roundoff on entries far below the gradient's scale.  The same
    floor is kept at step * (1 + |I(u)|), which dominates both the
    roundoff and the O(step^2) truncation of the differences; without it
    a trajectory whose sampled gradient vanishes (the zero function, or a
    converged critical point) would divide method noise by itself.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if step is None:
        step = 1e-6 * (1.0 + sup_norm(u))
    ae = eval_action(u, pot)
    g = ae.gradient
    n = u.grid.n
    d = u.d
    fd_samples = np.empty(n_directions)
    an_samples = np.empty(n_directions)
    for j in range(n_directions):
        i = int(rng.integers(1, n - 1))
        a = int(rng.integers(0, d))
        vp = np.array(u.values, copy=True)
        vp[i, a] += step
        vm = np.array(u.values, copy=True)
        vm[i, a] -= step
        fp = eval_action(GridFunction(u.grid, vp), pot).value
        fm = eval_action(GridFunction(u.grid, vm), pot).value
        fd_samples[j] = (fp - fm) / (2.0 * step)
        an_samples[j] = g[i, a]
    scale = float(np.linalg.norm(an_samples))
    if scale == 0.0 and not np.any(fd_samples):
        return FdCheckReport(max_rel_err=0.0, n_directions=n_directions, step=step)
    noise = step * (1.0 + abs(ae.value))
    denom = np.maximum(np.abs(an_samples), np.abs(fd_samples))
    denom = np.maximum(denom, max(scale, noise))
    rel = float(np.max(np.abs(fd_samples - an_samples) / denom))
    return FdCheckReport(max_rel_err=rel, n_directions=n_directions, step=step)


@dataclass
class ResidualReport:
    sup_residual: float
    tail_sup_u: float
    tail_sup_du: float


def _tail_mask(grid: Grid) -> Array:
    return np.abs(grid.times) >= grid.half_length - grid.period


def ode_residual(u: GridFunction, pot: PotentialSpec) -> ResidualReport:
    """Second-order stencil residual of u'' + a(t) grad W(u) = 0.

    At a converged critical point of the discrete action this is the
    (rescaled) gradient, so it measures solver tolerance, not the
    discretization error; see truncation_residual for the latter.
    Tail metrics cover |t| >= L - period.
    """
    kernel = ActionKernel(pot, u.grid)
    return stencil_residual(kernel, u.grid, kernel.evaluate(u.values))


def stencil_residual(kernel: ActionKernel, grid: Grid, p: StencilPoint) -> ResidualReport:
    """ode_residual of a point the kernel has already evaluated on grid.

    Reads the point's stored offsets, so a solver stage certifies its
    accepted point without building a second kernel.
    """
    v = p.values
    h = kernel.h
    gw = kernel.grad_w(p)
    res = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (h * h) + kernel.a[1:-1, None] * gw[1:-1]
    sup_res = float(np.sqrt(np.max(_rowsum(res * res))))

    mask = _tail_mask(grid)
    tail_u = float(np.max(np.sqrt(p.r2)[mask]))
    dv = np.diff(v, axis=0) / h
    cell_mask = mask[:-1]  # cell labeled by its left node
    dn = np.sqrt(_rowsum(dv * dv))
    tail_du = float(np.max(dn[cell_mask]))
    return ResidualReport(sup_residual=sup_res, tail_sup_u=tail_u, tail_sup_du=tail_du)


def truncation_residual(u: GridFunction, pot: PotentialSpec) -> float:
    """Equation defect measured with a fourth-order second-difference stencil.

    Independent of the solver's own discretization: on a sequence of
    converged solutions it exposes the O(h^2) truncation error that the
    second-order stencil cannot see (refinement studies rely on this).
    Uses nodes at least two cells from the boundary.
    """
    kernel = ActionKernel(pot, u.grid)
    p = kernel.evaluate(u.values)
    v = p.values
    h = kernel.h
    d2 = (
        -v[4:] + 16.0 * v[3:-1] - 30.0 * v[2:-2] + 16.0 * v[1:-3] - v[:-4]
    ) / (12.0 * h * h)
    res = d2 + kernel.a[2:-2, None] * kernel.grad_w(p)[2:-2]
    return float(np.sqrt(np.max(_rowsum(res * res))))


@dataclass
class PositivityProbe:
    min_action: float
    radius: float
    n_samples: int


def positivity_probe(
    pot: PotentialSpec,
    grid: Grid,
    radius: float = 1.0,
    n_samples: int = 200,
    rng: Optional[np.random.Generator] = None,
) -> PositivityProbe:
    """Sampled minimum of the action on the H1 sphere of given radius.

    Random smooth feasible trajectories are rescaled to h1_norm == radius.
    A minimum over samples is an upper bound on the infimum over the
    sphere, so it certifies nothing; it is kept to cross-check
    sphere_action_bound, which must not exceed it.
    """
    if rng is None:
        rng = np.random.default_rng(3)
    kernel = ActionKernel(pot, grid)
    best = np.inf
    for _ in range(n_samples):
        u = random_smooth_function(grid, pot.dimension, rng)
        nrm = h1_norm(u)
        if nrm == 0.0:
            continue
        p = kernel.evaluate(u.values * (radius / nrm))
        if p.clearance < pot.delta_seg:
            continue
        best = min(best, p.value)
    return PositivityProbe(min_action=float(best), radius=radius, n_samples=n_samples)


def sphere_action_bound(pot: PotentialSpec) -> Optional[float]:
    """Proven lower bound min(1/2, a_min (|q| + 1/sqrt(2))^-alpha) on the unit H1 sphere.

    On a pinned grid |u_i|^2 <= ||u'|| ||u|| <= h1_norm(u)^2 / 2 exactly in
    the quadrature of grids.py, so -W(u_i) >= |u_i|^2 (|q| + 1/sqrt(2))^-alpha
    and a(t) >= a_min = a_base - |a_amp|.  A coefficient with a_min <= 0
    gets None.
    """
    a_min = pot.a_base - abs(pot.a_amp)
    if a_min <= 0.0:
        return None
    return min(0.5, a_min * (pot.q_norm + math.sqrt(0.5)) ** (-pot.alpha))
