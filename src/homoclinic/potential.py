"""Time-periodic coefficients and singular wells, with hypothesis probes.

The systems studied here have the form

    u'' + a(t) * grad W(u) = 0,   u(t) in R^d,

where a is positive and T-periodic and W is a well that vanishes
quadratically at the origin and diverges to -infinity at a single point q
(a strong-force singularity).  The one well family here is

    W(u) = -|u|^2 * |u - q|^(-alpha),   alpha in [2, 4],

which is negative away from {0, q}, has Hessian -2|q|^(-alpha) I at the
origin, and admits logarithmic / power witnesses for the strong-force
inequalities near q and at infinity.

Structural conditions are validated by sampling probes (check_A, check_H2,
check_H3, check_H4, check_W_negativity) rather than at construction time so
that a deliberately broken spec can still be built and then diagnosed.
Their sample counts, step and seeds are module constants.  The table
_HYPOTHESES lists the probes in gate order, each row with its own margin
text.  run_hypotheses is its one runner and the one gate: the `check`
command prints its rows and the CLI runs it once before solve, search and
refine.  The solvers themselves do not check the hypotheses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import HypothesisViolation, SingularityHit

Array = np.ndarray


@dataclass(frozen=True)
class CoefficientSpec:
    """Cosine coefficient a(t) = a_base + a_amp * cos(2 pi t / period)."""

    a_base: float = 2.0
    a_amp: float = 1.0
    period: float = 1.0

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError("period must be positive")


def eval_a(spec: CoefficientSpec, t):
    """Evaluate a(t) for scalar or array t."""
    t = np.asarray(t, dtype=float)
    return spec.a_base + spec.a_amp * np.cos(2.0 * np.pi * t / spec.period)


@dataclass
class SingularPotentialSpec:
    """The built-in well -|u|^2 |u - q|^(-alpha) on R^d, singular at q."""

    dimension: int = 2
    q: Array = field(default_factory=lambda: np.array([2.0, 0.0]))
    alpha: float = 2.0

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)
        if self.dimension < 2:
            raise ValueError("dimension must be at least 2")
        if self.q.shape != (self.dimension,):
            raise ValueError("q must be a point in R^dimension")
        if np.linalg.norm(self.q) == 0.0:
            raise ValueError("q must be distinct from the origin")
        if not (2.0 <= self.alpha <= 4.0):
            raise ValueError("alpha must lie in [2, 4]")

    @property
    def q_norm(self) -> float:
        return float(np.linalg.norm(self.q))

    @property
    def eps_q(self) -> float:
        """Guard radius around q below which evaluations refuse to run."""
        return 1e-9 * self.q_norm


def _dist_to_q(spec: SingularPotentialSpec, u: Array) -> Array:
    return np.sqrt(np.sum((u - spec.q) ** 2, axis=-1))


def _guard(spec: SingularPotentialSpec, u: Array) -> Array:
    s = _dist_to_q(spec, u)
    if np.any(s < spec.eps_q):
        raise SingularityHit(
            "evaluation within %.3e of the singular point" % spec.eps_q
        )
    return s


def eval_W(spec: SingularPotentialSpec, u):
    """Evaluate W at one point (d,) or a batch (..., d) of points."""
    u = np.asarray(u, dtype=float)
    s = _guard(spec, u)
    r2 = np.sum(u * u, axis=-1)
    return -r2 * s ** (-spec.alpha)


def eval_gradW(spec: SingularPotentialSpec, u):
    """Evaluate grad W; same batching convention as eval_W."""
    u = np.asarray(u, dtype=float)
    s = _guard(spec, u)
    r2 = np.sum(u * u, axis=-1)
    sa = s ** (-spec.alpha)
    # W = -|u|^2 s^-alpha, so grad = -2u s^-alpha + alpha |u|^2 s^-(alpha+2) (u-q)
    return -2.0 * u * sa[..., None] + (
        spec.alpha * r2 * s ** (-spec.alpha - 2.0)
    )[..., None] * (u - spec.q)


def eval_hessW(spec: SingularPotentialSpec, u):
    """Evaluate the Hessian of W, batched like eval_W with shape (..., d, d)."""
    u = np.asarray(u, dtype=float)
    s = _guard(spec, u)
    alpha = spec.alpha
    v = u - spec.q
    r2 = np.sum(u * u, axis=-1)
    sa = s ** (-alpha)
    sa2 = s ** (-alpha - 2.0)
    sa4 = s ** (-alpha - 4.0)
    eye = np.eye(u.shape[-1])
    uv = u[..., :, None] * v[..., None, :]
    hess = (
        (-2.0 * sa + alpha * r2 * sa2)[..., None, None] * eye
        + (2.0 * alpha * sa2)[..., None, None] * (uv + np.swapaxes(uv, -1, -2))
        - (alpha * (alpha + 2.0) * r2 * sa4)[..., None, None]
        * (v[..., :, None] * v[..., None, :])
    )
    return hess


@dataclass
class StrongForceWitness:
    """Witness functions for the singular barrier and the decay at infinity.

    U blows up at q and dominates W near q, U_inf grows without bound and
    dominates W outside |u| >= R0.  check_H3 and check_H4 test the bounds
    through the closed-form gradients grad_U and grad_U_inf.
    """

    r: float
    U_inf: Callable
    R0: float
    grad_U: Callable
    grad_U_inf: Callable


WITNESS_RADIUS = 0.1  # shell radius of the near-q witness; needs |q| > 0.2


def default_witness(spec: SingularPotentialSpec) -> StrongForceWitness:
    """Closed-form witnesses for the example family.

    Near q:   U = ln|u-q|            for alpha = 2,
              U = |u-q|^(1-alpha/2)  for alpha > 2.
    At infinity: U_inf = c |u|^((4-alpha)/2) for alpha < 4, c ln|u| at 4.
    """
    q = spec.q
    alpha = spec.alpha

    def grad_u_near(x):
        d = x - q
        s = np.sqrt(np.sum(d * d, axis=-1))
        if alpha == 2.0:
            return d / (s * s)[..., None]
        beta = 1.0 - alpha / 2.0
        return beta * (s ** (beta - 2.0))[..., None] * d

    c_inf = 0.5

    def u_far(x):
        r = np.sqrt(np.sum(np.asarray(x, dtype=float) ** 2, axis=-1))
        if alpha == 4.0:
            return c_inf * np.log(r)
        return c_inf * r ** ((4.0 - alpha) / 2.0)

    def grad_u_far(x):
        x = np.asarray(x, dtype=float)
        r = np.sqrt(np.sum(x * x, axis=-1))
        if alpha == 4.0:
            return c_inf * x / (r * r)[..., None]
        beta = (4.0 - alpha) / 2.0
        return c_inf * beta * (r ** (beta - 2.0))[..., None] * x

    return StrongForceWitness(
        r=WITNESS_RADIUS,
        U_inf=u_far,
        R0=4.0 * spec.q_norm,
        grad_U=grad_u_near,
        grad_U_inf=grad_u_far,
    )


@dataclass(frozen=True)
class CoefficientReport:
    min_a: float
    max_a: float
    n_samples: int


_A_SAMPLES = 2048  # coefficient samples per period
_H2_FD_STEP = 1e-3  # finite-difference step of the Hessian at the origin
_SHELLS, _PER_SHELL = 16, 16  # radii and directions per radius of the H3 and H4 probes
_W_SAMPLES = 512  # box samples of the negativity probe


def check_A(spec: CoefficientSpec) -> CoefficientReport:
    """Sample a(t) over one period and verify strict positivity."""
    t = np.linspace(0.0, spec.period, _A_SAMPLES, endpoint=False)
    vals = eval_a(spec, t)
    report = CoefficientReport(float(vals.min()), float(vals.max()), _A_SAMPLES)
    if report.min_a <= 0.0:
        raise HypothesisViolation(
            "coefficient a(t) is not positive: sampled min %.6g" % report.min_a
        )
    return report


@dataclass(frozen=True)
class PinchingReport:
    eigen_min: float
    eigen_max: float
    alpha0: float
    alpha1: float
    fd_step: float


def check_H2(spec: SingularPotentialSpec) -> PinchingReport:
    """Finite-difference Hessian of W at the origin; all eigenvalues must be < 0.

    The Hessian is finite-differenced although eval_hessW gives it in
    closed form, because the `check` table prints these eigenvalues and
    the difference quotients keep its bytes.
    Reports alpha0 = -eigen_min and alpha1 = -eigen_max (the quadratic
    pinching constants).
    """
    d = spec.dimension
    h = _H2_FD_STEP
    hess = np.empty((d, d))
    eye = np.eye(d)
    for a in range(d):
        for b in range(a, d):
            if a == b:
                wp = eval_W(spec, h * eye[a])
                wm = eval_W(spec, -h * eye[a])
                w0 = eval_W(spec, np.zeros(d))
                hess[a, a] = (wp - 2.0 * w0 + wm) / (h * h)
            else:
                pp = eval_W(spec, h * (eye[a] + eye[b]))
                pm = eval_W(spec, h * (eye[a] - eye[b]))
                mp = eval_W(spec, h * (-eye[a] + eye[b]))
                mm = eval_W(spec, -h * (eye[a] + eye[b]))
                hess[a, b] = hess[b, a] = (pp - pm - mp + mm) / (4.0 * h * h)
    eigs = np.linalg.eigvalsh(hess)
    report = PinchingReport(
        eigen_min=float(eigs[0]),
        eigen_max=float(eigs[-1]),
        alpha0=-float(eigs[0]),
        alpha1=-float(eigs[-1]),
        fd_step=h,
    )
    if eigs[-1] >= 0.0:
        raise HypothesisViolation(
            "Hessian of W at 0 has a nonnegative eigenvalue %.6g" % eigs[-1]
        )
    return report


def _unit_sphere(rng: np.random.Generator, n: int, d: int) -> Array:
    v = rng.standard_normal((n, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


@dataclass(frozen=True)
class BarrierReport:
    min_margin: float
    n_samples: int
    radius: float


def check_H3(spec: SingularPotentialSpec, witness: StrongForceWitness) -> BarrierReport:
    """Sampled strong-force inequality W(u) <= -|grad U(u)|^2 near q.

    Samples shells 0 < |u - q| <= r.  The shell radius must satisfy
    0 < r < |q|/2 so the shells stay away from the origin.
    """
    r = witness.r
    if not (0.0 < r < spec.q_norm / 2.0):
        raise ValueError("witness radius must satisfy 0 < r < |q|/2")
    rng = np.random.default_rng(0)
    margin = np.inf
    for rho in np.geomspace(1e-4 * r, r, _SHELLS):
        dirs = _unit_sphere(rng, _PER_SHELL, spec.dimension)
        pts = spec.q + rho * dirs
        w = eval_W(spec, pts)
        gu = witness.grad_U(pts)
        m = -w - np.sum(gu * gu, axis=-1)
        margin = min(margin, float(m.min()))
    report = BarrierReport(min_margin=margin, n_samples=_SHELLS * _PER_SHELL, radius=r)
    if margin < 0.0:
        raise HypothesisViolation(
            "strong-force barrier fails near q: min margin %.6g" % margin
        )
    return report


@dataclass(frozen=True)
class FarFieldReport:
    min_margin: float
    min_growth: float
    n_samples: int
    R0: float


def check_H4(spec: SingularPotentialSpec, witness: StrongForceWitness) -> FarFieldReport:
    """Sampled far-field inequality W <= -|grad U_inf|^2 plus a growth probe.

    The growth probe walks rays outward from |u| = R0 and requires |U_inf|
    to increase without leveling off (sampled surrogate for |U_inf| -> inf).
    """
    rng = np.random.default_rng(1)
    R0 = witness.R0
    margin = np.inf
    growth = np.inf
    dirs = _unit_sphere(rng, _PER_SHELL, spec.dimension)
    prev_abs = None
    for rho in np.geomspace(R0, 64.0 * R0, _SHELLS):
        pts = rho * dirs
        w = eval_W(spec, pts)
        gu = witness.grad_U_inf(pts)
        m = -w - np.sum(gu * gu, axis=-1)
        margin = min(margin, float(m.min()))
        cur_abs = np.abs(np.asarray(witness.U_inf(pts), dtype=float))
        if prev_abs is not None:
            growth = min(growth, float((cur_abs - prev_abs).min()))
        prev_abs = cur_abs
    report = FarFieldReport(
        min_margin=margin,
        min_growth=growth,
        n_samples=_SHELLS * _PER_SHELL,
        R0=R0,
    )
    if margin < 0.0:
        raise HypothesisViolation(
            "far-field domination fails: min margin %.6g" % margin
        )
    if growth <= 0.0:
        raise HypothesisViolation(
            "far-field witness stops growing along some ray (min increment %.6g)"
            % growth
        )
    return report


@dataclass(frozen=True)
class NegativityReport:
    max_w: float
    n_samples: int


def check_W_negativity(spec: SingularPotentialSpec) -> NegativityReport:
    """Sample W away from {0, q} and verify strict negativity."""
    rng = np.random.default_rng(2)
    pts = rng.uniform(-4.0 * spec.q_norm, 4.0 * spec.q_norm, (_W_SAMPLES, spec.dimension))
    keep = (np.linalg.norm(pts, axis=1) > 1e-6) & (
        _dist_to_q(spec, pts) > 10.0 * spec.eps_q
    )
    pts = pts[keep]
    vals = eval_W(spec, pts)
    report = NegativityReport(max_w=float(vals.max()), n_samples=int(len(pts)))
    if report.max_w >= 0.0:
        raise HypothesisViolation(
            "W is not negative away from 0 and q: sampled max %.6g" % report.max_w
        )
    return report


@dataclass
class PotentialSpec:
    """Bundle of coefficient and well defining V(t, u) = a(t) W(u)."""

    coeff: CoefficientSpec
    well: SingularPotentialSpec

    @property
    def q(self) -> Array:
        return self.well.q

    @property
    def dimension(self) -> int:
        return self.well.dimension

    @property
    def period(self) -> float:
        return self.coeff.period

    @property
    def eps_q(self) -> float:
        return self.well.eps_q

    @property
    def delta_seg(self) -> float:
        """Segment clearance floor used by the feasibility test."""
        return 1e-3 * self.well.q_norm


# The hypothesis table in gate order: (name, description, check, margin).  A
# check takes the potential and its strong-force witness and returns a report
# or raises HypothesisViolation; margin renders a passing report.  The
# lambdas look the checks up by name at call time, so wrappers installed on
# this module see every call.
_HYPOTHESES = (
    ("A", "a(t) > 0 and periodic", lambda pot, wit: check_A(pot.coeff),
     lambda r: "a in [%.6g, %.6g]" % (r.min_a, r.max_a)),
    ("H2", "negative pinched Hessian at 0", lambda pot, wit: check_H2(pot.well),
     lambda r: "eigenvalues in [%.6g, %.6g]" % (r.eigen_min, r.eigen_max)),
    ("H3", "strong-force barrier near q", lambda pot, wit: check_H3(pot.well, wit),
     lambda r: "min margin %.3e inside radius %.3g" % (r.min_margin, r.radius)),
    ("H4", "far-field domination and growth", lambda pot, wit: check_H4(pot.well, wit),
     lambda r: "min margin %.3e, min growth %.3e" % (r.min_margin, r.min_growth)),
    ("W<0", "W negative away from 0", lambda pot, wit: check_W_negativity(pot.well),
     lambda r: "max W %.3e" % r.max_w),
)


def run_hypotheses(pot: PotentialSpec) -> list[tuple[str, str, Optional[object], str]]:
    """Run every table row on pot, in gate order.

    Returns (name, description, report, detail) rows: a passing row has
    its report and margin text, a failing one report None and the
    violation message.  This is the whole gate: the solvers do not run it,
    so a library caller who wants it calls this first.
    """
    witness = default_witness(pot.well)
    rows = []
    for name, description, check, margin in _HYPOTHESES:
        try:
            report = check(pot, witness)
        except HypothesisViolation as exc:
            rows.append((name, description, None, str(exc)))
        else:
            rows.append((name, description, report, margin(report)))
    return rows


def example_potential(
    alpha: float = 2.0,
    dimension: int = 2,
    a_base: float = 2.0,
    a_amp: float = 1.0,
    period: float = 1.0,
    q=None,
) -> PotentialSpec:
    """The default example system used across tests and the CLI."""
    if q is None:
        q = np.zeros(dimension)
        q[0] = 2.0
    well = SingularPotentialSpec(dimension=dimension, q=np.asarray(q, dtype=float), alpha=alpha)
    coeff = CoefficientSpec(a_base=a_base, a_amp=a_amp, period=period)
    return PotentialSpec(coeff=coeff, well=well)
