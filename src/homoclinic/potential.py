"""Time-periodic coefficients and singular wells, with a closed-form hypothesis gate.

The systems studied here have the form

    u'' + a(t) * grad W(u) = 0,   u(t) in R^d,

where a is positive and T-periodic and W is a well that vanishes
quadratically at the origin and diverges to -infinity at a single point q
(a strong-force singularity).  The one well family here is

    W(u) = -|u|^2 * |u - q|^(-alpha),   alpha in [2, 4],

which is negative away from {0, q}, has Hessian -2|q|^(-alpha) I at the
origin, and admits logarithmic / power witnesses for the strong-force
inequalities near q and at infinity.

Structural conditions are checked by the gate (check_A, check_H2,
check_H3, check_H4, check_W_negativity) rather than at construction time so
that a deliberately broken spec can still be built and then diagnosed.
For this family each row's margin has a closed form in alpha, |q|, a_base,
a_amp and the witness radii r and R0 = 4|q|, so the gate is exact over
its ranges and samples nothing.  Each check returns its margins as the
dict that report.json prints, and a violation carries the same dict.  The
table _HYPOTHESES lists the rows in gate order, each with the format of
its margin text.  run_hypotheses is its one runner and the one gate: the
`check` command prints its rows and the CLI runs it once before solve,
search and refine.  The solvers themselves do not check the hypotheses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import HypothesisViolation, SingularityProximity

Array = np.ndarray


@dataclass
class PotentialSpec:
    """The system u'' + a(t) grad W(u) = 0 on R^d, d = len(q).

    The coefficient is a(t) = a_base + a_amp cos(2 pi t / period) and the
    well is W(u) = -|u|^2 |u - q|^(-alpha), singular at q.
    """

    q: Array
    alpha: float
    a_base: float
    a_amp: float
    period: float

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)
        if self.dimension < 2:
            raise ValueError("dimension must be at least 2")
        if self.q_norm == 0.0:
            raise ValueError("q must be distinct from the origin")
        if not (2.0 <= self.alpha <= 4.0):
            raise ValueError("alpha must lie in [2, 4]")
        if self.period <= 0:
            raise ValueError("period must be positive")

    @property
    def dimension(self) -> int:
        return len(self.q)

    @property
    def q_norm(self) -> float:
        return float(np.linalg.norm(self.q))

    @property
    def eps_q(self) -> float:
        """Guard radius around q below which evaluations refuse to run."""
        return 1e-9 * self.q_norm

    @property
    def delta_seg(self) -> float:
        """Segment clearance floor used by the feasibility test."""
        return 1e-3 * self.q_norm


def eval_a(spec: PotentialSpec, t):
    """Evaluate a(t) for scalar or array t."""
    t = np.asarray(t, dtype=float)
    return spec.a_base + spec.a_amp * np.cos(2.0 * np.pi * t / spec.period)


def _guard(spec: PotentialSpec, u: Array) -> Array:
    """|u - q|, refusing points inside the guard ball around q."""
    s = np.sqrt(np.sum((u - spec.q) ** 2, axis=-1))
    if np.any(s < spec.eps_q):
        raise SingularityProximity("evaluation within %.3e of the singular point" % spec.eps_q)
    return s


def eval_W(spec: PotentialSpec, u):
    """Evaluate W at one point (d,) or a batch (..., d) of points."""
    u = np.asarray(u, dtype=float)
    s = _guard(spec, u)
    r2 = np.sum(u * u, axis=-1)
    return -r2 * s ** (-spec.alpha)


def eval_gradW(spec: PotentialSpec, u):
    """Evaluate grad W; same batching convention as eval_W."""
    u = np.asarray(u, dtype=float)
    s = _guard(spec, u)
    r2 = np.sum(u * u, axis=-1)
    sa = s ** (-spec.alpha)
    # W = -|u|^2 s^-alpha, so grad = -2u s^-alpha + alpha |u|^2 s^-(alpha+2) (u-q)
    return -2.0 * u * sa[..., None] + (
        spec.alpha * r2 * s ** (-spec.alpha - 2.0)
    )[..., None] * (u - spec.q)


def eval_hessW(spec: PotentialSpec, u):
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
    """Radii of the built-in witnesses for the barrier and the far field.

    Near q the witness is U = ln|u-q| at alpha = 2 and |u-q|^(1-alpha/2)
    above; check_H3 certifies it on 1e-4 r <= |u-q| <= r.  At infinity it
    is U_inf = |u|^((4-alpha)/2) / 2 below alpha = 4 and ln|u| / 2 at 4;
    check_H4 certifies it on R0 <= |u| <= 64 R0.
    """

    r: float
    R0: float


WITNESS_RADIUS = 0.1  # shell radius of the near-q witness; needs |q| > 0.2


def default_witness(spec: PotentialSpec) -> StrongForceWitness:
    """The witness radii of spec: r = WITNESS_RADIUS and R0 = 4|q|."""
    return StrongForceWitness(r=WITNESS_RADIUS, R0=4.0 * spec.q_norm)


def check_A(spec: PotentialSpec) -> dict:
    """a(t) ranges over a_base -+ |a_amp|; its minimum must be positive."""
    amp = abs(spec.a_amp)
    report = {"min_a": spec.a_base - amp, "max_a": spec.a_base + amp}
    if report["min_a"] <= 0.0:
        msg = "coefficient a(t) is not positive: min %.6g" % report["min_a"]
        raise HypothesisViolation(msg, report)
    return report


def check_H2(spec: PotentialSpec) -> dict:
    """The Hessian of W at the origin, -2|q|^(-alpha) I: d equal eigenvalues.

    They are negative for every well of the family.  Reports alpha0 =
    -eigen_min and alpha1 = -eigen_max (the quadratic pinching constants).
    """
    eig = -2.0 * spec.q_norm ** (-spec.alpha)
    return {"eigen_min": eig, "eigen_max": eig, "alpha0": -eig, "alpha1": -eig}


def check_H3(spec: PotentialSpec, witness: StrongForceWitness) -> dict:
    """Strong-force inequality W(u) <= -|grad U(u)|^2 on 1e-4 r <= |u - q| <= r.

    With s = |u - q|, |grad U|^2 = c^2 s^(-alpha), c = 1 at alpha = 2 and
    alpha/2 - 1 above.  On the sphere of radius s the margin
    s^(-alpha) (|u|^2 - c^2) is least at u = q - s q/|q|, which gives
    m(s) = s^(-alpha) ((|q| - s)^2 - c^2).  Its minimum over the range lies
    at an end or at a root of alpha ((|q| - s)^2 - c^2) + 2 s (|q| - s), a
    quadratic in s.  The radius must satisfy 0 < r < |q|/2 so the shells
    stay away from the origin.
    """
    r = witness.r
    qn = spec.q_norm
    if not (0.0 < r < qn / 2.0):
        raise ValueError("witness radius must satisfy 0 < r < |q|/2")
    alpha = spec.alpha
    c2 = 1.0 if alpha == 2.0 else (alpha / 2.0 - 1.0) ** 2
    roots = np.roots([alpha - 2.0, -2.0 * (alpha - 1.0) * qn, alpha * (qn * qn - c2)])
    # a complex or out-of-range root only adds a point of the range
    s = np.clip(np.concatenate(([1e-4 * r, r], roots.real)), 1e-4 * r, r)
    margin = float(np.min(s ** (-alpha) * ((qn - s) ** 2 - c2)))
    report = {"min_margin": margin, "radius": r}
    if margin < 0.0:
        msg = "strong-force barrier fails near q: min margin %.6g" % margin
        raise HypothesisViolation(msg, report)
    return report


def check_H4(spec: PotentialSpec, witness: StrongForceWitness) -> dict:
    """Far-field inequality W <= -|grad U_inf|^2 on R0 <= |u| <= 64 R0, and growth.

    With rho = |u|, |grad U_inf|^2 = k rho^(2-alpha), k = b^2/4 for
    U_inf = rho^b / 2, b = (4 - alpha)/2, and k = 1/4 for ln(rho) / 2.  On
    the sphere of radius rho, -W is least at u = -rho q/|q|, which gives
    m(rho) = rho^2 (rho + |q|)^(-alpha) - k rho^(2-alpha).  m increases at
    alpha = 2; above, it rises to one maximum and then decays, so either
    way its minimum lies at an end of the range.  The growth is the
    increment of U_inf from R0 to the next of 16 geometric shells out to
    64 R0, R0^b expm1(b ln c) / 2 with c = 64^(1/15) (ln(c) / 2 at 4),
    positive even as b -> 0: U_inf is radial and increasing, and its
    increments over those shells are smallest at the first.
    """
    R0 = witness.R0
    qn = spec.q_norm
    alpha = spec.alpha
    b = (4.0 - alpha) / 2.0
    k = 0.25 if alpha == 4.0 else b * b / 4.0
    rho = np.array([R0, 64.0 * R0])
    margin = float(np.min(rho * rho * (rho + qn) ** (-alpha) - k * rho ** (2.0 - alpha)))
    log_c = math.log(64.0) / 15.0  # ln of the ratio of consecutive shells
    growth = log_c / 2.0 if alpha == 4.0 else R0**b / 2.0 * math.expm1(b * log_c)
    report = {"min_margin": margin, "min_growth": growth, "R0": R0}
    if margin < 0.0:
        raise HypothesisViolation("far-field domination fails: min margin %.6g" % margin, report)
    if growth <= 0.0:
        msg = "far-field witness stops growing along some ray (min increment %.6g)" % growth
        raise HypothesisViolation(msg, report)
    return report


def check_W_negativity(spec: PotentialSpec) -> dict:
    """W(u) / |u|^2 = -|u - q|^(-alpha), negative for every u off {0, q}.

    Reports the ratio's maximum over 0 < |u| <= 4|q| (out to the far-field
    radius), -(5|q|)^(-alpha) at u = -4q.
    """
    radius = 4.0 * spec.q_norm
    return {"max_ratio": -((radius + spec.q_norm) ** (-spec.alpha)), "radius": radius}


# The hypothesis table in gate order: (name, description, check, margin).  A
# check takes the potential and its strong-force witness and returns its
# report, the dict of margins that report.json prints, or raises
# HypothesisViolation; margin is the format string that renders a passing
# report.  The lambdas look the checks up by name at call time, so wrappers
# installed on this module see every call.
_HYPOTHESES = (
    ("A", "a(t) > 0 and periodic", lambda pot, wit: check_A(pot),
     "a in [%(min_a).6g, %(max_a).6g]"),
    ("H2", "negative pinched Hessian at 0", lambda pot, wit: check_H2(pot),
     "eigenvalues in [%(eigen_min).6g, %(eigen_max).6g]"),
    ("H3", "strong-force barrier near q", lambda pot, wit: check_H3(pot, wit),
     "min margin %(min_margin).3e inside radius %(radius).3g"),
    ("H4", "far-field domination and growth", lambda pot, wit: check_H4(pot, wit),
     "min margin %(min_margin).3e, min growth %(min_growth).3e"),
    ("W<0", "W negative away from 0", lambda pot, wit: check_W_negativity(pot),
     "max W/|u|^2 %(max_ratio).3e on |u| <= %(radius).3g"),
)


def run_hypotheses(pot: PotentialSpec) -> list[tuple[str, str, Optional[dict], str]]:
    """Run every table row on pot, in gate order.

    Returns (name, description, report, detail) rows: a passing row has
    its report and margin text, a failing one report None and the
    violation message.  This is the whole gate: the solvers do not run it,
    so a library caller who wants it calls this first.
    """
    witness = default_witness(pot)
    rows = []
    for name, description, check, margin in _HYPOTHESES:
        try:
            report = check(pot, witness)
        except HypothesisViolation as exc:
            rows.append((name, description, None, str(exc)))
        else:
            rows.append((name, description, report, margin % report))
    return rows


# the most Hessian entries n d^2 a problem may have, n its node count and
# d its dimension: the Newton holds one d x d block per node, and a solve
# peaks at about 150 bytes per entry at d=2 and 90 at d=32 to 64, so at
# about 1.5 GB here, while the sizes a config can name reach past what
# numpy can allocate (the config checks n d^2; a grid has at least one
# node, so a larger d is refused here, before q is allocated)
MAX_HESSIAN_ENTRIES = 10**7


def example_potential(
    alpha: float = 2.0,
    dimension: int = 2,
    a_base: float = 2.0,
    a_amp: float = 1.0,
    period: float = 1.0,
    q=None,
) -> PotentialSpec:
    """The default example system used across tests and the CLI: q defaults
    to 2 e_1 in R^dimension, and a given q must have dimension entries."""
    if dimension < 2:
        raise ValueError("dimension must be at least 2")
    if dimension * dimension > MAX_HESSIAN_ENTRIES:
        raise ValueError("dimension must be at most %d" % math.isqrt(MAX_HESSIAN_ENTRIES))
    if q is None:
        q = np.zeros(dimension)
        q[0] = 2.0
    if np.shape(q) != (dimension,):
        raise ValueError("q must be a point in R^dimension")
    return PotentialSpec(q=q, alpha=alpha, a_base=a_base, a_amp=a_amp, period=period)
