"""Dense sampling oracle for the closed-form hypothesis gate.

homoclinic.potential computes each gate row's margin in closed form.  These
probes sample the same inequalities from eval_W and the witnesses'
gradients instead, over the same ranges, so a closed-form margin (an exact
minimum) must lie at or below the sampled one up to rounding, and the
verdicts must agree:

- coefficient_range: a(t) on 2048 points of one period;
- hessian_eigenvalues: central differences of W at the origin, step
  1e-5 |q|;
- barrier_margin: -W - |grad U|^2 on shells 1e-4 r <= |u - q| <= r;
- far_field: -W - |grad U_inf|^2 on shells R0 <= |u| <= 64 R0, and the
  least increment of |U_inf| between successive shells;
- negativity_ratio: W(u) / |u|^2 at points of the ball |u| <= 4|q|.

The sampled points are random directions from a fixed generator.
"""

import numpy as np

from homoclinic.potential import eval_a, eval_W

SHELLS = 32  # radii of the barrier and far-field probes
DIRECTIONS = 512  # directions per radius


def _unit_sphere(rng, n, d):
    v = rng.standard_normal((n, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def coefficient_range(spec, samples=2048):
    vals = eval_a(spec, np.linspace(0.0, spec.period, samples, endpoint=False))
    return float(vals.min()), float(vals.max())


def hessian_eigenvalues(well):
    """Eigenvalues of the difference-quotient Hessian of W at the origin."""
    d = well.dimension
    h = 1e-5 * well.q_norm
    eye = np.eye(d)
    hess = np.empty((d, d))
    for a in range(d):
        for b in range(a, d):
            if a == b:
                hess[a, a] = (
                    eval_W(well, h * eye[a]) - 2.0 * eval_W(well, np.zeros(d)) + eval_W(well, -h * eye[a])
                ) / (h * h)
            else:
                pp = eval_W(well, h * (eye[a] + eye[b]))
                pm = eval_W(well, h * (eye[a] - eye[b]))
                mp = eval_W(well, h * (-eye[a] + eye[b]))
                mm = eval_W(well, -h * (eye[a] + eye[b]))
                hess[a, b] = hess[b, a] = (pp - pm - mp + mm) / (4.0 * h * h)
    return np.linalg.eigvalsh(hess)


def _grad_u_near_sq(alpha, s):
    """|grad U|^2 of the witness U = ln s (alpha = 2) or s^(1 - alpha/2)."""
    if alpha == 2.0:
        return s ** -2.0
    beta = 1.0 - alpha / 2.0
    return (beta * s ** (beta - 1.0)) ** 2


def _u_far(alpha, rho):
    return 0.5 * np.log(rho) if alpha == 4.0 else 0.5 * rho ** ((4.0 - alpha) / 2.0)


def _grad_u_far_sq(alpha, rho):
    if alpha == 4.0:
        return (0.5 / rho) ** 2
    beta = (4.0 - alpha) / 2.0
    return (0.5 * beta * rho ** (beta - 1.0)) ** 2


def barrier_margin(well, r, seed=0):
    """Least sampled -W - |grad U|^2 over the shells 1e-4 r <= |u - q| <= r."""
    dirs = _unit_sphere(np.random.default_rng(seed), DIRECTIONS, well.dimension)
    s = np.geomspace(1e-4 * r, r, SHELLS)[:, None]
    w = eval_W(well, well.q + s[..., None] * dirs)
    return float((-w - _grad_u_near_sq(well.alpha, s)).min())


def far_field(well, R0, seed=1):
    """(least sampled margin, least increment of U_inf) over R0 <= |u| <= 64 R0."""
    dirs = _unit_sphere(np.random.default_rng(seed), DIRECTIONS, well.dimension)
    rho = np.geomspace(R0, 64.0 * R0, SHELLS)[:, None]
    margin = float((-eval_W(well, rho[..., None] * dirs) - _grad_u_far_sq(well.alpha, rho)).min())
    # the increments between the 16 shells of the old probe
    growth = float(np.diff(_u_far(well.alpha, np.geomspace(R0, 64.0 * R0, 16))).min())
    return margin, growth


def negativity_ratio(well, samples=4096, seed=2):
    """Largest sampled W(u) / |u|^2 over 0 < |u| <= 4|q|, the sphere included."""
    rng = np.random.default_rng(seed)
    radius = 4.0 * well.q_norm
    dirs = _unit_sphere(rng, samples, well.dimension)
    rad = radius * np.concatenate(([1.0], rng.uniform(1e-3, 1.0, samples - 1)))
    pts = rad[:, None] * dirs
    pts = pts[np.linalg.norm(pts - well.q, axis=1) > 1e-6 * well.q_norm]
    return float((eval_W(well, pts) / np.sum(pts * pts, axis=1)).max())
