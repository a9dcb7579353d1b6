"""Uniform period-aligned grids and discrete trajectory space.

Trajectories live on [-L, L] with L = M * period, sampled at n = 2*M*m + 1
nodes with spacing h = period / m, so t = 0 is a node and shifting by m
nodes is exactly a one-period time shift.  Functions are pinned to zero at
both endpoints (the discrete stand-in for decay at infinity).

Norm conventions, fixed once here and used everywhere:
  - derivative: forward difference, piecewise constant per cell,
  - L2: trapezoid rule,
  - H1: sqrt(kinetic^2 + L2^2).
With these quadratures the unit-window bound
  |u(s)| <= sqrt(int_A |u|^2) + sqrt(int_A |u'|^2),  A = [s, s+1] or [s-1, s],
holds exactly (Cauchy-Schwarz in the same discrete inner products), which
sobolev_bound_check verifies per window.

The quadrature and the whole-period shift rule (move by k*m slots, zero
fill, re-pin the ends) are written once, as raw-array helpers.  The norms,
shift_periods, the window sums and the shift-gap kernel shift_gaps all go
through them; shift_gaps returns ||u - shift_periods(v, k)||_H1 for every
admissible k without building per-shift GridFunctions, bitwise equal to
composing the public functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import (
    ShiftOutOfRange,
    TrajectoryFormatError,
    WindowOutOfDomain,
    ZeroFunction,
)

Array = np.ndarray


@dataclass(frozen=True)
class Grid:
    """Uniform symmetric grid, aligned to the coefficient period."""

    period: float = 1.0
    nodes_per_period: int = 40
    half_periods: int = 8

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError("period must be positive")
        if self.nodes_per_period < 8:
            raise ValueError("need at least 8 nodes per period")
        if self.half_periods < 2:
            raise ValueError("need at least 2 periods on each side of 0")

    @property
    def h(self) -> float:
        return self.period / self.nodes_per_period

    @property
    def half_length(self) -> float:
        return self.half_periods * self.period

    @property
    def n(self) -> int:
        return 2 * self.half_periods * self.nodes_per_period + 1

    @property
    def center_index(self) -> int:
        return self.half_periods * self.nodes_per_period

    @cached_property
    def times(self) -> Array:
        # (i - center) * h keeps the grid exactly symmetric in floats
        idx = np.arange(self.n) - self.center_index
        t = idx * self.h
        t.flags.writeable = False
        return t

    def index_of_time(self, s: float) -> int:
        """Nearest node index to s; s must sit on a node up to 1e-9 * h."""
        i = int(round((s / self.h) + self.center_index))
        if i < 0 or i >= self.n:
            raise WindowOutOfDomain("time %.6g is outside the grid" % s)
        if abs(self.times[i] - s) > 1e-9 * max(1.0, abs(s)):
            raise ValueError("time %.6g is not a grid node" % s)
        return i


@dataclass(frozen=True)
class GridFunction:
    """Node values of a trajectory, zero at both boundary nodes.

    Treated as immutable: every operation returns a new instance.
    """

    grid: Grid
    values: Array

    def __post_init__(self):
        v = np.array(self.values, dtype=float, copy=True)
        if v.ndim != 2 or v.shape[0] != self.grid.n:
            raise ValueError("values must have shape (grid.n, d)")
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")
        if np.any(v[0] != 0.0) or np.any(v[-1] != 0.0):
            raise ValueError("boundary nodes must be exactly zero")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def d(self) -> int:
        return self.values.shape[1]

    def node_norms(self) -> Array:
        return np.sqrt(np.sum(self.values * self.values, axis=1))


def zero_function(grid: Grid, d: int) -> GridFunction:
    return GridFunction(grid, np.zeros((grid.n, d)))


def from_values(grid: Grid, values) -> GridFunction:
    """Build a GridFunction, clamping the boundary nodes to zero."""
    v = np.array(values, dtype=float, copy=True)
    v[0] = 0.0
    v[-1] = 0.0
    return GridFunction(grid, v)


def _kinetic_sq(values: Array, h: float):
    diffs = np.diff(values, axis=0) / h
    return h * np.sum(diffs * diffs)


def _l2_sq(values: Array, h: float):
    sq = np.sum(values * values, axis=1)
    return h * (np.sum(sq) - 0.5 * (sq[0] + sq[-1]))


def kinetic_seminorm_sq(u: GridFunction) -> float:
    return float(_kinetic_sq(u.values, u.grid.h))


def l2_norm_sq(u: GridFunction) -> float:
    return float(_l2_sq(u.values, u.grid.h))


def l2_norm(u: GridFunction) -> float:
    return float(np.sqrt(l2_norm_sq(u)))


def h1_norm(u: GridFunction) -> float:
    return float(np.sqrt(kinetic_seminorm_sq(u) + l2_norm_sq(u)))


def sup_norm(u: GridFunction) -> float:
    return float(np.sqrt(np.max(np.sum(u.values * u.values, axis=1))))


def _shifted(values: Array, s: int) -> Array:
    """Node values moved by s slots, vacated slots zero, boundary re-pinned."""
    n = len(values)
    out = np.zeros_like(values)
    if s >= 0:
        out[s:] = values[: n - s]
    else:
        out[: n + s] = values[-s:]
    out[0] = 0.0
    out[-1] = 0.0
    return out


def shift_periods(u: GridFunction, k: int) -> GridFunction:
    """Time shift by k whole periods: (shifted u)(t) = u(t - k * period).

    Node values move by k*m slots; vacated slots are zero-filled and the
    boundary pins are re-imposed.
    """
    k = int(k)
    if abs(k) * u.grid.nodes_per_period >= u.grid.n:
        raise ShiftOutOfRange("shift by %d periods exceeds the grid" % k)
    return GridFunction(u.grid, _shifted(u.values, k * u.grid.nodes_per_period))


def _admissible_shifts(grid: Grid) -> range:
    k_max = (grid.n - 1) // grid.nodes_per_period
    return range(-k_max, k_max + 1)


def shift_gaps(u: GridFunction, v: GridFunction) -> Array:
    """||u - shift_periods(v, k)||_H1 for every admissible whole-period shift k.

    Entry j belongs to the j-th shift of _admissible_shifts(u.grid), i.e.
    k = j - k_max.  Works on the raw node arrays with the same shift rule
    and quadrature as shift_periods and h1_norm, so every entry is bitwise
    the value those two would give, without building per-shift objects.
    """
    h = u.grid.h
    m = u.grid.nodes_per_period
    shifts = _admissible_shifts(u.grid)
    gaps = np.empty(len(shifts))
    for j, k in enumerate(shifts):
        diff = u.values - _shifted(v.values, k * m)
        gaps[j] = np.sqrt(_kinetic_sq(diff, h) + _l2_sq(diff, h))
    return gaps


def renormalize_translation(u: GridFunction) -> tuple[GridFunction, int]:
    """Shift by whole periods so the first sup-attaining node lands in [0, T).

    Returns (shifted function, l) with shifted = shift_periods(u, -l).
    Ties in the node norms resolve to the earliest node.
    """
    norms = u.node_norms()
    i_star = int(np.argmax(norms))
    if norms[i_star] == 0.0:
        raise ZeroFunction("cannot renormalize the zero function")
    m = u.grid.nodes_per_period
    # integer floor division gives the exact period cell of the peak
    l = (i_star - u.grid.center_index) // m
    return shift_periods(u, -l), int(l)


@dataclass(frozen=True)
class WindowBoundReport:
    s: float
    lhs: float
    rhs: float
    passed: bool


_WINDOW_TOL = 1e-8  # slack of the window bound for rounding


def sobolev_bound_check(u: GridFunction, s: float) -> WindowBoundReport:
    """Check |u(s)| <= sqrt(window L2^2) + sqrt(window kinetic^2) + _WINDOW_TOL.

    The unit window is [s, s+1] for s >= 0 and [s-1, s] for s < 0, snapped
    to whole cells; s itself must be a node.
    """
    grid = u.grid
    i = grid.index_of_time(s)
    k_cells = int(round(1.0 / grid.h))
    if k_cells < 1:
        raise WindowOutOfDomain("grid spacing exceeds the unit window")
    if s >= 0:
        lo, hi = i, i + k_cells
    else:
        lo, hi = i - k_cells, i
    if lo < 0 or hi >= grid.n:
        raise WindowOutOfDomain(
            "unit window at s=%.6g does not fit inside the grid" % s
        )
    window = u.values[lo : hi + 1]
    l2w = _l2_sq(window, grid.h)
    kinw = _kinetic_sq(window, grid.h)
    lhs = float(np.linalg.norm(u.values[i]))
    rhs = float(np.sqrt(l2w) + np.sqrt(kinw))
    return WindowBoundReport(s=s, lhs=lhs, rhs=rhs, passed=lhs <= rhs + _WINDOW_TOL)


_SMOOTH_MODES = 8  # sine modes of a random smooth function


def random_smooth_function(grid: Grid, d: int, rng: np.random.Generator) -> GridFunction:
    """Random smooth zero-boundary trajectory from a low sine series.

    Coefficients fall off like 1/j^2, so samples are H1-regular; callers
    rescale to whatever norm they need.
    """
    t = grid.times
    L = grid.half_length
    j = np.arange(1, _SMOOTH_MODES + 1)
    basis = np.sin(np.outer(j, (t + L) * (np.pi / (2.0 * L))))  # (modes, n)
    coef = rng.standard_normal((_SMOOTH_MODES, d)) / (j * j)[:, None]
    vals = basis.T @ coef
    vals[0] = 0.0
    vals[-1] = 0.0
    return GridFunction(grid, vals)


CSV_FLOAT_FORMAT = "%.17g"


def write_trajectory_csv(path, u: GridFunction) -> None:
    """Write one row per node with header t,u1,...,ud at full precision, CRLF line ends."""
    header = ",".join(["t"] + ["u%d" % (a + 1) for a in range(u.d)])
    data = np.column_stack([u.grid.times, u.values])
    with open(path, "w", newline="") as f:
        np.savetxt(
            f, data, fmt=CSV_FLOAT_FORMAT, delimiter=",", newline="\r\n", header=header, comments=""
        )


def read_trajectory_csv(path, grid: Grid) -> GridFunction:
    """Read a trajectory written by write_trajectory_csv onto a known grid.

    Validates header shape, row count and node times; boundary rows must
    be zero.
    """
    with open(path) as f:
        header = f.readline()
        body = f.readlines()
    if not header:
        raise TrajectoryFormatError("empty trajectory file")
    header = header.rstrip("\n").split(",")
    d = len(header) - 1
    if d < 1 or header != ["t"] + ["u%d" % (a + 1) for a in range(d)]:
        raise TrajectoryFormatError("header must be t,u1,...,ud")
    if len(body) != grid.n:
        raise TrajectoryFormatError(
            "expected %d rows for this grid, found %d" % (grid.n, len(body))
        )
    try:
        data = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        raise TrajectoryFormatError("non-numeric value in trajectory: %s" % exc)
    if data.shape[1] != d + 1:
        raise TrajectoryFormatError("ragged rows in trajectory file")
    t = data[:, 0]
    if np.max(np.abs(t - grid.times)) > 1e-9 * max(1.0, grid.half_length):
        raise TrajectoryFormatError("node times do not match the configured grid")
    vals = data[:, 1:]
    if np.any(vals[0] != 0.0) or np.any(vals[-1] != 0.0):
        raise TrajectoryFormatError("boundary rows must be zero")
    return GridFunction(grid, vals)
