"""Independent reference numerics for checking the program's outputs.

Written from the discretization the program documents (README and module
docstrings), not from its code paths, so a verified output does not rest
on the code under test:

    I(u) = 1/2 sum |u_{i+1} - u_i|^2 / h - h sum' a(t_i) W(u_i)
    W(u) = -|u|^2 |u - q|^(-alpha),  a(t) = a_base + a_amp cos(2 pi t / T)
    g_i  = -(u_{i+1} - 2 u_i + u_{i-1}) / h - h a(t_i) grad W(u_i),
    grad norm = ||g||_2 / sqrt(h),  clearance = distance from q to the
    polyline through the nodes, shift-quotient distance = min over whole
    period shifts of the H1 gap, symmetrized.

sum' is the trapezoid sum.  Trajectory CSVs are `t,u1,...,ud` at %.17g.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class System:
    alpha: float = 2.0
    q: tuple = (2.0, 0.0)
    a_base: float = 2.0
    a_amp: float = 1.0
    period: float = 1.0
    m: int = 40
    half_periods: int = 8

    @property
    def h(self) -> float:
        return self.period / self.m

    @property
    def n(self) -> int:
        return 2 * self.half_periods * self.m + 1

    @property
    def times(self) -> np.ndarray:
        return (np.arange(self.n) - self.half_periods * self.m) * self.h

    @property
    def delta_seg(self) -> float:
        return 1e-3 * float(np.linalg.norm(self.q))


def clearance(values: np.ndarray, q) -> float:
    p0 = values[:-1] - q
    seg = values[1:] - values[:-1]
    denom = np.sum(seg * seg, axis=1)
    t = np.divide(-np.sum(p0 * seg, axis=1), denom, out=np.zeros_like(denom), where=denom > 0)
    closest = p0 + np.clip(t, 0.0, 1.0)[:, None] * seg
    return float(np.sqrt(np.min(np.sum(closest * closest, axis=1))))


def certificate(values: np.ndarray, sys_: System) -> dict:
    """Action, mesh-scaled gradient norm and segment clearance of `values`."""
    q = np.asarray(sys_.q, dtype=float)
    h = sys_.h
    a = sys_.a_base + sys_.a_amp * np.cos(2.0 * np.pi * sys_.times / sys_.period)
    r2 = np.sum(values * values, axis=1)
    s = np.sqrt(np.sum((values - q) ** 2, axis=1))
    aw = a * (-r2 * s ** (-sys_.alpha))
    diffs = np.diff(values, axis=0)
    action = 0.5 * np.sum(diffs * diffs) / h - h * (np.sum(aw) - 0.5 * (aw[0] + aw[-1]))
    grad_w = -2.0 * values * (s ** (-sys_.alpha))[:, None] + (
        sys_.alpha * r2 * s ** (-sys_.alpha - 2.0)
    )[:, None] * (values - q)
    g = -(values[2:] - 2.0 * values[1:-1] + values[:-2]) / h - h * a[1:-1, None] * grad_w[1:-1]
    return {
        "action": float(action),
        "grad_norm": float(np.linalg.norm(g) / np.sqrt(h)),
        "clearance": clearance(values, q),
    }


def _h1_gaps(u: np.ndarray, v: np.ndarray, sys_: System) -> np.ndarray:
    """H1 norms of u - shift(v, k) for every admissible whole-period shift k."""
    n, m, h = sys_.n, sys_.m, sys_.h
    k_max = (n - 1) // m
    gaps = []
    for k in range(-k_max, k_max + 1):
        shifted = np.zeros_like(v)
        s = k * m
        if s >= 0:
            shifted[s:] = v[: n - s]
        else:
            shifted[: n + s] = v[-s:]
        shifted[0] = shifted[-1] = 0.0
        gaps.append(u - shifted)
    d = np.stack(gaps)
    kin = h * np.sum((np.diff(d, axis=1) / h) ** 2, axis=(1, 2))
    sq = np.sum(d * d, axis=2)
    l2 = h * (np.sum(sq, axis=1) - 0.5 * (sq[:, 0] + sq[:, -1]))
    return np.sqrt(kin + l2)


def distance(u: np.ndarray, v: np.ndarray, sys_: System) -> float:
    return float(min(_h1_gaps(u, v, sys_).min(), _h1_gaps(v, u, sys_).min()))


def bump_cores(values: np.ndarray, level: float = 0.05) -> int:
    """Number of maximal runs of nodes with |u_i| >= level."""
    above = np.sqrt(np.sum(values * values, axis=1)) >= level
    return int(np.count_nonzero(above[1:] & ~above[:-1]) + above[0])


def write_csv(path: str, values: np.ndarray, sys_: System) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t"] + ["u%d" % (a + 1) for a in range(values.shape[1])])
        for t, row in zip(sys_.times, values):
            w.writerow(["%.17g" % t] + ["%.17g" % x for x in row])


def read_csv(path: str, sys_: System) -> np.ndarray:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[0] != sys_.n or np.max(np.abs(data[:, 0] - sys_.times)) > 1e-9 * sys_.half_periods:
        raise ValueError("%s does not hold a trajectory on the expected grid" % path)
    return data[:, 1:]


def read_matrix(path: str) -> tuple[list, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    ids = rows[0][1:]
    if [r[0] for r in rows[1:]] != ids:
        raise ValueError("%s: row ids do not match the header" % path)
    return ids, np.array([[float(x) for x in r[1:]] for r in rows[1:]])
