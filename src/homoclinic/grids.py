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
shift_periods, the window sums and the exact shift-gap kernel shift_gaps
all go through them; shift_gaps returns ||u - shift_periods(v, k)||_H1 for
every admissible k without building per-shift GridFunctions, bitwise equal
to composing the public functions.

Shift gaps are screened by one batched product, confirmed by shift_gaps.
Every admissible shift moves whole m-node blocks, so ShiftBlocks keeps
each function as (2M, m*d) period blocks of node values and differences
plus its shifted norms; screen_gaps_sq turns one block Gram product into
the squared gaps of every function pair at every shift, and
confirmed_minima recomputes with the shift_gaps formula only the shifts
within SCREEN_TOL of the screened minimum.  Every minimum, minimizing
shift and tie order is therefore bitwise shift_gaps'.
"""

from __future__ import annotations

import hashlib
import io
import os
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Sequence

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


def _shift_gap(u: GridFunction, v: GridFunction, k: int):
    """||u - shift_periods(v, k)||_H1, computed on the raw node arrays."""
    h = u.grid.h
    diff = u.values - _shifted(v.values, k * u.grid.nodes_per_period)
    return np.sqrt(_kinetic_sq(diff, h) + _l2_sq(diff, h))


def shift_gaps(u: GridFunction, v: GridFunction) -> Array:
    """||u - shift_periods(v, k)||_H1 for every admissible whole-period shift k.

    Entry j belongs to the j-th shift of _admissible_shifts(u.grid), i.e.
    k = j - k_max.  Works on the raw node arrays with the same shift rule
    and quadrature as shift_periods and h1_norm, so every entry is bitwise
    the value those two would give, without building per-shift objects.
    This is the exact reference that confirmed_minima recomputes.
    """
    return np.array([_shift_gap(u, v, k) for k in _admissible_shifts(u.grid)])


# Screen margin as a fraction of the largest squared H1 norm of a shifted
# argument.  Both the screen and the exact gap sum O(n) terms no larger
# than that scale, so each is within a few n * 1e-16 of it; 1e-10 covers
# twice that with room to spare on any practical grid.  The margin must
# not shrink with the screened minimum: exact ties at gap 0 (duplicates,
# shifted copies) are screened to rounding noise of either sign.
SCREEN_TOL = 1e-10


@dataclass(frozen=True)
class ShiftBlocks:
    """Functions on one grid in the period-block form screen_gaps_sq reads.

    blocks[e, b] holds the m forward differences over sqrt(h), then the m
    node values times sqrt(h), of period block b of function e (nodes
    bm .. bm + m - 1; node n - 1 is zero), so one Gram product of blocks
    gives the H1 inner product of every block pair.  norm_sq[e, j] is
    ||shift_periods(f_e, k)||_H1^2 at the j-th admissible shift.  nodes[e]
    are the values at the period nodes 0, m, ..., n - 1; first[e] and
    last[e] those at nodes 1 and n - 2.  They correct the one node that
    _shifted re-pins.
    """

    functions: tuple
    blocks: Array  # (E, 2M, 2, m d)
    norm_sq: Array  # (E, 4M + 1)
    nodes: Array  # (E, 2M + 1, d)
    first: Array  # (E, d)
    last: Array  # (E, d)

    @property
    def grid(self) -> Grid:
        return self.functions[0].grid


def shift_blocks(functions: Sequence[GridFunction]) -> ShiftBlocks:
    """ShiftBlocks of one or more functions on a common grid."""
    grid = functions[0].grid
    if any(f.grid != grid for f in functions):
        raise ValueError("functions live on different grids")
    h, m = grid.h, grid.nodes_per_period
    nb = (grid.n - 1) // m  # period blocks, = k_max
    blocks = np.empty((len(functions), nb, 2, m * functions[0].d))
    for b, f in zip(blocks, functions):
        b[:, 0] = np.diff(f.values, axis=0).reshape(nb, -1)
        b[:, 1] = f.values[:-1].reshape(nb, -1)
    blocks[:, :, 0] /= np.sqrt(h)
    blocks[:, :, 1] *= np.sqrt(h)
    # head[:, j]: squared H1 norm of blocks 0..j-1
    head = np.zeros((len(functions), nb + 1))
    np.cumsum(np.einsum("ebcw,ebcw->eb", blocks, blocks), axis=1, out=head[:, 1:])
    total, inner = head[:, -1:], head[:, 1:-1]
    # nodes jm - 1, jm, jm + 1 around every inner period node jm
    near = np.arange(1, nb)[:, None] * m + [-1, 0, 1]
    before, node, after = np.stack([f.values[near] for f in functions]).transpose(2, 0, 1, 3)

    def sq(x: Array) -> Array:
        return np.einsum("ejd,ejd->ej", x, x)

    # k = 2M - j, 0 < j < 2M, keeps blocks < j and re-pins node jm, so the
    # last cell runs from v_(jm-1) to 0
    kept_head = inner + (sq(before) - sq(node - before)) / h
    # k = -j keeps blocks >= j and re-pins node jm, so that node drops out
    # and the first cell runs from 0 to v_(jm+1)
    kept_tail = total - inner - h * sq(node) + (sq(after) - sq(after - node)) / h
    zero = np.zeros_like(total)  # k = +-2M shifts every node off the grid
    ends = np.stack([f.values[[1, -2]] for f in functions])
    return ShiftBlocks(
        functions=tuple(functions),
        blocks=blocks,
        norm_sq=np.concatenate([zero, kept_tail[:, ::-1], total, kept_head[:, ::-1], zero], 1),
        nodes=np.stack([f.values[::m] for f in functions]),
        first=ends[:, 0],
        last=ends[:, 1],
    )


def _repin(last: Array, first: Array, nodes: Array) -> Array:
    """Kinetic cross-term correction of the re-pinned node, per pair and shift.

    The block product treats shift(v, k) as if the node _shifted re-pins
    kept its value: node n - 1 (value v_((2M-k)m)) for k > 0, node 0
    (value v_(-km)) for k < 0.  Re-pinning changes one difference, which
    adds u_(n-2) . v_((2M-k)m), or u_1 . v_(-km), to sum du . dv.
    """
    at_last = np.einsum("id,jtd->ijt", last, nodes)
    at_first = np.einsum("id,jtd->ijt", first, nodes)
    zero = np.zeros(at_last.shape[:2] + (1,))
    return np.concatenate([at_first[..., :0:-1], zero, at_last[..., -2::-1]], axis=2)


@lru_cache(maxsize=None)
def _diagonal_selector(nb: int) -> Array:
    """(nb * nb, 2 nb + 1) 0/1 matrix: row (p, q) selects column p - q + nb.

    A Gram matrix flattened over (p, q) times it gives the sums of its
    diagonals, the k-th (p - q = k) in column k + nb.  Read-only, since
    every call with the same nb shares it.
    """
    p, q = np.indices((nb, nb))
    select = np.zeros((nb, nb, 2 * nb + 1))
    select[p, q, p - q + nb] = 1.0
    select = select.reshape(nb * nb, -1)
    select.flags.writeable = False
    return select


def screen_gaps_sq(a: ShiftBlocks, b: ShiftBlocks) -> tuple[Array, Array]:
    """Screened squared shift gaps of every pair, both argument orders.

    Returns (fwd, rev), each of shape (len(a), len(b), 4M + 1): fwd[i, j]
    approximates shift_gaps(a_i, b_j) ** 2 and rev[i, j] approximates
    shift_gaps(b_j, a_i) ** 2, to rounding of order n * 1e-16 times
    the shifted norms (see SCREEN_TOL).  One batched Gram product of the
    period blocks gives every cross term: the sum of the block Gram's k-th
    diagonal is <a_i, shift(b_j, k)> before re-pinning, and its (-k)-th
    is <b_j, shift(a_i, k)>.
    """
    if a.grid != b.grid:
        raise ValueError("functions live on different grids")
    ea, nb = a.blocks.shape[:2]
    eb = b.blocks.shape[0]
    h = a.grid.h
    # two BLAS products: the block Gram of every pair, then its diagonal
    # sums.  They sum in another order than the einsum contractions they
    # replaced (7.6 -> 0.7 ms for 12 x 12 entries at m=160): on 12-entry
    # search libraries at m 40 and 160 the screen moved by at most 2.5e-16
    # of the largest squared norm, far inside SCREEN_TOL
    gram = a.blocks.reshape(ea * nb, -1) @ b.blocks.reshape(eb * nb, -1).T
    gram = gram.reshape(ea, nb, eb, nb).transpose(0, 2, 1, 3).reshape(ea * eb, nb * nb)
    diag = (gram @ _diagonal_selector(nb)).reshape(ea, eb, 2 * nb + 1)
    fwd = diag + _repin(a.last, a.first, b.nodes) / h
    rev = diag[..., ::-1] + _repin(b.last, b.first, a.nodes).transpose(1, 0, 2) / h
    norm_a, norm_b = a.norm_sq[:, nb], b.norm_sq[:, nb]
    return (
        norm_a[:, None, None] + b.norm_sq[None] - 2.0 * fwd,
        norm_b[None, :, None] + a.norm_sq[:, None] - 2.0 * rev,
    )


def confirmed_minima(
    sq: Array, margin: Array | float, exact: Callable[[tuple, tuple], float]
) -> tuple[Array, Array]:
    """Exact minima behind a screen, per group.

    The leading margin.ndim axes of sq index groups and the others their
    candidates.  exact(group, candidate) is called, in C order, for every
    candidate whose screened value lies within the group's margin of the
    group's screened minimum (for every candidate of a group whose screen
    is not finite).  Returns each group's smallest exact value and the
    flat index of its first candidate to attain it, which is the first
    exact minimizer when the margin covers the screen's rounding.
    """
    margin = np.asarray(margin, dtype=float)
    shape = sq.shape[margin.ndim :]
    flat = sq.reshape(margin.shape + (-1,))
    low = flat.min(axis=-1)
    keep = (flat <= (low + margin)[..., None]) | ~np.isfinite(low)[..., None]
    best = np.full(margin.shape, np.inf)
    at = np.zeros(margin.shape, dtype=int)
    for idx in np.argwhere(keep):
        group, c = tuple(idx[:-1]), int(idx[-1])
        gap = exact(group, np.unravel_index(c, shape))
        if gap < best[group]:
            best[group], at[group] = gap, c
    return best, at


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
    row = ",".join([CSV_FLOAT_FORMAT] * data.shape[1])
    # one % over every cell, about twice as fast as np.savetxt's per-row loop;
    # the header holds no %, so it is the template's first line
    text = "\r\n".join([header] + [row] * data.shape[0]) + "\r\n"
    with open(path, "w", newline="") as f:
        f.write(text % tuple(data.ravel().tolist()))


def _header_width(line: str) -> int:
    """d of a trajectory header line t,u1,...,ud (as readline returns it)."""
    if not line:
        raise TrajectoryFormatError("empty trajectory file")
    header = line.rstrip("\n").split(",")
    d = len(header) - 1
    if d < 1 or header != ["t"] + ["u%d" % (a + 1) for a in range(d)]:
        raise TrajectoryFormatError("header must be t,u1,...,ud")
    return d


def _check_rows(rows: int, grid: Grid) -> None:
    if rows != grid.n:
        raise TrajectoryFormatError("expected %d rows for this grid, found %d" % (grid.n, rows))


def _parse_trajectory(f, grid: Grid) -> Array:
    """The (n, 1 + d) cells of the trajectory CSV open as text in f.

    Checks that the text decodes, the header, the row count and that every
    row holds 1 + d numbers.
    """
    try:
        header = f.readline()
        body = f.readlines()
    except UnicodeDecodeError as exc:
        raise TrajectoryFormatError("undecodable byte in trajectory: %s" % exc)
    d = _header_width(header)
    _check_rows(len(body), grid)
    try:
        data = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        raise TrajectoryFormatError("non-numeric value in trajectory: %s" % exc)
    if data.shape[1] != d + 1:
        raise TrajectoryFormatError("ragged rows in trajectory file")
    return data


def _trajectory(data: Array, grid: Grid) -> GridFunction:
    """The trajectory of parsed cells on grid, after the checks that read the cells.

    Row count (loadtxt skips blank lines), node times, zero boundary rows
    and finite values.  Every read runs these, from text or from the cache.
    """
    _check_rows(len(data), grid)
    t = data[:, 0]
    # written so that a NaN time fails the check
    if not np.all(np.abs(t - grid.times) <= 1e-9 * max(1.0, grid.half_length)):
        raise TrajectoryFormatError("node times do not match the configured grid")
    vals = data[:, 1:]
    if np.any(vals[0] != 0.0) or np.any(vals[-1] != 0.0):
        raise TrajectoryFormatError("boundary rows must be zero")
    if not np.all(np.isfinite(vals)):
        raise TrajectoryFormatError("non-finite value in trajectory")
    return GridFunction(grid, vals)


def read_trajectory_csv(path, grid: Grid) -> GridFunction:
    """Read a trajectory written by write_trajectory_csv onto a known grid.

    Validates header shape, row count and node times; boundary rows must
    be zero and every value finite.
    """
    with open(path) as f:
        data = _parse_trajectory(f, grid)
    return _trajectory(data, grid)


# what a cache file can raise: unreadable or blocked (OSError), damaged
# (ValueError), empty (EOFError)
_CACHE_ERRORS = (OSError, ValueError, EOFError)


class TrajectoryCache:
    """Parsed trajectory CSVs, kept as .npy files named by the sha256 of the CSV bytes.

    read(path, grid) gives what read_trajectory_csv gives, and raises the
    same errors.  On a hit only the text parse is skipped: the header, row
    count, node time, boundary and finite checks all run again, because
    they depend on the grid.  Equal bytes give equal digests, so an entry
    is never stale.  The cache is never a source of errors: a missing,
    blocked, read-only or damaged directory or file counts as a miss.
    Parsed arrays are stored only by commit, which also deletes every file
    it is not told to keep.
    """

    def __init__(self, directory: str):
        self.directory = directory
        self._read = {}  # (digest, grid) -> trajectory read in this process
        self._unstored = {}  # digest -> cells parsed from text, not yet stored

    def _path(self, digest: str) -> str:
        return os.path.join(self.directory, digest + ".npy")

    def read(self, path, grid: Grid) -> tuple[str, GridFunction]:
        """(sha256 of the file bytes, trajectory) of one trajectory CSV.

        The digest names the cache file; pass the digests of the entries to
        keep to commit.
        """
        with open(path, "rb") as f:
            raw = f.read()
        digest = hashlib.sha256(raw).hexdigest()
        u = self._read.get((digest, grid))
        if u is None:
            u = self._read[digest, grid] = _trajectory(self._cells(digest, raw, grid), grid)
        return digest, u

    def _cells(self, digest: str, raw: bytes, grid: Grid) -> Array:
        # the same text semantics as open(path): locale encoding, universal newlines
        text = io.TextIOWrapper(io.BytesIO(raw))
        try:
            data = np.load(self._path(digest), allow_pickle=False)
        except _CACHE_ERRORS:
            data = None
        if data is not None:
            d = _header_width(text.readline())
            if data.dtype == np.float64 and data.ndim == 2 and data.shape[1] == d + 1:
                return data
            text.seek(0)  # a damaged entry: parse again
        data = self._unstored[digest] = _parse_trajectory(text, grid)
        return data

    def commit(self, keep: set) -> None:
        """Store the arrays parsed here whose digest is in keep; delete every other file."""
        try:
            new = keep.intersection(self._unstored)
            if new:
                os.makedirs(self.directory, exist_ok=True)
            for digest in new:
                tmp = os.path.join(self.directory, "%s.%d.tmp" % (digest, os.getpid()))
                with open(tmp, "wb") as f:
                    np.save(f, self._unstored[digest])
                os.replace(tmp, self._path(digest))
            names = {digest + ".npy" for digest in keep}
            for name in os.listdir(self.directory):
                if name not in names:
                    os.remove(os.path.join(self.directory, name))
        except _CACHE_ERRORS:
            pass
        self._unstored.clear()
