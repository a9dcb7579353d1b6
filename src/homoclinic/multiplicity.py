"""Multi-solution search and bump bookkeeping.

Solutions are identified modulo whole-period time shifts, so distinctness
is measured by the shift-quotient pseudo-metric: the minimum H1 distance
over all admissible integer-period shifts of either argument.  A
SolutionLibrary accepts a candidate only when it is farther than
eps_distinct from every stored entry under that metric.

_glued_sum glues shifted library entries into a multibump initial
condition (search phase 2); ps_split goes the other way, cutting a
trajectory into bump windows at valleys of the node norm and matching
each piece against the library.  The metric, the library's nearest-entry
query, its distance matrix and the matching all go through one kernel:
screened by one batched product, confirmed by shift_gaps
(grids.screen_gaps_sq and grids.confirmed_minima).  One product
covers every entry and every shift, and only the shifts the
screen cannot tell apart are recomputed exactly, so every distance,
matched entry, shift and tie order is bitwise the per-shift loop's.
The library derives its cached ShiftBlocks from its entries on use,
blocking every entry again whenever the entries have changed, so entries
appended to lib.entries directly are covered as well.

The search schedule is written once, as the ordered attempt stream
_attempts: one single-loop solve at crossing phase 0 and, when it
succeeds, its mirror image under a reflection that fixes q (the other
winding sense, certified by the Newton polish), pairwise sums
of found solutions at decreasing separations, and one single-loop guess
at crossing phase 1/2.  Every attempt runs through solve.run_attempt,
which turns a failed attempt into an error text, and only when asked
for.  search_distinct is one loop that takes the next
attempt until the library holds its target, and _record turns each
outcome into one library log record.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .action import segment_clearance
from .errors import InfeasibleGuess
from .grids import (
    SCREEN_TOL,
    Grid,
    GridFunction,
    ShiftBlocks,
    _admissible_shifts,
    _shift_gap,
    confirmed_minima,
    from_values,
    h1_norm,
    screen_gaps_sq,
    shift_blocks,
    shift_periods,
)
from .potential import PotentialSpec
from .solve import (
    HomoclinicCandidate,
    SolverConfig,
    _transverse_unit,
    polish_to_critical,
    run_attempt,
    single_loop_attempt,
)

Array = np.ndarray


def _nearest(u: GridFunction, blocks: ShiftBlocks, both_orders: bool) -> tuple[float, int, int]:
    """First exact minimum of the shift gaps of u against every function of blocks.

    Candidates run in (function, argument order, shift) order: gaps of u
    against shift(f, k), then, with both_orders, of f against shift(u, k).
    Returns (gap, function index, shift index); the gap is bitwise the
    minimum of the shift_gaps arrays, and the indices are those of its
    first occurrence.
    """
    ub = shift_blocks([u])
    fwd, rev = screen_gaps_sq(ub, blocks)
    sq = np.stack([fwd[0], rev[0]], axis=1) if both_orders else fwd[0][:, None]
    shifts = _admissible_shifts(u.grid)

    def exact(_, cand):
        e, order, j = cand
        f = blocks.functions[e]
        return _shift_gap(u, f, shifts[j]) if order == 0 else _shift_gap(f, u, shifts[j])

    margin = SCREEN_TOL * (ub.norm_sq.max() + blocks.norm_sq.max())
    gap, at = confirmed_minima(sq, margin, exact)
    e, _, j = np.unravel_index(int(at), sq.shape)
    return float(gap), int(e), int(j)


def geometric_distance(u: GridFunction, v: GridFunction) -> float:
    """Shift-quotient pseudo-metric.

    min over admissible whole-period shifts k of ||u - shift(v, k)||_H1,
    symmetrized over the argument order.  Truncation at the domain ends
    makes a one-sided minimum slightly asymmetric; the symmetrization
    restores d(u, v) = d(v, u) exactly.
    """
    if u.grid != v.grid:
        raise ValueError("functions live on different grids")
    return _nearest(u, shift_blocks([v]), both_orders=True)[0]


@dataclass
class LibraryEntry:
    trajectory: GridFunction
    action: float
    grad_norm: float
    clearance: float
    schedule_item: Optional[dict] = None


class SolutionLibrary:
    """Distinct solutions modulo whole-period shifts.

    try_insert_entry applies the eps_distinct gate and records every
    decision in self.log, accepted or not, so a search run can be audited
    afterwards.
    """

    def __init__(self, eps_distinct: float = 0.1):
        self.eps_distinct = float(eps_distinct)
        self.entries: list[LibraryEntry] = []
        self.log: list[dict] = []
        self._blocks: Optional[ShiftBlocks] = None

    def __len__(self) -> int:
        return len(self.entries)

    def entry_blocks(self) -> ShiftBlocks:
        """ShiftBlocks of the entries' trajectories, in entry order (entries must exist).

        Built by shift_blocks from self.entries whenever the list of
        trajectory objects has changed since the last call, and reused
        otherwise, so changing self.entries directly (as a manifest loader
        does) is safe.
        """
        trajs = tuple(e.trajectory for e in self.entries)
        kept = self._blocks.functions if self._blocks is not None else ()
        if len(kept) != len(trajs) or any(a is not b for a, b in zip(kept, trajs)):
            self._blocks = shift_blocks(trajs)
        return self._blocks

    def min_distance_to(self, u: GridFunction) -> tuple[float, int]:
        """Smallest distance to a stored entry and its first index; (inf, -1) when empty."""
        if not self.entries:
            return np.inf, -1
        d, i, _ = _nearest(u, self.entry_blocks(), both_orders=True)
        return d, i

    def try_insert_entry(self, entry: LibraryEntry, context: Optional[dict] = None) -> bool:
        d, i = self.min_distance_to(entry.trajectory)
        record = {
            "action": entry.action,
            "grad_norm": entry.grad_norm,
            "nearest_distance": d,
            "nearest_index": i,
            "schedule_item": entry.schedule_item,
        }
        if context:
            record.update(context)
        if d <= self.eps_distinct:
            record["outcome"] = "duplicate"
            self.log.append(record)
            return False
        record["outcome"] = "inserted"
        record["index"] = len(self.entries)
        self.entries.append(entry)
        self.log.append(record)
        return True

    def distance_matrix(self) -> Array:
        """geometric_distance of every entry pair, from one screen of all pairs."""
        n = len(self.entries)
        out = np.zeros((n, n))
        if n < 2:
            return out
        blocks = self.entry_blocks()
        fwd, rev = screen_gaps_sq(blocks, blocks)
        iu, ju = np.triu_indices(n, 1)
        shifts = _admissible_shifts(blocks.grid)

        def exact(pair, cand):
            order, j = cand
            f, g = blocks.functions[iu[pair]], blocks.functions[ju[pair]]
            return _shift_gap(f, g, shifts[j]) if order == 0 else _shift_gap(g, f, shifts[j])

        top = blocks.norm_sq.max(axis=1)
        sq = np.stack([fwd[iu, ju], rev[iu, ju]], axis=1)
        out[iu, ju], _ = confirmed_minima(sq, SCREEN_TOL * (top[iu] + top[ju]), exact)
        out[ju, iu] = out[iu, ju]
        return out


def _glued_sum(shifted: Sequence[GridFunction], pot: PotentialSpec) -> GridFunction:
    """Sum of already shifted entries, first plus the rest in order.

    Raises InfeasibleGuess when the sum's segment clearance is below delta_seg.
    """
    total = shifted[0].values.copy()
    for s in shifted[1:]:
        total += s.values
    u = from_values(shifted[0].grid, total)
    clearance = segment_clearance(u.values, pot.q)
    if clearance < pot.delta_seg:
        raise InfeasibleGuess(
            "glued sum clearance %.3e below %.3e" % (clearance, pot.delta_seg)
        )
    return u


def _runs(mask: Array) -> list[tuple[int, int]]:
    """Maximal runs of True, as inclusive (start, end) pairs."""
    idx = np.nonzero(mask)[0]
    if len(idx) == 0:
        return []
    breaks = np.nonzero(np.diff(idx) > 1)[0]
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [len(idx) - 1]))
    return [(int(idx[s]), int(idx[e])) for s, e in zip(starts, ends)]


@dataclass
class Bump:
    window: tuple[int, int]
    function: GridFunction
    matched_index: int
    shift: int
    distance: float


@dataclass
class BumpDecomposition:
    bumps: list[Bump]
    residual_norm: float


_DELTA_BUMP = 0.05  # node norm of a bump core
_DELTA_GAP = 0.01  # node norm to which a bump window extends
_TAPER_CELLS = 8  # cells of the half-cosine taper at a nonzero cut


def ps_split(u: GridFunction, library: SolutionLibrary) -> BumpDecomposition:
    """Cut a trajectory into bump pieces and match them to the library.

    Cores are maximal runs with node norm >= _DELTA_BUMP; each core's
    window extends outward while the norm stays >= _DELTA_GAP.  Adjacent
    cores are separated by a cut at the valley argmin of the node norm
    between them, whether or not the valley dips below _DELTA_GAP, so two
    bumps glued at small separation still split.  Each piece owns the full
    territory up to its cuts (or the domain ends); at a cut with nonzero
    value a half-cosine taper over _TAPER_CELLS keeps the piece in the
    zero-boundary class without a jump.  Pieces are matched to library
    entries by minimum H1 distance over whole-period shifts, and
    residual_norm is the H1 norm of u minus the sum of matched shifted
    entries.
    """
    if len(library.entries) == 0:
        raise ValueError("library is empty")
    grid = u.grid
    shifts = _admissible_shifts(grid)
    blocks = library.entry_blocks()
    norms = np.sqrt(np.sum(u.values * u.values, axis=1))
    cores = _runs(norms >= _DELTA_BUMP)
    if not cores:
        return BumpDecomposition(bumps=[], residual_norm=h1_norm(u))

    # valley cuts between consecutive cores
    cuts = []
    for (s0, e0), (s1, e1) in zip(cores[:-1], cores[1:]):
        inner = norms[e0 + 1 : s1]
        cuts.append(e0 + 1 + int(np.argmin(inner)))

    # gap-extended window per core, clipped to the core's territory
    bounds = [0] + [c + 1 for c in cuts] + [grid.n]
    gap_mask = norms >= _DELTA_GAP
    bumps = []
    recon = np.zeros_like(u.values)
    for i, (cs, ce) in enumerate(cores):
        lo, hi = bounds[i], bounds[i + 1] - 1
        ws = cs
        while ws > lo and gap_mask[ws - 1]:
            ws -= 1
        we = ce
        while we < hi and gap_mask[we + 1]:
            we += 1
        piece_vals = np.zeros_like(u.values)
        piece_vals[lo : hi + 1] = u.values[lo : hi + 1]
        ramp = min(_TAPER_CELLS, hi + 1 - lo)
        w = 0.5 * (1.0 - np.cos(np.pi * np.arange(ramp) / max(ramp, 1)))
        if lo > 0 and norms[lo] > 0:
            piece_vals[lo : lo + ramp] *= w[:, None]
        if hi < grid.n - 1 and norms[hi] > 0:
            piece_vals[hi - ramp + 1 : hi + 1] *= w[::-1, None]
        piece = from_values(grid, piece_vals)
        # first minimizing shift per entry, earliest entry on ties
        m_dist, m_idx, j = _nearest(piece, blocks, both_orders=False)
        m_shift = shifts[j]
        recon += shift_periods(library.entries[m_idx].trajectory, m_shift).values
        bumps.append(
            Bump(
                window=(ws, we),
                function=piece,
                matched_index=m_idx,
                shift=m_shift,
                distance=m_dist,
            )
        )
    residual = h1_norm(from_values(grid, u.values - recon))
    return BumpDecomposition(bumps=bumps, residual_norm=float(residual))


def _glue_pair(
    a: GridFunction, b: GridFunction, separation: int, pot: PotentialSpec, cfg, item
) -> HomoclinicCandidate:
    left = shift_periods(a, -((separation + 1) // 2))
    right = shift_periods(b, separation // 2)
    cand = polish_to_critical(_glued_sum([left, right], pot), pot, cfg)
    cand.schedule_item = item
    return cand


def _record(lib: SolutionLibrary, item: dict, outcome, phase: int) -> None:
    """Log a failed attempt, or offer its candidate to the library.

    outcome is what run_attempt returned.  Every record carries the
    schedule phase and the attempt's wall time under "timing", the only
    field of the log that is not deterministic.
    """
    cand, error, seconds = outcome
    timing = {"seconds": seconds}
    if cand is None:
        lib.log.append(
            {
                "outcome": "failed",
                "phase": phase,
                "schedule_item": item,
                "error": error,
                "timing": timing,
            }
        )
        return
    entry = LibraryEntry(
        trajectory=cand.trajectory,
        action=cand.action,
        grad_norm=cand.grad_norm,
        clearance=cand.clearance,
        schedule_item=cand.schedule_item,
    )
    lib.try_insert_entry(entry, context={"phase": phase, "timing": timing})


def _mirrored(cand: HomoclinicCandidate, pot: PotentialSpec, cfg: SolverConfig, item: dict):
    """cand's orbit under the reflection R, certified by polish_to_critical.

    R u = u - 2 (u . p) p, p = _transverse_unit(q) the guess's transverse
    axis, is orthogonal and fixes q, so it maps critical points of the
    action to critical points; it also maps the guess of one winding sense
    onto the other's.  The polish takes no Newton step when the image
    already meets grad_tol.  When q lies on a coordinate axis R is a sign
    flip, under which every kernel operation is exact, so the image is
    bitwise the orbit a solve of the mirror item returns.
    """
    p = _transverse_unit(pot.q)
    u = cand.trajectory.values
    image = GridFunction(cand.trajectory.grid, u - 2.0 * np.outer(u @ p, p))
    mirror = polish_to_critical(image, pot, cfg)
    mirror.schedule_item = item
    return mirror


def _attempts(pot: PotentialSpec, grid: Grid, cfg: SolverConfig, lib: SolutionLibrary):
    """The built-in search schedule: (item, run_attempt outcome, phase) in
    schedule order, each attempt run only when the caller asks for it.

    The one-loop orbits sit at the two extremal phases of a(t), crossing
    phase 0 and 1/2, so those are the only phases tried; other phases and
    crossing heights re-find the same orbits.  Phase 1 is one solve and
    its reflection: a single-loop guess at phase 0 and height 1.5 (clamped
    at k_min) winding in the + sense, then the - sense item, taken as the
    first orbit's mirror image (_mirrored), and only when the first
    attempt succeeds: R maps the - guess onto the + guess and the solver
    commutes with R, so a solve of it would fail the same way.  Phase 2
    reads lib.entries once phase 1 is recorded and glues pairs (0, 0) and
    (0, 1) at separations 6, 5 and 4, polished by Newton alone so the two
    bumps keep their positions.  Phase 3 is one single-loop guess at phase
    1/2 and height 1.35 (clamped at k_min).
    """
    one_loop = partial(run_attempt, single_loop_attempt, pot, grid, cfg)
    plus, minus = ({"k0": max(1.5, cfg.k_min), "orientation": o, "phase": 1} for o in (1, -1))
    first = one_loop(plus)
    yield plus, first, 1
    if first[0] is not None:
        yield minus, run_attempt(_mirrored, first[0], pot, cfg, minus), 1

    # pair gluing converges with Newton polish alone: monotone action
    # descent from a glued sum slides down the unwinding canyon opened by
    # tail-core interaction, while the gradient-norm-monotone polish jumps
    # straight to the nearby multibump critical point
    pair_cfg = replace(cfg, polish_steps=max(40, cfg.polish_steps))
    base = [e.trajectory for e in lib.entries]
    for sep in (6, 5, 4):
        for ia, ib in [(0, 0), (0, 1)][: len(base)]:
            item = {"phase": 2, "separation": sep, "pair": [ia, ib]}
            yield item, run_attempt(_glue_pair, base[ia], base[ib], sep, pot, pair_cfg, item), 2

    item = {"center": 0.5 * grid.period, "width": 2.0, "phase": 3, "k0": max(1.35, cfg.k_min)}
    yield item, one_loop(item), 3


def search_distinct(
    pot: PotentialSpec,
    grid: Grid,
    cfg: Optional[SolverConfig] = None,
    targets: int = 3,
    eps_distinct: float = 0.1,
) -> SolutionLibrary:
    """Deterministic multi-solution search.

    Records the attempts of _attempts, in schedule order, until the
    library holds `targets` entries or the schedule runs out; no attempt
    runs once the target is met.  Like solve_homoclinic it does not check
    the hypotheses; the caller runs potential.run_hypotheses when it wants
    the gate.
    """
    if cfg is None:
        cfg = SolverConfig()
    lib = SolutionLibrary(eps_distinct=eps_distinct)
    stream = _attempts(pot, grid, cfg, lib)
    while len(lib) < targets and (attempt := next(stream, None)) is not None:
        _record(lib, *attempt)
    return lib
