"""Distinctness metric, solution library, gluing, bump decomposition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homoclinic.errors import InfeasibleGuess
from homoclinic.grids import (
    SCREEN_TOL,
    Grid,
    GridFunction,
    _repin,
    from_values,
    h1_norm,
    random_smooth_function,
    screen_gaps_sq,
    shift_blocks,
    shift_gaps,
    shift_periods,
    zero_function,
)
from homoclinic.multiplicity import (
    _glued_sum,
    LibraryEntry,
    SolutionLibrary,
    geometric_distance,
    ps_split,
    search_distinct,
)
from homoclinic.potential import example_potential
from homoclinic.solve import single_loop_attempt


def entry(u, action=1.0):
    return LibraryEntry(
        trajectory=u, action=action, grad_norm=0.0, clearance=1.0
    )

SMALL = Grid(period=1.0, nodes_per_period=10, half_periods=6)


def narrow_bump(grid, center_index, amp=1.0, second=0.0):
    vals = np.zeros((grid.n, 2))
    for off, w in ((-2, 0.25), (-1, 0.5), (0, 1.0), (1, 0.5), (2, 0.25)):
        vals[center_index + off, 0] = amp * w
        vals[center_index + off, 1] = second * w
    return GridFunction(grid, vals)


def test_distance_is_a_shift_pseudometric():
    g = SMALL
    u = narrow_bump(g, g.center_index)
    v = narrow_bump(g, g.center_index, amp=0.7, second=0.3)
    assert geometric_distance(u, u) == 0.0
    assert geometric_distance(u, v) == geometric_distance(v, u)
    # shifted copies are at distance zero
    assert geometric_distance(u, shift_periods(u, 3)) == pytest.approx(0.0, abs=1e-14)
    # and shifting one argument never changes the distance
    d0 = geometric_distance(u, v)
    assert geometric_distance(u, shift_periods(v, -2)) == pytest.approx(d0, rel=1e-12)


def test_distance_rejects_grid_mismatch():
    u = narrow_bump(SMALL, SMALL.center_index)
    other = Grid(period=1.0, nodes_per_period=20, half_periods=6)
    v = narrow_bump(other, other.center_index)
    with pytest.raises(ValueError):
        geometric_distance(u, v)


# the per-shift loops shift_gaps replaced, kept as the parity reference
def _old_shifts(grid):
    k_max = (grid.n - 1) // grid.nodes_per_period
    return range(-k_max, k_max + 1)


def _old_gap(u, v, k):
    return h1_norm(from_values(u.grid, u.values - shift_periods(v, k).values))


def _old_distance(u, v):
    best = np.inf
    for k in _old_shifts(u.grid):
        best = min(best, _old_gap(u, v, k))
        best = min(best, _old_gap(v, u, k))
    return float(best)


def _old_best_match(piece, library):
    best = (np.inf, -1, 0)
    for i, e in enumerate(library.entries):
        for k in _old_shifts(piece.grid):
            d = _old_gap(piece, e.trajectory, k)
            if d < best[0]:
                best = (d, i, k)
    return best[1], best[2], float(best[0])


def _old_min_distance(u, library):
    best, best_i = np.inf, -1
    for i, e in enumerate(library.entries):
        d = _old_distance(u, e.trajectory)
        if d < best:
            best, best_i = d, i
    return float(best), best_i


def _old_distance_matrix(library):
    n = len(library.entries)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d = _old_distance(library.entries[i].trajectory, library.entries[j].trajectory)
            out[i, j] = out[j, i] = d
    return out


def assert_matches_the_loops(u, lib):
    """Every screened answer is == the per-shift loop's, ties included."""
    assert lib.min_distance_to(u) == _old_min_distance(u, lib)
    for e in lib.entries:
        assert geometric_distance(u, e.trajectory) == _old_distance(u, e.trajectory)
    assert np.array_equal(lib.distance_matrix(), _old_distance_matrix(lib))
    for b in ps_split(u, lib).bumps:
        assert (b.matched_index, b.shift, b.distance) == _old_best_match(b.function, lib)


SCREEN_GRID = Grid(period=1.0, nodes_per_period=10, half_periods=4)
KINDS = ("smooth", "rough", "zero", "duplicate", "shifted")


def _draw(kind, rng, drawn):
    """One function of the given kind; duplicates and shifts copy an earlier one."""
    g = SCREEN_GRID
    if kind in ("duplicate", "shifted") and drawn:
        base = drawn[int(rng.integers(len(drawn)))]
        k = int(rng.integers(-3, 4)) if kind == "shifted" else 0
        return GridFunction(g, shift_periods(base, k).values)
    if kind == "zero":
        return GridFunction(g, np.zeros((g.n, 2)))
    if kind == "rough":
        # node noise up to both pinned ends: the re-pinned node is never 0
        return from_values(g, 0.3 * rng.standard_normal((g.n, 2)))
    return random_smooth_function(g, 2, rng)


@given(
    seed=st.integers(0, 2**16),
    kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=5),
    query=st.sampled_from(KINDS + ("glued",)),
)
@settings(max_examples=25, deadline=None)
def test_screen_matches_the_per_shift_loops(seed, kinds, query):
    rng = np.random.default_rng(seed)
    drawn = []
    for kind in kinds:
        drawn.append(_draw(kind, rng, drawn))
    lib = SolutionLibrary(eps_distinct=-1.0)
    for f in drawn:
        lib.try_insert_entry(entry(f))
    if query == "glued":
        a, b = (drawn[int(i)] for i in rng.integers(len(drawn), size=2))
        u = from_values(SCREEN_GRID, shift_periods(a, -2).values + shift_periods(b, 2).values)
    else:
        u = _draw(query, rng, drawn)
    assert_matches_the_loops(u, lib)


def _compact_bump(grid, rng):
    """Random values on the middle two periods, zero elsewhere: shifts lose nothing."""
    vals = np.zeros((grid.n, 2))
    lo = grid.center_index - grid.nodes_per_period
    width = 2 * grid.nodes_per_period
    vals[lo : lo + width] = rng.uniform(0.1, 1.0, (width, 2))
    return GridFunction(grid, vals)


@pytest.mark.parametrize("seed", range(12))
def test_exact_ties_at_zero_keep_the_first_entry(seed):
    # a query equal to a shift of entry 0 is at exact gap 0 from entry 0
    # and from its shifted copies (entries 1, 2), and, shifted out of the
    # domain, from the zero entry 3.  Those screen to rounding noise of
    # either sign, or to exactly 0: only a margin on the norms' scale
    # confirms every tie, so entry 0 and its first shift win, as in the loop
    g = SCREEN_GRID
    f = _compact_bump(g, np.random.default_rng(seed))
    lib = SolutionLibrary(eps_distinct=-1.0)
    for e in (f, shift_periods(f, 1), shift_periods(f, -1), zero_function(g, 2)):
        lib.entries.append(entry(e))
    for k in (-1, 0, 1):
        u = shift_periods(f, k)
        assert lib.min_distance_to(u) == (0.0, 0)
        dec = ps_split(u, lib)
        assert [(b.matched_index, b.shift, b.distance) for b in dec.bumps] == [(0, k, 0.0)]
    rough = _draw("rough", np.random.default_rng(seed), [])
    lib.entries[:3] = [entry(rough)]
    assert lib.min_distance_to(rough) == (0.0, 0)
    assert np.array_equal(lib.distance_matrix(), _old_distance_matrix(lib))


def test_library_filled_by_append_matches_try_insert():
    # the screen's cache follows lib.entries however it is filled
    g = SCREEN_GRID
    rng = np.random.default_rng(7)
    drawn = []
    for kind in ("smooth", "rough", "shifted", "zero", "smooth", "duplicate", "smooth"):
        drawn.append(_draw(kind, rng, drawn))
    queries = [_draw(kind, rng, drawn) for kind in ("smooth", "shifted", "duplicate")]
    inserted = SolutionLibrary(eps_distinct=-1.0)
    appended = SolutionLibrary(eps_distinct=-1.0)

    def same_answers():
        assert np.array_equal(appended.distance_matrix(), inserted.distance_matrix())
        assert np.array_equal(appended.distance_matrix(), _old_distance_matrix(appended))
        for u in queries:
            assert appended.min_distance_to(u) == inserted.min_distance_to(u)
            split_a, split_i = ps_split(u, appended), ps_split(u, inserted)
            assert [(b.matched_index, b.shift, b.distance) for b in split_a.bumps] == [
                (b.matched_index, b.shift, b.distance) for b in split_i.bumps
            ]
            assert_matches_the_loops(u, appended)

    for f in drawn[:3]:
        inserted.try_insert_entry(entry(f))
        appended.entries.append(entry(f))
    same_answers()
    for f in drawn[3:]:  # appended after the cache was built
        inserted.try_insert_entry(entry(f))
        appended.entries.append(entry(f))
    same_answers()
    # a replaced or removed entry rebuilds the cache
    appended.entries[1] = entry(drawn[0])
    appended.entries.pop()
    rebuilt = SolutionLibrary()
    rebuilt.entries.extend(appended.entries)
    for u in queries:
        assert appended.min_distance_to(u) == rebuilt.min_distance_to(u)
        assert appended.min_distance_to(u) == _old_min_distance(u, appended)
    assert np.array_equal(appended.distance_matrix(), _old_distance_matrix(appended))


def _random_functions(grid, d, rng):
    """Smooth and rough functions, a duplicate and a shifted copy."""
    fs = [random_smooth_function(grid, d, rng) for _ in range(3)]
    fs.append(from_values(grid, 0.3 * rng.standard_normal((grid.n, d))))
    fs += [GridFunction(grid, fs[0].values), shift_periods(fs[1], 2)]
    return fs


@pytest.mark.parametrize("d", [2, 3])
def test_entry_blocks_extended_one_by_one_equal_all_at_once(d, monkeypatch):
    # each entry is blocked once, when it is first asked for
    import homoclinic.multiplicity as mult

    blocked = []
    real = mult.shift_blocks

    def counted(functions):
        blocked.extend(functions)
        return real(functions)

    monkeypatch.setattr(mult, "shift_blocks", counted)
    g = Grid(period=1.0, nodes_per_period=40, half_periods=8)
    fs = _random_functions(g, d, np.random.default_rng(d))
    lib = SolutionLibrary()
    for f in fs:
        lib.entries.append(entry(f))
        extended = lib.entry_blocks()
    assert all(a is b for a, b in zip(extended.functions, fs, strict=True))
    assert len(blocked) == len(fs)
    whole = shift_blocks(fs)
    for field in ("blocks", "norm_sq", "nodes", "first", "last"):
        assert np.array_equal(getattr(extended, field), getattr(whole, field))


def _einsum_screen(a, b):
    """The two einsum contractions screen_gaps_sq ran before its BLAS
    products, kept as the reference."""
    ea, nb = a.blocks.shape[:2]
    eb = b.blocks.shape[0]
    h = a.grid.h
    gram = np.einsum("ipw,jqw->ijpq", a.blocks.reshape(ea, nb, -1), b.blocks.reshape(eb, nb, -1))
    p, q = np.indices((nb, nb))
    select = np.zeros((nb, nb, 2 * nb + 1))
    select[p, q, p - q + nb] = 1.0
    diag = np.einsum("ijpq,pqk->ijk", gram, select)
    fwd = diag + _repin(a.last, a.first, b.nodes) / h
    rev = diag[..., ::-1] + _repin(b.last, b.first, a.nodes).transpose(1, 0, 2) / h
    norm_a, norm_b = a.norm_sq[:, nb], b.norm_sq[:, nb]
    return (
        norm_a[:, None, None] + b.norm_sq[None] - 2.0 * fwd,
        norm_b[None, :, None] + a.norm_sq[:, None] - 2.0 * rev,
    )


@pytest.mark.parametrize("m", [40, 160])
@pytest.mark.parametrize("d", [2, 3])
def test_screen_products_match_the_einsum_contraction(m, d):
    # another summation order: equal within the screen's margin, not bitwise
    g = Grid(period=1.0, nodes_per_period=m, half_periods=8)
    rng = np.random.default_rng(m + d)
    a = shift_blocks(_random_functions(g, d, rng))
    b = shift_blocks(_random_functions(g, d, rng)[:2])
    top = max(a.norm_sq.max(), b.norm_sq.max())
    for x, y in ((a, b), (b, a), (a, a), (b, b)):
        for blas, ref in zip(screen_gaps_sq(x, y), _einsum_screen(x, y)):
            assert blas.shape == ref.shape
            assert np.abs(blas - ref).max() <= SCREEN_TOL * top


@pytest.mark.parametrize("m", [10, 40, 160])
@pytest.mark.parametrize("d", [2, 3])
def test_shift_gaps_match_the_per_shift_loop(m, d):
    g = Grid(period=1.0, nodes_per_period=m, half_periods=4)
    rng = np.random.default_rng(m + d)
    u = random_smooth_function(g, d, rng)
    v = random_smooth_function(g, d, rng)
    for a, b in ((u, v), (v, u), (u, u), (u, shift_periods(u, 2))):
        gaps = shift_gaps(a, b)
        old = np.array([_old_gap(a, b, k) for k in _old_shifts(g)])
        assert np.array_equal(gaps, old)
        assert geometric_distance(a, b) == _old_distance(a, b)


def test_ps_split_matches_the_per_shift_loop_on_ties():
    g = SMALL
    bump = narrow_bump(g, g.center_index, amp=0.8, second=0.3)
    zero = GridFunction(g, np.zeros((g.n, 2)))
    u = GridFunction(g, bump.values + shift_periods(bump, 4).values)
    tied = [
        # every shift of a zero entry is equally far: the first shift wins
        [zero, zero],
        # a duplicated entry and a shifted copy tie at distance 0
        [zero, bump, bump, shift_periods(bump, 2)],
        [narrow_bump(g, g.center_index, amp=0.5), shift_periods(bump, -1)],
    ]
    for entries in tied:
        lib = SolutionLibrary(eps_distinct=-1.0)
        for e in entries:
            lib.try_insert_entry(entry(e))
        dec = ps_split(u, lib)
        assert len(dec.bumps) == 2
        for b in dec.bumps:
            assert (b.matched_index, b.shift, b.distance) == _old_best_match(b.function, lib)


def test_is_distinct_thresholds():
    g = SMALL
    u = narrow_bump(g, g.center_index)
    v = narrow_bump(g, g.center_index, amp=0.7)
    assert not geometric_distance(u, shift_periods(u, 2)) > 0.1
    assert geometric_distance(u, v) > 0.1
    assert not geometric_distance(u, v) > 1e9


def test_library_rejects_shifted_duplicates():
    g = SMALL
    lib = SolutionLibrary(eps_distinct=0.1)
    u = narrow_bump(g, g.center_index)
    assert lib.try_insert_entry(entry(u))
    assert not lib.try_insert_entry(entry(shift_periods(u, 2)))
    assert len(lib) == 1
    outcomes = [e["outcome"] for e in lib.log]
    assert outcomes == ["inserted", "duplicate"]
    assert lib.log[1]["nearest_distance"] == pytest.approx(0.0, abs=1e-14)
    assert lib.log[1]["nearest_index"] == 0


def test_min_distance_on_empty_library():
    lib = SolutionLibrary()
    d, i = lib.min_distance_to(narrow_bump(SMALL, SMALL.center_index))
    assert d == np.inf and i == -1


def test_distance_matrix_properties():
    g = SMALL
    lib = SolutionLibrary(eps_distinct=0.1)
    lib.try_insert_entry(entry(narrow_bump(g, g.center_index)))
    lib.try_insert_entry(entry(narrow_bump(g, g.center_index, amp=0.5)))
    lib.try_insert_entry(entry(narrow_bump(g, g.center_index, amp=0.2, second=0.9)))
    D = lib.distance_matrix()
    assert D.shape == (3, 3)
    assert np.allclose(D, D.T)
    assert np.all(np.diag(D) == 0.0)
    assert np.all(D[np.triu_indices(3, 1)] > 0.0)


def test_multibump_guess_glues_separated_bumps(pot):
    # grid period count gives room for +-2 period shifts with a 2T gap
    g = Grid(period=1.0, nodes_per_period=10, half_periods=8)
    # park the synthetic bump far from q's axis so clearance is easy
    vals = np.zeros((g.n, 2))
    for off, w in ((-2, 0.25), (-1, 0.5), (0, 1.0), (1, 0.5), (2, 0.25)):
        vals[g.center_index + off, 1] = w
    u = GridFunction(g, vals)
    glued = _glued_sum([shift_periods(u, -3), shift_periods(u, 3)], pot)
    assert h1_norm(glued) == pytest.approx(np.sqrt(2.0) * h1_norm(u), rel=1e-12)


def test_multibump_guess_rejects_singular_sum(pot):
    g = Grid(period=1.0, nodes_per_period=10, half_periods=8)
    vals = np.zeros((g.n, 2))
    # a spike whose segment to zero passes straight through q = (2, 0)
    vals[g.center_index, 0] = 4.0
    u = GridFunction(g, vals)
    with pytest.raises(InfeasibleGuess):
        _glued_sum([shift_periods(u, -3), shift_periods(u, 3)], pot)


def test_ps_split_requires_entries(solved):
    with pytest.raises(ValueError):
        ps_split(solved.trajectory, SolutionLibrary())


def test_ps_split_identity(solved, library3):
    dec = ps_split(solved.trajectory, library3)
    assert len(dec.bumps) == 1
    assert dec.bumps[0].distance <= 1e-12
    assert dec.residual_norm <= 1e-12


def test_ps_split_manufactured_pair(solved, library3):
    # two copies of the found solution, ten periods apart, on a wide grid
    v = solved.trajectory
    wide = Grid(period=1.0, nodes_per_period=40, half_periods=16)
    lift = np.zeros((wide.n, 2))
    off = wide.center_index - v.grid.center_index
    lift[off : off + v.grid.n] = v.values
    lift[0] = lift[-1] = 0.0
    u0 = GridFunction(wide, lift)
    man = GridFunction(wide, u0.values + shift_periods(u0, 10).values)

    lib = SolutionLibrary()
    lib.try_insert_entry(entry(u0, action=solved.action))
    dec = ps_split(man, lib)
    assert len(dec.bumps) == 2
    for b in dec.bumps:
        assert b.matched_index == 0
        assert b.distance <= 0.05 * h1_norm(u0)
    assert {b.shift for b in dec.bumps} == {0, 10}
    assert dec.residual_norm <= 1e-12


@pytest.mark.parametrize(
    "targets,calls,glues,last_phase",
    [(1, 1, 0, 1), (7, 1, 5, 2), (9, 2, 6, 3)],
    ids=["targets1", "targets7", "targets9"],
)
def test_search_phase1_is_lazy(pot, grid, cfg, monkeypatch, targets, calls, glues, last_phase):
    # the attempt stream stops as soon as the target is met: in phase 1,
    # after the fifth glue (no phase-3 record), or at the phase-3 item.
    # Phase 1 solves once; its second item is the first orbit's mirror
    import homoclinic.multiplicity as mult

    items = []
    real = mult.single_loop_attempt

    def counted(*args):
        items.append(args[3])
        return real(*args)

    monkeypatch.setattr(mult, "single_loop_attempt", counted)
    lib = search_distinct(pot, grid, cfg, targets=targets)
    assert len(lib) == targets
    assert len(items) == calls
    assert [rec["phase"] for rec in lib.log].count(2) == glues
    assert lib.log[-1]["phase"] == last_phase
    assert lib.log[-1]["outcome"] == "inserted"


def test_search_log_times_every_attempt(grid, cfg):
    # inserted, duplicate and failed records and phase 2 glues all carry
    # the attempt's seconds; nothing else in the log depends on time.  The
    # alpha=4 search logs all three outcomes.
    pot4 = example_potential(alpha=4.0)
    first, again = (search_distinct(pot4, grid, cfg, targets=9) for _ in range(2))
    assert {rec["outcome"] for rec in first.log} == {"inserted", "duplicate", "failed"}
    assert any(rec.get("phase") == 2 for rec in first.log)
    for rec in first.log + again.log:
        assert rec["timing"]["seconds"] >= 0.0

    def untimed(log):
        return [{k: v for k, v in rec.items() if k != "timing"} for rec in log]

    assert untimed(again.log) == untimed(first.log)


# the built-in schedule at m=40: the two phase-1 items, glues of pairs
# (0, 0) and (0, 1) at separations 6, 5 and 4, then the phase-3 item at
# crossing phase 1/2 for the ninth entry; every record carries its phase
_LIBRARY9_SCHEDULE = [
    (1, "inserted", {"k0": 1.5, "orientation": 1, "phase": 1}),
    (1, "inserted", {"k0": 1.5, "orientation": -1, "phase": 1}),
    (2, "inserted", {"phase": 2, "separation": 6, "pair": [0, 0]}),
    (2, "inserted", {"phase": 2, "separation": 6, "pair": [0, 1]}),
    (2, "inserted", {"phase": 2, "separation": 5, "pair": [0, 0]}),
    (2, "inserted", {"phase": 2, "separation": 5, "pair": [0, 1]}),
    (2, "inserted", {"phase": 2, "separation": 4, "pair": [0, 0]}),
    (2, "inserted", {"phase": 2, "separation": 4, "pair": [0, 1]}),
    (3, "inserted", {"center": 0.5, "width": 2.0, "phase": 3, "k0": 1.35}),
]


def test_search_runs_the_builtin_schedule(library9):
    log = [(rec.get("phase"), rec["outcome"], rec["schedule_item"]) for rec in library9.log]
    assert log == _LIBRARY9_SCHEDULE


_MINUS = {"k0": 1.5, "orientation": -1, "phase": 1}


@pytest.mark.parametrize("d", [2, 3])
def test_mirror_is_the_solved_orientation_bitwise(grid, cfg, d):
    # q on a coordinate axis: the reflection is a sign flip, exact in every
    # kernel operation, so the image is the orbit the mirror item solves to
    pot = example_potential(dimension=d)
    lib = search_distinct(pot, grid, cfg, targets=2)
    solved = single_loop_attempt(pot, grid, cfg, _MINUS)
    mirror = lib.entries[1]
    assert mirror.schedule_item == _MINUS
    assert mirror.trajectory.values.tobytes() == solved.trajectory.values.tobytes()
    assert (mirror.action, mirror.grad_norm, mirror.clearance) == (
        solved.action,
        solved.grad_norm,
        solved.clearance,
    )


def test_mirror_off_axis_is_certified(grid, cfg):
    pot = example_potential(q=[1.2, 1.6])
    lib = search_distinct(pot, grid, cfg, targets=2)
    solved = single_loop_attempt(pot, grid, cfg, _MINUS)
    record = lib.log[1]
    assert record["schedule_item"] == _MINUS
    assert record["grad_norm"] <= cfg.grad_tol
    assert record["action"] == pytest.approx(solved.action, rel=1e-9)


def test_mirror_item_is_skipped_when_the_first_fails(grid, cfg, monkeypatch):
    # an overflowing well fails the first attempt: the mirror item maps
    # onto it under R, so it is not solved again; phase 3 is still tried
    import homoclinic.multiplicity as mult

    items = []
    real = mult.single_loop_attempt

    def counted(*args):
        items.append(args[3])
        return real(*args)

    monkeypatch.setattr(mult, "single_loop_attempt", counted)
    with np.errstate(over="ignore", invalid="ignore"):
        lib = search_distinct(example_potential(a_base=1e300), grid, cfg, targets=3)
    assert [item.get("orientation") for item in items] == [1, None]
    assert [item["phase"] for item in items] == [1, 3]
    assert [rec["schedule_item"] for rec in lib.log] == items
    for rec in lib.log:
        assert rec["outcome"] == "failed"
        assert rec["error"].startswith("ActionOverflow: ")
