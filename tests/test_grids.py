"""Grid functions: norms, shifts, renormalization, window bound, CSV."""

import csv
import io
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from homoclinic.config import parse_config
from homoclinic.errors import ConfigError, ShiftOutOfRange, TrajectoryFormatError, ZeroFunction
from homoclinic.grids import (
    Grid,
    GridFunction,
    TrajectoryCache,
    h1_norm,
    kinetic_seminorm_sq,
    l2_norm,
    random_smooth_function,
    read_trajectory_csv,
    renormalize_translation,
    shift_periods,
    sobolev_bound_check,
    sup_norm,
    write_trajectory_csv,
    zero_function,
)

SMALL = Grid(period=1.0, nodes_per_period=10, half_periods=4)


def bump(grid, center_index, d=2, amp=1.0):
    """Compactly supported triangular bump, 5 nodes wide."""
    vals = np.zeros((grid.n, d))
    for off, w in ((-2, 0.25), (-1, 0.5), (0, 1.0), (1, 0.5), (2, 0.25)):
        vals[center_index + off, 0] = amp * w
    return GridFunction(grid, vals)


def test_grid_geometry():
    g = Grid(period=1.0, nodes_per_period=40, half_periods=8)
    assert g.n == 641
    assert g.h == pytest.approx(0.025)
    assert g.times[0] == -8.0
    assert g.times[-1] == 8.0
    assert g.times[g.center_index] == 0.0
    assert g.index_of_time(0.0) == g.center_index
    assert g.index_of_time(-8.0) == 0
    with pytest.raises(ValueError):
        g.index_of_time(0.0126)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(period=0.0, nodes_per_period=40, half_periods=8)
    with pytest.raises(ValueError):
        Grid(period=1.0, nodes_per_period=4, half_periods=8)
    with pytest.raises(ValueError):
        Grid(period=1.0, nodes_per_period=40, half_periods=1)
    # a config bounds n d^2, the Newton's Hessian entries: 10^6 nodes at d=64
    # would hold 33 GB of them
    with pytest.raises(ConfigError, match="1000001 nodes at dimension 64 make"):
        parse_config({"grid": {"M": 12500}, "potential": {"dimension": 64}})


def test_grid_function_pins_boundary():
    vals = np.ones((SMALL.n, 2))
    with pytest.raises(ValueError):
        GridFunction(SMALL, vals)
    vals[0] = 0.0
    vals[-1] = 0.0
    u = GridFunction(SMALL, vals)
    assert not u.values.flags.writeable


def test_norm_identities_on_a_hand_function():
    # single raised node: kinetic = 2 v^2 / h, l2 = h v^2
    g = SMALL
    v = 1.5
    vals = np.zeros((g.n, 1))
    vals[g.center_index, 0] = v
    u = GridFunction(g, vals)
    assert kinetic_seminorm_sq(u) == pytest.approx(2.0 * v * v / g.h)
    assert l2_norm(u) == pytest.approx(np.sqrt(g.h * v * v))
    assert sup_norm(u) == pytest.approx(v)


@given(seed=st.integers(0, 1000), k=st.integers(-3, 3))
@settings(max_examples=40, deadline=None)
def test_shift_preserves_norms_of_interior_functions(seed, k):
    """Whole-period shifts of compactly supported functions move mass only."""
    g = SMALL
    u = bump(g, g.center_index)
    v = shift_periods(u, k)
    assert h1_norm(v) == pytest.approx(h1_norm(u), rel=1e-14)
    assert sup_norm(v) == pytest.approx(sup_norm(u), rel=1e-14)
    # shifting back is exact for interior-supported functions
    w = shift_periods(v, -k)
    assert np.array_equal(w.values, u.values)


def test_shift_by_zero_is_identity():
    u = bump(SMALL, SMALL.center_index + 7)
    v = shift_periods(u, 0)
    assert np.array_equal(v.values, u.values)


def test_shift_out_of_range():
    with pytest.raises(ShiftOutOfRange):
        shift_periods(bump(SMALL, SMALL.center_index), 9)


def test_renormalize_moves_peak_into_base_cell():
    g = SMALL
    m = g.nodes_per_period
    for cell in (-3, -1, 0, 2):
        u = bump(g, g.center_index + cell * m + 3)
        v, l = renormalize_translation(u)
        assert l == cell
        i_star = int(np.argmax(v.node_norms()))
        assert g.center_index <= i_star < g.center_index + m
    with pytest.raises(ZeroFunction):
        renormalize_translation(zero_function(g, 2))


def test_renormalize_from_fifth_cell():
    # default-size grid: peak at t = 5.25 sits in period cell [5, 6)
    g = Grid(period=1.0, nodes_per_period=40, half_periods=8)
    u = bump(g, g.center_index + 5 * g.nodes_per_period + 10)
    v, l = renormalize_translation(u)
    assert l == 5
    assert int(np.argmax(v.node_norms())) == g.center_index + 10


def test_renormalize_keeps_peak_already_in_base_cell():
    g = SMALL
    u = bump(g, g.center_index + 4)
    v, l = renormalize_translation(u)
    assert l == 0
    assert np.array_equal(v.values, u.values)


def test_renormalize_tie_breaks_to_earliest_peak():
    g = Grid(period=1.0, nodes_per_period=40, half_periods=8)
    m = g.nodes_per_period
    vals = np.zeros((g.n, 2))
    vals[g.center_index + 3 * m + 10] = [1.0, 0.0]
    vals[g.center_index + 5 * m + 10] = [0.0, 1.0]  # same node norm, later
    u = GridFunction(g, vals)
    v, l = renormalize_translation(u)
    assert l == 3
    assert np.allclose(v.values[g.center_index + 10], [1.0, 0.0])


def test_zero_function_norms():
    z = zero_function(SMALL, 2)
    assert kinetic_seminorm_sq(z) == 0.0
    assert l2_norm(z) == 0.0
    assert h1_norm(z) == 0.0
    assert sup_norm(z) == 0.0


def test_renormalize_idempotent():
    g = SMALL
    u = bump(g, g.center_index + 2 * g.nodes_per_period)
    v, _ = renormalize_translation(u)
    w, l2 = renormalize_translation(v)
    assert l2 == 0
    assert np.array_equal(w.values, v.values)


@given(seed=st.integers(0, 500))
@settings(max_examples=30, deadline=None)
def test_sobolev_window_bound_random(seed):
    g = Grid(period=1.0, nodes_per_period=20, half_periods=4)
    u = random_smooth_function(g, 2, np.random.default_rng(seed))
    for s in (-2.0, 0.0, 1.5):
        rep = sobolev_bound_check(u, s)
        assert rep.passed, "window bound violated at s=%s" % s


@given(seed=st.integers(0, 500))
@settings(max_examples=30, deadline=None)
def test_sup_norm_bounded_by_half_h1_norm_squared(seed):
    # |u_i|^2 <= ||u'|| ||u|| <= h1_norm(u)^2 / 2 on a pinned grid: the
    # estimate behind action.sphere_action_bound
    g = Grid(period=1.0, nodes_per_period=20, half_periods=4)
    u = random_smooth_function(g, 2, np.random.default_rng(seed))
    assert sup_norm(u) ** 2 <= h1_norm(u) ** 2 / 2.0 * (1.0 + 1e-12)


def test_sobolev_bound_is_tight_for_constants():
    # flat plateau: |u(s)| = 1, window l2 = 1, kinetic = 0
    g = SMALL
    vals = np.zeros((g.n, 1))
    vals[1:-1, 0] = 1.0
    u = GridFunction(g, vals)
    rep = sobolev_bound_check(u, 0.0)
    assert rep.lhs == pytest.approx(1.0)
    assert rep.rhs >= rep.lhs  # kinetic contribution from the cut is >= 0


def test_sobolev_bound_on_zero_function():
    rep = sobolev_bound_check(zero_function(SMALL, 2), 0.0)
    assert rep.lhs == 0.0
    assert rep.rhs == 0.0
    assert rep.passed


def test_sobolev_bound_on_hat_at_window_corner():
    # unit hat exactly at s = 1: lhs = 1, and the window [1, 2] sees half
    # the hat, so rhs = sqrt(h/2) + sqrt(1/h) by hand
    g = SMALL
    h = g.h
    i = g.index_of_time(1.0)
    vals = np.zeros((g.n, 2))
    vals[i, 0] = 1.0
    rep = sobolev_bound_check(GridFunction(g, vals), 1.0)
    assert rep.lhs == pytest.approx(1.0, abs=0.0)
    assert rep.rhs == pytest.approx(np.sqrt(h / 2.0) + np.sqrt(1.0 / h), rel=1e-12)
    assert rep.passed


def test_csv_round_trip_exact(tmp_path):
    g = SMALL
    u = random_smooth_function(g, 3, np.random.default_rng(42))
    path = tmp_path / "u.csv"
    write_trajectory_csv(path, u)
    v = read_trajectory_csv(path, g)
    assert np.array_equal(u.values, v.values)


def test_csv_rejects_wrong_grid(tmp_path):
    u = random_smooth_function(SMALL, 2, np.random.default_rng(0))
    path = tmp_path / "u.csv"
    write_trajectory_csv(path, u)
    other = Grid(period=1.0, nodes_per_period=20, half_periods=4)
    with pytest.raises(TrajectoryFormatError):
        read_trajectory_csv(path, other)


def _valid_csv_lines():
    u = random_smooth_function(SMALL, 2, np.random.default_rng(0))
    rows = zip(SMALL.times, u.values)
    return ["t,u1,u2"] + ["%.17g,%.17g,%.17g" % (t, a, b) for t, (a, b) in rows]


def _edit(index, text):
    def apply(lines):
        lines[index] = text
        return lines

    return apply


def _shift_times(lines):
    rows = [row.split(",", 1) for row in lines[1:]]
    return lines[:1] + ["%.17g,%s" % (float(t) + 0.05, rest) for t, rest in rows]


GARBAGE = [
    (lambda lines: ["t,u1,u2", "0,not,a number"], "expected %d rows" % SMALL.n),
    (lambda lines: [], "empty trajectory file"),
    (_edit(0, "t,x,y"), "header must be"),
    (_edit(0, "t"), "header must be"),
    (lambda lines: lines[:-1], "expected %d rows" % SMALL.n),
    (_edit(7, "nope,0,0"), "non-numeric value"),
    (_edit(5, "-3.875,0.5"), "non-numeric value"),  # loadtxt: number of columns changed
    (lambda lines: lines[:1] + [row + ",0" for row in lines[1:]], "ragged rows"),
    (_edit(1, "%.17g,0,1e-300" % SMALL.times[0]), "boundary rows must be zero"),
    (_edit(-1, "%.17g,0.25,0" % SMALL.times[-1]), "boundary rows must be zero"),
    (_shift_times, "node times do not match"),
    (_edit(9, "nan,0.5,0.5"), "node times do not match"),
    (_edit(9, "%.17g,nan,0.5" % SMALL.times[8]), "non-finite value"),
    (_edit(9, "%.17g,0.5,inf" % SMALL.times[8]), "non-finite value"),
    (_edit(9, "%.17g,-inf,0.5" % SMALL.times[8]), "non-finite value"),
    # np.loadtxt skips a blank line, so the parsed array is one row short
    (_edit(9, ""), "expected %d rows for this grid, found %d" % (SMALL.n, SMALL.n - 1)),
    # the byte 0xff, not valid UTF-8 (written through surrogateescape)
    (lambda lines: ["t,u1,u2", "\udcff"], "undecodable byte in trajectory"),
]


def test_csv_rejects_garbage(tmp_path):
    # a cache read fails the same way: nothing invalid is stored
    cache = TrajectoryCache(str(tmp_path / "cache"))
    path = tmp_path / "bad.csv"
    for make, message in GARBAGE:
        lines = make(_valid_csv_lines())
        path.write_bytes("".join(row + "\r\n" for row in lines).encode("utf-8", "surrogateescape"))
        with pytest.raises(TrajectoryFormatError, match=message):
            read_trajectory_csv(path, SMALL)
        with pytest.raises(TrajectoryFormatError, match=message):
            cache.read(path, SMALL)


def _stored(tmp_path, u):
    """A CSV of u read once through a cache that then stored it, and the cache directory."""
    path = tmp_path / "u.csv"
    write_trajectory_csv(path, u)
    directory = str(tmp_path / "cache")
    cache = TrajectoryCache(directory)
    digest, v = cache.read(path, u.grid)
    cache.commit({digest})
    assert v.values.tobytes() == u.values.tobytes()
    assert os.listdir(directory) == [digest + ".npy"]
    return path, directory


def test_cache_hit_reads_the_same_trajectory(tmp_path, monkeypatch):
    u = random_smooth_function(SMALL, 3, np.random.default_rng(3))
    path, directory = _stored(tmp_path, u)
    monkeypatch.setattr(np, "loadtxt", None)  # a hit parses no text
    _, v = TrajectoryCache(directory).read(path, SMALL)
    assert v.values.tobytes() == u.values.tobytes()


def test_cache_file_of_another_shape_is_parsed_again(tmp_path):
    u = random_smooth_function(SMALL, 2, np.random.default_rng(2))
    path, directory = _stored(tmp_path, u)
    (name,) = os.listdir(directory)
    wrongs = (np.zeros((SMALL.n, 2)), np.zeros((SMALL.n, 3), dtype=np.float32), np.zeros(SMALL.n))
    for wrong in wrongs:
        np.save(os.path.join(directory, name), wrong)
        cache = TrajectoryCache(directory)
        digest, v = cache.read(path, SMALL)
        assert v.values.tobytes() == u.values.tobytes()
        cache.commit({digest})
        back = np.load(os.path.join(directory, name))
        assert back.shape == (SMALL.n, 3) and back.dtype == np.float64


def test_cache_hit_on_another_grid_fails_like_a_parse(tmp_path, monkeypatch):
    u = random_smooth_function(SMALL, 2, np.random.default_rng(0))
    path, directory = _stored(tmp_path, u)
    for m in (8, 20):
        other = Grid(period=1.0, nodes_per_period=m, half_periods=4)
        with pytest.raises(TrajectoryFormatError) as parsed:
            read_trajectory_csv(path, other)
        with monkeypatch.context() as patch:
            patch.setattr(np, "loadtxt", None)  # so the cached read must be a hit
            with pytest.raises(TrajectoryFormatError) as cached:
                TrajectoryCache(directory).read(path, other)
        assert str(cached.value) == str(parsed.value)
        assert str(cached.value).startswith("expected %d rows for this grid" % other.n)


def test_cache_commit_keeps_only_what_it_is_told(tmp_path):
    u = random_smooth_function(SMALL, 2, np.random.default_rng(1))
    path, directory = _stored(tmp_path, u)
    cache = TrajectoryCache(directory)
    cache.read(path, SMALL)
    cache.commit(set())
    assert os.listdir(directory) == []


def test_csv_writer_matches_csv_module(tmp_path):
    # the csv module's default dialect: CRLF line ends, %.17g cells, no quoting
    u = random_smooth_function(SMALL, 3, np.random.default_rng(7))
    ref = io.StringIO(newline="")
    w = csv.writer(ref)
    w.writerow(["t", "u1", "u2", "u3"])
    for t, row in zip(SMALL.times, u.values):
        w.writerow(["%.17g" % t] + ["%.17g" % x for x in row])
    path = tmp_path / "u.csv"
    write_trajectory_csv(path, u)
    assert path.read_bytes() == ref.getvalue().encode()


def _savetxt_reference(u):
    """The writer as np.savetxt spells it, one formatted row at a time."""
    header = ",".join(["t"] + ["u%d" % (a + 1) for a in range(u.d)])
    out = io.StringIO(newline="")
    data = np.column_stack([u.grid.times, u.values])
    np.savetxt(out, data, fmt="%.17g", delimiter=",", newline="\r\n", header=header, comments="")
    return out.getvalue().encode()


_SMALLEST_NORMAL = float(np.finfo(float).tiny)
_HUGE = float(np.finfo(float).max)

CSV_CELLS = st.one_of(
    st.just(-0.0),
    st.floats(-_SMALLEST_NORMAL, _SMALLEST_NORMAL, exclude_min=True, exclude_max=True),
    st.sampled_from([1e308, -1e308, _HUGE, -_HUGE]),
    st.integers(-(2**53), 2**53).map(float),
    st.tuples(st.integers(-(10**6), 10**6), st.floats(0.0, 1.0, exclude_max=True)).map(sum),
    st.integers(-(10**9), 10**9).map(lambda k: k / 1000.0),
    st.floats(allow_nan=False, allow_infinity=False),
)


@pytest.mark.parametrize("m", [8, 40, 160])
@pytest.mark.parametrize("d", [2, 3])
@given(cells=st.lists(CSV_CELLS, min_size=1, max_size=50), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_csv_writer_matches_savetxt(tmp_path, d, m, cells, seed):
    # every drawn cell lands in the interior at least once; the rest repeat them
    g = Grid(period=1.0, nodes_per_period=m, half_periods=2)
    rng = np.random.default_rng(seed)
    pool = np.array(cells)
    flat = rng.choice(pool, size=(g.n - 2) * d)
    flat[: len(pool)] = pool
    vals = np.zeros((g.n, d))
    vals[1:-1] = flat.reshape(g.n - 2, d)
    u = GridFunction(g, vals)
    path = tmp_path / "u.csv"
    write_trajectory_csv(path, u)
    assert path.read_bytes() == _savetxt_reference(u)
    back = read_trajectory_csv(path, g)
    assert back.values.tobytes() == u.values.tobytes()
