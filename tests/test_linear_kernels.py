"""The solver's numpy linear algebra against LAPACK references.

solve.solve_banded (block cyclic reduction of the Newton system),
solve.H1Preconditioner (the Green's function of K + M, pinned at one node
by the rank-one correction of solve.ray_direction) and
ActionKernel.hessian_blocks (the Hessian from a point's stored offsets)
stand in for LAPACK calls and a second well evaluation; scipy's banded
LAPACK solve is the oracle for both systems, the tridiagonal K + M with
its pinned node cut out included.
"""

import numpy as np
import pytest
from numpy.linalg import LinAlgError
from scipy.linalg import eigvals_banded
from scipy.linalg import solve_banded as lapack_solve_banded

from homoclinic import solve
from homoclinic.action import ActionKernel
from homoclinic.grids import Grid
from homoclinic.potential import eval_hessW, example_potential
from homoclinic.solve import H1Preconditioner, initial_guess_bump, solve_homoclinic


def _band(blocks, coupling):
    """The Newton system in scipy's solve_banded (d, d) layout, node-major unknowns."""
    n, d, _ = blocks.shape
    ab = np.zeros((2 * d + 1, n * d))
    for c in range(d):
        for c2 in range(d):
            ab[d + c - c2, c2::d] = blocks[:, c, c2]
    ab[0, d:] = coupling
    ab[2 * d, : n * d - d] = coupling
    return ab


def _point(pot, grid, noise):
    """The stage kernel and its point at the default guess plus seeded noise."""
    vals = initial_guess_bump(grid, pot, k0=1.5).values.copy()
    vals[1:-1] += noise * np.random.default_rng(0).standard_normal(vals[1:-1].shape)
    kernel = ActionKernel(pot, grid)
    return kernel, kernel.trial(vals)


def _solve_error(blocks, h, columns):
    """Max deviation of solve_banded from LAPACK, relative to the solution size."""
    n, d, _ = blocks.shape
    b = np.random.default_rng(1).standard_normal((n, d, columns))
    x = solve.solve_banded(blocks, -1.0 / h, b)
    ref = lapack_solve_banded((d, d), _band(blocks, -1.0 / h), b.reshape(n * d, columns))
    assert x.shape == b.shape
    return np.abs(x.reshape(n * d, columns) - ref).max() / np.abs(ref).max()


@pytest.mark.parametrize("m", [40, 320])
@pytest.mark.parametrize("alpha", [2.0, 3.0, 4.0])
def test_block_solve_matches_lapack(alpha, m):
    pot = example_potential(alpha=alpha)
    grid = Grid(period=1.0, nodes_per_period=m, half_periods=8)
    kernel, p = _point(pot, grid, 1e-2)
    for columns in (1, 1 + pot.q.shape[0]):  # the gradient, then the bordered ray rows
        assert _solve_error(kernel.hessian_blocks(p), grid.h, columns) <= 1e-10


def test_block_solve_matches_lapack_in_three_dimensions(grid):
    pot = example_potential(dimension=3)
    kernel, p = _point(pot, grid, 1e-2)
    for columns in (1, 4):
        assert _solve_error(kernel.hessian_blocks(p), grid.h, columns) <= 1e-10


def test_block_solve_matches_lapack_near_singular(grid, cfg):
    # the default alpha=3 orbit is a saddle whose Hessian has an eigenvalue
    # of size 3e-5 against a spectral radius near 4/h
    cand = solve_homoclinic(example_potential(alpha=3.0), grid, cfg)
    kernel = ActionKernel(example_potential(alpha=3.0), grid)
    blocks = kernel.hessian_blocks(kernel.trial(np.array(cand.trajectory.values)))
    d = blocks.shape[1]
    eigs = eigvals_banded(_band(blocks, -1.0 / grid.h)[: d + 1])
    assert 1e-5 <= np.abs(eigs).min() <= 1e-4
    for columns in (1, 1 + d):
        assert _solve_error(blocks, grid.h, columns) <= 1e-9


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [10, 100])  # the dense base case, and a reduced level
def test_block_solve_raises_on_a_singular_pivot(d, n):
    blocks = np.tile(3.0 * np.eye(d), (n, 1, 1))
    blocks[1] = np.diag(np.arange(d, dtype=float))  # rank d - 1
    if n <= solve._DENSE_NODES:
        blocks[:] = blocks[1]  # a dense system of singular blocks with no coupling
    with pytest.raises(LinAlgError):
        solve.solve_banded(blocks, 0.0 if n <= solve._DENSE_NODES else -1.0, np.ones((n, d, 1)))


def test_newton_stops_on_a_singular_pivot(pot, grid, cfg):
    kernel, p = _point(pot, grid, 0.0)
    singular = kernel.hessian_blocks(p)
    singular[1] = 0.0
    kernel.hessian_blocks = lambda point: singular
    p1, k, gn, norms = solve._damped_newton(kernel, grid, p, cfg)
    assert p1 is p and k is None and norms == []
    assert gn == pytest.approx(solve.grad_norm(grid, kernel.gradient(p)))


def _banded_h1(grid, pinned):
    """(K + M)^-1 on the interior nodes by LAPACK's tridiagonal solve, with
    node `pinned` held at 0: its row is a unit row, its couplings are cut
    and its right-hand side is 0."""
    h = grid.h
    n_int = grid.n - 2
    ab = np.empty((3, n_int))  # scipy's layout: ab[1 + r - c, c] holds entry (r, c)
    ab[0] = ab[2] = -1.0 / h
    ab[1] = 2.0 / h + h
    if pinned is not None:
        i = pinned - 1
        ab[:, i] = (0.0, 1.0, 0.0)
        if i + 1 < n_int:
            ab[0, i + 1] = 0.0
        if i > 0:
            ab[2, i - 1] = 0.0

    def apply(g):
        b = np.array(g[1:-1], dtype=float)
        if pinned is not None:
            b[pinned - 1] = 0.0
        out = np.zeros(g.shape)
        out[1:-1] = lapack_solve_banded((1, 1), ab, b)
        return out

    return apply


_LONG_BOX = Grid(period=20.0, nodes_per_period=40, half_periods=20)


@pytest.mark.parametrize("shape", ["1d", "2d", "3d"])
@pytest.mark.parametrize("where", [None, "first", "centre", "last"])
@pytest.mark.parametrize("box", ["default", "long"])
def test_preconditioner_matches_a_dense_solve(grid, box, where, shape):
    # the long box has lam n near 770: a sinh-form Green's function overflows there
    grid = _LONG_BOX if box == "long" else grid
    rng = np.random.default_rng(2)
    d = int(shape[0])
    g = rng.standard_normal((grid.n, d) if d > 1 else grid.n)
    pre = H1Preconditioner(grid)
    free = _banded_h1(grid, None)

    def assert_close(x, ref):
        assert x.shape == ref.shape
        assert np.abs(x - ref).max() <= 1e-11 * np.abs(ref).max()
        assert np.all(x[[0, -1]] == 0.0)

    if where is None:
        assert_close(pre.apply(g), free(g))
        return
    # node j held on a ray through the rank-one correction of ray_direction:
    # the part along the ray is solved free, the transverse part pinned
    j = {"first": 1, "centre": grid.center_index, "last": grid.n - 2}[where]
    pinned = _banded_h1(grid, j)
    g = g.reshape(grid.n, d)
    q_hat = rng.standard_normal(d)
    q_hat /= np.linalg.norm(q_hat)
    column = pre.column(j)
    x = solve.ray_direction(pre, column, j, g, q_hat)
    along = g @ q_hat
    assert_close(x @ q_hat, free(along))
    assert_close(x - np.outer(x @ q_hat, q_hat), pinned(g - np.outer(along, q_hat)))
    # on the clamp node j cannot move at all
    x = solve.ray_direction(pre, column, j, g, q_hat, clamped=True)
    assert_close(x, pinned(g))
    assert np.all(x[j] == 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("ray_node", [None, 5])
def test_preconditioner_refuses_non_finite_input(grid, ray_node, bad):
    # the E-stage direction, with node ray_node held on the ray, refuses it too
    g = np.ones((grid.n, 2))
    g[7, 1] = bad
    pre = H1Preconditioner(grid)
    with pytest.raises(ValueError):
        if ray_node is None:
            pre.apply(g)
        else:
            solve.ray_direction(pre, pre.column(ray_node), ray_node, g, np.array([1.0, 0.0]))


@pytest.mark.parametrize("dimension", [2, 3])
@pytest.mark.parametrize("alpha", [2.0, 3.0, 4.0])
def test_hessian_blocks_match_eval_hessW(grid, alpha, dimension):
    pot = example_potential(alpha=alpha, dimension=dimension)
    kernel, p = _point(pot, grid, 1e-2)
    h = grid.h
    ref = (2.0 / h) * np.eye(dimension) - h * (
        kernel.a[1:-1, None, None] * eval_hessW(pot, p.values[1:-1])
    )
    assert np.abs(kernel.hessian_blocks(p) - ref).max() <= 1e-13 * np.abs(ref).max()
