"""Run configuration: JSON document loading, validation, and echo.

A run is described by one JSON object with blocks `potential`, `grid`,
`solver`, `search`, `refine` plus `out_dir` and `seed`; every field has a
default, so {} is a valid document.  Parsing either succeeds completely or
raises ConfigError naming the offending field (malformed JSON reports line
and column).  The resolved configuration echoes back to an equivalent
document via RunConfig.echo, and parsing that echo reproduces the same
resolved configuration, which is what makes reports reproducible from the
config they embed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from .errors import ConfigError
from .grids import Grid
from .potential import MAX_HESSIAN_ENTRIES, WITNESS_RADIUS, PotentialSpec, example_potential
from .solve import SolverConfig


@dataclass
class SearchConfig:
    targets: int = 3
    eps_distinct: float = 0.1


@dataclass
class RefineConfig:
    """The refine study's node counts: coarse and fine resolved, m_coarse
    and m_fine as given (None when unset) for the echo."""

    coarse: int
    fine: int
    m_coarse: Optional[int] = None
    m_fine: Optional[int] = None


@dataclass
class RunConfig:
    potential: PotentialSpec
    grid: Grid
    solver: SolverConfig
    search: SearchConfig
    refine: RefineConfig
    out_dir: str = "."
    seed: int = 0

    def echo(self) -> dict:
        """Round-trippable document: parse_config(echo()) resolves identically."""
        pot = self.potential
        solver = {f.name: getattr(self.solver, f.name) for f in fields(SolverConfig)}
        return {
            "potential": {
                "dimension": int(pot.dimension),
                "q": [float(x) for x in pot.q],
                "alpha": float(pot.alpha),
                "a_base": float(pot.a_base),
                "a_amp": float(pot.a_amp),
                "period": float(pot.period),
            },
            "grid": {
                "m": int(self.grid.nodes_per_period),
                "M": int(self.grid.half_periods),
            },
            "solver": solver,
            "search": {
                "targets": int(self.search.targets),
                "eps_distinct": float(self.search.eps_distinct),
            },
            "refine": {
                "m_coarse": self.refine.m_coarse,
                "m_fine": self.refine.m_fine,
            },
            "out_dir": self.out_dir,
            "seed": int(self.seed),
        }


# admissible ranges of the solver and search fields, (test, message); k0
# is checked against k_min separately
_SOLVER_RANGES = {
    "bump_width": (lambda x: x > 0.0, "must be positive"),
    "orientation": (lambda x: x in (1, -1), "must be 1 or -1"),
    "grad_tol": (lambda x: x >= 0.0, "must be nonnegative"),
    "eps_k": (lambda x: x > 0.0, "must be positive"),
    "max_iters": (lambda x: x >= 0, "must be nonnegative"),
    "polish_steps": (lambda x: x >= 0, "must be nonnegative"),
}
_SEARCH_RANGES = {
    "targets": (lambda x: x >= 0, "must be nonnegative"),
    "eps_distinct": (lambda x: x > 0.0, "must be positive"),
}


def _require(cond: bool, where: str, msg: str):
    if not cond:
        raise ConfigError("%s: %s" % (where, msg))


def _as_int(value, where: str) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool), where, "expected an integer")
    return value


def _as_float(value, where: str) -> float:
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        where,
        "expected a number",
    )
    try:
        x = float(value)
    except OverflowError:  # an integer literal beyond the float range
        x = math.inf
    _require(math.isfinite(x), where, "expected a finite number")
    return x


def _check_keys(block: dict, allowed, where: str):
    _require(isinstance(block, dict), where, "expected an object")
    for key in block:
        _require(key in allowed, "%s.%s" % (where, key), "unknown field")


def _parse_potential(block: dict) -> PotentialSpec:
    _check_keys(block, {"dimension", "q", "alpha", "a_base", "a_amp", "period"}, "potential")
    dim = _as_int(block.get("dimension", 2), "potential.dimension")
    alpha = _as_float(block.get("alpha", 2.0), "potential.alpha")
    a_base = _as_float(block.get("a_base", 2.0), "potential.a_base")
    a_amp = _as_float(block.get("a_amp", 1.0), "potential.a_amp")
    period = _as_float(block.get("period", 1.0), "potential.period")
    q = None
    if "q" in block:
        raw = block["q"]
        _require(isinstance(raw, list) and len(raw) > 0, "potential.q", "expected a nonempty array")
        q = np.array([_as_float(x, "potential.q") for x in raw])
        # the barrier check's innermost shell, 1e-4 times the witness radius
        # from q, must stay outside the guard ball of radius 1e-9 |q|
        # (math.hypot, unlike the numpy norm, does not overflow)
        _require(
            math.hypot(*q) < 1e4,
            "potential.q",
            "|q| must be below 1e4, where the guard ball around q reaches the "
            "innermost strong-force shell",
        )
    try:
        pot = example_potential(
            alpha=alpha, dimension=dim, a_base=a_base, a_amp=a_amp, period=period, q=q
        )
    except ValueError as exc:
        raise ConfigError("potential: %s" % exc) from exc
    # the barrier check covers shells out to the built-in witness radius,
    # which must stay below |q| / 2
    _require(
        pot.q_norm > 2.0 * WITNESS_RADIUS,
        "potential.q",
        "|q| must exceed %g, twice the strong-force witness radius" % (2.0 * WITNESS_RADIUS),
    )
    return pot


def check_size(grid: Grid, dim: int, where: str):
    """Raise ConfigError, naming where, if grid at dimension dim has more
    than MAX_HESSIAN_ENTRIES Hessian entries."""
    entries = grid.n * dim * dim
    _require(
        entries <= MAX_HESSIAN_ENTRIES,
        where,
        "2 M m + 1 = %d nodes at dimension %d make n d^2 = %d Hessian entries, more than %d"
        % (grid.n, dim, entries, MAX_HESSIAN_ENTRIES),
    )


def _parse_grid(block: dict, pot: PotentialSpec) -> Grid:
    _check_keys(block, {"m", "M"}, "grid")
    m = _as_int(block.get("m", 40), "grid.m")
    big_m = _as_int(block.get("M", 8), "grid.M")
    try:
        grid = Grid(period=pot.period, nodes_per_period=m, half_periods=big_m)
    except ValueError as exc:
        raise ConfigError("grid: %s" % exc) from exc
    check_size(grid, pot.dimension, "grid")
    return grid


def _parse_fields(block: dict, cls, where: str, ranges: dict):
    """cls from the block's fields, each typed by cls's own annotation and
    range-checked by ranges; fields not given keep cls's defaults."""
    types = {f.name: f.type for f in fields(cls)}
    _check_keys(block, types, where)
    out = {}
    for key, value in block.items():
        at = "%s.%s" % (where, key)
        out[key] = _as_int(value, at) if types[key] in (int, "int") else _as_float(value, at)
        if key in ranges:
            ok, msg = ranges[key]
            _require(ok(out[key]), at, msg)
    return cls(**out)


def _parse_solver(block: dict) -> SolverConfig:
    solver = _parse_fields(block, SolverConfig, "solver", _SOLVER_RANGES)
    k_min = solver.k_min
    _require(solver.k0 >= k_min, "solver.k0", "must be at least 1 + solver.eps_k = %r" % k_min)
    return solver


def _parse_refine(block: dict, grid: Grid) -> RefineConfig:
    _check_keys(block, {"m_coarse", "m_fine"}, "refine")
    out = {}
    for key in ("m_coarse", "m_fine"):
        value = block.get(key)
        if value is not None:
            value = _as_int(value, "refine.%s" % key)
            try:
                replace(grid, nodes_per_period=value)
            except ValueError as exc:
                raise ConfigError("refine.%s: %s" % (key, exc)) from exc
        out[key] = value
    # the coarse level defaults to grid.m, the fine one to twice the coarse
    coarse = out["m_coarse"] or grid.nodes_per_period
    fine = out["m_fine"] or 2 * coarse
    _require(fine > coarse, "refine.m_fine", "must exceed the coarse node count %d" % coarse)
    return RefineConfig(coarse=coarse, fine=fine, **out)


def parse_config(doc: dict) -> RunConfig:
    """Resolve a JSON document to a RunConfig or raise ConfigError."""
    _check_keys(
        doc,
        {"potential", "grid", "solver", "search", "refine", "out_dir", "seed"},
        "config",
    )
    seed = _as_int(doc.get("seed", 0), "seed")
    potential = _parse_potential(doc.get("potential", {}))
    grid = _parse_grid(doc.get("grid", {}), potential)
    solver = _parse_solver(doc.get("solver", {}))
    search = _parse_fields(doc.get("search", {}), SearchConfig, "search", _SEARCH_RANGES)
    refine = _parse_refine(doc.get("refine", {}), grid)
    out_dir = doc.get("out_dir", ".")
    _require(isinstance(out_dir, str), "out_dir", "expected a string")
    return RunConfig(
        potential=potential,
        grid=grid,
        solver=solver,
        search=search,
        refine=refine,
        out_dir=out_dir,
        seed=seed,
    )


def read_config_doc(path: str) -> dict:
    """Read a JSON config document, reporting malformed input by line/column."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc)) from exc
    except UnicodeDecodeError as exc:
        raise ConfigError("%s: not UTF-8 text: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            "%s: line %d column %d: %s" % (path, exc.lineno, exc.colno, exc.msg)
        ) from exc
    _require(isinstance(doc, dict), path, "top level must be a JSON object")
    return doc


def default_run_config() -> RunConfig:
    return parse_config({})
