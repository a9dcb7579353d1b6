"""Batch command line front end.

Subcommands: check (hypothesis table), solve (one candidate), search
(multi-solution library), refine (two-grid discretization study), diagnose
(inspect a trajectory CSV against a config and an existing library).

check prints the rows of potential.run_hypotheses.  solve, search and
refine share one pipeline, _reported: it runs that table once as the
command's gate (exit 2 before the output directory exists; the library
solvers do not check the hypotheses), builds the report header
(command, config, hypotheses, timing.checks), lets the command add its
own fields and its timing key, and writes report.json at its one write
site.  diagnose reads CSVs through grids.TrajectoryCache in
<out>/.trajectory-cache, and refuses a CSV whose dimension is not the
potential's; each library load leaves the cache holding exactly the
manifest's entries.

All outputs are deterministic for a fixed config and seed; wall-clock
timings are the only exception and live under "timing" keys (the report's
own, and one per search-log record) so consumers can strip them.  Exit
codes: 0 success, 1 config, usage or IO error, 2 hypothesis violation,
3 no (or not enough) solutions.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
import time
from dataclasses import asdict, replace
from typing import Optional

import numpy as np

from .action import (
    eval_action,
    grad_norm,
    ode_residual,
    truncation_residual,
)
from .config import (
    RunConfig,
    default_run_config,
    parse_config,
    read_config_doc,
)
from .errors import (
    ConfigError,
    HomoclinicError,
    SingularityProximity,
    TrajectoryFormatError,
    WindowOutOfDomain,
)
from .grids import (
    GridFunction,
    TrajectoryCache,
    sobolev_bound_check,
    write_trajectory_csv,
)
from .multiplicity import (
    LibraryEntry,
    SolutionLibrary,
    ps_split,
    search_distinct,
)
from .potential import run_hypotheses
from .solve import load_linalg, solve_homoclinic


def _jsonable(obj):
    """Plain JSON values; a non-finite float becomes null (strict JSON has no Infinity)."""
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, np.ndarray):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    return obj


def _write_json(path: str, doc: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(doc), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _print_check_table(rows):
    width = max(len(r[0]) for r in rows)
    for name, description, report, detail in rows:
        status = "FAIL" if report is None else "pass"
        print("%-*s  %-4s  %s (%s)" % (width, name, status, description, detail))


def _candidate_summary(cand, csv_name: str) -> dict:
    return {
        "action": cand.action,
        "grad_norm": cand.grad_norm,
        "clearance": cand.clearance,
        "residual": asdict(cand.residual),
        "crossing": cand.crossing,
        "iterations": cand.iterations,
        "alpha_gap": cand.alpha_gap,
        "e_stage": cand.e_stage,
        "schedule_item": cand.schedule_item,
        "trajectory_csv": csv_name,
    }


def _reported(cfg: RunConfig, command: str, timing_key: str, body) -> int:
    """The pipeline of solve, search and refine around one report.json.

    Runs the hypothesis table; on a violation prints it and returns 2
    before out_dir exists.  Otherwise creates out_dir, builds the report
    header (command, config, hypotheses), lets body(report) add the
    command's own fields and return the exit code, times body under
    timing[timing_key] next to timing["checks"], and writes report.json.
    """
    t0 = time.perf_counter()
    rows = run_hypotheses(cfg.potential)
    if any(report is None for _, _, report, _ in rows):
        _print_check_table(rows)
        print("hypothesis checks failed", file=sys.stderr)
        return 2
    timing = {"checks": time.perf_counter() - t0}
    os.makedirs(cfg.out_dir, exist_ok=True)
    report = {
        "command": command,
        "config": cfg.echo(),
        "hypotheses": {name: dict(asdict(rep), passed=True) for name, _, rep, _ in rows},
    }
    t1 = time.perf_counter()
    code = body(report)
    timing[timing_key] = time.perf_counter() - t1
    report["timing"] = timing
    _write_json(os.path.join(cfg.out_dir, "report.json"), report)
    return code


def cmd_check(cfg: RunConfig) -> int:
    rows = run_hypotheses(cfg.potential)
    _print_check_table(rows)
    return 2 if any(report is None for _, _, report, _ in rows) else 0


def cmd_solve(cfg: RunConfig) -> int:
    def body(report: dict) -> int:
        try:
            cand = solve_homoclinic(cfg.potential, cfg.grid, cfg.solver)
        except HomoclinicError as exc:
            report["error"] = "%s: %s" % (type(exc).__name__, exc)
            print("no solution found: %s" % report["error"], file=sys.stderr)
            return 3
        csv_name = "solution.csv"
        write_trajectory_csv(os.path.join(cfg.out_dir, csv_name), cand.trajectory)
        report["candidate"] = _candidate_summary(cand, csv_name)
        e_iters = cand.e_stage["iterations"]
        polish = len(cand.history["polish_grad_norm"])
        print(
            "solution: action %.6f, grad norm %.3e, clearance %.4f, "
            "iterations %d E-stage + %d descent + %d polish"
            % (cand.action, cand.grad_norm, cand.clearance, e_iters, cand.iterations, polish)
        )
        print("wrote %s and report.json in %s" % (csv_name, cfg.out_dir))
        return 0

    return _reported(cfg, "solve", "solve", body)


def _entry_id(i: int) -> str:
    return "entry_%03d" % i


def _write_library(out_dir: str, lib: SolutionLibrary, dist: np.ndarray, seed: int) -> dict:
    manifest = []
    for i, entry in enumerate(lib.entries):
        eid = _entry_id(i)
        csv_name = eid + ".csv"
        write_trajectory_csv(os.path.join(out_dir, csv_name), entry.trajectory)
        manifest.append(
            {
                "id": eid,
                "action": entry.action,
                "grad_norm": entry.grad_norm,
                "clearance": entry.clearance,
                "trajectory_csv_path": csv_name,
                "seed": seed,
                "schedule_item": entry.schedule_item,
            }
        )
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)
    ids = [_entry_id(i) for i in range(len(lib.entries))]
    with open(os.path.join(out_dir, "distances.csv"), "w", encoding="utf-8") as fh:
        fh.write(",".join(["id"] + ids) + "\n")
        for i, row_id in enumerate(ids):
            row = [row_id] + ["%.17g" % dist[i, j] for j in range(len(ids))]
            fh.write(",".join(row) + "\n")
    return {
        "entries": manifest,
        "distance_matrix_csv": "distances.csv",
        "log": lib.log,
    }


def cmd_search(cfg: RunConfig, jobs: int = 1) -> int:
    if jobs < 1:
        raise ConfigError("--jobs: must be at least 1")

    def body(report: dict) -> int:
        lib = search_distinct(
            cfg.potential,
            cfg.grid,
            cfg.solver,
            targets=cfg.search.targets,
            eps_distinct=cfg.search.eps_distinct,
            jobs=jobs,
        )
        dist = lib.distance_matrix()
        targets = cfg.search.targets
        met = len(lib) >= targets
        report["library"] = _write_library(cfg.out_dir, lib, dist, cfg.seed)
        report["targets"] = targets
        report["targets_met"] = met
        closest = "%.4f" % dist[np.triu_indices(len(lib), 1)].min() if len(lib) > 1 else "n/a"
        print("library: %d of %d targets, min pairwise distance %s" % (len(lib), targets, closest))
        print("wrote manifest.json, distances.csv and report.json in %s" % cfg.out_dir)
        if not met:
            print("found %d candidates, wanted %d" % (len(lib), targets), file=sys.stderr)
            return 3
        return 0

    return _reported(cfg, "search", "search", body)


def cmd_refine(cfg: RunConfig) -> int:
    # the ratio needs residuals evaluated well below the h^2 truncation
    # signal, so the study always runs at a tight gradient tolerance
    solver = replace(cfg.solver, grad_tol=min(cfg.solver.grad_tol, 1e-8))

    def body(report: dict) -> int:
        levels = {}
        for label, m in (("coarse", cfg.refine.coarse), ("fine", cfg.refine.fine)):
            grid = replace(cfg.grid, nodes_per_period=m)
            try:
                cand = solve_homoclinic(cfg.potential, grid, solver)
            except HomoclinicError as exc:
                report["error"] = "%s level (m=%d): %s: %s" % (label, m, type(exc).__name__, exc)
                print(report["error"], file=sys.stderr)
                return 3
            csv_name = "solution_%s.csv" % label
            write_trajectory_csv(os.path.join(cfg.out_dir, csv_name), cand.trajectory)
            levels[label] = {
                "m": m,
                "action": cand.action,
                "grad_norm": cand.grad_norm,
                "truncation_residual": truncation_residual(cand.trajectory, cfg.potential),
                "stencil_residual": cand.residual.sup_residual,
                "trajectory_csv": csv_name,
            }
        coarse, fine = levels["coarse"], levels["fine"]
        ratio = coarse["truncation_residual"] / fine["truncation_residual"]
        drift = abs(fine["action"] - coarse["action"]) / abs(coarse["action"])
        passed = 3.5 <= ratio <= 4.5 and drift <= 0.05
        report["refine"] = {
            "coarse": coarse,
            "fine": fine,
            "residual_ratio": ratio,
            "action_drift": drift,
            "grad_tol_used": solver.grad_tol,
            "passed": passed,
        }
        print(
            "refine m=%d -> m=%d: residual ratio %.3f (want [3.5, 4.5]), action drift %.3e (want <= 5e-2)"
            % (coarse["m"], fine["m"], ratio, drift)
        )
        return 0 if passed else 3

    return _reported(cfg, "refine", "solve", body)


_MANIFEST_FIELDS = ("trajectory_csv_path", "action", "grad_norm", "clearance")


def _read_trajectory(cache: TrajectoryCache, path: str, cfg: RunConfig) -> tuple[str, GridFunction]:
    """cache.read on cfg's grid; a coordinate count other than the
    potential's dimension is a TrajectoryFormatError naming the CSV."""
    digest, u = cache.read(path, cfg.grid)
    if u.d != cfg.potential.dimension:
        raise TrajectoryFormatError(
            "%s: trajectory dimension %d differs from the potential's dimension %d"
            % (path, u.d, cfg.potential.dimension)
        )
    return digest, u


def _load_library(cfg: RunConfig, cache: TrajectoryCache) -> Optional[SolutionLibrary]:
    """The library of cfg.out_dir's manifest.json, or None without one.

    Entries are read through cache; once all are read, the cache keeps
    exactly the entries of this manifest.  An entry whose H1 norm
    overflows, or of the wrong dimension, is a TrajectoryFormatError
    naming its CSV.
    """
    out_dir = cfg.out_dir
    path = os.path.join(out_dir, "manifest.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:
            raise TrajectoryFormatError("%s is not valid JSON: %s" % (path, exc))
    if not isinstance(manifest, list):
        raise TrajectoryFormatError("%s: top level must be a list of entries" % path)
    lib = SolutionLibrary()
    keep = set()
    csvs = []
    for i, item in enumerate(manifest):
        if not isinstance(item, dict):
            raise TrajectoryFormatError("%s: entry %d is not an object" % (path, i))
        for key in _MANIFEST_FIELDS:
            if key not in item:
                raise TrajectoryFormatError("%s: entry %d has no %r" % (path, i, key))
        if not isinstance(item["trajectory_csv_path"], str):
            raise TrajectoryFormatError(
                "%s: entry %d trajectory_csv_path is not a string" % (path, i)
            )
        csvs.append(os.path.join(out_dir, item["trajectory_csv_path"]))
        digest, u = _read_trajectory(cache, csvs[-1], cfg)
        keep.add(digest)
        lib.entries.append(
            LibraryEntry(
                trajectory=u,
                action=item["action"],
                grad_norm=item["grad_norm"],
                clearance=item["clearance"],
                schedule_item=item.get("schedule_item"),
            )
        )
    cache.commit(keep)
    if lib.entries:
        # finite values can still overflow the squared norms that ps_split
        # screens with; the blocks stay cached for it
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(lib.entry_blocks().norm_sq).all(axis=1)
        if not finite.all():
            raise TrajectoryFormatError(
                "%s: values too large: the H1 norm overflows" % csvs[int(np.argmin(finite))]
            )
    return lib


def cmd_diagnose(cfg: RunConfig, trajectory_path: str) -> int:
    cache = TrajectoryCache(os.path.join(cfg.out_dir, ".trajectory-cache"))
    _, u = _read_trajectory(cache, trajectory_path, cfg)
    pot = cfg.potential
    try:
        # finite values can still overflow these sums; the check below reports it
        with np.errstate(over="ignore", invalid="ignore"):
            ae = eval_action(u, pot)
            gn = grad_norm(u.grid, ae.gradient)
            res = ode_residual(u, pot)
    except SingularityProximity as exc:
        raise TrajectoryFormatError("%s: %s" % (trajectory_path, exc)) from exc
    if not all(map(math.isfinite, (ae.value, gn, ae.min_seg_dist, res.sup_residual))):
        raise TrajectoryFormatError(
            "%s: values too large: the action or its residual overflows" % trajectory_path
        )
    print("trajectory: %s" % trajectory_path)
    print("action          %.8f" % ae.value)
    print("grad norm       %.3e" % gn)
    print(
        "clearance       %.4e (floor %.4e, %s)"
        % (ae.min_seg_dist, pot.delta_seg, "feasible" if ae.feasible else "INFEASIBLE")
    )
    print("stencil residual %.3e" % res.sup_residual)
    print("tail sup |u|    %.3e   tail sup |du|  %.3e" % (res.tail_sup_u, res.tail_sup_du))
    grid = cfg.grid
    quarter = (grid.n - 1) // 4
    centers = [grid.times[quarter], grid.times[quarter * 2], grid.times[quarter * 5 // 2]]
    for s in centers:
        try:
            wb = sobolev_bound_check(u, float(s))
        except WindowOutOfDomain:
            continue
        print(
            "window bound at s=%+.3f: |u(s)| = %.4e <= %.4e %s"
            % (s, wb.lhs, wb.rhs, "ok" if wb.passed else "VIOLATED")
        )
    lib = _load_library(cfg, cache)
    if lib is None:
        print("no library manifest in %s; skipping bump decomposition" % cfg.out_dir)
        return 0
    if not lib.entries:
        print("library manifest in %s has no entries; skipping bump decomposition" % cfg.out_dir)
        return 0
    dec = ps_split(u, lib)
    print("bump decomposition: %d bumps, residual %.4e" % (len(dec.bumps), dec.residual_norm))
    for i, b in enumerate(dec.bumps):
        print(
            "  bump %d: window [%s, %s], matched %s shifted by %+d periods, distance %.4e"
            % (i, b.window[0], b.window[1], _entry_id(b.matched_index), b.shift, b.distance)
        )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    epilog = "default configuration:\n" + json.dumps(
        default_run_config().echo(), indent=2, sort_keys=True
    )
    parser = argparse.ArgumentParser(
        prog="homoclinic",
        description="Homoclinic orbits of singular periodic Hamiltonian systems.",
        epilog=epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = [
        ("check", "validate the coefficient and potential hypotheses"),
        ("solve", "compute one homoclinic candidate"),
        ("search", "collect geometrically distinct candidates"),
        ("refine", "two-grid discretization-order study"),
        ("diagnose", "inspect a trajectory CSV"),
    ]
    for name, help_text in specs:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH", help="JSON run configuration")
        p.add_argument("--out", metavar="DIR", help="output directory")
        if name == "search":
            p.add_argument(
                "--jobs",
                type=int,
                default=1,
                metavar="N",
                help="parallel workers for the first search phase, at most one "
                "per phase-1 item (default 1)",
            )
        if name == "diagnose":
            p.add_argument("trajectory", metavar="CSV", help="trajectory file to inspect")
    return parser


def main(argv: Optional[list] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, the code of a hypothesis violation here
        return 1 if exc.code else 0
    if args.command in ("solve", "search", "refine"):
        # the commands that factor load LAPACK now, so set-up pays for it
        # and the freeze below covers its heap; check and diagnose never do
        load_linalg()
    # imported modules live until exit: move them out of the collector's
    # generations so gen-2 passes and shutdown never rescan them
    gc.freeze()
    try:
        doc = read_config_doc(args.config) if args.config else {}
        cfg = parse_config(doc)
        out_dir = args.out or doc.get("out_dir") or os.environ.get("HOMOCLINIC_OUT") or "."
        cfg = replace(cfg, out_dir=out_dir)
        if args.command == "check":
            return cmd_check(cfg)
        if args.command == "solve":
            return cmd_solve(cfg)
        if args.command == "search":
            return cmd_search(cfg, jobs=args.jobs)
        if args.command == "refine":
            return cmd_refine(cfg)
        return cmd_diagnose(cfg, args.trajectory)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 1
    except (TrajectoryFormatError, WindowOutOfDomain, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
