"""Command-level benchmark of the homoclinic CLI, with an outside-in trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 0

Each workload runs `homoclinic <command>` processes the way a user does:
one process per command, serially (a closed loop with one client), with
`--jobs 1` and every BLAS/OpenMP pool pinned to one thread.  The harness
writes every config and input itself from --seed, repeats the workload's
command list in passes for about --seconds, and checks every output
against independent reference numerics (perfbench/reference.py).

--trace 0 reports the end-to-end metrics.  --trace 1 runs one untraced
and one traced pass, reports the per-layer metrics of the traced pass and
the trace overhead, and checks that tracing left every certified output
unchanged.  The last line of stdout is the JSON result; a results file
with provenance is written under perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import reference as ref

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")
RUN_LIMIT_S = 170.0  # every run, passes and checks included, ends within this
MIN_SET_UPS = 5  # set-up samples per run, at the least
MIN_TIMED = 2  # timed command processes per run, at the least
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("verified_frac", "ratio"),
    ("distinct_found", "count"),
    ("lowest_action", "action"),
]
SPAN_LAYERS = [
    "potential.gate",
    "potential.eval_W",
    "potential.eval_gradW",
    "potential.eval_hessW",
    "action.probe",
    "action.clearance",
    "action.eval_action",
    "action.residual",
    "solve.guess",
    "solve.estage",
    "solve.descent",
    "solve.renormalize",
    "solve.newton",
    "solve.precond",
    "multiplicity.distance",
    "multiplicity.distance_matrix",
    "multiplicity.ps_split",
    "multiplicity.glue",
    "multiplicity.search",
    "grids.shift",
    "grids.h1_norm",
    "grids.csv_read",
    "grids.csv_write",
]
COUNTERS = [
    "solve.attempts",
    "solve.attempts_failed",
    "solve.estage.iters",
    "solve.descent.steps",
    "solve.renorms",
    "solve.polish.steps",
    "solve.clearance_rejects",
    "multiplicity.inserted",
    "multiplicity.duplicates",
    "multiplicity.failed",
    "grids.csv_read.bytes",
    "grids.csv_write.bytes",
]
PER_LAYER = (
    [("cli.import_s", "s"), ("config.parse_s", "s"), ("cli.command.self_s", "s"), ("cli.report_write.self_s", "s")]
    + [(layer + suffix, unit) for layer in SPAN_LAYERS for suffix, unit in ((".calls", "count"), (".self_s", "s"))]
    + [(name, "B" if name.endswith(".bytes") else "count") for name in COUNTERS]
    + [("solve.evals_per_step", "ratio"), ("multiplicity.useful_ratio", "ratio"), ("trace.overhead", "ratio")]
)


class Failure(Exception):
    """An output that does not pass verification."""


def _check(cond: bool, msg: str, *args) -> None:
    if not cond:
        raise Failure(msg % args)


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


@dataclass
class Command:
    label: str
    argv: list
    verify: Callable[[str], dict]  # stdout -> certified outputs; every command should exit 0


@dataclass
class Record:
    label: str
    rc: int
    ok: bool
    reason: str = ""
    setup_s: float = float("nan")
    run_s: float = float("nan")
    wall_s: float = float("nan")
    cpu_s: float = float("nan")
    rss_mb: float = 0.0
    outputs: dict = field(default_factory=dict)
    stamps: dict = field(default_factory=dict)
    trace: dict = None


# ---------------------------------------------------------------- verification


def _certify(values: np.ndarray, sys_: ref.System, action: float, tol: float) -> dict:
    """Check one trajectory's certificate against the reported action."""
    cert = ref.certificate(values, sys_)
    _check(cert["action"] > 0.0, "action %.6g is not positive", cert["action"])
    _check(_close(cert["action"], action), "reported action %.12g, recomputed %.12g", action, cert["action"])
    _check(cert["grad_norm"] <= tol * (1.0 + 1e-6), "grad norm %.3e above tolerance %.1e", cert["grad_norm"], tol)
    _check(cert["clearance"] >= sys_.delta_seg, "clearance %.3e below delta_seg", cert["clearance"])
    return cert


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def verify_solve(out: str, sys_: ref.System, stdout: str) -> dict:
    report = _read_json(os.path.join(out, "report.json"))
    cand = report["candidate"]
    tol = report["config"]["solver"]["grad_tol"]
    values = ref.read_csv(os.path.join(out, cand["trajectory_csv"]), sys_)
    _certify(values, sys_, cand["action"], tol)
    return {"actions": [cand["action"]], "orbits": 1}


def verify_refine(out: str, coarse: ref.System, fine: ref.System, stdout: str) -> dict:
    study = _read_json(os.path.join(out, "report.json"))["refine"]
    ratio = study["residual_ratio"]
    _check(3.5 <= ratio <= 4.5, "refine ratio %.4f outside [3.5, 4.5]", ratio)
    actions = []
    for label, sys_ in (("coarse", coarse), ("fine", fine)):
        level = study[label]
        values = ref.read_csv(os.path.join(out, level["trajectory_csv"]), sys_)
        _certify(values, sys_, level["action"], study["grad_tol_used"])
        actions.append(level["action"])
    return {"actions": actions, "orbits": 2}


def _verify_matrix(path: str, ids: list, expected: np.ndarray, eps: float) -> None:
    got_ids, dist = ref.read_matrix(path)
    _check(got_ids == ids, "distance matrix ids %s, expected %s", got_ids, ids)
    for i in range(len(ids)):
        _check(dist[i, i] == 0.0, "nonzero diagonal distance for %s", ids[i])
        for j in range(i + 1, len(ids)):
            _check(dist[i, j] == dist[j, i], "distance matrix not symmetric at %s/%s", ids[i], ids[j])
            _check(dist[i, j] > eps, "%s and %s closer than eps_distinct: %.4g", ids[i], ids[j], dist[i, j])
            _check(_close(dist[i, j], expected[i, j]), "distance %s/%s is %.12g, recomputed %.12g",
                   ids[i], ids[j], dist[i, j], expected[i, j])


def verify_search(out: str, sys_: ref.System, stdout: str) -> dict:
    report = _read_json(os.path.join(out, "report.json"))
    tol = report["config"]["solver"]["grad_tol"]
    eps = report["config"]["search"]["eps_distinct"]
    manifest = _read_json(os.path.join(out, "manifest.json"))
    _check(len(manifest) >= report["targets"], "library holds %d of %d targets", len(manifest), report["targets"])
    trajs = []
    for entry in manifest:
        values = ref.read_csv(os.path.join(out, entry["trajectory_csv_path"]), sys_)
        _certify(values, sys_, entry["action"], tol)
        trajs.append(values)
    expected = np.zeros((len(trajs), len(trajs)))
    for i in range(len(trajs)):
        for j in range(i + 1, len(trajs)):
            expected[i, j] = expected[j, i] = ref.distance(trajs[i], trajs[j], sys_)
    _verify_matrix(os.path.join(out, "distances.csv"), [e["id"] for e in manifest], expected, eps)
    return {"actions": [e["action"] for e in manifest], "orbits": len(manifest), "library_size": len(manifest)}


def verify_diagnose(action: float, bumps: int, sys_: ref.System, stdout: str) -> dict:
    got = re.search(r"^action\s+(\S+)$", stdout, re.M)
    _check(got is not None, "no action line in diagnose output")
    value = float(got.group(1))
    _check(abs(value - action) <= 1e-8 * max(1.0, abs(action)), "diagnosed action %.8f, expected %.8f", value, action)
    _check(re.search(r"^clearance .*, feasible\)$", stdout, re.M) is not None, "trajectory not reported feasible")
    got = re.search(r"^bump decomposition: (\d+) bumps", stdout, re.M)
    _check(got is not None and int(got.group(1)) == bumps, "expected a %d-bump decomposition", bumps)
    return {"actions": [value], "orbits": 0}


def verify_distances(lib_dir: str, ids: list, expected: np.ndarray, eps: float, stdout: str) -> dict:
    _verify_matrix(os.path.join(lib_dir, "distances.csv"), ids, expected, eps)
    return {"actions": [], "orbits": len(ids), "library_size": len(ids)}


# ------------------------------------------------------------------- workloads


def _write_json(path: str, doc) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
    return path


def solve_ladder(seed: int, work: str):
    """solve at default tolerance, alpha in {2,3,4} x m in {40,160,320}, plus one refine."""
    solves = []
    for alpha in (2.0, 3.0, 4.0):
        for m in (40, 160, 320):
            cfg = {"potential": {"alpha": alpha}, "grid": {"m": m}, "seed": seed}
            path = _write_json(os.path.join(work, "solve_a%g_m%d.json" % (alpha, m)), cfg)
            solves.append((alpha, m, path))
    refine_cfg = {
        "potential": {"alpha": 2.0},
        "grid": {"m": 40},
        "refine": {"m_coarse": 40, "m_fine": 80},
        "solver": {"grad_tol": 1e-8},
        "seed": seed,
    }
    refine_path = _write_json(os.path.join(work, "refine_a2.json"), refine_cfg)

    def commands(pass_dir: str) -> list:
        cmds = []
        for alpha, m, path in solves:
            out = os.path.join(pass_dir, "solve_a%g_m%d" % (alpha, m))
            check = functools.partial(verify_solve, out, ref.System(alpha=alpha, m=m))
            cmds.append(Command("solve a=%g m=%d" % (alpha, m), ["solve", "--config", path, "--out", out], check))
        out = os.path.join(pass_dir, "refine_a2")
        check = functools.partial(verify_refine, out, ref.System(m=40), ref.System(m=80))
        cmds.append(Command("refine a=2 m=40->80", ["refine", "--config", refine_path, "--out", out], check))
        return cmds

    return commands


def search_backfill(seed: int, work: str):
    """search at m=40, alpha=2, targets=9 on the default schedule."""
    cfg = {"potential": {"alpha": 2.0}, "grid": {"m": 40}, "search": {"targets": 9}, "seed": seed}
    path = _write_json(os.path.join(work, "search.json"), cfg)

    def commands(pass_dir: str) -> list:
        out = os.path.join(pass_dir, "search")
        check = functools.partial(verify_search, out, ref.System(m=40))
        argv = ["search", "--config", path, "--out", out, "--jobs", "1"]
        return [Command("search targets=9", argv, check)]

    return commands


LIBRARY_ENTRIES = 12
LIBRARY_M = 160


def build_library(seed: int, lib_dir: str, sys_: ref.System, n_entries: int, eps: float):
    """Glued multibump trajectories from the seed, written as `search` writes a library.

    Entry i glues 1 + i % 3 one-loop bumps (the sech / tanh-sech shape the
    solver's guesses use).  Bump heights and widths come from a fixed
    palette; the seed draws the whole-period centres in [-4, 4], at least
    four periods apart, and the winding senses.  Shifts by whole periods
    and mirror images leave a bump's action unchanged, so the work and the
    actions do not depend on the seed.  Each entry keeps ten times the
    segment clearance floor, has one node-norm core per bump, and is at
    least 4 eps_distinct from every other entry.
    """
    rng = np.random.default_rng([seed, 20121128])
    q = np.asarray(sys_.q, dtype=float)
    q_norm = float(np.linalg.norm(q))
    p_hat = np.array([-q[1], q[0]]) / q_norm
    times = sys_.times
    entries = []
    dist = np.zeros((n_entries, n_entries))
    for i in range(n_entries):
        n_bumps = 1 + i % 3
        shapes = [(1.3 + 0.08 * ((i + 5 * j) % 12), 3.25 + 0.0625 * ((5 * i + 7 * j) % 12)) for j in range(n_bumps)]
        for _ in range(1000):
            centres = np.sort(rng.choice(np.arange(-4, 5), size=n_bumps, replace=False))
            if n_bumps > 1 and np.min(np.diff(centres)) < 4:
                continue
            values = np.zeros((sys_.n, 2))
            bumps = []
            for c, (k0, width) in zip(centres, shapes):
                orientation = int(rng.choice([-1, 1]))
                tau = times - float(c)
                sech = 1.0 / np.cosh(width * tau)
                swing = np.tanh(width * tau) * sech
                values += k0 * np.outer(sech, q) + orientation * 0.5 * q_norm * np.outer(swing, p_hat)
                bumps.append({"center": float(c), "k0": k0, "width": width, "orientation": orientation})
            values[0] = values[-1] = 0.0
            if ref.clearance(values, q) < 10.0 * sys_.delta_seg or ref.bump_cores(values) != n_bumps:
                continue
            row = [ref.distance(values, e["values"], sys_) for e in entries]
            if all(d > 4.0 * eps for d in row):
                break
        else:
            raise RuntimeError("could not build library entry %d" % i)
        entries.append({"values": values, "bumps": bumps})
        dist[i, :i] = dist[:i, i] = row
    os.makedirs(lib_dir, exist_ok=True)
    manifest = []
    for i, e in enumerate(entries):
        eid = "entry_%03d" % i
        ref.write_csv(os.path.join(lib_dir, eid + ".csv"), e["values"], sys_)
        cert = ref.certificate(e["values"], sys_)
        manifest.append(
            {
                "id": eid,
                "action": cert["action"],
                "grad_norm": cert["grad_norm"],
                "clearance": cert["clearance"],
                "trajectory_csv_path": eid + ".csv",
                "seed": seed,
                "schedule_item": {"bumps": e["bumps"]},
            }
        )
    _write_json(os.path.join(lib_dir, "manifest.json"), manifest)
    return manifest, [len(e["bumps"]) for e in entries], dist


def library_audit(seed: int, work: str):
    """diagnose every entry of a generated library at m=160, then its distance matrix."""
    sys_ = ref.System(m=LIBRARY_M)
    eps = 0.1
    lib_dir = os.path.join(work, "library")
    manifest, bumps, dist = build_library(seed, lib_dir, sys_, LIBRARY_ENTRIES, eps)
    cfg = {"grid": {"m": LIBRARY_M}, "search": {"eps_distinct": eps}, "seed": seed}
    path = _write_json(os.path.join(work, "audit.json"), cfg)
    ids = [e["id"] for e in manifest]

    def commands(pass_dir: str) -> list:
        matrix = os.path.join(lib_dir, "distances.csv")
        if os.path.exists(matrix):
            os.remove(matrix)  # each pass must write its own
        cmds = []
        for entry, n_bumps in zip(manifest, bumps):
            csv_path = os.path.join(lib_dir, entry["trajectory_csv_path"])
            check = functools.partial(verify_diagnose, entry["action"], n_bumps, sys_)
            argv = ["diagnose", csv_path, "--config", path, "--out", lib_dir]
            cmds.append(Command("diagnose %s" % entry["id"], argv, check))
        check = functools.partial(verify_distances, lib_dir, ids, dist, eps)
        cmds.append(Command("distance matrix", ["distances", lib_dir, "--config", path], check))
        return cmds

    return commands


WORKLOADS = {
    "solve_ladder": solve_ladder,
    "search_backfill": search_backfill,
    "library_audit": library_audit,
}

# ------------------------------------------------------------------- execution


def run_command(cmd: Command, run_dir: str, index: int, mode: str, deadline: float) -> Record:
    """Run one command process; mode is "run", "trace" or "setup" (see child.py)."""
    base = os.path.join(run_dir, "cmd%03d" % index)
    sidecar = base + ".json"
    argv = [sys.executable, CHILD, ROOT, sidecar, mode] + cmd.argv
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "HOMOCLINIC_OUT")}
    env.update(THREAD_ENV)
    with open(base + ".out", "w") as fout, open(base + ".err", "w") as ferr:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(argv, stdout=fout, stderr=ferr, cwd=run_dir, env=env)
        watchdog = threading.Timer(max(1.0, deadline - t_spawn), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        t_exit = time.monotonic()
    proc.returncode = rc = os.waitstatus_to_exitcode(status)
    with open(base + ".out") as fh:
        stdout = fh.read()
    rec = Record(label=cmd.label, rc=rc, ok=False, wall_s=t_exit - t_spawn,
                 cpu_s=usage.ru_utime + usage.ru_stime, rss_mb=usage.ru_maxrss / 1024.0)
    if not os.path.exists(sidecar):
        with open(base + ".err") as fh:
            rec.reason = "exit %d without a timing record: %s" % (rc, fh.read()[-500:].strip())
        return rec
    side = _read_json(sidecar)
    rec.stamps, rec.trace = side["stamps"], side["trace"]
    parsed = rec.stamps.get("parsed", rec.stamps["imported"])
    rec.setup_s = parsed - t_spawn
    rec.run_s = t_exit - parsed
    if mode == "setup":
        rec.ok = rc == 0 and "parsed" in rec.stamps
        rec.reason = "" if rec.ok else "set-up start failed with exit %d" % rc
        return rec
    if rc != 0:
        rec.reason = "exit code %d, expected 0" % rc
        return rec
    try:
        rec.outputs = dict(cmd.verify(stdout), rc=rc)
        rec.ok = True
    except (Failure, OSError, ValueError, KeyError, TypeError) as exc:
        rec.reason = "%s: %s" % (type(exc).__name__, exc)
    return rec


def run_pass(commands, run_dir, mode, deadline, first_index, tag):
    records = []
    for i, cmd in enumerate(commands):
        rec = run_command(cmd, run_dir, first_index + i, mode, deadline)
        print(
            "[%s] %-22s %s  setup %.3f s  run %.3f s  rss %.0f MB%s"
            % (tag, rec.label, "ok  " if rec.ok else "FAIL", rec.setup_s, rec.run_s, rec.rss_mb,
               "" if rec.ok else "  (%s)" % rec.reason),
            flush=True,
        )
        records.append(rec)
        if time.monotonic() >= deadline:
            break
    return records


def pass_summary(records) -> dict:
    ok = [r for r in records if r.ok]
    actions = [a for r in ok for a in r.outputs["actions"]]
    return {
        "run_s": sum(r.run_s for r in records),
        "orbits": sum(r.outputs["orbits"] for r in ok),
        "lowest_action": min(actions) if actions else None,
    }


def _median(values):
    return statistics.median(values) if values else None


def end_to_end(passes, set_ups) -> dict:
    records = [r for p in passes for r in p]
    summaries = [pass_summary(p) for p in passes]
    lowest = [s["lowest_action"] for s in summaries if s["lowest_action"] is not None]
    return {
        "setup_s": _median([r.setup_s for r in records + set_ups if "parsed" in r.stamps]),
        "run_s": statistics.median(s["run_s"] for s in summaries),
        "peak_rss_mb": max(r.rss_mb for r in records),
        "verified_frac": sum(r.ok for r in records) / len(records),
        "distinct_found": statistics.median(s["orbits"] for s in summaries),
        "lowest_action": _median(lowest),
    }


def per_layer(traced, untraced) -> dict:
    calls, self_s, counts = {}, {}, {}
    for rec in traced:
        tr = rec.trace or {"calls": {}, "self_s": {}, "counts": {}}
        for src, dst in ((tr["calls"], calls), (tr["self_s"], self_s), (tr["counts"], counts)):
            for key, value in src.items():
                dst[key] = dst.get(key, 0) + value
    stamped = [r.stamps for r in traced if "parsed" in r.stamps]
    out = {
        "cli.import_s": _median([s["imported"] - s["import_begin"] for s in stamped]),
        "config.parse_s": _median([s["parsed"] - s["parse_begin"] for s in stamped]),
        "cli.command.self_s": self_s.get("cli.command", 0.0),
        "cli.report_write.self_s": self_s.get("cli.report_write", 0.0),
    }
    for layer in SPAN_LAYERS:
        out[layer + ".calls"] = calls.get(layer, 0)
        out[layer + ".self_s"] = self_s.get(layer, 0.0)
    for name in COUNTERS:
        out[name] = counts.get(name, 0)
    steps = counts.get("solve.estage.iters", 0) + counts.get("solve.descent.steps", 0)
    out["solve.evals_per_step"] = counts.get("solve.step_evals", 0) / steps if steps else 0.0
    tries = counts.get("multiplicity.search_attempts", 0)
    out["multiplicity.useful_ratio"] = counts.get("multiplicity.inserted", 0) / tries if tries else 0.0
    out["trace.overhead"] = pass_summary(traced)["run_s"] / pass_summary(untraced)["run_s"]
    return out


def transparency(untraced, traced) -> list:
    """Differences in certified outputs between an untraced and a traced pass."""
    diffs = []
    if len(untraced) != len(traced):
        return ["passes ran %d and %d commands" % (len(untraced), len(traced))]
    for a, b in zip(untraced, traced):
        if (a.rc, a.ok, a.outputs) != (b.rc, b.ok, b.outputs):
            diffs.append("%s: untraced %s, traced %s" % (a.label, (a.rc, a.outputs), (b.rc, b.outputs)))
    lo_a, lo_b = pass_summary(untraced)["lowest_action"], pass_summary(traced)["lowest_action"]
    if lo_a != lo_b:
        diffs.append("lowest_action: untraced %r, traced %r" % (lo_a, lo_b))
    return diffs


# ------------------------------------------------------------------ provenance


def _source_digest() -> str:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def _git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas": {"library": "%s %s" % (blas.get("name"), blas.get("version")), "threads_env": dict(THREAD_ENV)},
        "seed": seed,
    }


# ------------------------------------------------------------------------ main


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    tag = "%s-seed%d-trace%d" % (name, seed, int(trace))
    work = os.path.join(OUT, "work-%s-%d" % (tag, os.getpid()))
    os.makedirs(work)
    try:
        commands = WORKLOADS[name](seed, work)
        set_up = time.monotonic() - started
        passes, set_ups, traced, index = [], [], None, 0
        if not trace:
            # top up to MIN_SET_UPS set-up samples with starts that stop once
            # the config is parsed, so setup_s is a median on every workload
            first = commands(os.path.join(work, "set-up"))
            probes = [first[0]] * max(0, MIN_SET_UPS - len(first))
            set_ups = run_pass(probes, work, "setup", deadline, index, "%s set-up" % name)
            index += len(set_ups)
        t0 = time.monotonic()
        while True:
            pass_dir = os.path.join(work, "pass%d" % len(passes))
            os.makedirs(pass_dir)
            recs = run_pass(commands(pass_dir), pass_dir, "run", deadline, index, "%s pass %d" % (name, len(passes)))
            index += len(recs)
            passes.append(recs)
            if trace:
                pass_dir = os.path.join(work, "traced")
                os.makedirs(pass_dir)
                traced = run_pass(commands(pass_dir), pass_dir, "trace", deadline, index, "%s traced" % name)
                break
            # another pass only while it should end within --seconds, except
            # that a workload of one long command is timed at least twice
            elapsed = time.monotonic() - t0
            typical = statistics.median(sum(r.wall_s for r in p) for p in passes)
            if time.monotonic() + typical > deadline:
                break
            if elapsed + typical > seconds and sum(map(len, passes)) >= MIN_TIMED:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    records = set_ups + [r for p in passes for r in p] + (traced or [])
    failures = ["%s: %s" % (r.label, r.reason) for r in records if not r.ok]
    problems = list(failures)
    if trace:
        diffs = transparency(passes[0], traced)
        problems += ["trace changed outputs: " + d for d in diffs]
        metrics = per_layer(traced, passes[0])
        missing = sorted({m for r in traced if r.trace for m in r.trace["missing"]})
        problems += ["trace target not found: %s" % m for m in missing]
        units = dict(PER_LAYER)
    else:
        metrics = end_to_end(passes, set_ups)
        units = dict(END_TO_END)
    # a metric that could not be measured (a command left no timing record) is null
    values = {k: v if v is None or math.isfinite(v) else None for k, v in metrics.items()}
    correct = not problems and None not in values.values()
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    details = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "provenance": provenance(seed),
        "benchmark_setup_s": set_up,
        "problems": problems,
        "set_ups": [r.__dict__ for r in set_ups],
        "passes": [[r.__dict__ for r in p] for p in passes],
        "traced_pass": [r.__dict__ for r in traced] if traced else None,
        "result": result,
    }
    _write_json(os.path.join(OUT, "%s.json" % tag), details)
    for p in problems:
        print("problem: %s" % p, file=sys.stderr)
    return result


def print_table(name: str, result: dict) -> None:
    print("%s: correct=%s attempted=%d failed=%d" % (name, result["correct"], result["attempted"], result["failed"]))
    for key, metric in result["metrics"].items():
        value = metric["value"]
        text = "%.6g" % value if isinstance(value, float) else str(value)
        print("  %-34s %14s %s" % (key, text, metric["unit"]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=40, help="measure for about this long (default 40)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "homoclinic", "cli.py")):
        print("error: no homoclinic sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_table(name, results[name])
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
