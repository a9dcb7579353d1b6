"""Outside-in span tracer for one homoclinic command process.

The tracer replaces public functions of the homoclinic modules with
timing wrappers, in every module namespace that imported them by name, so
no file of the program changes.  Each wrapped call is a span; a span's
self time is its duration minus the durations of the spans it directly
contains.  Counters are taken at the same boundaries from arguments,
return values and raised exceptions, never from the program's own
iteration fields, so they survive an attempt that ends in an exception.

Layer names follow ``<module>.<what>``; see perfbench/README.md for the
meaning of every counter.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter, defaultdict

_ESTAGE = "solve.estage"
_DESCENT = "solve.descent"
_GLUE = "multiplicity.glue"


def _attempt_failed(tracer, args, result, exc):
    if exc is not None:
        tracer.counts["solve.attempts_failed"] += 1


def _guess(tracer, args, result, exc):
    tracer.counts["solve.attempts"] += 1
    _attempt_failed(tracer, args, result, exc)


def _polish_steps(tracer, result, exc):
    # accepted Newton polish steps are recorded in the candidate history;
    # MaxItersExceeded carries the best candidate, ConvergedToZero does not
    cand = result if exc is None else getattr(exc, "best", None)
    history = getattr(cand, "history", None) or {}
    tracer.counts["solve.polish.steps"] += len(history.get("polish_grad_norm", ()))


def _descent(tracer, args, result, exc):
    _attempt_failed(tracer, args, result, exc)
    _polish_steps(tracer, result, exc)


def _glue(tracer, args, result, exc):
    _polish_steps(tracer, result, exc)


def _precond_apply(tracer, args, result, exc):
    # one preconditioned direction per E-stage iteration or descent step
    owner = tracer.enclosing((_ESTAGE, _DESCENT))
    if owner == _ESTAGE:
        tracer.counts["solve.estage.iters"] += 1
    elif owner == _DESCENT:
        tracer.counts["solve.descent.steps"] += 1


def _eval_w(tracer, args, result, exc):
    if tracer.enclosing((_ESTAGE, _DESCENT)) is not None:
        tracer.counts["solve.step_evals"] += 1


def _clearance(tracer, args, result, exc):
    # a trial point below the segment clearance floor 1e-3 |q| is rejected
    if exc is not None or tracer.enclosing((_ESTAGE, _DESCENT, _GLUE)) is None:
        return
    q = args[1]
    floor = 1e-3 * float(sum(float(x) * float(x) for x in q)) ** 0.5
    if result < floor:
        tracer.counts["solve.clearance_rejects"] += 1


def _renormalize(tracer, args, result, exc):
    if exc is None and result[1] != 0:
        tracer.counts["solve.renorms"] += 1


_OUTCOMES = {"inserted": "inserted", "duplicate": "duplicates", "failed": "failed"}


def _search(tracer, args, result, exc):
    # the library log holds one record per attempt: inserted, duplicate or failed
    if exc is not None:
        return
    for record in result.log:
        tracer.counts["multiplicity.%s" % _OUTCOMES[record["outcome"]]] += 1
        tracer.counts["multiplicity.search_attempts"] += 1


def _csv_bytes(direction):
    def hook(tracer, args, result, exc):
        if exc is None:
            tracer.counts["grids.csv_%s.bytes" % direction] += os.path.getsize(args[0])

    return hook


# (layer, [(module, attribute)], hook); "Class.method" patches the class
SPECS = [
    ("cli.command", [("cli", "cmd_%s" % c) for c in ("check", "solve", "search", "refine", "diagnose")], None),
    ("cli.report_write", [("cli", "_write_json"), ("cli", "_write_library")], None),
    (
        "potential.gate",
        [("potential", f) for f in ("check_A", "check_H2", "check_H3", "check_H4", "check_W_negativity", "default_witness")],
        None,
    ),
    ("potential.eval_W", [("potential", "eval_W")], _eval_w),
    ("potential.eval_gradW", [("potential", "eval_gradW")], None),
    ("potential.eval_hessW", [("potential", "eval_hessW")], None),
    ("action.probe", [("action", "positivity_probe")], None),
    ("action.clearance", [("action", "segment_clearance"), ("action", "singularity_clearance")], _clearance),
    ("action.eval_action", [("action", "eval_action")], None),
    ("action.residual", [("action", "ode_residual"), ("action", "truncation_residual")], None),
    ("solve.guess", [("solve", "initial_guess_bump")], _guess),
    (_ESTAGE, [("solve", "minimize_over_E")], _attempt_failed),
    (_DESCENT, [("solve", "descend_to_critical")], _descent),
    ("solve.newton", [("solve", "solve_banded")], None),
    ("solve.precond", [("solve", "H1Preconditioner.apply")], _precond_apply),
    ("solve.renormalize", [("grids", "renormalize_translation")], _renormalize),
    ("multiplicity.distance", [("multiplicity", "geometric_distance")], None),
    ("multiplicity.distance_matrix", [("multiplicity", "SolutionLibrary.distance_matrix")], None),
    ("multiplicity.ps_split", [("multiplicity", "ps_split")], None),
    (_GLUE, [("solve", "polish_to_critical")], _glue),
    ("multiplicity.search", [("multiplicity", "search_distinct")], _search),
    ("grids.shift", [("grids", "shift_periods")], None),
    ("grids.h1_norm", [("grids", "h1_norm")], None),
    ("grids.csv_read", [("grids", "read_trajectory_csv")], _csv_bytes("read")),
    ("grids.csv_write", [("grids", "write_trajectory_csv")], _csv_bytes("write")),
]


class Tracer:
    """Per-layer calls, self seconds and counters of one process."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.missing = []
        self._stack = []  # frames [layer, seconds spent in child spans]

    def enclosing(self, layers):
        """Innermost open span whose layer is in `layers`, or None."""
        for layer, _ in reversed(self._stack):
            if layer in layers:
                return layer
        return None

    def wrap(self, layer, fn, hook=None):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            result = exc = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                self.calls[layer] += 1
                self.self_s[layer] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                if hook is not None:
                    hook(self, args, result, exc)

        return traced

    def install(self, package="homoclinic"):
        """Wrap every SPECS target in all loaded modules of `package`."""
        modules = {
            name.rpartition(".")[2]: mod
            for name, mod in list(sys.modules.items())
            if name == package or name.startswith(package + ".")
        }
        for layer, targets, hook in SPECS:
            for mod_name, attr in targets:
                owner = modules.get(mod_name)
                cls_name, _, method = attr.rpartition(".")
                if cls_name:
                    cls = getattr(owner, cls_name, None)
                    if cls is None or not hasattr(cls, method):
                        self.missing.append("%s.%s" % (mod_name, attr))
                        continue
                    setattr(cls, method, self.wrap(layer, getattr(cls, method), hook))
                    continue
                original = getattr(owner, attr, None)
                if original is None:
                    self.missing.append("%s.%s" % (mod_name, attr))
                    continue
                wrapped = self.wrap(layer, original, hook)
                for mod in modules.values():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "missing": list(self.missing),
        }
