"""One parity corpus: what every command prints and writes, against a golden file.

COMMANDS is a table of command lines, each with the config text it reads.
run_corpus runs them in order, in one process, through cli.main, in the
current directory: each command reads <name>.json and writes to the
relative directory <name>, so no absolute path is recorded.  Per command,
parity_golden.json holds:

  - the exit code, stdout and stderr (of a usage error, only its last
    line: argparse's usage text varies with the Python version);
  - the warnings raised, every one recorded, since pytest would hide them;
  - the sorted list of files written (a cache file's digest shown as
    <sha256>);
  - each report.json without its "timing" keys, and each other JSON file,
    loaded as strict JSON;
  - for each CSV its header, row count and sha256, and its H1 norm (a
    trajectory) or its values (the distance table).

test_corpus_matches_golden reports every command that differs.  It
compares what rounding cannot move exactly, and what it can within how far
it moves it (see _close), so that another numpy build or CPU, which may
round differently in the last bit, still matches.  Running this module as
a script rewrites the golden file, with floats stored as repr:

    PYTHONPATH=src python tests/test_parity.py

So byte parity with a parent commit is: regenerate the golden file, then
git diff --exit-code tests/parity_golden.json.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import re
import sys
import tempfile
import warnings

import numpy as np

from homoclinic.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "parity_golden.json")

# How far rounding moves a value.  One-ulp changes to the arithmetic (the
# stencil sum reassociated, the guess scaled by 1 + 2^-52) move actions by
# at most 3e-11 of themselves, the action being stationary at an orbit;
# what an orbit's shape gives (clearances, H1 norms, tails, residual
# ratios, distances) by up to 1e-7 of itself, or 4e-12 where it is near 0,
# since a solve fixes its orbit only to within its gradient tolerance;
# gradient norms and stencil residuals below the tolerance by up to 80%,
# being rounding noise; and a stalled loop's iteration count (a loop
# stalls once the action falls by at most 1e-12 of itself over 50 steps)
# by a few.  Hence actions at relative ACTION_RTOL, every other float at
# relative RTOL or absolute ATOL, gradient norms and residuals within
# NOISE, the default gradient tolerance, and a stalled count not at all.
ACTION_RTOL = 1e-9
RTOL, ATOL = 1e-6, 1e-9
NOISE = 1e-6

_ACTIONS = {"action", "value", "action_drift"}
_NOISY = {"grad_norm", "sup_residual", "stencil_residual"}
# cache digests, and which of two equidistant entries (an orbit and its
# mirror image) a search names nearest: the distance itself is compared
_SKIPPED = {"sha256", "nearest_index"}

# a number in a line of text, and the words around one that print a
# gradient norm or residual, or a stalled loop's iteration count
_NUMBER = re.compile(r"[-+]?\d+(?:\.\d+)?(?:e[-+]?\d+)?|\binf\b")
_NOISY_PRINTED = re.compile(r"(?:grad norm|gradient norm|stencil residual)\s*#")
_STALLED_PRINTED = re.compile(r"# iterations \(descent stop: stalled\)")


def _ladder():
    """solve at alpha 2, 3 and 4, m 40, 160 and 320, crossing phase 0 and 1/2."""
    return [
        (
            "solve-a%d-m%d-c%g" % (alpha, m, c),
            ["solve"],
            {"potential": {"alpha": alpha}, "grid": {"m": m}, "solver": {"bump_center": c}},
        )
        for alpha in (2, 3, 4)
        for m in (40, 160, 320)
        for c in (0, 0.5)
    ]


_OVERFLOW = {"potential": {"a_base": 1e300}}
_REVERSED = {"refine": {"m_coarse": 80, "m_fine": 40}}
_MISSED_ALPHA4 = {"potential": {"alpha": 4, "q": [-0.5895, -0.9244]}}

# (name, argv without --config and --out, config: a JSON document, raw
# bytes or None); every command gets --out <name> unless argv has one
COMMANDS = [
    ("check", ["check"], None),
    *_ladder(),
    *[
        ("search-a%d" % alpha, ["search"], {"potential": {"alpha": alpha}, "search": {"targets": 9}})
        for alpha in (2, 3, 4)
    ],
    *[("refine-a%d" % alpha, ["refine"], {"potential": {"alpha": alpha}}) for alpha in (2, 3, 4)],
    ("solve-d3", ["solve"], {"potential": {"dimension": 3}}),
    ("search-d3", ["search"], {"potential": {"dimension": 3}}),
    ("solve-a_amp0", ["solve"], {"potential": {"a_amp": 0}}),
    ("search-a_amp0", ["search"], {"potential": {"a_amp": 0}}),
    # no orbit the solver reaches at m=40 (exit 3); finer grids solve directly
    ("solve-a_base20-m40", ["solve"], {"potential": {"a_base": 20}}),
    ("solve-a_base20-m80", ["solve"], {"potential": {"a_base": 20}, "grid": {"m": 80}}),
    ("solve-period4-m160", ["solve"], {"potential": {"period": 4}, "grid": {"m": 160}}),
    # a crossing phase is taken modulo the period: the default orbit
    ("solve-off-period", ["solve"], {"solver": {"bump_center": 3.0}}),
    # off-phase alpha=3 solves: the Newton release stalls, the descent finishes
    ("solve-off-phase", ["solve"], {"potential": {"alpha": 3}, "solver": {"bump_center": 0.25}}),
    (
        "solve-fallback",
        ["solve"],
        {"potential": {"alpha": 3}, "solver": {"bump_center": 0.4, "grad_tol": 1e-3}},
    ),
    # a two-bump entry of search-a2, decomposed against its own library
    ("diagnose-a2", ["diagnose", "search-a2/entry_004.csv", "--out", "search-a2"], None),
    # refused by the gate (exit 2) or the config (exit 1), or failing (exit 3)
    ("solve-violated", ["solve"], {"potential": {"a_base": 1, "a_amp": 2}}),
    ("check-small-q", ["check"], {"potential": {"q": [0.5, 0]}}),
    ("check-missed-a4", ["check"], _MISSED_ALPHA4),
    ("solve-missed-a4", ["solve"], _MISSED_ALPHA4),
    (
        "check-missed-d3",
        ["check"],
        {"potential": {"alpha": 2.5429, "dimension": 3, "q": [0.0786, 0.1592, -0.3152]}},
    ),
    ("check-dim0", ["check"], {"potential": {"dimension": 0}}),
    ("solve-dim0", ["solve"], {"potential": {"dimension": 0}}),
    ("check-dim1e15", ["check"], {"potential": {"dimension": 10**15}}),
    ("check-reversed", ["check"], _REVERSED),
    ("refine-reversed", ["refine"], _REVERSED),
    ("check-huge-q", ["check"], {"potential": {"q": [20000, 0]}}),
    ("check-not-utf8", ["check"], b"\xff\xfe{}"),
    ("check-schedule", ["check"], {"search": {"schedule": {"phase1": [{"k0": 1.5}]}}}),
    ("solve-seed", ["solve", "--seed", "3"], None),
    ("solve-M1e12", ["solve"], {"grid": {"M": 10**12}}),
    ("solve-M1e30", ["solve"], {"grid": {"M": 10**30}}),
    ("refine-m_fine1e12", ["refine"], {"refine": {"m_fine": 10**12}}),
    # the grid is within the size bound, its default fine level (m=80) is not
    ("refine-M20000", ["refine"], {"grid": {"M": 20000}}),
    ("solve-d64-nodes1e6", ["solve"], {"potential": {"dimension": 64}, "grid": {"M": 12500}}),
    ("solve-infeasible", ["solve"], {"solver": {"eps_k": 2, "k0": 1000}}),
    # cosh overflows far from a steep guess's center, silently
    ("solve-steep", ["solve"], {"potential": {"alpha": 3}, "solver": {"bump_width": 100}}),
    # every trial of an overflowing well is rejected, with no numpy warning
    ("solve-overflow", ["solve"], _OVERFLOW),
    ("search-overflow", ["search"], _OVERFLOW),
    ("refine-overflow", ["refine"], _OVERFLOW),
]


def _argv(name, argv, config):
    argv = list(argv)
    if config is not None:
        path = name + ".json"
        raw = config if isinstance(config, bytes) else json.dumps(config).encode()
        with open(path, "wb") as fh:
            fh.write(raw)
        argv += ["--config", path]
    if "--out" not in argv:
        argv += ["--out", name]
    return argv


def _files():
    found = set()
    for root, _, names in os.walk("."):
        found.update(os.path.relpath(os.path.join(root, n)).replace(os.sep, "/") for n in names)
    return found


def _strict(constant):
    raise ValueError("not strict JSON: %s" % constant)


def _without_timing(obj):
    if isinstance(obj, dict):
        return {k: _without_timing(v) for k, v in obj.items() if k != "timing"}
    if isinstance(obj, list):
        return [_without_timing(v) for v in obj]
    return obj


def _h1_norm(t, u):
    """Forward-difference kinetic part plus trapezoid L2 part, as grids defines it."""
    dt = np.diff(t)
    sq = np.sum(u * u, axis=1)
    kinetic = np.sum(np.sum(np.diff(u, axis=0) ** 2, axis=1) / dt)
    return float(math.sqrt(kinetic + np.sum(dt * (sq[:-1] + sq[1:]) / 2.0)))


def _csv_record(raw):
    lines = raw.decode().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    record = {"header": lines[0], "rows": len(rows), "sha256": hashlib.sha256(raw).hexdigest()}
    if lines[0].startswith("t,"):
        data = np.array(rows, dtype=float)
        record["h1_norm"] = _h1_norm(data[:, 0], data[:, 1:])
    else:
        record["values"] = [[float(x) for x in row[1:]] for row in rows]
    return record


def _output(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    if path.endswith(".csv"):
        return _csv_record(raw)
    doc = json.loads(raw, parse_constant=_strict)
    return _without_timing(doc) if os.path.basename(path) == "report.json" else doc


def _run(name, argv, config):
    argv = _argv(name, argv, config)
    before = _files()
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    written = sorted(_files() - before)
    stderr = err.getvalue().splitlines()
    if stderr and stderr[0].startswith("usage: "):
        stderr = stderr[-1:]
    return {
        "argv": argv,
        "exit": code,
        "stdout": out.getvalue().splitlines(),
        "stderr": stderr,
        "warnings": ["%s: %s" % (w.category.__name__, w.message) for w in caught],
        "files": [re.sub("[0-9a-f]{64}", "<sha256>", path) for path in written],
        "outputs": {p: _output(p) for p in written if p.endswith((".csv", ".json"))},
    }


def run_corpus():
    """Every command of COMMANDS, run in order in the current directory."""
    return {name: _run(name, argv, config) for name, argv, config in COMMANDS}


def _close(key, want, got):
    """Whether two floats under key agree to within what rounding moves."""
    if key in _ACTIONS:
        return math.isclose(want, got, rel_tol=ACTION_RTOL)
    return math.isclose(want, got, rel_tol=RTOL, abs_tol=NOISE if key in _NOISY else ATOL)


def _same_text(want, got):
    """Whether two lines agree: their words exactly, each number to within
    one unit of its last printed digit (a rounding flip), a printed
    gradient norm or residual within NOISE, a stalled count not at all."""
    words, got_words = _NUMBER.split(want), _NUMBER.split(got)
    if words != got_words:
        return False
    for i, (a, b) in enumerate(zip(_NUMBER.findall(want), _NUMBER.findall(got))):
        around = words[i] + "#" + words[i + 1]
        if a == b or _STALLED_PRINTED.search(around):
            continue
        mantissa, _, exponent = a.partition("e")
        if "." not in mantissa and not exponent:
            return False  # an integer
        digits = len(mantissa.partition(".")[2])
        slack = 10.0 ** (int(exponent or 0) - digits)
        if _NOISY_PRINTED.search(around):
            slack = max(slack, NOISE)
        if not abs(float(a) - float(b)) <= slack:
            return False
    return True


def _difference(want, got, where="", key=None):
    """Where got first differs from want, or None."""
    if isinstance(want, float) and isinstance(got, float):
        same = _close(key, want, got)
    elif type(want) is not type(got):
        same = False
    elif isinstance(want, (dict, list)):
        if isinstance(want, list) and len(want) != len(got):
            return "%s: %d items, golden %d" % (where, len(got), len(want))
        keys = want.keys() if isinstance(want, dict) else range(len(want))
        if isinstance(want, dict) and keys != got.keys():
            return "%s: keys %s, golden %s" % (where, sorted(got), sorted(want))
        skipped = _SKIPPED
        if isinstance(want, dict) and want.get("stop") == "stalled":
            skipped = _SKIPPED | {"iterations"}
        for k in keys:
            if k in skipped:
                continue
            # a list's items are compared under the key that holds it
            at = k if isinstance(k, str) else key
            found = _difference(want[k], got[k], "%s[%r]" % (where, k), at)
            if found:
                return found
        return None
    elif isinstance(want, str):
        same = want == got or _same_text(want, got)
    else:
        same = want == got
    return None if same else "%s: %r, golden %r" % (where, got, want)


def test_corpus_matches_golden(tmp_path, monkeypatch):
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    monkeypatch.chdir(tmp_path)
    corpus = run_corpus()
    differ = []
    for name in sorted(set(golden) | set(corpus)):
        if name not in corpus or name not in golden:
            differ.append("%s: only in the %s" % (name, "golden file" if name in golden else "corpus"))
            continue
        found = _difference(golden[name], corpus[name])
        if found:
            differ.append(name + found)
    assert not differ, "%d of %d commands differ from the golden file:\n%s" % (
        len(differ),
        len(corpus),
        "\n".join(differ),
    )


if __name__ == "__main__":
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            corpus = run_corpus()
        finally:
            os.chdir(here)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(corpus, fh, indent=1, sort_keys=True, allow_nan=False)
        fh.write("\n")
    print("wrote %d commands to %s" % (len(corpus), GOLDEN), file=sys.stderr)
