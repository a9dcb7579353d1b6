"""scipy.linalg loads only where a matrix is factored.

solve.py holds the package's only scipy import, made on first use.  The
commands that factor (solve, search, refine) load it at CLI entry, before
the config is read and before gc.freeze(); check, diagnose, --help and a
bare package import never load it.  Each case runs in a fresh interpreter,
since the test process itself has long since imported scipy.
"""

import json
import os
import subprocess
import sys

import pytest

from homoclinic.cli import main

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

# the default solve at m=40 (the first entry of the default library)
_DEFAULT_ACTION = 27.308803721782354


def _fresh(code, *args):
    """Run code in a new interpreter with src on the path; its last stdout line as JSON."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


_SCIPY_MODULES = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


@pytest.fixture(scope="module")
def small_library(tmp_path_factory):
    base = tmp_path_factory.mktemp("lazy")
    out = str(base / "lib")
    cfg = base / "targets2.json"
    cfg.write_text(json.dumps({"search": {"targets": 2}}))
    assert main(["search", "--config", str(cfg), "--out", out]) == 0
    return out


@pytest.mark.parametrize(
    "call",
    [
        "import homoclinic",
        "from homoclinic.cli import main; assert main(['check']) == 0",
        "from homoclinic.cli import main; assert main(['--help']) == 0",
        "from homoclinic.cli import main; "
        "assert main(['diagnose', '--out', sys.argv[1], sys.argv[1] + '/entry_001.csv']) == 0",
    ],
    ids=["import", "check", "help", "diagnose"],
)
def test_commands_that_never_factor_leave_scipy_unloaded(small_library, call):
    code = "import sys\n" + call + "\n" + _SCIPY_MODULES
    assert _fresh(code, small_library) == []


_FREEZE_ORDER = """
import gc, json, sys
from homoclinic import cli

seen = {}
freeze, read_doc = gc.freeze, cli.read_config_doc

def recording_freeze():
    seen["freeze"] = "scipy.linalg" in sys.modules
    freeze()

def recording_read(path):
    seen["config"] = "scipy.linalg" in sys.modules
    return read_doc(path)

gc.freeze, cli.read_config_doc = recording_freeze, recording_read
seen["import"] = "scipy.linalg" in sys.modules
seen["rc"] = cli.main(sys.argv[1:])
print(json.dumps(seen))
"""


@pytest.mark.parametrize("command", ["solve", "search", "refine"])
def test_solver_commands_load_linalg_before_config_and_freeze(tmp_path, command):
    # a failing hypothesis gate ends the command right after set-up
    cfg = tmp_path / "violation.json"
    cfg.write_text(json.dumps({"potential": {"a_base": 1.0, "a_amp": 2.0}}))
    out = str(tmp_path / "run")
    seen = _fresh(_FREEZE_ORDER, command, "--config", str(cfg), "--out", out)
    assert seen == {"import": False, "config": True, "freeze": True, "rc": 2}


_LIBRARY_SOLVE = """
import json, sys
from homoclinic import Grid, SolverConfig, example_potential, solve_homoclinic

before = "scipy.linalg" in sys.modules
grid = Grid(period=1.0, nodes_per_period=40, half_periods=8)
cand = solve_homoclinic(example_potential(), grid, SolverConfig())
print(json.dumps([before, "scipy.linalg" in sys.modules, cand.action]))
"""


def test_library_api_loads_linalg_on_first_factorization():
    before, after, action = _fresh(_LIBRARY_SOLVE)
    assert (before, after) == (False, True)
    assert abs(action - _DEFAULT_ACTION) <= 1e-8
