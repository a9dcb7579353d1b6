"""No command and no library call loads scipy.

The package is numpy-only: the Newton solve and the H1 preconditioner are
numpy kernels (solve.solve_banded, solve.H1Preconditioner).  No command
loads numpy.random either, since the hypothesis gate is closed-form and
the solver is deterministic, and once the config is read a command
imports nothing more.  The package root imports nothing, and importing cli
loads every module the benchmark tracer wraps.  Each case runs in a fresh
interpreter, since the test process itself imports scipy as an oracle.
"""

import json
import os
import subprocess
import sys

import pytest

from homoclinic.cli import main
from test_tracer_targets import _specs

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


_LOADED = """
import json, sys
%s
print(json.dumps(sorted(m for m in sys.modules if m == "numpy" or m.startswith("homoclinic."))))
"""


def test_package_root_imports_nothing():
    # the root re-exports nothing: a submodule loads only what it imports
    assert _fresh(_LOADED % "import homoclinic") == []
    loaded = _fresh(_LOADED % "from homoclinic import grids")
    assert [m for m in loaded if m != "numpy"] == ["homoclinic.errors", "homoclinic.grids"]


def test_cli_loads_every_module_the_tracer_wraps():
    # the traced benchmark wraps functions in the modules loaded by importing cli
    wrapped = {"homoclinic." + mod for _, targets, _ in _specs() for mod, _ in targets}
    assert wrapped - set(_fresh(_LOADED % "import homoclinic.cli")) == set()


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


# small configs, so every solver command runs to the end quickly
_SOLVER_CONFIGS = {
    "solve": {},
    "search": {"search": {"targets": 2}},
    "refine": {},
}


def _config(tmp_path, command):
    cfg = tmp_path / ("%s.json" % command)
    cfg.write_text(json.dumps(_SOLVER_CONFIGS[command]))
    return str(cfg)


@pytest.mark.parametrize("command", sorted(_SOLVER_CONFIGS))
def test_solver_commands_leave_scipy_unloaded(tmp_path, command):
    code = (
        "import sys\nfrom homoclinic.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n" + _SCIPY_MODULES
    )
    out = str(tmp_path / "run")
    assert _fresh(code, command, "--config", _config(tmp_path, command), "--out", out) == []


_IMPORT_ORDER = """
import gc, json, sys
from homoclinic import cli

seen = {}
freeze, read_doc = gc.freeze, cli.read_config_doc

def recording_freeze():
    seen["freeze"] = "numpy.random" in sys.modules
    freeze()

def recording_read(path):
    seen["config"] = sorted(sys.modules)
    return read_doc(path)

gc.freeze, cli.read_config_doc = recording_freeze, recording_read
seen["import"] = "numpy.random" in sys.modules
seen["rc"] = cli.main(sys.argv[1:])
seen["exit"] = "numpy.random" in sys.modules
seen["new_after_config"] = sorted(set(sys.modules) - set(seen.pop("config")))
print(json.dumps(seen))
"""


@pytest.mark.parametrize("command", ["check", "diagnose"] + sorted(_SOLVER_CONFIGS))
def test_solver_commands_import_everything_before_config_and_freeze(
    small_library, tmp_path, command
):
    # numpy loads numpy.random on first use, and no command uses it; no
    # command imports any module once the config is read
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(_SOLVER_CONFIGS.get(command, {})))
    if command == "diagnose":
        args = ["--out", small_library, small_library + "/entry_001.csv"]
    else:
        args = ["--out", str(tmp_path / "run")]
    seen = _fresh(_IMPORT_ORDER, command, "--config", str(cfg), *args)
    expected = {"import": False, "freeze": False, "rc": 0, "exit": False, "new_after_config": []}
    assert seen == expected


_BLOCKED_SOLVE = """
import json, sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
from homoclinic.cli import main
rc = main(["solve", "--out", sys.argv[1]])
with open(sys.argv[1] + "/report.json") as fh:
    print(json.dumps([rc, json.load(fh)["candidate"]["action"]]))
"""


def test_solve_runs_with_scipy_blocked(tmp_path):
    rc, action = _fresh(_BLOCKED_SOLVE, str(tmp_path / "run"))
    assert rc == 0
    assert abs(action - _DEFAULT_ACTION) <= 1e-8


_LIBRARY_SOLVE = """
import json, sys
from homoclinic.grids import Grid
from homoclinic.potential import example_potential
from homoclinic.solve import SolverConfig, solve_homoclinic

grid = Grid(period=1.0, nodes_per_period=40, half_periods=8)
cand = solve_homoclinic(example_potential(), grid, SolverConfig())
print(json.dumps([[m for m in sys.modules if m.split(".")[0] == "scipy"], cand.action]))
"""


def test_library_api_leaves_scipy_unloaded():
    loaded, action = _fresh(_LIBRARY_SOLVE)
    assert loaded == []
    assert abs(action - _DEFAULT_ACTION) <= 1e-8
