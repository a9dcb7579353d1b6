import time

import pytest

from homoclinic.grids import Grid
from homoclinic.multiplicity import search_distinct
from homoclinic.potential import example_potential
from homoclinic.solve import SolverConfig, solve_homoclinic


@pytest.fixture(scope="session")
def pot():
    return example_potential()


@pytest.fixture(scope="session")
def grid():
    return Grid(period=1.0, nodes_per_period=40, half_periods=8)


@pytest.fixture(scope="session")
def cfg():
    return SolverConfig()


# one shared solve; tests must not mutate the candidate
@pytest.fixture(scope="session")
def solved(pot, grid, cfg):
    return solve_homoclinic(pot, grid, cfg)


# wall time of the expensive session fixtures, for the acceptance lines
@pytest.fixture(scope="session")
def fixture_seconds():
    return {}


@pytest.fixture(scope="session")
def library3(pot, grid, cfg, fixture_seconds):
    t0 = time.perf_counter()
    lib = search_distinct(pot, grid, cfg, targets=3)
    fixture_seconds["library3"] = time.perf_counter() - t0
    return lib


# the full default search at m=40: phase 1, six glues and the phase-3 item
@pytest.fixture(scope="session")
def library9(pot, grid, cfg):
    return search_distinct(pot, grid, cfg, targets=9)


def pytest_terminal_summary(terminalreporter):
    # acceptance verdicts, one line per criterion, kept out of the capture
    import sys

    mod = next(
        (m for n, m in sys.modules.items() if n.rsplit(".", 1)[-1] == "test_acceptance"),
        None,
    )
    lines = getattr(mod, "CRITERION_LINES", None)
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(lines):
        terminalreporter.write_line(lines[num])
