"""Command line contract: exit codes, determinism, artifact layout."""

import gc
import hashlib
import json
import os
import shutil
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from homoclinic import solve
from homoclinic.cli import main
from homoclinic.config import parse_config
from homoclinic.grids import (
    from_values,
    read_trajectory_csv,
    shift_periods,
    write_trajectory_csv,
    zero_function,
)


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _not_strict(constant):
    raise ValueError("report.json holds %s, which strict JSON parsers reject" % constant)


def load_report(out_dir):
    with open(os.path.join(out_dir, "report.json")) as fh:
        return json.load(fh, parse_constant=_not_strict)


# the rows after A, identical for both check configs below
_CHECK_ROWS = [
    "H2   pass  negative pinched Hessian at 0 (eigenvalues in [-0.5, -0.5])",
    "H3   pass  strong-force barrier near q (min margin 2.610e+02 inside radius 0.1)",
    "H4   pass  far-field domination and growth (min margin 3.900e-01, min growth 1.278e+00)",
    "W<0  pass  W negative away from 0 (max W/|u|^2 -1.000e-02 on |u| <= 8)",
]


def test_check_defaults_pass(capsys):
    assert main(["check"]) == 0
    first = "A    pass  a(t) > 0 and periodic (a in [1, 3])"
    assert capsys.readouterr().out.splitlines() == [first] + _CHECK_ROWS


def test_check_reports_violation(tmp_path, capsys):
    cfg = write_config(tmp_path, {"potential": {"a_base": 1.0, "a_amp": 2.0}})
    assert main(["check", "--config", cfg]) == 2
    first = "A    FAIL  a(t) > 0 and periodic (coefficient a(t) is not positive: min -1)"
    assert capsys.readouterr().out.splitlines() == [first] + _CHECK_ROWS


def test_malformed_config_is_exit_1(tmp_path, capsys):
    # truncated JSON is reported by line, bytes that are not UTF-8 by path
    for raw, where in ((b'{"potential": ', "line"), (b"\xff\xfe{}", "not UTF-8")):
        path = tmp_path / "broken.json"
        path.write_bytes(raw)
        assert main(["check", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: %s: " % path)
        assert where in err


@pytest.mark.parametrize(
    "doc,message",
    [
        (None, "cannot read config "),
        ({"grid": {"m": 4}}, "grid: need at least 8 nodes per period"),
        ({"grid": {"M": 1}}, "grid: need at least 2 periods on each side of 0"),
        ({"potential": {"period": 1e-200}}, "potential.period: must be at least 1e-150"),
    ],
    ids=["missing-file", "m4", "M1", "period1e-200"],
)
def test_unusable_config_is_exit_1(tmp_path, capsys, doc, message):
    # a config file that is not there, or a grid the solver cannot run on
    path = str(tmp_path / "absent.json") if doc is None else write_config(tmp_path, doc)
    assert main(["check", "--config", path]) == 1
    assert capsys.readouterr().err.startswith("config error: " + message)


def test_unknown_key_is_exit_1(tmp_path, capsys):
    # a removed field is a config error, never silently ignored
    solver_gone = (
        ("grad_tolerance", 1e-6),
        ("precondition", False),
        ("renormalize_every", 0),
        ("probe_radius", 1.0),
        ("probe_samples", 0),
        ("constraint_active_iters", 50),
        ("armijo_c1", 1e-4),
        ("backtrack", 0.5),
        ("max_backtracks", 60),
        ("zero_tol", 1e-4),
        ("max_restarts", 4),
        ("transverse", 0.5),
        ("seed", 0),
    )
    gone = [("solver", key, value) for key, value in solver_gone] + [
        ("search", "schedule", {"phase1": [{"k0": 1.5}]}),
        ("grid", "T", 1.0),
    ]
    for block, key, value in gone:
        cfg = write_config(tmp_path, {block: {key: value}})
        assert main(["check", "--config", cfg]) == 1
        assert "config error: %s.%s: unknown field" % (block, key) in capsys.readouterr().err


def test_solve_writes_artifacts(tmp_path):
    out = str(tmp_path / "run")
    assert main(["solve", "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "solution.csv"))
    rep = load_report(out)
    assert rep["command"] == "solve"
    assert rep["candidate"]["action"] > 0.0
    assert rep["candidate"]["grad_norm"] <= 1e-6
    assert "timing" in rep
    # the echoed config reparses to the identical document
    assert parse_config(rep["config"]).echo() == rep["config"]


def test_solve_rerun_identical_modulo_timing(tmp_path):
    out = str(tmp_path / "run")
    assert main(["solve", "--out", out]) == 0
    first_csv = open(os.path.join(out, "solution.csv"), "rb").read()
    first_rep = load_report(out)
    assert main(["solve", "--out", out]) == 0
    second_csv = open(os.path.join(out, "solution.csv"), "rb").read()
    second_rep = load_report(out)
    assert first_csv == second_csv
    first_rep.pop("timing")
    second_rep.pop("timing")
    assert first_rep == second_rep


@pytest.mark.parametrize(
    "command,doc",
    [
        ("solve", {"potential": {"alpha": 2}}),
        ("solve", {"potential": {"alpha": 3}}),
        ("solve", {"potential": {"alpha": 4}}),
        ("refine", {}),
        ("search", {"search": {"targets": 9}}),
    ],
    ids=["solve-alpha2", "solve-alpha3", "solve-alpha4", "refine", "search-targets9"],
)
def test_commands_never_shift_by_whole_periods(tmp_path, command, doc):
    # the crossing phase c is chosen once, at the guess, modulo the period,
    # and no stage moves an iterate by whole periods afterwards: every
    # single-loop orbit a command writes peaks in the period centred on c,
    # and solve's pinned node, on its stage's grid, lies there too (glued
    # entries are placed by their separation, so the search checks its
    # phase-1 and 3 entries)
    out = tmp_path / "run"
    assert main([command, "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    report = load_report(str(out))
    cfg = parse_config(report["config"])
    period = cfg.grid.period
    c = cfg.solver.bump_center % period

    def central(t, center):
        return -period / 2 <= t - center < period / 2

    if command == "search":
        entries = [e for e in report["library"]["entries"] if e["schedule_item"]["phase"] != 2]
        orbits = [(e["trajectory_csv_path"], e["schedule_item"].get("center", c)) for e in entries]
    elif command == "refine":
        orbits = [("solution_coarse.csv", c), ("solution_fine.csv", c)]
    else:
        orbits = [("solution.csv", c)]
        e_stage = report["candidate"]["e_stage"]
        stage_grid = replace(cfg.grid, nodes_per_period=e_stage["m"])
        assert central(stage_grid.times[e_stage["node"]], c)
    assert len(orbits) >= 1
    for csv, center in orbits:
        data = np.loadtxt(out / csv, delimiter=",", skiprows=1)
        peak = data[np.argmax(np.sum(data[:, 1:] ** 2, axis=1)), 0]
        assert central(peak, center), (csv, peak, center)


def test_solve_unreachable_tolerance_is_exit_3(tmp_path):
    out = str(tmp_path / "run")
    cfg = write_config(tmp_path, {"solver": {"grad_tol": 0.0, "max_iters": 50}})
    assert main(["solve", "--config", cfg, "--out", out]) == 3
    rep = load_report(out)
    assert "error" in rep and "candidate" not in rep


def test_out_dir_env_fallback(tmp_path, monkeypatch):
    out = str(tmp_path / "env_run")
    monkeypatch.setenv("HOMOCLINIC_OUT", out)
    assert main(["solve"]) == 0
    assert os.path.exists(os.path.join(out, "solution.csv"))


def test_out_dir_flag_beats_env(tmp_path, monkeypatch):
    monkeypatch.setenv("HOMOCLINIC_OUT", str(tmp_path / "ignored"))
    out = str(tmp_path / "flagged")
    assert main(["solve", "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "solution.csv"))
    assert not os.path.exists(str(tmp_path / "ignored"))


@pytest.mark.parametrize(
    "argv",
    [["solve", "--bogus"], ["search", "--jobs", "x"], [], ["diagnose"], ["solve", "--seed", "3"]],
    ids=["unknown-flag", "bad-jobs", "no-command", "no-trajectory", "removed-seed"],
)
def test_usage_error_is_exit_1(capsys, argv):
    # argparse's own code 2 would read as a hypothesis violation
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: homoclinic")
    assert "error: " in err


def test_help_is_exit_0(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: homoclinic")
    assert "default configuration:" in out


def test_search_writes_library(tmp_path):
    out = str(tmp_path / "lib")
    assert main(["search", "--out", out]) == 0
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert len(manifest) >= 3
    for item in manifest:
        assert os.path.exists(os.path.join(out, item["trajectory_csv_path"]))
    lines = open(os.path.join(out, "distances.csv")).read().strip().splitlines()
    assert lines[0].startswith("id,entry_000")
    assert len(lines) == len(manifest) + 1
    rep = load_report(out)
    assert rep["targets_met"] is True


def test_search_zero_targets(tmp_path):
    out = str(tmp_path / "lib0")
    cfg = write_config(tmp_path, {"search": {"targets": 0}})
    assert main(["search", "--config", cfg, "--out", out]) == 0
    assert json.load(open(os.path.join(out, "manifest.json"))) == []


def test_search_under_target_is_exit_3(tmp_path):
    # the built-in schedule runs out at nine entries
    out = str(tmp_path / "lib10")
    cfg = write_config(tmp_path, {"search": {"targets": 10}})
    assert main(["search", "--config", cfg, "--out", out]) == 3
    assert len(json.load(open(os.path.join(out, "manifest.json")))) == 9


def test_refine_equal_levels_is_exit_1(tmp_path, capsys):
    cfg = write_config(tmp_path, {"refine": {"m_fine": 40}})
    assert main(["refine", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "refine"])
@pytest.mark.parametrize(
    "levels",
    [{"m_coarse": 80, "m_fine": 40}, {"m_fine": 40}, {"m_coarse": 60, "m_fine": 60}],
    ids=["reversed", "equal-to-grid", "equal"],
)
def test_refine_fine_level_not_above_coarse_is_exit_1(tmp_path, capsys, command, levels):
    # the config refuses the study before any solve or output directory
    cfg = write_config(tmp_path, {"refine": levels})
    out = str(tmp_path / "run")
    assert main([command, "--config", cfg, "--out", out]) == 1
    assert "config error: refine.m_fine: must exceed the coarse node count" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_refine_levels_resolve_once_and_echo_raw():
    cfg = parse_config({"grid": {"m": 20}, "refine": {"m_fine": 50}})
    assert (cfg.refine.coarse, cfg.refine.fine) == (20, 50)
    assert cfg.echo()["refine"] == {"m_coarse": None, "m_fine": 50}
    assert (parse_config({}).refine.coarse, parse_config({}).refine.fine) == (40, 80)


def test_diagnose_missing_file_is_exit_1(tmp_path):
    assert main(["diagnose", "--out", str(tmp_path), str(tmp_path / "no.csv")]) == 1


@pytest.fixture(scope="module")
def search_dir(tmp_path_factory):
    """A default search library; diagnose may add its parse cache, nothing else writes."""
    out = str(tmp_path_factory.mktemp("search") / "lib")
    assert main(["search", "--out", out]) == 0
    return out


def test_main_freezes_the_import_heap():
    gc.unfreeze()
    assert gc.get_freeze_count() == 0
    assert main(["check"]) == 0
    assert gc.get_freeze_count() > 0


def test_diagnose_solution_self_match(search_dir, capsys):
    out = search_dir
    entry = os.path.join(out, "entry_000.csv")
    assert main(["diagnose", "--out", out, entry]) == 0
    text = capsys.readouterr().out
    assert "1 bumps" in text
    assert "entry_000" in text


def test_diagnose_without_library(tmp_path, capsys):
    out = str(tmp_path / "solo")
    assert main(["solve", "--out", out]) == 0
    csv = os.path.join(out, "solution.csv")
    elsewhere = str(tmp_path / "elsewhere")
    assert main(["diagnose", "--out", elsewhere, csv]) == 0
    assert "no library manifest in %s;" % elsewhere in capsys.readouterr().out


def test_back_to_back_diagnose_prints_the_same(search_dir, capsys):
    # the second run starts with the first run's objects frozen
    entry = os.path.join(search_dir, "entry_002.csv")
    texts = []
    for _ in range(2):
        assert main(["diagnose", "--out", search_dir, entry]) == 0
        texts.append(capsys.readouterr().out)
    assert "bump decomposition" in texts[0]
    assert texts[0] == texts[1]


def _diagnose_with_manifest(tmp_path, manifest_text):
    grid = parse_config({}).grid
    csv = str(tmp_path / "zero.csv")
    write_trajectory_csv(csv, zero_function(grid, 2))
    (tmp_path / "manifest.json").write_text(manifest_text)
    return main(["diagnose", "--out", str(tmp_path), csv])


def test_diagnose_empty_manifest_says_so(tmp_path, capsys):
    assert _diagnose_with_manifest(tmp_path, "[]") == 0
    out = capsys.readouterr().out
    assert "library manifest in %s has no entries; skipping bump decomposition" % tmp_path in out


def test_diagnose_invalid_manifest_json_is_exit_1(tmp_path, capsys):
    assert _diagnose_with_manifest(tmp_path, '[{"action": ') == 1
    err = capsys.readouterr().err
    assert "manifest.json is not valid JSON" in err
    assert "Traceback" not in err


def _library_copy(search_dir, tmp_path):
    lib = str(tmp_path / "lib")
    shutil.copytree(search_dir, lib, ignore=shutil.ignore_patterns(".trajectory-cache"))
    return lib


def _diagnose_text(capsys, lib, csv):
    assert main(["diagnose", "--out", lib, csv]) == 0
    return capsys.readouterr().out


def _cache_files(lib):
    return sorted(os.listdir(os.path.join(lib, ".trajectory-cache")))


def _digest_names(paths):
    digests = set()
    for path in paths:
        with open(path, "rb") as fh:
            digests.add(hashlib.sha256(fh.read()).hexdigest() + ".npy")
    return sorted(digests)


def test_diagnose_prints_the_same_cold_warm_and_blocked(search_dir, tmp_path, capsys):
    lib = _library_copy(search_dir, tmp_path)
    cache = os.path.join(lib, ".trajectory-cache")
    grid = parse_config({}).grid
    u = read_trajectory_csv(os.path.join(lib, "entry_000.csv"), grid)
    glued = str(tmp_path / "glued.csv")
    two_bumps = shift_periods(u, -3).values + shift_periods(u, 3).values
    write_trajectory_csv(glued, from_values(grid, two_bumps))
    manifest = json.loads(open(os.path.join(lib, "manifest.json")).read())
    targets = [os.path.join(lib, item["trajectory_csv_path"]) for item in manifest] + [glued]
    assert len(targets) >= 3
    for csv in targets:
        shutil.rmtree(cache, ignore_errors=True)
        cold = _diagnose_text(capsys, lib, csv)
        warm = _diagnose_text(capsys, lib, csv)
        shutil.rmtree(cache)
        with open(cache, "w") as fh:  # a regular file blocks the directory, even for root
            fh.write("blocked\n")
        blocked = _diagnose_text(capsys, lib, csv)
        os.remove(cache)
        assert "bump decomposition" in cold
        assert cold == warm == blocked


def test_warm_diagnose_parses_no_text(search_dir, tmp_path, capsys, monkeypatch):
    lib = _library_copy(search_dir, tmp_path)
    entry = os.path.join(lib, "entry_001.csv")
    cold = _diagnose_text(capsys, lib, entry)
    calls = []
    loadtxt = np.loadtxt

    def spy(*args, **kwargs):
        calls.append(args)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    assert _diagnose_text(capsys, lib, entry) == cold
    assert calls == []


def test_rewritten_entry_is_not_a_stale_hit(search_dir, tmp_path, capsys):
    lib = _library_copy(search_dir, tmp_path)
    entry = os.path.join(lib, "entry_000.csv")
    _diagnose_text(capsys, lib, entry)  # caches every entry
    grid = parse_config({}).grid
    other = read_trajectory_csv(os.path.join(lib, "entry_001.csv"), grid)
    write_trajectory_csv(entry, shift_periods(other, 1))
    warm = _diagnose_text(capsys, lib, entry)
    shutil.rmtree(os.path.join(lib, ".trajectory-cache"))
    assert warm == _diagnose_text(capsys, lib, entry)
    assert "matched entry_000 shifted by +0 periods, distance 0.0000e+00" in warm


def test_cache_keeps_one_file_per_distinct_entry(search_dir, tmp_path, capsys):
    lib = _library_copy(search_dir, tmp_path)
    manifest = json.loads(open(os.path.join(lib, "manifest.json")).read())
    # a second entry with the bytes of the first, under another name
    shutil.copy(os.path.join(lib, "entry_000.csv"), os.path.join(lib, "copy.csv"))
    manifest.append(dict(manifest[0], id="copy", trajectory_csv_path="copy.csv"))
    with open(os.path.join(lib, "manifest.json"), "w") as fh:
        json.dump(manifest, fh)
    os.makedirs(os.path.join(lib, ".trajectory-cache"))
    stale = os.path.join(lib, ".trajectory-cache", "0" * 64 + ".npy")
    with open(stale, "wb") as fh:
        fh.write(b"left by an older library")
    shifted = str(tmp_path / "not_an_entry.csv")
    grid = parse_config({}).grid
    u = read_trajectory_csv(os.path.join(lib, "entry_000.csv"), grid)
    write_trajectory_csv(shifted, shift_periods(u, 2))
    _diagnose_text(capsys, lib, shifted)
    paths = [os.path.join(lib, item["trajectory_csv_path"]) for item in manifest]
    assert len(_digest_names(paths)) == len(manifest) - 1
    assert _cache_files(lib) == _digest_names(paths)


def test_truncated_cache_file_is_parsed_and_rewritten(search_dir, tmp_path, capsys):
    lib = _library_copy(search_dir, tmp_path)
    entry = os.path.join(lib, "entry_002.csv")
    cold = _diagnose_text(capsys, lib, entry)
    (name,) = _digest_names([entry])
    cached = os.path.join(lib, ".trajectory-cache", name)
    with open(cached, "rb") as fh:
        whole = fh.read()
    for cut in (0, 40, len(whole) - 8):
        with open(cached, "wb") as fh:
            fh.write(whole[:cut])
        assert _diagnose_text(capsys, lib, entry) == cold
        with open(cached, "rb") as fh:
            assert fh.read() == whole


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("where", ["target", "entry"])
def test_diagnose_non_finite_value_is_exit_1(search_dir, tmp_path, capsys, cell, where):
    lib = _library_copy(search_dir, tmp_path)
    path = os.path.join(lib, "entry_001.csv")
    with open(path, newline="") as fh:
        rows = fh.read().split("\r\n")
    cells = rows[200].split(",")
    cells[1] = cell
    rows[200] = ",".join(cells)
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(rows))
    target = path if where == "target" else os.path.join(lib, "entry_000.csv")
    assert main(["diagnose", "--out", lib, target]) == 1
    err = capsys.readouterr().err
    assert err == "error: non-finite value in trajectory\n"


def test_diagnose_nan_time_is_exit_1(tmp_path, capsys):
    grid = parse_config({}).grid
    csv = str(tmp_path / "nan_time.csv")
    write_trajectory_csv(csv, zero_function(grid, 2))
    with open(csv, newline="") as fh:
        rows = fh.read().split("\r\n")
    rows[100] = "nan" + rows[100][rows[100].index(","):]
    with open(csv, "w", newline="") as fh:
        fh.write("\r\n".join(rows))
    assert main(["diagnose", "--out", str(tmp_path), csv]) == 1
    assert capsys.readouterr().err == "error: node times do not match the configured grid\n"


@pytest.mark.parametrize(
    "text,message",
    [
        (
            '[{"action": 1.0, "grad_norm": 0.0, "clearance": 1.0}]',
            "entry 0 has no 'trajectory_csv_path'",
        ),
        (
            '[{"trajectory_csv_path": "zero.csv", "grad_norm": 0.0, "clearance": 1.0}]',
            "entry 0 has no 'action'",
        ),
        ('{"entries": []}', "top level must be a list"),
        ('["entry_000.csv"]', "entry 0 is not an object"),
        (
            '[{"trajectory_csv_path": 5, "action": 1.0, "grad_norm": 0.0, "clearance": 1.0}]',
            "entry 0 trajectory_csv_path is not a string",
        ),
    ],
)
def test_diagnose_manifest_missing_field_is_exit_1(tmp_path, capsys, text, message):
    assert _diagnose_with_manifest(tmp_path, text) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: %s: " % (tmp_path / "manifest.json"))
    assert message in err


@pytest.mark.parametrize(
    "field,value",
    [
        ("grad_tol", -1.0),
        ("eps_k", 0.0),
        ("backtrack", 1.0),
        ("armijo_c1", 0.0),
        ("max_iters", -1),
        ("polish_steps", -1),
        ("max_backtracks", 0),
        ("k0", 1.0),
        ("bump_width", 0.0),
        ("orientation", 0),
        # removed fields: refused as unknown before any output is written
        ("probe_samples", 0),
    ],
)
def test_solver_range_is_exit_1(tmp_path, capsys, field, value):
    cfg = write_config(tmp_path, {"solver": {field: value}})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
    assert "config error: solver.%s: " % field in capsys.readouterr().err
    assert not os.path.exists(str(tmp_path / "run"))


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("targets", -1, "must be nonnegative"),
        ("targets", 1.0, "expected an integer"),
        ("targets", True, "expected an integer"),
        ("eps_distinct", 0, "must be positive"),
        ("eps_distinct", "0.1", "expected a number"),
    ],
)
def test_search_range_is_exit_1(tmp_path, capsys, field, value, message):
    # the search block shares the solver block's typed, range-checked parse
    cfg = write_config(tmp_path, {"search": {field: value}})
    assert main(["search", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == "config error: search.%s: %s\n" % (field, message)
    assert not os.path.exists(str(tmp_path / "run"))


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("m_coarse", 4, "need at least 8 nodes per period"),
        ("m_fine", -2, "need at least 8 nodes per period"),
        # a fine level numpy could not allocate, refused before either is solved
        (
            "m_fine",
            10**12,
            "2 M m + 1 = 16000000000001 nodes at dimension 2 make n d^2 = "
            "64000000000004 Hessian entries, more than 10000000",
        ),
    ],
    ids=["m_coarse-4", "m_fine--2", "m_fine-1e12"],
)
def test_refine_level_range_is_exit_1(tmp_path, capsys, field, value, message):
    cfg = write_config(tmp_path, {"refine": {field: value}})
    assert main(["refine", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == "config error: refine.%s: %s\n" % (field, message)
    assert not os.path.exists(str(tmp_path / "run"))


def test_solver_range_edges_accepted():
    # zero tolerance stays legal (tests and users ask for "as far as it goes")
    doc = {"grad_tol": 0.0, "max_iters": 0, "polish_steps": 0}
    solver = parse_config({"solver": doc}).solver
    assert (solver.grad_tol, solver.max_iters, solver.polish_steps) == (0.0, 0, 0)


@pytest.mark.parametrize("command", ["check", "solve"])
def test_small_q_is_config_error(tmp_path, capsys, command):
    cfg = write_config(tmp_path, {"potential": {"q": [0.05, 0]}})
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "config error: potential.q: " in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "doc,message",
    [
        ({"dimension": 0}, "dimension must be at least 2"),
        ({"dimension": -1}, "dimension must be at least 2"),
        ({"dimension": 1}, "dimension must be at least 2"),
        # n d^2 above potential.MAX_HESSIAN_ENTRIES at any n, before q is allocated
        ({"dimension": 10**15}, "dimension must be at most 3162"),
        ({"dimension": 3, "q": [1, 0], "alpha": 5}, "q must be a point in R^dimension"),
        ({"q": [0, 0], "alpha": 5}, "q must be distinct from the origin"),
        ({"alpha": 5, "period": 0}, "alpha must lie in [2, 4]"),
        ({"period": 0}, "period must be positive"),
    ],
    ids=["dim0", "dim-1", "dim1", "dim1e15", "q-shape", "q-zero", "alpha-before-period", "period"],
)
@pytest.mark.parametrize("command", ["check", "solve"])
def test_bad_potential_names_its_first_bad_field(tmp_path, capsys, command, doc, message):
    # the well's fields (dimension, q, alpha) are checked before the period
    out = str(tmp_path / "run")
    cfg = write_config(tmp_path, {"potential": doc})
    assert main([command, "--config", cfg, "--out", out]) == 1
    assert capsys.readouterr().err == "config error: potential: %s\n" % message
    assert not os.path.exists(out)


@pytest.mark.parametrize("q", [[10000, 0], [1e200, 0]])
def test_huge_q_is_config_error(tmp_path, capsys, q):
    # the barrier check's innermost shell would lie inside the guard ball
    cfg = write_config(tmp_path, {"potential": {"q": q}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["check", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: potential.q: |q| must be below 1e4")


def test_q_below_the_bound_passes_check(tmp_path):
    cfg = write_config(tmp_path, {"potential": {"q": [9999, 0]}})
    assert main(["check", "--config", cfg]) == 0


def test_solve_summary_counts_polish(tmp_path, capsys):
    # no Armijo pass at all: the E-stage's bordered Newton, from the guess,
    # does the whole job, and the release polish has nothing left to do
    out = str(tmp_path / "run")
    cfg = write_config(tmp_path, {"potential": {"alpha": 3}, "solver": {"max_iters": 0}})
    assert main(["solve", "--config", cfg, "--out", out]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert "action 22.563663" in line
    assert line.endswith("iterations 0 E-stage + 0 descent + 0 polish")
    candidate = load_report(out)["candidate"]
    assert candidate["iterations"] == 0
    e_stage = candidate["e_stage"]
    assert (e_stage["iterations"], e_stage["newton_steps"]) == (0, 12)
    assert e_stage["converged"] and e_stage["grad_norm"] <= 1e-6



def _solve_above_m40(tmp_path, capsys, doc):
    """The summary line and candidate of a solve above m=40, whose whole
    attempt ran at m=40 and whose orbit was continued to m."""
    out = str(tmp_path / "run")
    assert main(["solve", "--config", write_config(tmp_path, doc), "--out", out]) == 0
    candidate = load_report(out)["candidate"]
    assert candidate["e_stage"]["m"] == 40 and candidate["e_stage"]["converged"]
    assert "coarse_error" not in candidate["e_stage"]
    return capsys.readouterr().out.splitlines()[0], candidate


def test_solve_summary_counts_the_coarse_stage(tmp_path, capsys):
    # above m=40 the E-stage counts are the m=40 stage's, and the polish
    # count is the free Newton that continues its orbit to m
    line, candidate = _solve_above_m40(tmp_path, capsys, {"grid": {"m": 160}})
    assert "action 27.316362" in line
    assert line.endswith("iterations 7 E-stage + 0 descent + 2 polish")
    assert candidate["e_stage"]["value"] == pytest.approx(27.308803721782255, rel=0.0, abs=1e-8)


def test_off_phase_solve_above_m40_runs_no_fine_descent(tmp_path, capsys):
    # the off-phase alpha=3 orbit, continued from m=40, needs no Armijo
    # descent on the fine grid
    doc = {"potential": {"alpha": 3}, "grid": {"m": 160}, "solver": {"bump_center": 0.25}}
    line, candidate = _solve_above_m40(tmp_path, capsys, doc)
    assert "action 22.563443" in line
    assert line.endswith("iterations 9 E-stage + 0 descent + 3 polish")
    assert candidate["iterations"] == 0


@pytest.mark.parametrize(
    "doc,action,m,coarse_error",
    [
        (
            {"potential": {"a_base": 20}, "grid": {"m": 80}},
            "80.685621",
            80,
            "MaxItersExceeded: gradient norm ",
        ),
        (
            {"potential": {"period": 4}, "grid": {"m": 160}},
            "30.355095",
            160,
            "ConvergedToZero: iterate collapsed onto the trivial solution",
        ),
    ],
    ids=["a_base20-m80", "period4-m160"],
)
def test_solve_starts_over_when_the_coarse_stage_stalls(
    tmp_path, capsys, doc, action, m, coarse_error
):
    # neither config solves at m=40 (both exit 3 there, once the E-stage
    # stalls): the attempt starts over from the guess at the grid's m
    out = str(tmp_path / "run")
    assert main(["solve", "--config", write_config(tmp_path, doc), "--out", out]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert "action %s" % action in line
    report = load_report(out)
    e_stage = report["candidate"]["e_stage"]
    assert e_stage["m"] == m and e_stage["converged"]
    assert e_stage["coarse_error"].startswith(coarse_error)
    assert report["timing"]["solve"] < 2.0


@pytest.mark.parametrize(
    "doc,error,ending",
    [
        ({"potential": {"a_base": 20}}, "MaxItersExceeded", " after 60 iterations (descent stop: stalled)"),
        ({"potential": {"period": 4}}, "ConvergedToZero", ""),
    ],
    ids=["a_base20", "period4"],
)
def test_failing_solve_stops_when_the_action_stalls(tmp_path, capsys, doc, error, ending):
    # at m=40 neither config has an orbit the solver reaches: the action
    # stops falling in the E-stage and again in the descent, and the stall
    # test ends each loop long before max_iters; the error names the stall
    out = str(tmp_path / "run")
    t0 = time.perf_counter()
    assert main(["solve", "--config", write_config(tmp_path, doc), "--out", out]) == 3
    assert time.perf_counter() - t0 < 2.0
    err = capsys.readouterr().err
    assert err.startswith("no solution found: %s: " % error)
    assert err.endswith(ending + "\n")


def test_report_is_strict_json(tmp_path):
    # the first search record has no nearest entry: its non-finite
    # distance is null
    lib = str(tmp_path / "lib")
    cfg = write_config(tmp_path, {"search": {"targets": 1}})
    assert main(["search", "--config", cfg, "--out", lib]) == 0
    assert load_report(lib)["library"]["log"][0]["nearest_distance"] is None


def test_search_large_eps_k_clamps_builtin_items(tmp_path, capsys):
    # k_min = 1.6 is above both built-in heights, 1.5 (phase 1) and 1.35
    # (phase 3): every single-loop item is raised to k_min instead of
    # failing inside the guess
    out = str(tmp_path / "run")
    doc = {"solver": {"eps_k": 0.6, "k0": 1.6}, "search": {"targets": 9}}
    cfg = write_config(tmp_path, doc)
    assert main(["search", "--config", cfg, "--out", out]) == 0
    assert "Traceback" not in capsys.readouterr().err
    library = load_report(out)["library"]
    assert len(library["entries"]) == 9
    heights = [rec["schedule_item"]["k0"] for rec in library["log"] if rec.get("phase") in (1, 3)]
    assert {rec.get("phase") for rec in library["log"]} == {1, 2, 3}
    assert set(heights) == {1.6}


@pytest.mark.parametrize(
    "doc,where",
    [
        ({"potential": {"a_base": float("inf")}}, "potential.a_base"),
        ({"potential": {"a_base": 10**400}}, "potential.a_base"),
        ({"potential": {"a_amp": float("nan")}}, "potential.a_amp"),
        ({"potential": {"period": float("inf")}}, "potential.period"),
        ({"solver": {"k0": float("inf")}}, "solver.k0"),
        ({"solver": {"bump_center": float("inf")}}, "solver.bump_center"),
        ({"solver": {"bump_width": float("inf")}}, "solver.bump_width"),
        ({"solver": {"grad_tol": float("nan")}}, "solver.grad_tol"),
        ({"solver": {"eps_k": float("inf")}}, "solver.eps_k"),
        ({"search": {"eps_distinct": float("inf")}}, "search.eps_distinct"),
    ],
)
def test_non_finite_number_is_exit_1(tmp_path, capsys, doc, where):
    # json reads NaN, Infinity and over-long integer literals; none is a setting
    cfg = write_config(tmp_path, doc)
    assert main(["search", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert "config error: %s: expected a finite number" % where in err
    assert "Traceback" not in err
    assert not os.path.exists(str(tmp_path / "run"))


def test_diagnose_node_at_q_is_exit_1(tmp_path, capsys):
    grid = parse_config({}).grid
    vals = np.zeros((grid.n, 2))
    vals[grid.center_index] = (2.0, 0.0)  # the default q, at t = 0
    csv = str(tmp_path / "at_q.csv")
    write_trajectory_csv(csv, from_values(grid, vals))
    assert main(["diagnose", "--out", str(tmp_path), csv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: %s: " % csv)
    assert "guard ball around q" in err
    assert "Traceback" not in err


def test_diagnose_undecodable_byte_is_exit_1(tmp_path, capsys):
    csv = tmp_path / "binary.csv"
    csv.write_bytes(b"t,u1,u2\r\n\xff\r\n")
    assert main(["diagnose", "--out", str(tmp_path), str(csv)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: undecodable byte in trajectory: ")
    assert "Traceback" not in err


def test_diagnose_overflowing_action_is_exit_1(tmp_path, capsys):
    # every value is finite, but the action and its gradient overflow
    grid = parse_config({}).grid
    vals = np.zeros((grid.n, 2))
    vals[grid.center_index] = (1e200, 0.0)
    csv = str(tmp_path / "huge.csv")
    write_trajectory_csv(csv, from_values(grid, vals))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["diagnose", "--out", str(tmp_path), csv]) == 1
    assert caught == []
    err = capsys.readouterr().err
    assert err == "error: %s: values too large: the action or its residual overflows\n" % csv


def test_diagnose_overflowing_library_entry_is_exit_1(search_dir, tmp_path, capsys):
    # a finite entry whose H1 norm overflows is refused before the matching
    lib = str(tmp_path / "lib")
    shutil.copytree(search_dir, lib)
    grid = parse_config({}).grid
    entry = os.path.join(lib, "entry_002.csv")
    vals = read_trajectory_csv(entry, grid).values.copy()
    vals[grid.center_index] = (1e200, 0.0)
    write_trajectory_csv(entry, from_values(grid, vals))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["diagnose", "--out", lib, os.path.join(lib, "entry_000.csv")]) == 1
    assert caught == []
    err = capsys.readouterr().err
    assert err == "error: %s: values too large: the H1 norm overflows\n" % entry


def _reshaped(values, d):
    """values with d coordinates: cut down, or padded with zero columns."""
    if d <= values.shape[1]:
        return values[:, :d]
    return np.column_stack([values, np.zeros((len(values), d - values.shape[1]))])


@pytest.mark.parametrize(
    "which,d",
    [("target", 3), ("target", 1), ("entry", 3)],
)
def test_diagnose_dimension_mismatch_is_exit_1(search_dir, tmp_path, capsys, which, d):
    # the potential is the default planar one; a 3- or 1-coordinate target or
    # library entry is refused with both counts, not a broadcasting traceback
    lib = _library_copy(search_dir, tmp_path)
    grid = parse_config({}).grid
    target = os.path.join(lib, "entry_000.csv")
    bad = target if which == "target" else os.path.join(lib, "entry_002.csv")
    vals = read_trajectory_csv(bad, grid).values
    write_trajectory_csv(bad, from_values(grid, _reshaped(vals, d)))
    assert main(["diagnose", "--out", lib, target]) == 1
    err = capsys.readouterr().err
    assert err == (
        "error: %s: trajectory dimension %d differs from the potential's dimension 2\n" % (bad, d)
    )


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_search_jobs_below_one_is_exit_1(tmp_path, capsys, jobs):
    out = str(tmp_path / "lib")
    assert main(["search", "--out", out, "--jobs", jobs]) == 1
    assert "config error: --jobs: must be at least 1" in capsys.readouterr().err
    assert not os.path.exists(out)


def _without_timing(report):
    report.pop("timing")
    report["config"].pop("out_dir")
    for record in report["library"]["log"]:
        record.pop("timing", None)
    return report


def test_search_jobs_2_matches_jobs_1(tmp_path):
    # --jobs is kept for compatibility and changes nothing
    reports, files = [], []
    for jobs in ("1", "2"):
        out = str(tmp_path / ("jobs" + jobs))
        assert main(["search", "--out", out, "--jobs", jobs]) == 0
        reports.append(_without_timing(load_report(out)))
        files.append({name: open(os.path.join(out, name), "rb").read() for name in os.listdir(out)})
    assert reports[0] == reports[1]
    files[0].pop("report.json")
    files[1].pop("report.json")
    assert files[0] == files[1]


@pytest.mark.parametrize("command", ["solve", "search", "refine"])
def test_hypothesis_violation_is_exit_2(tmp_path, capsys, command):
    # a coefficient that changes sign (A) and a well with |q| < 1 (H3)
    for doc in ({"potential": {"a_base": 1.0, "a_amp": 2.0}}, {"potential": {"q": [0.5, 0]}}):
        cfg = write_config(tmp_path, doc)
        out = str(tmp_path / "run")
        assert main([command, "--config", cfg, "--out", out]) == 2
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "hypothesis checks failed" in captured.err
        assert not os.path.exists(out)


@pytest.mark.parametrize(
    "command,error",
    [
        ("solve", "no solution found: ActionOverflow: the action's gradient overflows "),
        ("search", "found 0 candidates, wanted 3"),
        ("refine", "coarse level (m=40): ActionOverflow: the action's gradient overflows "),
    ],
    ids=["solve", "search", "refine"],
)
def test_overflowing_well_is_exit_3_without_numpy_warnings(tmp_path, capsys, command, error):
    # the kernel rejects every overflowing trial; numpy does not report them
    cfg = write_config(tmp_path, {"potential": {"a_base": 1e300}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", cfg, "--out", str(tmp_path / "run")]) == 3
    assert capsys.readouterr().err.splitlines()[-1].startswith(error)


@pytest.mark.parametrize(
    "command,doc",
    [
        ("solve", {}),
        ("search", {"search": {"targets": 1}}),
        ("refine", {"refine": {"m_coarse": 20}}),
    ],
)
def test_one_hypothesis_gate_per_command(tmp_path, monkeypatch, command, doc):
    # the table's lambdas look check_A up at call time, so this counts tables
    from homoclinic import potential

    calls = []
    check_a = potential.check_A

    def counted(spec):
        calls.append(spec)
        return check_a(spec)

    monkeypatch.setattr(potential, "check_A", counted)
    out = str(tmp_path / "run")
    assert main([command, "--config", write_config(tmp_path, doc), "--out", out]) == 0
    assert len(calls) == 1


# the exact barrier margins at s = 0.1 are -72.48 and -1.803; the sampled
# probe that the closed form replaced passed both wells
@pytest.mark.parametrize(
    "well",
    [{"alpha": 4, "q": [-0.5895, -0.9244]}, {"alpha": 2.5429, "dimension": 3, "q": [0.0786, 0.1592, -0.3152]}],
    ids=["alpha4", "alpha2.5429-d3"],
)
@pytest.mark.parametrize("command", ["check", "solve"])
def test_gate_refuses_wells_the_sampled_probe_passed(tmp_path, capsys, command, well):
    out = str(tmp_path / "run")
    cfg = write_config(tmp_path, {"potential": well})
    assert main([command, "--config", cfg, "--out", out]) == 2
    rows = capsys.readouterr().out.splitlines()
    assert [row[:9] for row in rows] == ["A    pass", "H2   pass", "H3   FAIL", "H4   pass", "W<0  pass"]
    assert not os.path.exists(out)


def test_refine_continues_its_coarse_orbit(tmp_path, monkeypatch):
    # the default levels are m=40 and m=80: the coarse level is the one
    # E-stage, and the fine level is the coarse orbit prolonged and released
    grids = []

    def counted(u0, *args, **kwargs):
        grids.append(u0.grid.nodes_per_period)
        return minimize(u0, *args, **kwargs)

    minimize = solve.minimize_over_E
    monkeypatch.setattr(solve, "minimize_over_E", counted)
    out = str(tmp_path / "run")
    assert main(["refine", "--out", out]) == 0
    assert grids == [40]
    cfg = parse_config({})
    coarse = read_trajectory_csv(os.path.join(out, "solution_coarse.csv"), cfg.grid)
    fine_grid = replace(cfg.grid, nodes_per_period=80)
    solver = replace(cfg.solver, grad_tol=1e-8)
    cand = solve.continue_to_grid(coarse, cfg.potential, fine_grid, solver)
    write_trajectory_csv(str(tmp_path / "fine.csv"), cand.trajectory)
    with open(os.path.join(out, "solution_fine.csv"), "rb") as fh:
        assert fh.read() == (tmp_path / "fine.csv").read_bytes()


@pytest.mark.parametrize(
    "m,ratio,actions",
    [
        (20, "4.146", (27.28424802, 27.30880372)),
        (40, "4.034", (27.30880372, 27.31485441)),
        (80, "4.008", (27.31485441, 27.31636184)),
    ],
)
def test_refine_ladder_matches_the_readme(tmp_path, capsys, m, ratio, actions):
    # the README's refinement ladder: one ratio per run, and the actions at
    # m = 20, 40, 80 and 160 in the reports' coarse and fine levels
    out = str(tmp_path / "run")
    assert main(["refine", "--config", write_config(tmp_path, {"grid": {"m": m}}), "--out", out]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith("refine m=%d -> m=%d: residual ratio %s " % (m, 2 * m, ratio))
    levels = load_report(out)["refine"]
    assert (round(levels["coarse"]["action"], 8), round(levels["fine"]["action"], 8)) == actions


@pytest.mark.parametrize(
    "doc,line",
    [
        ({"refine": {"m_fine": 100}}, "m=40 -> m=100: residual ratio 6.309 (want [5.46875, 7.03125])"),
        ({"grid": {"m": 20}, "refine": {"m_fine": 80}}, "m=20 -> m=80: residual ratio 16.726 (want [14, 18])"),
        ({"refine": {"m_fine": 60}}, "m=40 -> m=60: residual ratio 2.264 (want [1.96875, 2.53125])"),
    ],
    ids=["40-100", "20-80", "40-60"],
)
def test_refine_band_scales_with_the_level_ratio(tmp_path, capsys, doc, line):
    # a second-order defect falls by (m_fine / m_coarse)^2, so the band
    # [3.5, 4.5] of 2x levels scales by that square over 4
    out = str(tmp_path / "run")
    assert main(["refine", "--config", write_config(tmp_path, doc), "--out", out]) == 0
    assert capsys.readouterr().out.splitlines()[0].startswith("refine " + line + ", ")
    assert load_report(out)["refine"]["passed"] is True


def test_refine_ratio_outside_the_scaled_band_is_exit_3(tmp_path, capsys):
    # at m=10 the defect is not yet in its asymptotic range
    out = str(tmp_path / "run")
    doc = {"refine": {"m_coarse": 10, "m_fine": 80}}
    assert main(["refine", "--config", write_config(tmp_path, doc), "--out", out]) == 3
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith("refine m=10 -> m=80: residual ratio 81.362 (want [56, 72]), ")
    assert load_report(out)["refine"]["passed"] is False


def test_refine_unreachable_tolerance_is_exit_3(tmp_path):
    out = str(tmp_path / "run")
    cfg = write_config(tmp_path, {"solver": {"grad_tol": 0.0, "max_iters": 50}})
    assert main(["refine", "--config", cfg, "--out", out]) == 3
    rep = load_report(out)
    assert rep["error"].startswith("coarse level (m=40): ")
    assert "refine" not in rep


@pytest.mark.parametrize("command", ["solve", "search"])
def test_tiny_period_fails_the_attempt_not_the_run(tmp_path, capsys, command):
    # grid spacing 2.5e-9: the preconditioner's decay rate stays positive,
    # and the solve from the configured guess collapses onto 0
    out = str(tmp_path / "run")
    cfg = write_config(tmp_path, {"potential": {"period": 1e-7}, "solver": {"bump_width": 2e7}})
    assert main([command, "--config", cfg, "--out", out]) == 3
    assert "Traceback" not in capsys.readouterr().err
    rep = load_report(out)
    log = [{"outcome": "failed", "error": rep["error"]}] if command == "solve" else rep["library"]["log"]
    assert {r["outcome"] for r in log} == {"failed"}
    assert log[0]["error"] == "ConvergedToZero: polish collapsed onto the trivial solution"


@pytest.mark.parametrize(
    "command,doc",
    [
        ("solve", {"solver": {"k0": 1e200}}),  # finite guess, overflowing action
        ("solve", {"solver": {"k0": 1e308}}),  # the guess itself overflows
    ],
)
def test_huge_k0_fails_the_attempt_not_the_run(tmp_path, capsys, command, doc):
    # the overflowing guess fails like an infeasible one: exit 3, no traceback
    out = str(tmp_path / "run")
    cfg = write_config(tmp_path, doc)
    assert main([command, "--config", cfg, "--out", out]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err and "Warning" not in err
    assert load_report(out)["error"].startswith("InfeasibleGuess: ")


@pytest.mark.parametrize(
    "doc,error",
    [
        ({"solver": {"bump_center": 0.25}}, "ConvergedToZero"),
        ({"solver": {"max_iters": 0}}, "MaxItersExceeded"),
        ({"solver": {"eps_k": 2, "k0": 1000}}, "InfeasibleGuess"),
    ],
)
def test_solve_runs_one_attempt(tmp_path, capsys, monkeypatch, doc, error):
    # one guess from the solver block; its own error is the run's error
    from homoclinic import solve

    calls = []

    def counted(*args):
        calls.append(args)
        return attempt(*args)

    attempt = solve.single_loop_attempt
    monkeypatch.setattr(solve, "single_loop_attempt", counted)
    out = str(tmp_path / "run")
    assert main(["solve", "--config", write_config(tmp_path, doc), "--out", out]) == 3
    assert len(calls) == 1
    rep = load_report(out)
    assert rep["error"].startswith(error + ": ")
    err = capsys.readouterr().err
    assert err == "no solution found: %s\n" % rep["error"]


@pytest.mark.filterwarnings("error")
def test_steep_guess_solves_without_warning(tmp_path):
    # cosh overflows far from a steep bump's center; sech is 0 there
    out = str(tmp_path / "run")
    doc = {"grid": {"M": 200}, "solver": {"bump_width": 4}}
    assert main(["solve", "--config", write_config(tmp_path, doc), "--out", out]) == 0
    assert load_report(out)["candidate"]["action"] == pytest.approx(27.308803, abs=1e-6)


_TOL0 = {"solver": {"grad_tol": 0.0, "max_iters": 50}}


@pytest.mark.parametrize(
    "command,doc,code,own,timed",
    [
        ("solve", {}, 0, {"candidate"}, "solve"),
        ("solve", _TOL0, 3, {"error"}, "solve"),
        ("search", {"search": {"targets": 1}}, 0, {"library", "targets", "targets_met"}, "search"),
        (
            "search",
            {"search": {"targets": 10}},
            3,
            {"library", "targets", "targets_met"},
            "search",
        ),
        ("refine", {"refine": {"m_coarse": 20}}, 0, {"refine"}, "solve"),
        ("refine", _TOL0, 3, {"error"}, "solve"),
    ],
)
def test_report_envelope_keys(tmp_path, command, doc, code, own, timed):
    out = str(tmp_path / "run")
    assert main([command, "--config", write_config(tmp_path, doc), "--out", out]) == code
    rep = load_report(out)
    assert set(rep) == {"command", "config", "hypotheses", "timing"} | own
    assert rep["command"] == command
    assert set(rep["timing"]) == {"checks", timed}
    assert set(rep["hypotheses"]) == {"A", "H2", "H3", "H4", "W<0"}
