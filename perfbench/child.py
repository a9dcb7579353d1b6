"""Run one homoclinic command as its own process and time its set-up.

    python3 perfbench/child.py ROOT SIDECAR MODE COMMAND [ARGS...]

COMMAND and ARGS are what a user passes to the `homoclinic` console
script (`solve --config cfg.json --out run/`, ...), which is
`homoclinic.cli:main`; the package is imported from ROOT/src.  One extra
command, `distances LIBDIR --config CFG`, loads a library written in the
`search` output format through the public API and writes its
shift-quotient distance matrix to LIBDIR/distances.csv.

The process records monotonic timestamps (start, package imported, config
read and parsed, end) and its exit code in the JSON file SIDECAR.  MODE
is `run`; `trace`, which first wraps the program's public functions with
perfbench/tracer.py and adds the per-layer spans and counters; or `setup`,
which stops as soon as the config is parsed and exits 0.
"""

import json
import os
import sys
import time

T_START = time.monotonic()


class _SetUpDone(BaseException):
    """Raised through the CLI once the config is parsed, in `setup` mode."""


def _time_config_parsing(cli, stamps, setup_only):
    """Wrap the CLI's config reader and parser to stamp when parsing ends."""
    read_doc, parse = cli.read_config_doc, cli.parse_config

    def timed_read(*args, **kwargs):
        stamps.setdefault("parse_begin", time.monotonic())
        return read_doc(*args, **kwargs)

    def timed_parse(*args, **kwargs):
        stamps.setdefault("parse_begin", time.monotonic())
        cfg = parse(*args, **kwargs)
        stamps.setdefault("parsed", time.monotonic())
        if setup_only:
            raise _SetUpDone()
        return cfg

    cli.read_config_doc, cli.parse_config = timed_read, timed_parse


def _distances(cli, argv):
    """Distance matrix of the library in argv[0], as `search` writes it."""
    from homoclinic import grids, multiplicity

    lib_dir, flag, cfg_path = argv
    if flag != "--config":
        raise SystemExit("usage: distances LIBDIR --config CFG")
    cfg = cli.parse_config(cli.read_config_doc(cfg_path))
    with open(os.path.join(lib_dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    lib = multiplicity.SolutionLibrary(eps_distinct=cfg.search.eps_distinct)
    for item in manifest:
        u = grids.read_trajectory_csv(os.path.join(lib_dir, item["trajectory_csv_path"]), cfg.grid)
        lib.entries.append(
            multiplicity.LibraryEntry(
                trajectory=u,
                action=item["action"],
                grad_norm=item["grad_norm"],
                clearance=item["clearance"],
            )
        )
    dist = lib.distance_matrix()
    ids = [item["id"] for item in manifest]
    with open(os.path.join(lib_dir, "distances.csv"), "w", encoding="utf-8") as fh:
        fh.write(",".join(["id"] + ids) + "\n")
        for i, row_id in enumerate(ids):
            fh.write(",".join([row_id] + ["%.17g" % x for x in dist[i]]) + "\n")
    print("distance matrix of %d entries written to %s" % (len(ids), lib_dir))
    return 0


def main(argv):
    root, sidecar, mode, command = argv[1], argv[2], argv[3], argv[4:]
    src = os.path.realpath(os.path.join(root, "src"))
    sys.path.insert(0, src)
    stamps = {"start": T_START, "import_begin": time.monotonic()}
    import homoclinic
    import homoclinic.cli as cli

    stamps["imported"] = time.monotonic()
    if not os.path.realpath(homoclinic.__file__).startswith(src + os.sep):
        raise SystemExit("homoclinic was imported from %s, not %s" % (homoclinic.__file__, src))
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    _time_config_parsing(cli, stamps, mode == "setup")
    try:
        if command and command[0] == "distances":
            rc = _distances(cli, command[1:])
        else:
            rc = cli.main(command)
    except _SetUpDone:
        rc = 0
    sys.stdout.flush()
    stamps["end"] = time.monotonic()
    doc = {
        "stamps": stamps,
        "rc": rc,
        "trace": tracer.snapshot() if tracer is not None else None,
    }
    with open(sidecar, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv))
