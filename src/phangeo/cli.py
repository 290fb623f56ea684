"""Command-line entry point.

Subcommands: build, homology, cm-check, filtration-verify, bounds-table,
lemma-tests.  Verification commands refuse out-of-bound inputs unless
--force is given, quoting the violated inequality with the numbers filled
in.  Exit codes: 0 all verdicts pass, 1 any verdict fails, 2 input error.

Each command imports only the layers it runs: every command is a fresh
process, so ``build`` loads neither the homology nor the filtration layer,
and ``homology``/``cm-check`` do not load the filtration layer.  For the
same reason the arguments are parsed from two tables, ``COMMANDS`` and
``OPTIONS``, and not by ``argparse``, which with ``gettext`` and
``locale`` cost every command about 6 ms.  An argument error is an input
error like any other: exit 2 with one ``error:`` line, in argparse's
words.

A command ends without tearing down the interpreter as well: ``run()``,
the entry of ``python -m phangeo.cli`` and of the ``phangeo`` script,
runs ``main()``, runs the ``atexit`` callbacks, flushes standard output
and error and ends with ``os._exit``, which skips the teardown of every
module and the final garbage collection.  It keeps the exit code, a
traceback and exit 1 for an uncaught exception, and exit 141 with no
traceback when the reader of standard output has gone.  Under a profiler
or tracer (``python -m cProfile``, coverage) it steps aside and exits
through ``sys.exit``, so that they see the interpreter's own exit.
``main(argv)`` returns the exit code and is the in-process entry.

Reports are written as canonical JSON (sorted keys, schema version) so an
identical input file and flags produce a byte-identical report; wall-clock
timings are printed to standard output only, never into the report file.
Each report section is the record the layer returns, its fields the
section's keys: ``homology`` is the ``HomologyReport`` without its
critical-cell counts, ``sphericity`` the ``SphericityVerdict`` with the
pi_1 status and the verdict, ``cm`` the ``CMReport`` with each failing
simplex given by its vertices' bases, and ``filtration`` the
``FiltrationReport``'s own ``as_dict``.
"""

from __future__ import annotations

import atexit
import os
import sys
import time
from types import SimpleNamespace

from . import __version__
from .field import prime_power
from .phan import PhanFamily, bound_report, vertices
from .simplicial import SimplicialComplex, export_facets, order_complex, purity_and_dimension
from .specfile import (
    REPORT_SCHEMA_VERSION,
    SpecFileError,
    _spec_bound,
    load_family,
    write_canonical_json,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_BROKEN_PIPE = 128 + 13  # as if killed by SIGPIPE


def _read_spec(read, path: str):
    """``read(path)``, with a missing, unreadable or malformed spec file an
    input error."""
    try:
        return read(path)
    except FileNotFoundError:
        _die(f"spec file not found: {path}")
    except OSError as exc:
        _die(f"cannot read spec file {path}: {exc.strerror}")
    except SpecFileError as exc:
        _die(f"invalid spec file: {exc}")


def _load(args) -> tuple[PhanFamily, str]:
    return _read_spec(load_family, args.spec)


def _die(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)
    raise SystemExit(EXIT_INPUT)


def _gate_bound(args) -> dict:
    """The spec's bound, an input error if it fails and --force is not
    given.  It is read from the decoded spec file (``_spec_bound``), before
    ``_load`` validates the flags and forms by point masks, so that a
    refused spec builds nothing of its ambient space."""
    bound = _read_spec(_spec_bound, args.spec)
    bound["forced"] = bool(args.force and not bound["satisfied"])
    if not bound["satisfied"] and not args.force:
        _die(
            "sufficient bound violated: "
            f"{bound['inequality']} is false "
            f"(sigma order {bound['sigma_order']}, m = {bound['m']}); "
            "re-run with --force to compute anyway (results are reported, "
            "not asserted)"
        )
    return bound


def _geometry_stats(complex_: SimplicialComplex) -> dict:
    """|Γ|'s vertex, face and facet counts and purity, all read as counts:
    no maximal chain is listed for them."""
    dims = [v.dim for v in complex_.vertices]
    pure, dim = purity_and_dimension(complex_)
    return {
        "vertex_counts_by_dim": {str(d): dims.count(d) for d in sorted(set(dims))},
        "total_vertices": complex_.num_vertices,
        "simplex_counts": complex_.face_counts(),
        "facets": complex_.num_facets,
        "pure": pure,
        "dimension": dim,
    }


def _note_forced(bound: dict) -> None:
    if bound["forced"]:
        print("note: bound not satisfied; results reported, not asserted")


def _write_report(args, doc: dict) -> None:
    if args.out:
        try:
            with open(args.out, "w") as fh:
                write_canonical_json(doc, fh)
        except OSError as exc:
            _die(f"cannot write report {args.out}: {exc.strerror}")
        print(f"report written to {args.out}")
    else:
        write_canonical_json(doc, sys.stdout)


def _base_report(command: str, digest: str, bound: dict | None) -> dict:
    doc = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "tool_version": __version__,
        "command": command,
        "input_digest": f"sha256:{digest}",
    }
    if bound is not None:
        doc["bound"] = bound
    return doc


def cmd_build(args) -> int:
    family, digest = _load(args)
    t0 = time.perf_counter()
    complex_ = order_complex(vertices(family).members)
    doc = _base_report("build", digest, family.bound())
    # the export walks the facets, so that the count reads their number
    doc["facet_export"] = export_facets(complex_)
    doc["geometry"] = stats = _geometry_stats(complex_)
    _write_report(args, doc)
    print(
        f"build: {stats['total_vertices']} vertices, {stats['facets']} facets, "
        f"dim {stats['dimension']}  [{time.perf_counter() - t0:.2f}s]"
    )
    return EXIT_PASS


def cmd_homology(args) -> int:
    from .homology import pi1_status, reduced_homology, sphericity_verdict

    if args.target_dim is not None and args.target_dim < 0:
        _die(f"--target-dim must be >= 0, got {args.target_dim}")
    bound = _gate_bound(args)
    family, digest = _load(args)
    t0 = time.perf_counter()
    complex_ = order_complex(vertices(family).members)
    stats = _geometry_stats(complex_)
    target = args.target_dim if args.target_dim is not None else family.n - 1
    if target < stats["dimension"]:
        _die(f"--target-dim {target} is below the dimension {stats['dimension']} "
             "of the complex")
    rep = reduced_homology(complex_)
    verdict = sphericity_verdict(rep, target)
    doc = _base_report("homology", digest, bound)
    doc["geometry"] = stats
    doc["homology"] = {k: v for k, v in rep._asdict().items() if k != "critical"}
    doc["sphericity"] = {**verdict._asdict(), "pi1_status": pi1_status(rep, target),
                         "spherical": verdict.spherical}
    asserted = bound["satisfied"]
    ok = verdict.spherical and verdict.sphere_count >= 1
    doc["verdict"] = ("pass" if ok else "fail") if asserted else "unknown"
    _write_report(args, doc)
    print(
        f"homology: betti {list(rep.betti)}, spherical={verdict.spherical}, "
        f"spheres={verdict.sphere_count}, verdict={doc['verdict']}  "
        f"[{time.perf_counter() - t0:.2f}s]"
    )
    _note_forced(bound)
    return EXIT_PASS if ok or not asserted else EXIT_FAIL


def cmd_cm(args) -> int:
    from .homology import cohen_macaulay_check

    bound = _gate_bound(args)
    family, digest = _load(args)
    t0 = time.perf_counter()
    complex_ = order_complex(vertices(family).members)
    stats = _geometry_stats(complex_)
    cm = cohen_macaulay_check(complex_)
    doc = _base_report("cm-check", digest, bound)
    doc["geometry"] = stats
    doc["cm"] = {**cm._asdict(), "failures": [
        {**f._asdict(), "simplex": [complex_.vertices[i].basis for i in f.simplex]}
        for f in cm.failures]}
    asserted = bound["satisfied"]
    doc["verdict"] = ("pass" if cm.passed else "fail") if asserted else "unknown"
    _write_report(args, doc)
    print(
        f"cm-check: {'pass' if cm.passed else 'fail'} "
        f"({cm.simplices_checked} simplices checked, {len(cm.failures)} failures)  "
        f"[{time.perf_counter() - t0:.2f}s]"
    )
    _note_forced(bound)
    return EXIT_PASS if cm.passed or not asserted else EXIT_FAIL


def cmd_filtration(args) -> int:
    from .filtration import PivotNotFoundError, run_verification

    bound = _gate_bound(args)
    family, digest = _load(args)
    t0 = time.perf_counter()
    try:
        rep = run_verification(family, negative_control=args.negative_control)
    except PivotNotFoundError as exc:  # the negative control found no isotropic point
        _die(str(exc))
    doc = _base_report("filtration-verify", digest, bound)
    doc["filtration"] = rep.as_dict()
    asserted = bound["satisfied"] and not args.negative_control
    doc["verdict"] = ("pass" if rep.passed else "fail") if asserted else (
        "fail" if args.negative_control and not rep.passed else "unknown"
    )
    _write_report(args, doc)
    failing = [
        (s.stage, c.name, c.witness)
        for s in rep.stages for c in s.checks if not c.passed
    ] + [("y0", c.name, c.witness) for c in rep.y0 if not c.passed]
    print(
        f"filtration-verify: {'pass' if rep.passed else 'fail'}; levels "
        f"{rep.level_sizes}; spheres predicted {rep.predicted_spheres} "
        f"direct {rep.direct_spheres}  [{time.perf_counter() - t0:.2f}s]"
    )
    for stage, name, witness in failing:
        print(f"  FAIL stage={stage} {name}: {witness}")
    _note_forced(bound)
    if args.negative_control:
        # a negative control must fail, and the failure must carry a witness
        control_ok = not rep.passed and any(w for _, _, w in failing)
        print(f"negative control {'produced' if control_ok else 'DID NOT produce'} "
              "a failure witness")
        return EXIT_PASS if control_ok else EXIT_FAIL
    return EXIT_PASS if rep.passed or not asserted else EXIT_FAIL


def cmd_bounds_table(args) -> int:
    for opt, value, least in (("--max-n", args.max_n, 1), ("--max-q", args.max_q, 2),
                              ("--max-m", args.max_m, 1)):
        if value < least:  # an empty table would be written
            _die(f"{opt} must be >= {least}, got {value}")
    # fields F_q only; sigma of order 2 needs an even exponent
    orders = [(q, pe[1]) for q in range(2, args.max_q + 1) for pe in [prime_power(q)] if pe]
    rows = []
    for n in range(1, args.max_n + 1):
        for q, e in orders:
            for m in range(1, args.max_m + 1):
                for sigma_order in (1, 2) if e % 2 == 0 else (1,):
                    rows.append(bound_report(n, q, m, sigma_order))
    doc = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "command": "bounds-table",
        "rows": rows,
    }
    _write_report(args, doc)
    print(f"{'n':>3} {'q':>4} {'m':>3} {'sigma':>6} {'bound':>6}  inequality")
    for r in rows:
        print(
            f"{r['n']:>3} {r['q']:>4} {r['m']:>3} {r['sigma_order']:>6} "
            f"{'yes' if r['satisfied'] else 'no':>6}  {r['inequality']}"
        )
    return EXIT_PASS


def cmd_lemma_tests(args) -> int:
    from .suites import run_all_suites

    if args.count < 1:
        _die(f"--count must be >= 1, got {args.count}")
    t0 = time.perf_counter()
    results = run_all_suites(seed=args.seed, count=args.count)
    doc = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "command": "lemma-tests",
        "seed": args.seed,
        "suites": [r.as_dict() for r in results],
    }
    _write_report(args, doc)
    ok = all(r.passed for r in results)
    for r in results:
        print(f"{r.name}: {'pass' if r.passed else 'FAIL'} "
              f"({r.instances} instances, {len(r.failures)} failures)")
        for f in r.failures[:10]:
            print(f"    {f}")
    print(f"lemma-tests: {'pass' if ok else 'fail'}  [{time.perf_counter() - t0:.2f}s]")
    return EXIT_PASS if ok else EXIT_FAIL


# command -> (help, the options it takes)
COMMANDS = {
    "build": ("construct the complex, export facets and counts", ("--spec", "--out")),
    "homology": ("reduced integral homology and sphericity verdict",
                 ("--spec", "--out", "--force", "--target-dim")),
    "cm-check": ("Cohen-Macaulay link sweep", ("--spec", "--out", "--force")),
    "filtration-verify": ("verify the inductive filtration stage by stage",
                          ("--spec", "--out", "--force", "--negative-control")),
    "bounds-table": ("tabulate the sufficient bounds", ("--out", "--max-n", "--max-q", "--max-m")),
    "lemma-tests": ("run the structural-lemma property suites", ("--out", "--seed", "--count")),
}

_REQUIRED = object()  # the default of an option every command taking it needs

# option -> (value type, None for a flag; default; help)
OPTIONS = {
    "--spec": (str, _REQUIRED, "geometry description file (JSON)"),
    "--out": (str, None, "write the JSON report to this file"),
    "--force": (None, False, "run even when the sufficient bound fails"),
    "--target-dim": (int, None, "sphericity target dimension (default n-1)"),
    "--negative-control": (None, False,
                           "deliberately violate the pivot hypothesis and expect a witness"),
    "--max-n": (int, 4, "largest n tabulated"),
    "--max-q": (int, 16, "largest field order q tabulated"),
    "--max-m": (int, 2, "largest number m of specs tabulated"),
    "--seed": (int, 0, "seed for randomized property suites"),
    "--count": (int, 100, "instances per randomized suite"),
}

_DESCRIPTION = ("Build generalized Phan geometries over finite fields and certify their\n"
                "homology, Cohen-Macaulayness and filtration structure.")


def _help_rows(rows) -> str:
    width = max(len(left) for left, _ in rows) + 2
    return "\n".join(f"  {left:<{width}}{right}" for left, right in rows)


def _print_help(command: str | None) -> None:
    if command is None:
        print(f"usage: phangeo COMMAND [OPTIONS]\n\n{_DESCRIPTION}\n\ncommands:\n"
              + _help_rows([(c, h) for c, (h, _) in COMMANDS.items()])
              + "\n\nRun 'phangeo COMMAND --help' for the options of a command.")
        raise SystemExit(EXIT_PASS)
    text, takes = COMMANDS[command]
    rows, usage = [], []
    for opt in takes:
        kind, default, help_ = OPTIONS[opt]
        left = opt if kind is None else f"{opt} {'N' if kind is int else 'FILE'}"
        usage.append(left if default is _REQUIRED else f"[{left}]")
        if kind is int and default is not None:
            help_ += f" (default {default})"
        rows.append((left, help_))
    rows.append(("-h, --help", "show this help and exit"))
    print(f"usage: phangeo {command} {' '.join(usage)}\n\n{text}\n\noptions:\n"
          + _help_rows(rows))
    raise SystemExit(EXIT_PASS)


def _is_value(arg: str) -> bool:
    """Whether an argument after an option is its value: anything but
    another option, and a negative number is a value, as in argparse."""
    return not arg.startswith("-") or arg == "-" or arg[1:].replace(".", "", 1).isdigit()


def _parse_args(argv: list[str]) -> tuple[str, SimpleNamespace]:
    """(command, its options as attributes: --target-dim is ``target_dim``),
    read by the tables above.  A bad argument is an input error, reported
    in argparse's words; options may be given as ``--opt value`` or
    ``--opt=value``, not abbreviated."""
    if not argv:
        _die("the following arguments are required: command")
    command, *rest = argv
    if command in ("-h", "--help"):
        _print_help(None)
    if command not in COMMANDS:
        _die(f"argument command: invalid choice: {command!r} "
             f"(choose from {', '.join(map(repr, COMMANDS))})")
    values = {opt: OPTIONS[opt][1] for opt in COMMANDS[command][1]}
    unrecognized = []
    args = iter(rest)
    for arg in args:
        if arg in ("-h", "--help"):
            _print_help(command)
        opt, eq, value = arg.partition("=")
        if opt not in values:
            unrecognized.append(arg)
            continue
        kind = OPTIONS[opt][0]
        if kind is None:
            if eq:
                _die(f"argument {opt}: ignored explicit argument {value!r}")
            values[opt] = True
            continue
        if not eq:
            value = next(args, None)
            if value is None or not _is_value(value):
                _die(f"argument {opt}: expected one argument")
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                _die(f"argument {opt}: invalid int value: {value!r}")
        values[opt] = value
    missing = [opt for opt, value in values.items() if value is _REQUIRED]
    if missing:
        _die(f"the following arguments are required: {', '.join(missing)}")
    if unrecognized:
        _die(f"unrecognized arguments: {' '.join(unrecognized)}")
    return command, SimpleNamespace(**{opt[2:].replace("-", "_"): value
                                       for opt, value in values.items()})


def main(argv=None) -> int:
    command, args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    # a report that cannot be written is refused before the computation
    if args.out == "":
        _die("cannot write report: the --out path is empty")
    out_dir = os.path.dirname(args.out or "")
    if out_dir and not os.path.isdir(out_dir):
        _die(f"cannot write report {args.out}: no directory {out_dir}")
    if args.out and os.path.isdir(args.out):
        _die(f"cannot write report {args.out}: is a directory")
    # looked up now, not stored at import, so that a handler swapped in
    # after import (bench/trace_cli.py does) is the one that runs
    handler = {"build": cmd_build, "homology": cmd_homology, "cm-check": cmd_cm,
               "filtration-verify": cmd_filtration, "bounds-table": cmd_bounds_table,
               "lemma-tests": cmd_lemma_tests}[command]
    try:
        return handler(args)
    except BrokenPipeError:
        # the reader went away; silence the flush at interpreter exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


def run() -> None:
    """The process entry: ``main()``, then the end of the process without
    the interpreter's teardown (see the module docstring)."""
    try:
        code = main()
    except SystemExit as exc:  # _die and _print_help
        code = exc.code
    if sys.getprofile() or sys.gettrace():
        sys.exit(code)
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:
                stream.flush()
        except BrokenPipeError:
            code = EXIT_BROKEN_PIPE
    os._exit(code)


if __name__ == "__main__":
    run()
