"""Run one `phangeo` command with spans recorded around public functions of
its layers, then write the spans as JSON lines.

    python3 bench/trace_cli.py SPANS_FILE COMMAND [ARGS...]

The wrappers are installed from outside the program: each wrapped function
is replaced in every phangeo module that holds it, and methods are replaced
on their class.  Spans stay in memory until the command ends.  Reports are
written by the program itself and are not touched.

A span record is {"name", "start", "end", "parent"} plus the sizes the
wrapper measured; "parent" is the index of the enclosing span or -1.  The
last record, {"counts": {...}}, holds the call counts of the hot functions
that are counted but not timed.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()

    def timed(self, name, fn, measure=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = {"name": name, "parent": stack[-1] if stack else -1}
            stack.append(len(spans))
            spans.append(rec)
            rec["start"] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = clock()
                stack.pop()
            if measure is not None:
                rec.update(measure(args, result))
            return result
        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")


def _replace(original, wrapper) -> None:
    for name, module in list(sys.modules.items()):
        if name == "phangeo" or name.startswith("phangeo."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    from phangeo import cli, filtration, homology, linalg, phan, simplicial, specfile

    functions = [
        ("cli.build", cli.cmd_build, None),
        ("cli.homology", cli.cmd_homology, None),
        ("cli.cm_check", cli.cmd_cm, None),
        ("cli.filtration_verify", cli.cmd_filtration, None),
        ("specfile.load_family", specfile.load_family, None),
        ("phan.vertices", phan.vertices, lambda a, r: {"members": len(r.members)}),
        ("phan.delta_restriction", phan.delta_restriction, None),
        ("simplicial.order_complex", simplicial.order_complex,
         lambda a, r: {"facets": len(r.facets)}),
        ("simplicial.export_facets", simplicial.export_facets, None),
        ("simplicial.link", simplicial.link, None),
        ("simplicial.star_closure", simplicial.star_closure, None),
        ("simplicial.intersect_complexes", simplicial.intersect_complexes, None),
        ("homology.boundary_matrices", homology.boundary_matrices, None),
        ("homology.snf", homology.smith_invariant_factors,
         lambda a, r: {"nnz": len(a[0].entries), "rank": len(r)}),
        ("homology.reduced_homology", homology.reduced_homology,
         lambda a, r: {"key": hash(a[0])}),
        ("homology.cohen_macaulay_check", homology.cohen_macaulay_check,
         lambda a, r: {"links": r.simplices_checked}),
        ("filtration.build_filtration", filtration.build_filtration, None),
        ("filtration.verify_y0_contractible", filtration.verify_y0_contractible, None),
        ("filtration.verify_stage", filtration.verify_stage, None),
        ("filtration.run_verification", filtration.run_verification, None),
    ]
    for name, fn, measure in functions:
        _replace(fn, tracer.timed(name, fn, measure))
    init = simplicial.SimplicialComplex.__init__
    simplicial.SimplicialComplex.__init__ = tracer.timed("simplicial.complex_init", init)
    for name, cls, attr in (("linalg.contains_subspace", linalg.Subspace, "contains_subspace"),
                            ("phan.is_member", phan.PhanSpec, "is_member")):
        setattr(cls, attr, tracer.counted(name, getattr(cls, attr)))


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    from phangeo import cli

    tracer = Tracer()
    install(tracer)
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.dump(spans_file)
    return code


if __name__ == "__main__":
    sys.exit(main())
