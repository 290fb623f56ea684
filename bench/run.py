"""Certificate benchmark for the phangeo command line.

    python3 bench/run.py --workload certify_n2 --seed 1 --seconds 45 --trace 0

Each workload is a fixed list of `phangeo` commands.  A round runs them one
at a time, each in a fresh interpreter, as a command-line user pays for
them; a fresh process also keeps the program's process-wide caches from
carrying over between commands.  A run makes the workload's fixed number of
whole rounds (ROUNDS); --seconds is only a ceiling, after which no new round
starts once MIN_ROUNDS are done.  Every report is checked against reference
values computed apart from the program (reference.py) and against
properties the method must have.

Time metrics are in reference seconds.  Other tenants of the shared cores
slow everything that runs by up to 1.8x, in phases that last from seconds
to many minutes, so plain wall times of the same code spread by more than
the benchmark's bounds.  The benchmark therefore pins itself and its
children to one core and times a fixed pure-Python loop (calibrate) right
after every timed step.  A step's time is scaled by REFERENCE_LOOP_S over
the mean of the loop times just before and just after it: the time the
step would take at the speed at which the loop takes REFERENCE_LOOP_S.  A
slower program is slower at every speed, so a regression still shows in
full.  Time metrics sum, over the commands of the workload, each command's
median scaled time over the rounds of the run; setup_s is the median of
about SETUPS scaled set-ups, spread evenly between the commands of the run.

--trace 0 prints the end-to-end metrics.  --trace 1 runs pairs of an
untraced round and the same round under trace_cli.py (half as many pairs
as ROUNDS, at least one), checks that the traced reports are
byte-identical to the untraced ones, and prints per-layer metrics
aggregated over the last traced round's spans, plus the tracing overhead.

The seed draws the change of basis of the generated dimension-4 instances;
it is never passed to the program.  The last line of standard output is
one JSON object with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(HERE, ".run")

sys.path.insert(0, HERE)
import instances  # noqa: E402
import reference  # noqa: E402

SETUPS = 6
MIN_ROUNDS = 2

# The calibration loop, and its time at the reference speed: on the reference
# machine (a 2-core shared Xeon, Python 3.11.7), about the least it took.
CALIBRATION_STEPS = 500_000
REFERENCE_LOOP_S = 0.065

# (command, instance, forced).  Instances named F<q>^4 are generated from the
# seed; the others are the bundled specs.  --force is given exactly where the
# sufficient bound fails.
WORKLOADS = {
    "certify_n2": [
        (cmd, name, name == "t0_q4_dim3" and cmd != "build")
        for name in reference.BUNDLED
        for cmd in ("build", "homology", "cm-check", "filtration-verify")
    ],
    "certify_n3": [
        ("homology", "F3^4", True),
        ("cm-check", "F3^4", True),
        ("filtration-verify", "F3^4", True),
    ],
    "build_n3": [
        ("build", "F4^4", False),
    ],
}

# Rounds per run, chosen so that the last round starts before BENCHMARK.json's
# run_seconds, the ceiling, even when the shared cores are slow, and so that
# ten seeds of all three workloads take about 17 minutes.
ROUNDS = {"certify_n2": 1, "certify_n3": 4, "build_n3": 6}

# An operation that fails on every run because of a known fault of the
# program: a non-pure complex makes cm-check exit 2, the input-error code,
# instead of reporting a failed Cohen-Macaulay verdict.  It is counted as
# failed and leaves `correct` true; any other failure makes it false.
KNOWN_FAULTS = {("cm-check", "t0_q4_dim3"): "requires a pure complex"}


def calibrate() -> float:
    """Wall time of a fixed pure-Python loop, the machine's current speed."""
    t0 = time.perf_counter()
    acc = 0
    seen = {}
    for i in range(CALIBRATION_STEPS):
        acc += i * i % 7
        seen[i & 255] = acc
    return time.perf_counter() - t0


class Speed:
    """Scale factors for timed steps, from the calibration loop timed
    before and after each step."""

    def __init__(self):
        self.last = calibrate()

    def scale(self) -> float:
        """Factor for the step that just ended; call right after it."""
        now = calibrate()
        factor = REFERENCE_LOOP_S / ((self.last + now) / 2)
        self.last = now
        return factor


def spec_path(name: str) -> str:
    if name in reference.GENERATED:
        return os.path.join(RUN_DIR, f"{name.replace('^', '_')}.json")
    return os.path.join(ROOT, "specs", f"{name}.json")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], out_path: str) -> tuple[int, float, float, float]:
    """Run argv to completion; (exit code, wall s, cpu s, max rss MB)."""
    with open(out_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), stdout=log, stderr=subprocess.STDOUT)
        _, status, ru = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


def setup(ops, seed: int) -> float:
    """Write the seeded spec files, start one interpreter that imports
    phangeo, and load and validate every spec the workload uses."""
    from phangeo.specfile import load_family

    t0 = time.perf_counter()
    names = sorted({name for _, name, _ in ops})
    for name in names:
        if name in reference.GENERATED:
            instances.write_spec(spec_path(name), reference.GENERATED[name], seed)
    subprocess.run([sys.executable, "-c", "import phangeo.cli"], env=child_env(), check=True)
    for name in names:
        load_family(spec_path(name))
    return time.perf_counter() - t0


# -- checks against the reference values and the method's properties ---------


def check_geometry(doc: dict, ref: dict, generated: bool) -> list[str]:
    geo = doc["geometry"]
    errs = []
    f = ref["f_vector"]
    if geo["simplex_counts"] != f:
        errs.append(f"f-vector {geo['simplex_counts']} != {f}")
    if geo["total_vertices"] != f[0] or sum(geo["vertex_counts_by_dim"].values()) != f[0]:
        errs.append(f"vertex counts {geo['vertex_counts_by_dim']} do not sum to {f[0]}")
    if generated and geo["vertex_counts_by_dim"] != ref["vertex_counts_by_dim"]:
        errs.append(f"vertices by dim {geo['vertex_counts_by_dim']} != {ref['vertex_counts_by_dim']}")
    if geo["facets"] != ref["facets"] or geo["dimension"] != len(f) - 1:
        errs.append(f"facets/dimension {geo['facets']}/{geo['dimension']} != {ref['facets']}/{len(f) - 1}")
    return errs


def check_verdict(doc: dict, forced: bool) -> list[str]:
    bound = doc["bound"]
    if forced:
        ok = doc["verdict"] == "unknown" and bound["forced"] and not bound["satisfied"]
    else:
        ok = doc["verdict"] == "pass" and bound["satisfied"] and not bound["forced"]
    return [] if ok else [f"verdict {doc['verdict']} with bound {bound} (forced={forced})"]


def check_report(cmd: str, doc: dict, ref: dict, forced: bool, generated: bool) -> list[str]:
    top = len(ref["f_vector"]) - 1
    errs = check_geometry(doc, ref, generated) if cmd != "filtration-verify" else []
    if cmd == "build":
        nverts, facets = reference.parse_facet_export(doc["facet_export"])
        shape = reference.shape_reference(facets, nverts)
        for key, value in shape.items():
            if value != ref[key]:
                errs.append(f"facet export: {key} {value} != {ref[key]}")
        return errs
    errs += check_verdict(doc, forced)
    if cmd == "homology":
        h = doc["homology"]
        if h["betti"] != ref["betti"]:
            errs.append(f"betti {h['betti']} != {ref['betti']}")
        for p in (2, 3):
            got = [sum(1 for t in ts if t % p == 0) for ts in h["torsion"]]
            if got != ref[f"torsion_div{p}"]:
                errs.append(f"torsion coefficients divisible by {p}: {got} != {ref[f'torsion_div{p}']}")
        euler = sum((-1) ** d * c for d, c in enumerate(ref["f_vector"]))
        if h["euler_characteristic"] != euler or h["top_dim"] != top:
            errs.append(f"euler/top_dim {h['euler_characteristic']}/{h['top_dim']} != {euler}/{top}")
        if doc["sphericity"]["sphere_count"] != ref["betti"][top]:
            errs.append(f"sphere count {doc['sphericity']['sphere_count']} != top betti {ref['betti'][top]}")
    elif cmd == "cm-check":
        cm = doc["cm"]
        if cm["simplices_checked"] != 1 + sum(ref["f_vector"]) or cm["dim"] != top:
            errs.append(f"cm simplices_checked/dim {cm['simplices_checked']}/{cm['dim']}")
        if cm["passed"] != (not cm["failures"]):
            errs.append("cm passed flag disagrees with its failure list")
        if not forced and cm["failures"]:
            errs.append(f"in-bound cm-check reports failures {cm['failures'][:3]}")
        if any(not f["reason"] or not isinstance(f["simplex"], list) for f in cm["failures"]):
            errs.append("a cm failure carries no witness")
        whole_fails = any(f["simplex"] == [] for f in cm["failures"])
        spherical = (all(b == 0 for b in ref["betti"][:top])
                     and not any(ref[f"torsion_div{p}"][d] for p in (2, 3) for d in range(top)))
        if whole_fails == spherical:
            errs.append(f"cm verdict on the whole complex disagrees with its homology {ref['betti']}")
    elif cmd == "filtration-verify":
        fl = doc["filtration"]
        checks = fl["y0_checks"] + fl["final_checks"] + [c for s in fl["stages"] for c in s["checks"]]
        if fl["passed"] != all(c["passed"] for c in checks):
            errs.append("filtration passed flag disagrees with its checks")
        if any(not c["passed"] and not c.get("witness") for c in checks):
            errs.append("a failing filtration check carries no witness")
        if fl["direct_sphere_count"] != ref["betti"][top]:
            errs.append(f"direct sphere count {fl['direct_sphere_count']} != top betti {ref['betti'][top]}")
        if fl["level_sizes"][-1] != ref["f_vector"][0]:
            errs.append(f"last filtration level {fl['level_sizes'][-1]} != {ref['f_vector'][0]} vertices")
        if not forced and (not fl["passed"] or fl["predicted_sphere_count"] != fl["direct_sphere_count"]):
            errs.append(f"in-bound filtration fails: predicted {fl['predicted_sphere_count']}, "
                        f"direct {fl['direct_sphere_count']}")
    return errs


def operation_errors(op, code: int, log_path: str, report_path: str, refs: dict) -> list[str]:
    cmd, name, forced = op
    if code != 0:
        with open(log_path, errors="replace") as fh:
            tail = fh.read().strip().splitlines()[-1:]
        return [f"exit code {code}: {' '.join(tail)}"]
    generated = name in reference.GENERATED
    ref = refs["generated" if generated else "bundled"][name]
    with open(report_path) as fh:
        doc = json.load(fh)
    try:
        return check_report(cmd, doc, ref, forced, generated)
    except (KeyError, TypeError, IndexError) as exc:
        return [f"malformed report: {exc!r}"]


# -- rounds --------------------------------------------------------------------


def run_round(ops, refs, tag: str, traced: bool, speed: Speed, before=None) -> dict:
    """Run every operation once, calling before() ahead of each; returns
    scaled timings, failures and report bytes."""
    out = {"wall": [], "cpu": [], "rss": [], "failed": 0,
           "unexpected": [], "reports": [], "spans": []}
    for i, op in enumerate(ops):
        if before is not None:
            before()
        cmd, name, forced = op
        base = os.path.join(RUN_DIR, f"{tag}.{i}")
        argv = [cmd, "--spec", spec_path(name), "--out", base + ".json"]
        if forced:
            argv.append("--force")
        if traced:
            argv = [sys.executable, os.path.join(HERE, "trace_cli.py"), base + ".spans", *argv]
        else:
            argv = [sys.executable, "-m", "phangeo.cli", *argv]
        code, wall, cpu, rss = run_child(argv, base + ".log")
        factor = speed.scale()
        out["wall"].append(wall * factor)
        out["cpu"].append(cpu * factor)
        out["rss"].append(rss)
        errs = operation_errors(op, code, base + ".log", base + ".json", refs)
        known = KNOWN_FAULTS.get((cmd, name))
        if errs:
            out["failed"] += 1
            if not (known and len(errs) == 1 and known in errs[0]):
                out["unexpected"].append(f"{cmd} {name}: {'; '.join(errs)}")
        print(f"  {tag} {cmd:18s} {name:18s} exit {code}  {wall:7.3f}s"
              f"  scaled {wall * factor:7.3f}s"
              f"{'  FAILED: ' + '; '.join(errs) if errs else ''}", flush=True)
        if os.path.exists(base + ".json"):
            with open(base + ".json", "rb") as fh:
                out["reports"].append(fh.read())
        else:
            out["reports"].append(None)
        if traced:
            out["spans"].append(base + ".spans")
    return out


def median_sum(rounds: list[dict], key: str) -> float:
    """Sum over the operations of each operation's median value over the rounds."""
    return sum(statistics.median(values) for values in zip(*(r[key] for r in rounds)))


def layer_metrics(span_files: list[str]) -> dict:
    """Inclusive and self time, call counts and sizes per span name, summed
    over the commands of a traced round."""
    incl, self_s, calls, sizes = Counter(), Counter(), Counter(), Counter()
    distinct = 0
    for path in span_files:
        with open(path) as fh:
            recs = [json.loads(line) for line in fh]
        counts = recs.pop()["counts"]
        calls.update(counts)
        child_time = defaultdict(float)
        snf_seen = Counter()
        keys = set()
        for r in recs:
            if r["parent"] >= 0:
                child_time[r["parent"]] += r["end"] - r["start"]
        for i, r in enumerate(recs):
            name, dur = r["name"], r["end"] - r["start"]
            incl[name] += dur
            self_s[name] += dur - child_time[i]
            calls[name] += 1
            for key in ("members", "facets", "links", "nnz", "rank"):
                if key in r:
                    sizes[key] += r[key]
            if name == "homology.reduced_homology":
                keys.add(r["key"])
            if name == "homology.snf":
                parent = r["parent"]
                degree = snf_seen[parent]
                snf_seen[parent] += 1
                incl[f"homology.snf.d{degree}"] += dur
        distinct += len(keys)
    m = {}
    for name in incl:
        m[f"{name}.s"] = incl[name]
        m[f"{name}.self_s"] = self_s[name]
    for name, c in calls.items():
        m[f"{name}.calls"] = c
    m["phan.members"] = sizes["members"]
    m["simplicial.facets"] = sizes["facets"]
    m["homology.cm.links"] = sizes["links"]
    m["homology.snf.nnz"] = sizes["nnz"]
    m["homology.snf.rank"] = sizes["rank"]
    m["homology.reduced_homology.distinct"] = distinct
    return m


def declared_metrics(kind: str) -> list[tuple[str, str]]:
    """(name, unit) of the end_to_end or per_layer metrics in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[kind]]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    missing = [p for p in (os.path.join(SRC, "phangeo", "cli.py"), os.path.join(ROOT, "specs"),
                           reference.REFERENCE_FILE) if not os.path.exists(p)]
    if missing:
        print(f"error: the benchmark needs {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    with open(reference.REFERENCE_FILE) as fh:
        refs = json.load(fh)
    shutil.rmtree(RUN_DIR, ignore_errors=True)
    os.makedirs(RUN_DIR)
    ops = WORKLOADS[args.workload]
    # The calibration loop and the commands it scales must share a core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    speed = Speed()

    plain_rounds, traced_rounds, setups = [], [], []
    unexpected = []
    attempted = failed = 0
    rounds = max(1, ROUNDS[args.workload] // 2) if args.trace else ROUNDS[args.workload]
    min_rounds = 1 if args.trace else MIN_ROUNDS

    # About SETUPS set-ups, spread evenly over the untraced commands of the
    # run, so that their median covers the whole run.
    stride = -(-rounds * len(ops) // SETUPS)
    slots = iter(range(rounds * len(ops)))

    def set_up_on_stride():
        if next(slots) % stride == 0:
            seconds = setup(ops, args.seed)
            setups.append(seconds * speed.scale())

    t0 = time.perf_counter()
    while len(plain_rounds) < rounds and (
            len(plain_rounds) < min_rounds or time.perf_counter() - t0 < args.seconds):
        k = len(plain_rounds)
        plain = run_round(ops, refs, f"r{k}", traced=False, speed=speed,
                          before=set_up_on_stride)
        parts = [plain]
        plain_rounds.append(plain)
        if args.trace:
            traced = run_round(ops, refs, f"r{k}t", traced=True, speed=speed)
            parts.append(traced)
            traced_rounds.append(traced)
            for op, a, b in zip(ops, plain["reports"], traced["reports"]):
                if a != b:
                    unexpected.append(f"{op[0]} {op[1]}: traced report differs from untraced")
        for part in parts:
            attempted += len(ops)
            failed += part["failed"]
            unexpected += part["unexpected"]

    if args.trace:
        layers = layer_metrics(traced_rounds[-1]["spans"])
        layers["trace.total_s"] = median_sum(traced_rounds, "wall")
        layers["trace.overhead_s"] = layers["trace.total_s"] - median_sum(plain_rounds, "wall")
        metrics = {name: {"value": layers.get(name, 0), "unit": unit}
                   for name, unit in declared_metrics("per_layer")}
    else:
        values = {
            "total_s": median_sum(plain_rounds, "wall"),
            "cpu_s": median_sum(plain_rounds, "cpu"),
            "peak_rss_mb": max(max(r["rss"]) for r in plain_rounds),
            "setup_s": statistics.median(setups),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in declared_metrics("end_to_end")}
    print(f"rounds: {len(plain_rounds)}, set-ups: {len(setups)}, "
          f"median scaled set-up {statistics.median(setups):.3f}s", flush=True)

    for msg in unexpected:
        print(f"UNEXPECTED: {msg}", file=sys.stderr)
    print(json.dumps({"correct": not unexpected, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
