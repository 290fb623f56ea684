"""Tests of the benchmark's own code: the seeded generator, the reference
computation, the report checks and the span aggregation.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import instances  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402

with open(reference.REFERENCE_FILE) as _fh:
    REFS = json.load(_fh)


def test_f4_modulus_matches_the_spec_format():
    assert instances.GF(2, 2).modulus == (1, 1, 1)
    assert instances.GF(3, 2).modulus == (1, 0, 1)  # x^2 + 1, as the spec format documents
    f = instances.field_for(4)
    assert all(f.mul[a][f.inv[a]] == 1 for a in range(1, 4))


def test_two_seeds_give_identical_invariants():
    for name, q in reference.GENERATED.items():
        a = reference.generated_reference(q, 1)
        b = reference.generated_reference(q, 2)
        assert a == b == REFS["generated"][name], name
        assert instances.random_gram(instances.field_for(q), 1) != \
            instances.random_gram(instances.field_for(q), 2)


def test_program_agrees_on_two_seeds(tmp_path):
    ref = REFS["generated"]["F3^4"]
    env = run.child_env()
    for seed in (1, 2):
        spec, out = tmp_path / f"s{seed}.json", tmp_path / f"h{seed}.json"
        instances.write_spec(str(spec), 3, seed)
        subprocess.run([sys.executable, "-m", "phangeo.cli", "homology", "--force",
                        "--spec", str(spec), "--out", str(out)],
                       env=env, check=True, stdout=subprocess.DEVNULL)
        doc = json.loads(out.read_text())
        assert run.check_report("homology", doc, ref, True, True) == []
        assert doc["homology"]["torsion"] == [[], [], []]


def test_torsion_counts_from_rank_drops():
    # the 6-vertex real projective plane: H~_1 = Z/2, H~_2 = 0
    rp2 = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
           (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5)]
    h = reference.homology_reference(reference.faces_of(rp2))
    assert h == {"betti": [0, 0, 0], "torsion_div2": [0, 1, 0], "torsion_div3": [0, 0, 0]}
    circle = [(0, 1), (1, 2), (0, 2)]
    assert reference.homology_reference(reference.faces_of(circle))["betti"] == [0, 1]


def _report(cmd):
    """A report for t0_q5_dim3 shaped as the program writes it."""
    ref = REFS["bundled"]["t0_q5_dim3"]
    doc = {
        "bound": {"satisfied": True, "forced": False},
        "verdict": "pass",
        "geometry": {"simplex_counts": [50, 120], "total_vertices": 50,
                     "vertex_counts_by_dim": {"1": 25, "2": 25}, "facets": 120,
                     "pure": True, "dimension": 1},
    }
    if cmd == "homology":
        doc["homology"] = {"betti": [0, 71], "torsion": [[], []],
                           "euler_characteristic": -70, "top_dim": 1}
        doc["sphericity"] = {"sphere_count": 71}
    if cmd == "cm-check":
        doc["cm"] = {"passed": True, "dim": 1, "simplices_checked": 171, "failures": []}
    return doc, ref


def test_check_report_accepts_a_correct_report_and_rejects_tampering():
    for cmd in ("homology", "cm-check"):
        doc, ref = _report(cmd)
        assert run.check_report(cmd, doc, ref, False, False) == []
    doc, ref = _report("homology")
    bad = copy.deepcopy(doc)
    bad["homology"]["betti"] = [0, 70]
    assert run.check_report("homology", bad, ref, False, False)
    bad = copy.deepcopy(doc)
    bad["homology"]["torsion"] = [[2], []]
    assert run.check_report("homology", bad, ref, False, False)
    bad = copy.deepcopy(doc)
    bad["verdict"] = "unknown"
    assert run.check_report("homology", bad, ref, False, False)
    doc, ref = _report("cm-check")
    bad = copy.deepcopy(doc)
    bad["cm"]["simplices_checked"] = 170
    assert run.check_report("cm-check", bad, ref, False, False)
    bad = copy.deepcopy(doc)
    bad["cm"]["failures"] = [{"simplex": [], "target_dim": 1, "reason": ""}]
    bad["cm"]["passed"] = False
    assert run.check_report("cm-check", bad, ref, False, False)


def test_layer_metrics_self_time_and_snf_degree(tmp_path):
    recs = [
        {"name": "homology.reduced_homology", "parent": -1, "start": 0.0, "end": 10.0, "key": 7},
        {"name": "homology.snf", "parent": 0, "start": 1.0, "end": 2.0, "nnz": 5, "rank": 1},
        {"name": "homology.snf", "parent": 0, "start": 2.0, "end": 6.0, "nnz": 9, "rank": 2},
        {"name": "homology.reduced_homology", "parent": -1, "start": 10.0, "end": 12.0, "key": 7},
        {"name": "homology.snf", "parent": 3, "start": 10.0, "end": 11.0, "nnz": 5, "rank": 1},
        {"counts": {"linalg.contains_subspace": 42}},
    ]
    path = tmp_path / "a.spans"
    path.write_text("".join(json.dumps(r) + "\n" for r in recs))
    m = run.layer_metrics([str(path)])
    assert m["homology.reduced_homology.s"] == 12.0
    assert m["homology.reduced_homology.self_s"] == 6.0
    assert m["homology.reduced_homology.calls"] == 2
    assert m["homology.reduced_homology.distinct"] == 1
    assert m["homology.snf.d0.s"] == 2.0
    assert m["homology.snf.d1.s"] == 4.0
    assert m["homology.snf.nnz"] == 19
    assert m["linalg.contains_subspace.calls"] == 42
