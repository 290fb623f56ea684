"""Acceptance criteria, one test per criterion, exact equality throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  Expected values are either derived here by an independent
oracle (union-find connectivity, Euler counts for graph homology, brute
enumeration) or frozen from such derivations.  The library reads degree 0
from a union-find spanning forest too, so connectivity is also checked
against the Smith form of every boundary (``snf_homology``).
"""

import random
import time

import pytest

from phangeo.cli import main
from phangeo.field import make_field
from phangeo.filtration import run_verification
from phangeo.homology import cohen_macaulay_check, reduced_homology, sphericity_verdict
from phangeo.morse import IntegerMatrix, smith_invariant_factors
from phangeo.phan import PhanFamily, vertices
from phangeo.simplicial import order_complex, purity_and_dimension
from phangeo.specfile import dump_family
from phangeo.suites import (
    chamber_spec,
    diagonal_spec,
    run_delta_suite,
    run_extension_suite,
    run_projection_suite,
    run_residue_suite,
    standard_spec,
)

from conftest import modular_smith, snf_homology


def _report(num: int, desc: str, passed: bool, extra: str = ""):
    line = f"[ACCEPTANCE {num:02d}] {'PASS' if passed else 'FAIL'} - {desc}"
    if extra:
        line += f" ({extra})"
    print(line)
    assert passed, f"criterion {num} failed: {desc}"


# -- independent oracles -------------------------------------------------------


def _components(complex_) -> int:
    """Union-find over the 1-skeleton; independent of the SNF path."""
    parent = list(range(complex_.num_vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for f in complex_.facets:
        for a, b in zip(f, f[1:]):
            parent[find(a)] = find(b)
    return len({find(v) for v in range(complex_.num_vertices)})


def _graph_cycle_rank(complex_) -> int:
    """b~_1 of a complex of dimension <= 1: E - V + components."""
    assert complex_.dim <= 1
    counts = complex_.face_counts()
    v = counts[0]
    e = counts[1] if len(counts) > 1 else 0
    return e - v + _components(complex_)


def _main_theorem_instance_checks(num, family, runtime_budget):
    t0 = time.time()
    k = order_complex(vertices(family).members)
    rep = reduced_homology(k)
    comp = _components(k)
    cycles = _graph_cycle_rank(k)
    cm = cohen_macaulay_check(k)
    elapsed = time.time() - t0
    snf_betti, _ = snf_homology(k)
    ok = (
        rep.betti_number(0) == 0
        and comp == 1                      # oracle for b~_0 = 0
        and snf_betti[0] == comp - 1
        and rep.betti_number(1) == cycles  # oracle for the SNF rank
        and rep.betti_number(1) >= 1
        and rep.torsion_at(1) == ()        # free
        and cm.passed
        and elapsed < runtime_budget
    )
    return ok, rep, elapsed


def test_acceptance_01_main_theorem_t0_q5():
    family = PhanFamily((standard_spec(make_field(5, 1), 3),))
    assert family.bound()["satisfied"] and family.bound()["lhs"] == 4
    ok, rep, elapsed = _main_theorem_instance_checks(1, family, 10.0)
    _report(1, "Main Theorem t=0 over F_5^3: connected, H~_1 free of rank >= 1, "
               "Cohen-Macaulay", ok, f"betti={rep.betti}, {elapsed:.1f}s")


def test_acceptance_02_main_theorem_hermitian_q9():
    family = PhanFamily((standard_spec(make_field(3, 2, 2), 3),))
    assert family.bound()["satisfied"] and family.bound()["lhs"] == 8
    ok, rep, elapsed = _main_theorem_instance_checks(2, family, 60.0)
    _report(2, "Main Theorem hermitian over F_9^3: connected, H~_1 free of "
               "rank >= 1, Cohen-Macaulay", ok, f"betti={rep.betti}, {elapsed:.1f}s")


def test_acceptance_03_dimension_two_base_case():
    t0 = time.time()
    f4 = make_field(2, 2, 2)
    spec = standard_spec(f4, 2)
    # oracle: enumerate the q+1 points, count isotropic ones via the norm
    # x*sigma(x) = x^3 computed through the multiplication table
    mul = f4.mul_table
    points = [(1, c) for c in range(f4.q)] + [(0, 1)]
    iso = sum(
        1 for (a, b) in points if f4.add(mul[a][mul[a][a]], mul[b][mul[b][b]]) == 0
    )
    assert iso <= f4.sqrt_q + 1  # the counting remark's bound, here attained
    expected_vertices = (f4.q + 1) - iso
    assert expected_vertices == f4.q - f4.sqrt_q == 2
    vs = vertices(PhanFamily((spec,)))
    k = order_complex(vs.members)
    rep = reduced_homology(k)
    elapsed = time.time() - t0
    ok = len(vs.members) == 2 and rep.betti == (1,) and elapsed < 1.0
    _report(3, "F_4 hermitian plane: exactly 2 non-degenerate points, one "
               "0-sphere", ok, f"vertices={len(vs.members)}, b0~={rep.betti_number(0)}")


def test_acceptance_04_opposite_chamber_q3():
    t0 = time.time()
    q = 3
    family = PhanFamily((chamber_spec(make_field(3, 1), 3),))
    k = order_complex(vertices(family).members)
    counts = k.face_counts()
    rep = reduced_homology(k)
    euler_oracle = 2 * q**2 - q**3
    elapsed = time.time() - t0
    ok = (
        counts == [18, 27]
        and _components(k) == 1
        and snf_homology(k)[0][0] == 0
        and rep.betti_number(0) == 0
        and rep.euler_characteristic == euler_oracle
        and rep.betti_number(1) == q**3 - 2 * q**2 + 1 == 10
        and elapsed < 5.0
    )
    _report(4, "opposite-chamber geometry over F_3^3: 18 vertices, 27 edges, "
               "b~_1 = 10", ok, f"counts={counts}, betti={rep.betti}")


def test_acceptance_05_extension_lemma_suite():
    res = run_extension_suite(seed=2026, count=100)
    ok = res.instances >= 100 and res.passed
    _report(5, "form-extension postconditions on >= 100 flags under two "
               "complement policies", ok,
            f"{res.instances} instances, {len(res.failures)} failures")


def test_acceptance_06_projection_lemma_suite():
    res = run_projection_suite(seed=2026, count=100)
    ok = res.instances >= 100 and res.passed
    _report(6, "projection radical identity on >= 100 random instances",
            ok, f"{res.instances} instances, {len(res.failures)} failures")


def test_acceptance_07_residues_match_literal_sets():
    res = run_residue_suite()
    ok = res.passed and res.instances > 0
    _report(7, "residues below/above equal the literal sets on every member "
               "of every test geometry (families included)", ok,
            f"{res.instances} members checked, {len(res.failures)} failures")


def test_acceptance_08_restricted_family_end_to_end():
    res = run_delta_suite(seed=2026)
    hits = res.notes["branch_hits"]
    ok = (
        res.passed
        and res.instances > 0
        and hits.get("radical_augmented", 0) > 0  # the R != 0 branch ran
        and hits.get("hyperplane_l_t", 0) > 0
    )
    _report(8, "restricted-family vertex sets equal the brute-force oracle, "
               "radical branch included", ok,
            f"{res.instances} instances, branches={hits}")


def test_acceptance_09_filtration_instances():
    t0 = time.time()
    instances = [
        ("F_5^3 t=0", PhanFamily((standard_spec(make_field(5, 1), 3),))),
        ("F_9^3 hermitian", PhanFamily((standard_spec(make_field(3, 2, 2), 3),))),
        ("F_3^3 opposite-chamber", PhanFamily((chamber_spec(make_field(3, 1), 3),))),
    ]
    all_ok = True
    details = []
    for name, family in instances:
        rep = run_verification(family)
        this_ok = rep.passed and rep.predicted_spheres == rep.direct_spheres >= 1
        mv_ok = all(
            c.passed for s in rep.stages for c in s.checks
            if c.name == "mayer_vietoris_rank_balance"
        )
        y0_ok = all(c.passed for c in rep.y0)
        all_ok = all_ok and this_ok and mv_ok and y0_ok
        details.append(f"{name}: {rep.predicted_spheres} spheres")
    elapsed = time.time() - t0
    ok = all_ok and elapsed < 300.0
    _report(9, "filtration stages (a)-(d), Y_0 acyclicity and Mayer-Vietoris "
               "bookkeeping on instances 1, 2 and 4", ok,
            "; ".join(details) + f"; {elapsed:.1f}s")


def test_acceptance_10_family_intersections():
    t0 = time.time()
    f7 = make_field(7, 1)
    fam2 = PhanFamily((diagonal_spec(f7, (1, 1)), diagonal_spec(f7, (1, 3))))
    assert fam2.bound()["satisfied"]  # 2*2 = 4 < 7 in dimension 2
    k2 = order_complex(vertices(fam2).members)
    v2 = sphericity_verdict(reduced_homology(k2), 0)
    ok_a = k2.num_vertices == 6 and v2.nonempty and v2.spherical and v2.sphere_count == 5

    f11 = make_field(11, 1)
    fam3 = PhanFamily((standard_spec(f11, 3), diagonal_spec(f11, (1, 1, 2))))
    assert fam3.bound()["satisfied"]  # 2^2*2 = 8 < 11
    k3 = order_complex(vertices(fam3).members)
    v3 = sphericity_verdict(reduced_homology(k3), 1)
    cm3 = cohen_macaulay_check(k3)
    ok_b = v3.spherical and v3.sphere_count >= 1 and cm3.passed
    elapsed = time.time() - t0
    ok = ok_a and ok_b and elapsed < 120.0
    _report(10, "family intersections: m=2 over F_7 (dim 2) 0-spherical and "
                "m=2 over F_11 (dim 3) spherical + Cohen-Macaulay", ok,
            f"F_7: {v2.sphere_count} zero-spheres; F_11: {v3.sphere_count} "
            f"circles, CM={cm3.passed}; {elapsed:.1f}s")


def test_acceptance_11_bounds_gate(tmp_path, capsys):
    family = PhanFamily((standard_spec(make_field(2, 2, 1), 3),))
    path = tmp_path / "q4.json"
    dump_family(family, str(path))
    out = tmp_path / "r.json"
    with pytest.raises(SystemExit) as exc:
        main(["homology", "--spec", str(path), "--out", str(out)])
    refused = exc.value.code == 2
    err = capsys.readouterr().err
    quoted = "2^2*1 = 4 < q = 4" in err
    rc = main(["homology", "--spec", str(path), "--force", "--out", str(out)])
    import json
    doc = json.loads(out.read_text())
    forced_ok = rc == 0 and doc["verdict"] == "unknown" and doc["bound"]["forced"]
    ok = refused and quoted and forced_ok
    _report(11, "bound gate refuses q=4 (sigma=id, n=2) without --force, "
                "runs unasserted with it", ok,
            f"refusal={refused}, inequality_quoted={quoted}")


def test_acceptance_12_snf_oracle_equivalence():
    rng = random.Random(31415)
    mismatches = 0
    for _ in range(500):
        nr = rng.randrange(1, 31)
        nc = rng.randrange(1, 31)
        rows = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)]
        m = IntegerMatrix(
            nr, nc,
            tuple((i, j, rows[i][j]) for i in range(nr) for j in range(nc) if rows[i][j]),
        )
        if smith_invariant_factors(m) != modular_smith(rows):
            mismatches += 1
    _report(12, "sparse Smith normal form agrees with dense elimination modulo "
                "a determinantal multiple on 500 random matrices", mismatches == 0,
            f"{mismatches} mismatches")
