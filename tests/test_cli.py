import ast
import contextlib
import importlib
import io
import json
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from phangeo.cli import EXIT_BROKEN_PIPE, main
from phangeo.field import make_field
from phangeo.forms import HermitianForm
from phangeo.linalg import Flag, Subspace
from phangeo.phan import PhanFamily, PhanSpec
from phangeo.specfile import SpecFileError, dump_family, family_to_dict, load_family, parse_family
from phangeo.suites import chamber_spec, diagonal_spec, random_phan_spec, standard_spec

F3 = make_field(3, 1)
F4H = make_field(2, 2, 2)
F4ID = make_field(2, 2, 1)
F5 = make_field(5, 1)
SPECS = Path(__file__).resolve().parent.parent / "specs"


@pytest.fixture
def spec_q5(tmp_path):
    path = tmp_path / "q5.json"
    dump_family(PhanFamily((standard_spec(F5, 3),)), str(path))
    return str(path)


@pytest.fixture
def spec_q4id(tmp_path):
    path = tmp_path / "q4.json"
    dump_family(PhanFamily((standard_spec(F4ID, 3),)), str(path))
    return str(path)


def test_specfile_roundtrip(tmp_path):
    fam = PhanFamily((standard_spec(F4H, 2),))
    path = tmp_path / "f.json"
    dump_family(fam, str(path))
    loaded, digest = load_family(str(path))
    assert loaded == fam
    assert len(digest) == 64


def test_specfile_errors():
    with pytest.raises(SpecFileError):
        parse_family([])
    with pytest.raises(SpecFileError):
        parse_family({"field": {"p": 4, "e": 1, "sigma_order": 1},
                      "ambient_dim": 2, "specs": []})
    doc = family_to_dict(PhanFamily((standard_spec(F5, 3),)))
    doc["specs"][0]["forms"][0][0][1] = [2]  # breaks hermitian symmetry
    with pytest.raises(SpecFileError) as err:
        parse_family(doc)
    assert "sigma(gram" in str(err.value)  # names the symmetry violation


def test_build_counts(tmp_path, capsys):
    path = tmp_path / "h2.json"
    dump_family(PhanFamily((standard_spec(F4H, 2),)), str(path))
    out = tmp_path / "report.json"
    rc = main(["build", "--spec", str(path), "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["geometry"]["total_vertices"] == 2
    assert doc["geometry"]["simplex_counts"] == [2]
    assert doc["facet_export"].startswith("2\n")


def test_build_chamber_counts(tmp_path):
    path = tmp_path / "c3.json"
    dump_family(PhanFamily((chamber_spec(F3, 3),)), str(path))
    out = tmp_path / "report.json"
    assert main(["build", "--spec", str(path), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["geometry"]["total_vertices"] == 18
    assert doc["geometry"]["simplex_counts"] == [18, 27]


def test_bound_gate_refusal_and_force(tmp_path, spec_q4id, capsys):
    out = tmp_path / "r.json"
    with pytest.raises(SystemExit) as exc:
        main(["homology", "--spec", spec_q4id, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "2^2*1 = 4 < q = 4" in err  # quotes the violated inequality
    rc = main(["homology", "--spec", spec_q4id, "--force", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "unknown"  # reported, not asserted
    assert doc["bound"]["forced"] is True


def test_homology_command(tmp_path, spec_q5, homology_calls):
    out = tmp_path / "r.json"
    rc = main(["homology", "--spec", spec_q5, "--out", str(out)])
    assert rc == 0
    assert sum(homology_calls.values()) == 1  # the verdict reuses the report
    doc = json.loads(out.read_text())
    assert doc["homology"]["betti"] == [0, 71]
    assert doc["sphericity"]["spherical"] is True
    assert doc["verdict"] == "pass"
    assert doc["input_digest"].startswith("sha256:")


def test_homology_reports_trivial_pi1_for_chamber_f3_4(tmp_path):
    """Out of bound, so only with --force: simply connected with homology
    free in degree 2 alone, the opposite-chamber geometry of F_3^4."""
    spec = tmp_path / "c34.json"
    dump_family(PhanFamily((chamber_spec(F3, 4),)), str(spec))
    out = tmp_path / "r.json"
    assert main(["homology", "--spec", str(spec), "--force", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["homology"]["betti"] == [0, 0, 134]
    assert doc["sphericity"]["pi1_status"] == "trivial"
    assert doc["verdict"] == "unknown"


def test_cm_command(tmp_path, spec_q5):
    out = tmp_path / "r.json"
    assert main(["cm-check", "--spec", spec_q5, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["cm"]["passed"] is True and doc["verdict"] == "pass"


def test_certificates_build_no_complex_from_facets(monkeypatch, tmp_path):
    """``cm-check`` and ``filtration-verify``, the negative control included,
    read every link and star boundary from the containment graph as a cut
    through ``induced_subcomplex``, and reduce it from its chains: with
    ``facets`` patched to raise on any complex that ``induced_subcomplex``
    made, they run to their verdicts on every bundled spec, F_3^4
    (t0_q3_dim4) among them.
    ``simplicial`` defines no constructor that takes facets."""
    from phangeo import simplicial
    from phangeo.simplicial import SimplicialComplex

    assert "__init__" not in vars(SimplicialComplex)
    assert not {"_maximalize", "_of_maximal", "_restrict", "_faces",
                "facets_through"} & (set(vars(simplicial)) | set(vars(SimplicialComplex)))
    cut = set()  # ids of the complexes induced_subcomplex made, kept alive below
    made = []
    induced = simplicial.induced_subcomplex

    def recorded(k, keep):
        sub = induced(k, keep)
        cut.add(id(sub))
        made.append(sub)
        return sub

    walked = SimplicialComplex.facets.func

    def facets(self):
        if id(self) in cut:
            raise AssertionError("the maximal chains of a cut walked")
        return walked(self)

    monkeypatch.setattr(simplicial, "induced_subcomplex", recorded)
    for name, module in list(sys.modules.items()):
        if name.startswith("phangeo.") and getattr(module, "induced_subcomplex", None) is induced:
            monkeypatch.setattr(module, "induced_subcomplex", recorded)
    monkeypatch.setattr(SimplicialComplex, "facets", property(facets))
    out = tmp_path / "r.json"
    for spec in sorted(SPECS.glob("*.json")):
        for argv in (["cm-check"], ["filtration-verify"],
                     ["filtration-verify", "--negative-control"]):
            code = main([*argv, "--spec", str(spec), "--force", "--out", str(out)])
            assert code in (0, 1) and json.loads(out.read_text())["verdict"], (spec, argv)
    assert made


def test_no_reduction_lists_a_simplex_of_dimension_one_or_more(monkeypatch, tmp_path, cli_report):
    """The union-find that counts the components of a complex of dimension
    <= 1 walks its successor lists, and the Cohen-Macaulay sweep of a
    complex of dimension <= 2 lists only vertices: with ``simplices``
    patched to raise for k >= 1, ``homology``, ``cm-check`` and
    ``filtration-verify`` give the unpatched reports and exit codes on every
    bundled spec whose complex has dimension <= 2 (ambient dimension <= 4)
    and on seeded F_3^4.  The unpatched runs go through ``cli_report``
    before the patch, as ``tests/test_parity.py`` runs them."""
    from phangeo.simplicial import SimplicialComplex

    seeded = tmp_path / "f3_4_seeded.json"
    dump_family(PhanFamily((random_phan_spec(random.Random(2), F3, 4, 0),)), str(seeded))
    forced = {"t0_q4_dim3", "t0_q3_dim4"}  # the bundled ones outside the bound
    runs = [[command, "--spec", str(spec)] + ["--force"] * (spec.stem in forced)
            for spec in sorted(SPECS.glob("*.json"))
            if load_family(str(spec))[0].ambient.dim <= 4
            for command in ("homology", "cm-check", "filtration-verify")]
    runs += [[command, "--spec", str(seeded), "--force"]
             for command in ("homology", "cm-check", "filtration-verify")]
    unpatched = [cli_report(argv) for argv in runs]
    listed = SimplicialComplex.simplices

    def simplices(self, k):
        if k >= 1:
            raise AssertionError(f"{k}-simplices listed")
        return listed(self, k)

    monkeypatch.setattr(SimplicialComplex, "simplices", simplices)
    out = tmp_path / "r.json"
    for argv, (code, report, _) in zip(runs, unpatched):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*argv, "--out", str(out)]) == code, argv
        assert out.read_bytes() == report, argv


def test_cm_command_non_pure_is_a_verdict(tmp_path, capsys):
    """t0_q4_dim3 has two isolated points beside its edges: the sweep fails
    there and on the whole complex, and out of bound that is reported, not
    asserted, with exit 0.  The summary line counts simplices, not links:
    the sweep builds links only below dimension d - 1."""
    out = tmp_path / "r.json"
    spec = str(SPECS / "t0_q4_dim3.json")
    assert main(["cm-check", "--spec", spec, "--force", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "unknown" and doc["geometry"]["pure"] is False
    cm = doc["cm"]
    assert cm["passed"] is False and cm["simplices_checked"] == 93
    assert [(len(f["simplex"]), f["target_dim"], f["reason"]) for f in cm["failures"]] == [
        (0, 1, "homology not concentrated in top degree"),
        (1, 0, "link is empty but must be 0-spherical"),
        (1, 0, "link is empty but must be 0-spherical"),
    ]
    assert "cm-check: fail (93 simplices checked, 3 failures)" in capsys.readouterr().out


def test_only_the_export_and_a_non_pure_sweep_list_maximal_chains(tmp_path, monkeypatch):
    """The counts and purity of a report are read without listing a maximal
    chain: with the walk of ``facets`` recorded, ``homology`` and a pure
    ``cm-check`` walk none, on specs of dimension 1 to 3.  ``build`` walks
    |Γ|'s once for its export, and ``cm-check`` on the non-pure t0_q4_dim3
    walks them to name its codimension-1 facets."""
    from phangeo.simplicial import SimplicialComplex

    walk = SimplicialComplex.facets.func
    walks = []

    def facets(self):
        walks.append(self.num_vertices)
        return walk(self)

    monkeypatch.setattr(SimplicialComplex, "facets", property(facets))
    out = str(tmp_path / "r.json")
    for name in ("t0_q5_dim3", "family2_q7_dim2", "chamber_q2_dim5"):
        for command in ("homology", "cm-check"):
            assert main([command, "--spec", str(SPECS / f"{name}.json"), "--force",
                         "--out", out]) == 0
            assert json.loads(Path(out).read_text())["geometry"]["pure"] is True
            assert walks == [], (name, command)
    spec = str(SPECS / "t0_q4_dim3.json")
    assert main(["build", "--spec", spec, "--out", out]) == 0
    assert main(["cm-check", "--spec", spec, "--force", "--out", out]) == 0
    assert walks == [32, 32]


@pytest.mark.parametrize("command", ["homology", "cm-check", "filtration-verify"])
def test_a_forced_run_says_its_results_are_not_asserted(command, tmp_path, capsys):
    """Every verification command run past a failing bound prints the same
    note as its last line; in bound, --force changes nothing and no note
    is printed."""
    note = "note: bound not satisfied; results reported, not asserted"
    out = str(tmp_path / "r.json")
    assert main([command, "--spec", str(SPECS / "t0_q4_dim3.json"), "--force",
                 "--out", out]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == note
    assert main([command, "--spec", str(SPECS / "t0_q5_dim3.json"), "--force",
                 "--out", out]) == 0
    assert note not in capsys.readouterr().out


def test_filtration_command_and_negative_control(tmp_path, spec_q5):
    out = tmp_path / "r.json"
    assert main(["filtration-verify", "--spec", spec_q5, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["filtration"]["passed"] is True
    assert doc["filtration"]["predicted_sphere_count"] == 71
    rc = main(["filtration-verify", "--spec", spec_q5, "--negative-control",
               "--out", str(out)])
    assert rc == 0  # the control is expected to fail and to carry witnesses
    doc = json.loads(out.read_text())
    assert doc["filtration"]["passed"] is False
    witnesses = [
        c.get("witness")
        for s in doc["filtration"]["stages"] for c in s["checks"] if not c["passed"]
    ]
    assert any(witnesses)


def test_filtration_without_a_pivot_is_a_failed_check(tmp_path, capsys, monkeypatch):
    """F_3^2 with Gram diag(1, 2) and the hyperbolic plane [[0, 1], [1, 0]]:
    the non-isotropic points of the two forms are disjoint, so no pivot
    exists.  That is a failing check whose witness is the search's message,
    not bad input: the verdict is unknown under --force (exit 0), and fail,
    exit 1, were the family in bound."""
    import phangeo.cli

    v = Subspace.full(F3, 2)
    hyperbolic = PhanSpec(Flag((Subspace.zero(F3, 2), v)),
                          (HermitianForm(F3, v, ((0, 1), (1, 0))),))
    spec = tmp_path / "nopivot.json"
    dump_family(PhanFamily((diagonal_spec(F3, (1, 2)), hyperbolic)), str(spec))
    out = tmp_path / "r.json"
    assert main(["filtration-verify", "--spec", str(spec), "--force", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "unknown"
    filtration = doc["filtration"]
    assert filtration["passed"] is False and filtration["pivot"] is None
    assert filtration["y0_checks"] == [{
        "name": "pivot_found", "passed": False,
        "witness": "no point is non-degenerate for all top forms "
                   "(bound violation or paper-bound slack)"}]
    assert capsys.readouterr().err == ""
    monkeypatch.setattr(phangeo.cli, "_spec_bound", lambda path: {"satisfied": True})
    assert main(["filtration-verify", "--spec", str(spec), "--out", str(out)]) == 1
    assert json.loads(out.read_text())["verdict"] == "fail"


def test_reports_are_byte_identical(tmp_path, spec_q5):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    main(["homology", "--spec", spec_q5, "--out", str(a)])
    main(["homology", "--spec", spec_q5, "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def _chamber_q5_dim4(cli_report, command: str) -> tuple[int, dict]:
    """(exit code, report) of a command on specs/chamber_q5_dim4.json without
    --force: the run ``tests/test_parity.py`` pins, computed once."""
    code, report, _ = cli_report([command, "--spec", str(SPECS / "chamber_q5_dim4.json")])
    return code, json.loads(report)


def test_chamber_q5_dim4_is_certified_in_bound(cli_report):
    """specs/chamber_q5_dim4.json, the first in-bound n = 3 instance
    (rank-one forms, 2^2*1 = 4 < 5), is certified without --force.  The
    expected b~ = (0, 0, 7124) with no 2- or 3-torsion is what the method of
    bench/reference.py, which runs no phangeo code, computes from the facet
    export: ranks of the boundaries over F_(2^31-1), F_2 and F_3.  The
    Cohen-Macaulay sweep checks the empty simplex and every face of the
    f-vector (875, 9375, 15625)."""
    code, doc = _chamber_q5_dim4(cli_report, "homology")
    assert code == 0
    assert doc["verdict"] == "pass" and not doc["bound"]["forced"]
    assert doc["homology"]["betti"] == [0, 0, 7124]
    assert doc["homology"]["torsion"] == [[], [], []]
    assert doc["sphericity"]["spherical"] and doc["sphericity"]["pi1_status"] == "trivial"
    code, doc = _chamber_q5_dim4(cli_report, "cm-check")
    assert code == 0
    assert doc["verdict"] == "pass" and doc["cm"]["passed"]
    assert doc["cm"]["simplices_checked"] == 25876 == 1 + 875 + 9375 + 15625
    assert doc["cm"]["failures"] == []


def test_chamber_q5_dim4_filtration_is_certified_in_bound(cli_report):
    """The filtration of the same instance, without --force: every check of
    Y_0, of the three stages and of the ledger passes, and the predicted
    sphere count equals the direct one, the b~_2 = 7124 above."""
    code, doc = _chamber_q5_dim4(cli_report, "filtration-verify")
    assert code == 0
    assert doc["verdict"] == "pass" and not doc["bound"]["forced"]
    rep = doc["filtration"]
    assert rep["level_sizes"] == [651, 751, 851, 875]
    assert rep["predicted_sphere_count"] == rep["direct_sphere_count"] == 7124
    checks = rep["y0_checks"] + rep["final_checks"] + [
        c for stage in rep["stages"] for c in stage["checks"]]
    assert len(checks) == 4 + 2 + 3 * 8 and all(c["passed"] for c in checks)


def test_build_lists_no_simplex_and_enumerates_no_point(tmp_path, monkeypatch):
    """``build`` of F_4^4 reads its face counts from the chain count and
    every point mask from hyperplane meets: listing the faces of a
    dimension or the points of a subspace raises.  The process-wide tables
    are dropped first, so that every mask is made afresh."""
    from phangeo import linalg, masks
    from phangeo.simplicial import SimplicialComplex

    path = tmp_path / "f44.json"
    dump_family(PhanFamily((standard_spec(F4ID, 4),)), str(path))
    linalg._ambient.cache_clear()

    def refused(*args):
        raise AssertionError("faces listed or points enumerated")

    monkeypatch.setattr(SimplicialComplex, "simplices", refused)
    monkeypatch.setattr(masks, "listed_mask", refused)
    out = tmp_path / "r.json"
    assert main(["build", "--spec", str(path), "--out", str(out)]) == 0
    geometry = json.loads(out.read_text())["geometry"]
    assert geometry["simplex_counts"] == [400, 3072, 3840] and not geometry["pure"]


def _ladder_instance(tmp_path, q, f_vector, levels):
    """A standard-form F_q^4 ladder instance with t = 0 and identity sigma,
    through all four commands.  The f-vector of the report is recounted
    from the facet export by listing every face of every facet; b~ =
    (0, 0, b~_2) matches its reduced Euler characteristic; cm-check visits
    1 + sum of f simplices (the empty simplex and every face); the
    filtration's levels are pinned, and its predicted sphere count equals
    the direct one."""
    field = make_field(3, 2, 1) if q == 9 else make_field(q, 1)
    path = tmp_path / f"f{q}_4.json"
    dump_family(PhanFamily((standard_spec(field, 4),)), str(path))
    docs = {}
    for command in ("build", "homology", "cm-check", "filtration-verify"):
        out = tmp_path / f"{command}.json"
        assert main([command, "--spec", str(path), "--out", str(out)]) == 0
        docs[command] = json.loads(out.read_text())
    header, *lines = docs["build"]["facet_export"].splitlines()
    del docs["build"]["facet_export"]
    facets = [tuple(map(int, line.split())) for line in lines]
    del lines
    faces = [set() for _ in range(max(map(len, facets)))]
    for f in facets:
        for j, listed in enumerate(faces):
            listed.update(combinations(f, j + 1))
    recount = [len(listed) for listed in faces]
    del facets, faces
    assert int(header) == recount[0]
    assert docs["build"]["geometry"]["simplex_counts"] == recount == list(f_vector)
    for command in ("homology", "cm-check", "filtration-verify"):
        assert docs[command]["verdict"] == "pass" and not docs[command]["bound"]["forced"]
    chi = -1 + f_vector[0] - f_vector[1] + f_vector[2]
    assert docs["homology"]["homology"]["betti"] == [0, 0, chi]
    cm = docs["cm-check"]["cm"]
    assert cm["passed"] and not cm["failures"] and cm["simplices_checked"] == 1 + sum(f_vector)
    rep = docs["filtration-verify"]["filtration"]
    assert rep["level_sizes"] == levels
    assert rep["predicted_sphere_count"] == rep["direct_sphere_count"] == chi


@pytest.mark.milestone
def test_milestone_f9_4(tmp_path):
    """ROADMAP's ladder instance F_9^4, the smallest in-bound n = 3 case
    (2^3·1 = 8 < 9): f = (8082, 174,960, 518,400), b~ = (0, 0, 351,521),
    701,443 simplices checked.  The coreduction of |Γ| leaves critical
    cells (0, 0, 351,521) only, and its matching is acyclic (the checker
    of ``tests/conftest.py``), so by Forman (1998) |Γ| is homotopy
    equivalent to a wedge of 351,521 2-spheres, the paper's claim."""
    from conftest import matching_is_acyclic
    from phangeo.homology import reduced_homology
    from phangeo.morse import morse_complex
    from phangeo.phan import vertices
    from phangeo.simplicial import order_complex

    _ladder_instance(tmp_path, 9, (8082, 174_960, 518_400), [6643, 7282, 8002, 8082])
    k = order_complex(vertices(PhanFamily((standard_spec(make_field(3, 2, 1), 4),))).members)
    assert reduced_homology(k).critical == (0, 0, 351_521)
    _, _, mate = morse_complex(k)
    assert matching_is_acyclic(k, mate)


@pytest.mark.milestone_long
def test_milestone_f11_4(tmp_path):
    """The next ladder rung, F_11^4 (8 < 11), a few minutes: f =
    (17,402, 479,160, 1,742,400), b~ = (0, 0, 1,280,641), 2,238,963
    simplices checked.  The coreduction of |Γ| leaves critical cells
    (0, 0, 1,280,641) only, and its matching is acyclic, so |Γ| is homotopy
    equivalent to a wedge of 1,280,641 2-spheres (Forman 1998)."""
    from conftest import matching_is_acyclic
    from phangeo.homology import reduced_homology
    from phangeo.morse import morse_complex
    from phangeo.phan import vertices
    from phangeo.simplicial import order_complex

    _ladder_instance(tmp_path, 11, (17_402, 479_160, 1_742_400), [14763, 15962, 17282, 17402])
    k = order_complex(vertices(PhanFamily((standard_spec(make_field(11, 1), 4),))).members)
    assert reduced_homology(k).critical == (0, 0, 1_280_641)
    _, _, mate = morse_complex(k)
    assert matching_is_acyclic(k, mate)


@pytest.mark.milestone
def test_milestone_chamber_q7_dim4_filtration(tmp_path):
    """Chamber F_7^4, in bound (its one form has rank one and costs 1:
    2^2·1 = 4 < 7), written into the test's directory: ``filtration-verify``
    passes every check, and the predicted sphere count equals the direct one,
    b~_2 = 70,314, the value the rank method of ``bench/reference.py`` gave
    on the facet export."""
    path = tmp_path / "chamber_q7_dim4.json"
    dump_family(PhanFamily((chamber_spec(make_field(7, 1), 4),)), str(path))
    out = tmp_path / "r.json"
    assert main(["filtration-verify", "--spec", str(path), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "pass" and not doc["bound"]["forced"]
    rep = doc["filtration"]
    assert rep["predicted_sphere_count"] == rep["direct_sphere_count"] == 70_314


def _reversed_chamber_spec(field, dim: int) -> PhanSpec:
    """The chamber on the reversed coordinate flag V_k = <e_(dim-k) ..
    e_(dim-1)>, opposite the flag of ``chamber_spec``: each form has rank
    one, with V_(k-1) as its radical, so its Gram matrix over V_k's echelon
    basis is 1 at the first row e_(dim-k) and 0 elsewhere."""
    unit = [tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)]
    subs = [Subspace.span(field, dim, unit[dim - k:]) for k in range(dim + 1)]
    forms = tuple(
        HermitianForm(field, subs[k], tuple(tuple(int(a == b == 0) for b in range(k))
                                            for a in range(k)))
        for k in range(1, dim + 1))
    return PhanSpec(Flag(tuple(subs)), forms)


@pytest.mark.milestone
def test_milestone_two_chamber_f9_4(tmp_path):
    """Two-chamber F_9^4, the first in-bound m = 2 family at n = 3:
    2^2·(1+1) = 8 < 9.  Pinned values come from outside phangeo: the
    f-vector recounted from the facet export, b~ = (0, 0, 244,935) from the
    rank method of ``bench/reference.py`` on that export, and the number of
    simplices cm-check visits, 1 + sum of f (the empty simplex and every
    face)."""
    f9 = make_field(3, 2, 1)
    path = tmp_path / "two_chamber_q9_dim4.json"
    dump_family(PhanFamily((chamber_spec(f9, 4), _reversed_chamber_spec(f9, 4))), str(path))
    docs = {}
    for command in ("build", "homology", "cm-check", "filtration-verify"):
        out = tmp_path / f"{command}.json"
        assert main([command, "--spec", str(path), "--out", str(out)]) == 0
        docs[command] = json.loads(out.read_text())
    bound = docs["build"]["bound"]
    assert bound["satisfied"] and (bound["lhs"], bound["q"], bound["m"]) == (8, 9, 2)
    header, *lines = docs["build"]["facet_export"].splitlines()
    faces = [set(), set(), set()]
    for line in lines:
        f = tuple(map(int, line.split()))
        for j, listed in enumerate(faces[:len(f)]):
            listed.update(combinations(f, j + 1))
    f_vector = [len(listed) for listed in faces]
    assert int(header) == f_vector[0]
    assert f_vector == [7056, 140_040, 377_920]
    for command in ("homology", "cm-check", "filtration-verify"):
        assert docs[command]["verdict"] == "pass" and not docs[command]["bound"]["forced"]
    for command in ("homology", "cm-check"):
        assert docs[command]["geometry"]["simplex_counts"] == f_vector
    assert docs["homology"]["homology"]["betti"] == [0, 0, 244_935]
    cm = docs["cm-check"]["cm"]
    assert cm["passed"] and not cm["failures"] and cm["simplices_checked"] == 1 + sum(f_vector)
    rep = docs["filtration-verify"]["filtration"]
    assert rep["level_sizes"][-1] == 7056
    assert rep["predicted_sphere_count"] == rep["direct_sphere_count"] == 244_935


def test_bounds_table(tmp_path, capsys):
    out = tmp_path / "t.json"
    assert main(["bounds-table", "--max-n", "3", "--max-q", "25", "--max-m", "1",
                 "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    def row(n, q, m, so):
        return next(r for r in rows if (r["n"], r["q"], r["m"], r["sigma_order"]) == (n, q, m, so))
    assert row(1, 5, 1, 1)["satisfied"] is True      # 2 < 5
    r = row(3, 4, 1, 2)
    assert r["satisfied"] is False and r["lhs"] == 12  # 2^2*3 = 12 < 4 fails
    r = row(3, 25, 1, 2)
    assert r["satisfied"] is True and r["lhs"] == 24   # 4*6 = 24 < 25
    assert all(r2["sigma_order"] == 1 or round(r2["q"] ** 0.5) ** 2 == r2["q"] for r2 in rows)
    # only orders of fields, and sigma of order 2 only for even exponents
    assert main(["bounds-table", "--max-n", "1", "--max-q", "40", "--max-m", "1",
                 "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert [r["q"] for r in rows if r["sigma_order"] == 1] == [
        2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37]
    assert [r["q"] for r in rows if r["sigma_order"] == 2] == [4, 9, 16, 25]
    printed = capsys.readouterr().out
    assert not any(f"< q = {q}\n" in printed for q in (6, 10, 12, 36))


def test_lemma_tests_command(tmp_path):
    out = tmp_path / "l.json"
    rc = main(["lemma-tests", "--seed", "7", "--count", "6", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert {s["name"] for s in doc["suites"]} == {
        "extension_lemma", "projection_lemma", "residue_lemma", "delta_lemma"
    }
    assert all(s["passed"] for s in doc["suites"])


# the process-wide caches of the package, as module.name
CACHES = ("field.make_field", "linalg._ambient", "residues._pivot_frame")
FAMILY2 = str(SPECS / "family2_q11_dim3.json")
# argv, exit code, and the entries each cache above holds after the command
# from cleared caches: fields, ambient records and pivot frames
CACHE_TRAFFIC = [
    (["build", "--spec", FAMILY2], 0, (1, 1, 0)),
    (["homology", "--spec", FAMILY2], 0, (1, 1, 0)),
    (["cm-check", "--spec", FAMILY2], 0, (1, 1, 0)),
    (["filtration-verify", "--spec", FAMILY2], 0, (1, 1, 2)),
    (["homology", "--spec", str(SPECS / "t0_q4_dim3.json")], 2, (1, 0, 0)),
    (["bounds-table"], 0, (0, 0, 0)),
    (["lemma-tests", "--seed", "7", "--count", "100"], 0, (4, 11, 20)),
]


def test_each_command_reads_one_ambient(tmp_path):
    """Every residue and restricted family lives in the spec's ambient, so
    each certificate command on family2_q11_dim3 leaves one field and one
    ambient record, and ``filtration-verify`` one pivot frame per spec
    (m = 2).  A spec refused at the bound is refused before its flag is
    validated by point masks, so it leaves its field and no ambient record;
    ``bounds-table`` leaves nothing.  Every entry is one miss and
    every bounded cache has room to spare, ``lemma-tests --seed 7 --count
    100`` included, so that none is evicted and rebuilt."""
    caches = [getattr(importlib.import_module(f"phangeo.{module}"), name)
              for module, name in (cache.split(".") for cache in CACHES)]
    for argv, code, entries in CACHE_TRAFFIC:
        for cache in caches:
            cache.cache_clear()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                assert main(argv + ["--out", str(tmp_path / "r.json")]) == code, argv
            except SystemExit as exc:
                assert exc.code == code, argv
        infos = [cache.cache_info() for cache in caches]
        assert [(i.currsize, i.misses) for i in infos] == [(n, n) for n in entries], argv
        assert all(i.maxsize is None or i.currsize < i.maxsize for i in infos), argv


def _is_functools_cache(decorator: ast.expr) -> bool:
    """``lru_cache`` or ``cache``, called or not, by name or as an attribute."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    name = decorator.attr if isinstance(decorator, ast.Attribute) else getattr(decorator, "id", "")
    return name in ("lru_cache", "cache")


def test_every_process_wide_cache_has_pinned_traffic():
    """The ``functools`` caches of the package are exactly those whose
    entries ``test_each_command_reads_one_ambient`` pins per command, so a
    new one fails here until its traffic is pinned too."""
    package = Path(__file__).resolve().parent.parent / "src" / "phangeo"
    found = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and any(map(_is_functools_cache, node.decorator_list))):
                found.add(f"{path.stem}.{node.name}")
    pinned = set(CACHES)
    assert found == pinned, f"unpinned: {sorted(found - pinned)}, gone: {sorted(pinned - found)}"


def test_malformed_spec_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(SystemExit) as exc:
        main(["build", "--spec", str(bad)])
    assert exc.value.code == 2
    assert "line" in capsys.readouterr().err


def test_console_script_entry_point(spec_q5, tmp_path):
    out = tmp_path / "r.json"
    proc = subprocess.run(
        [sys.executable, "-m", "phangeo.cli", "homology", "--spec", spec_q5,
         "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "verdict=pass" in proc.stdout


def test_subcommands_register_only_their_flags(tmp_path, spec_q5, capsys):
    for argv in (["build", "--spec", spec_q5, "--force"],
                 ["filtration-verify", "--spec", spec_q5, "--pi1"],
                 ["homology", "--spec", spec_q5, "--pi1"],
                 ["cm-check", "--spec", spec_q5, "--pi1"],
                 ["cm-check", "--spec", spec_q5, "--threads", "2"],
                 ["homology", "--spec", spec_q5, "--seed", "1"],
                 ["bounds-table", "--force"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_help_lists_every_command_and_option(capsys):
    """``phangeo -h`` and ``phangeo COMMAND --help`` exit 0, and between
    them list every command and every option, each beside its help text
    from the tables."""
    from phangeo.cli import COMMANDS, OPTIONS

    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    for command, (text, _) in COMMANDS.items():
        assert any(line.split() == [command, *text.split()] for line in lines), command
    listed = set()
    for command, (_, takes) in COMMANDS.items():
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        lines = capsys.readouterr().out.splitlines()
        for opt in takes:
            assert any(line.split()[:1] == [opt] and OPTIONS[opt][2] in line
                       for line in lines), (command, opt)
        listed.update(takes)
    assert listed == set(OPTIONS)


def test_option_values_may_follow_an_equals_sign(tmp_path):
    """``--opt=value`` reads as ``--opt value``."""
    spaced, joined = tmp_path / "spaced.json", tmp_path / "joined.json"
    assert main(["bounds-table", "--max-n", "2", "--max-q", "9", "--max-m", "1",
                 "--out", str(spaced)]) == 0
    assert main(["bounds-table", "--max-n=2", "--max-q=9", "--max-m=1",
                 f"--out={joined}"]) == 0
    assert joined.read_bytes() == spaced.read_bytes()


def test_broken_pipe_is_not_an_input_error():
    proc = subprocess.Popen(
        [sys.executable, "-m", "phangeo.cli", "bounds-table", "--max-n", "8",
         "--max-q", "400", "--max-m", "4"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()  # the reader goes away long before the output ends
    err = proc.stderr.read().decode()
    assert proc.wait() == EXIT_BROKEN_PIPE
    assert "Traceback" not in err and "Exception ignored" not in err


STDLIB = ("dataclasses", "inspect", "argparse", "gettext", "locale")
ENGINES = ("phangeo.residues", "phangeo.morse")


@pytest.mark.parametrize("command, unloaded, loaded", [
    (None, ("phangeo.homology", "phangeo.filtration", "phangeo.suites") + STDLIB, ()),
    ("build", ("phangeo.homology", "phangeo.filtration", "phangeo.suites") + ENGINES + STDLIB,
     ()),
    ("homology", ("phangeo.filtration", "phangeo.suites") + ENGINES + STDLIB,
     ("phangeo.homology",)),
    ("cm-check", ("phangeo.filtration", "phangeo.suites") + ENGINES + STDLIB,
     ("phangeo.homology",)),
    ("filtration-verify", ("phangeo.suites",) + STDLIB, ("phangeo.filtration",) + ENGINES),
], ids=["import", "build", "homology", "cm-check", "filtration-verify"])
def test_cli_loads_only_the_layers_a_command_runs(tmp_path, command, unloaded, loaded):
    """Every command is a fresh process, so it pays for each module it
    imports: importing the CLI loads no layer beyond geometry and complexes,
    build runs neither homology nor filtration, homology and cm-check no
    filtration, and on the 1-dimensional t0_q5_dim3 neither the residues
    nor the Morse/Smith engine; filtration-verify loads both, but not the
    lemma suites.  No command needs dataclasses or argparse (with gettext
    and locale)."""
    script = "import sys, phangeo.cli\n"
    if command is not None:
        argv = [command, "--spec", str(SPECS / "t0_q5_dim3.json"),
                "--out", str(tmp_path / "r.json")]
        script += f"assert phangeo.cli.main({argv!r}) == 0\n"
    script += f"print(sorted(set({unloaded!r}) & set(sys.modules)))\n"
    script += f"print(sorted(set({loaded!r}) - set(sys.modules)))\n"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["[]", "[]"]


def _edited_spec(entry, value):
    """t0_q5_dim3 with its characteristic p or one Gram coefficient replaced
    by value."""
    doc = json.loads((SPECS / "t0_q5_dim3.json").read_text())
    if entry == "p":
        doc["field"]["p"] = value
    else:
        doc["specs"][0]["forms"][0][0][0] = [value]
    return doc


def _alternating_plane_spec():
    """F_2^2 with t = 0 and Gram [[0, 1], [1, 0]]: an alternating form, so
    every vector is isotropic."""
    return {"ambient_dim": 2, "field": {"p": 2, "e": 1, "sigma_order": 1},
            "specs": [{"flag": [[], [[[1], [0]], [[0], [1]]]],
                       "forms": [[[[0], [1]], [[1], [0]]]]}]}


def test_parse_family_checks_for_nonisotropic_vectors():
    """Every form of a geometry file must admit a non-isotropic vector, and
    the parser is what says so, after a spec's flag and radical checks and
    before the next spec's."""
    alternating = _alternating_plane_spec()
    with pytest.raises(SpecFileError, match=r"^specs\[0\]: omega_0 admits no non-isotropic vector$"):
        parse_family(alternating)
    radical_fails = json.loads(json.dumps(alternating["specs"][0]))
    radical_fails["forms"] = [[[[0], [0]], [[0], [0]]]]
    with pytest.raises(SpecFileError, match=r"^specs\[0\]: Rad\(omega_0\) != V_0"):
        parse_family({**alternating, "specs": [radical_fails, alternating["specs"][0]]})
    with pytest.raises(SpecFileError, match=r"^specs\[0\]: omega_0 admits no"):
        parse_family({**alternating, "specs": [alternating["specs"][0], radical_fails]})


@pytest.mark.parametrize("argv, message", [
    (["build", "--spec", _edited_spec("coefficient", "1")], "coefficients must be integers"),
    (["build", "--spec", _edited_spec("coefficient", 1.5)], "coefficients must be integers"),
    (["build", "--spec", _edited_spec("coefficient", None)], "coefficients must be integers"),
    (["build", "--spec", _edited_spec("coefficient", True)], "coefficients must be integers"),
    (["build", "--spec", _edited_spec("p", 5.7)], "field.p: expected an integer, got 5.7"),
    (["build", "--spec", _edited_spec("p", True)], "field.p: expected an integer, got True"),
    (["build", "--spec", str(SPECS / "t0_q5_dim3.json"),
      "--out", "/nonexistent-directory/r.json"], "cannot write report"),
    (["build", "--spec", str(SPECS / "t0_q5_dim3.json"), "--out="], "the --out path is empty"),
    (["build", "--spec", str(SPECS / "t0_q5_dim3.json"), "--out", ""],
     "the --out path is empty"),
    (["build", "--spec", str(SPECS)], "cannot read spec file"),
    (["homology", "--spec", str(SPECS / "t0_q5_dim3.json"), "--target-dim", "-1"],
     "--target-dim must be >= 0"),
    (["homology", "--spec", str(SPECS / "t0_q5_dim3.json"), "--target-dim", "0"],
     "below the dimension 1"),
    (["filtration-verify", "--negative-control", "--spec",
      family_to_dict(PhanFamily((diagonal_spec(make_field(7, 1), (1, 1)),)))],
     "every point is non-degenerate for every top form"),
    (["build", "--spec", _alternating_plane_spec()],
     "specs[0]: omega_0 admits no non-isotropic vector"),
    (["build", "--spec", b"\xff\xfe\xfa"], "not UTF-8, UTF-16 or UTF-32 text"),
    (["lemma-tests", "--count", "0"], "--count must be >= 1, got 0"),
    (["lemma-tests", "--count", "-3"], "--count must be >= 1, got -3"),
    (["bounds-table", "--max-q", "1"], "--max-q must be >= 2, got 1"),
    (["bounds-table", "--max-n", "0"], "--max-n must be >= 1, got 0"),
    (["bounds-table", "--max-m", "0"], "--max-m must be >= 1, got 0"),
    (["bounds-table", "--max-n", "-2"], "--max-n must be >= 1, got -2"),
    (["build", "--spec", str(SPECS / "t0_q5_dim3.json"), "--force"],
     "unrecognized arguments: --force"),
    (["filtration-verify", "--spec", str(SPECS / "t0_q5_dim3.json"), "--neg"],
     "unrecognized arguments: --neg"),
    (["build"], "the following arguments are required: --spec"),
    (["homology", "--spec", str(SPECS / "t0_q5_dim3.json"), "--target-dim", "x"],
     "argument --target-dim: invalid int value: 'x'"),
    (["build", "--spec", str(SPECS / "t0_q5_dim3.json"), "--out"],
     "argument --out: expected one argument"),
    (["certify", "--spec", str(SPECS / "t0_q5_dim3.json")],
     "argument command: invalid choice: 'certify'"),
    ([], "the following arguments are required: command"),
], ids=["string-coefficient", "float-coefficient", "null-coefficient",
        "bool-coefficient", "float-characteristic", "bool-characteristic",
        "out-into-missing-directory", "empty-out", "empty-out-value", "spec-is-a-directory",
        "negative-target-dim",
        "target-dim-below-complex-dim", "negative-control-without-isotropic-point",
        "form-without-nonisotropic-vector", "spec-not-unicode-text", "zero-count",
        "negative-count", "bounds-table-no-q", "bounds-table-no-n", "bounds-table-no-m",
        "bounds-table-negative-n", "unrecognized-argument", "abbreviated-option", "missing-spec",
        "invalid-int", "option-without-value", "unknown-command", "no-command"])
def test_bad_input_exits_2_with_one_error_line(argv, message, capsys, tmp_path):
    """Bad input is exit 2 with one error line, never a traceback and exit
    1, which would read as a failing verdict; an argument error too, in
    argparse's words, and an option is never matched by a prefix.  A spec
    document or the raw bytes of a spec file in argv are written to a file
    first."""
    argv = list(argv)
    for i, arg in enumerate(argv):
        if isinstance(arg, (dict, bytes)):
            argv[i] = str(tmp_path / "spec.json")
            (tmp_path / "spec.json").write_bytes(
                arg if isinstance(arg, bytes) else json.dumps(arg).encode())
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
    assert captured.out == ""


def test_bound_refusal_builds_no_subspace_table(monkeypatch, capsys):
    """The bound is gated on the decoded spec file, before its flag and
    forms are validated by point masks, so a spec refused at the bound
    builds no ambient record, let alone a subspace table: with building a
    record made to raise, ``homology`` on t0_q4_dim3 without --force still
    exits 2 with the bound message.  The ambient records are dropped first,
    so that any lookup would build one afresh."""
    from phangeo import linalg

    def refused(*args):
        raise AssertionError("an ambient record was built")

    linalg._ambient.cache_clear()
    monkeypatch.setattr(linalg._Ambient, "__init__", refused)
    with pytest.raises(SystemExit) as exc:
        main(["homology", "--spec", str(SPECS / "t0_q4_dim3.json")])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(
        "error: sufficient bound violated: 2^2*1 = 4 < q = 4 is false")


def _identity_spec_doc(p, e, sigma_order, ambient):
    """The t = 0 spec on F_q^ambient with the identity Gram matrix, written
    as a document: building it as a spec would build its ambient's point
    masks."""
    one, zero = [1] + [0] * (e - 1), [0] * e
    eye = [[one if i == j else zero for j in range(ambient)] for i in range(ambient)]
    return {"field": {"p": p, "e": e, "sigma_order": sigma_order}, "ambient_dim": ambient,
            "specs": [{"flag": [[], eye], "forms": [eye]}]}


# starts the CLI with the arguments it is given, under 1 GB of address space
# and 20 s of CPU, so that a spec that builds its masks fails fast, and
# prints its exit code, wall seconds and peak RSS in KiB; run as a fresh
# process, since a child's ru_maxrss counts its parent's RSS at the spawn
LEAN_LAUNCHER = """\
import os, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
resource.setrlimit(resource.RLIMIT_CPU, (20, 20))
t0 = time.perf_counter()
pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "phangeo.cli", *sys.argv[1:]],
                     os.environ)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), time.perf_counter() - t0, usage.ru_maxrss)
"""


@pytest.mark.parametrize("p, e, sigma_order", [(2, 4, 1), (5, 2, 2)],
                         ids=["F16^5", "hermitian F25^5"])
def test_refused_large_spec_exits_at_once(p, e, sigma_order, tmp_path):
    """Out of bound, F_16^5 (2^4*1 = 16 < 16 is false) and hermitian F_25^5
    (2^3*(sqrt(q)+1) = 48 < 25 is false) are refused before anything is
    built: ``homology`` exits 2 with the one bound line within 1 s and
    100 MB, where their hyperplane masks alone would take 0.61 GB and
    20.7 GB."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_identity_spec_doc(p, e, sigma_order, 5)))
    proc = subprocess.run([sys.executable, "-c", LEAN_LAUNCHER, "homology", "--spec", str(path)],
                          capture_output=True, text=True, timeout=300)
    code, seconds, peak_kib = proc.stdout.split()
    err = proc.stderr.splitlines()
    assert int(code) == 2, proc.stderr[-2000:]
    assert len(err) == 1 and err[0].startswith("error: sufficient bound violated")
    assert float(seconds) < 1 and int(peak_kib) < 100 * 1024


def test_report_path_that_is_a_directory_exits_2(tmp_path, capsys, monkeypatch):
    """A report path that is a directory is an input error, refused before
    the geometry is built."""
    import phangeo.cli

    def refused(*args):
        raise AssertionError("vertices reached")

    monkeypatch.setattr(phangeo.cli, "vertices", refused)
    with pytest.raises(SystemExit) as exc:
        main(["build", "--spec", str(SPECS / "t0_q5_dim3.json"), "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("error: cannot write report")
