import gc
import random
import weakref
from pathlib import Path
from types import SimpleNamespace

import pytest

from phangeo import filtration, residues
from phangeo.field import make_field
from phangeo.filtration import (
    FiltrationState,
    PivotNotFoundError,
    build_filtration,
    choose_pivot,
    find_degenerate_pivot,
    run_verification,
    verify_stage,
    verify_y0_contractible,
)
from phangeo.homology import reduced_homology
from phangeo.linalg import Subspace
from phangeo.phan import PhanFamily, vertices
from phangeo.simplicial import (
    induced_subcomplex,
    intersect_complexes,
    order_complex,
    star_closure,
)
from phangeo.specfile import load_family
from phangeo.suites import chamber_spec, diagonal_spec, random_phan_spec, standard_spec

from conftest import FacetComplex, facet_cut, facet_intersection, facet_star, oracle_below_above

F3 = make_field(3, 1)
F5 = make_field(5, 1)
F9 = make_field(3, 2, 2)
SPECS = Path(__file__).resolve().parent.parent / "specs"
BUNDLED_N2 = ["chamber_q3_dim3", "family2_q11_dim3", "family2_q7_dim2", "t0_q4_dim3",
              "t0_q4h_dim2", "t0_q5_dim3", "t0_q9h_dim3"]


def test_choose_pivot_first_hit():
    fam = PhanFamily((diagonal_spec(F5, (1, 1)),))
    assert choose_pivot(fam) == Subspace.span(F5, 2, [(1, 0)])
    fam3 = PhanFamily((standard_spec(F5, 3),))
    assert choose_pivot(fam3) == Subspace.span(F5, 3, [(1, 0, 0)])


def test_pivot_exists_in_bound():
    # 2^2 = 4 < 5 and 2*(3+1) = 8 < 9
    assert choose_pivot(PhanFamily((standard_spec(F5, 3),))) is not None
    assert choose_pivot(PhanFamily((standard_spec(F9, 3),))) is not None


def test_degenerate_pivot_search():
    fam = PhanFamily((standard_spec(F5, 3),))
    p = find_degenerate_pivot(fam)
    w = fam.specs[0].forms[-1]
    assert w.evaluate(p.basis[0], p.basis[0]) == 0
    # anisotropic plane over F_7: no isotropic point exists
    f7 = make_field(7, 1)
    with pytest.raises(PivotNotFoundError):
        find_degenerate_pivot(PhanFamily((diagonal_spec(f7, (1, 1)),)))


def test_filtration_level_structure():
    fam = PhanFamily((standard_spec(F5, 3),))
    p = choose_pivot(fam)
    state = build_filtration(fam, p)
    gamma = set(vertices(fam).members)
    levels = [set(l) for l in state.levels]
    # Y_0 subseteq Y_1 subseteq Y_2 = Gamma
    assert levels[0] <= levels[1] <= levels[2] == gamma
    # Y_0 contains every member through p
    for u in gamma:
        if u.contains_subspace(p):
            assert u in levels[0]
    # new vertices at stage i all have dimension n+1-i
    for i in (1, 2):
        assert {u.dim for u in levels[i] - levels[i - 1]} <= {3 - i}
    # Y_1 = Y_0 plus all member planes
    assert levels[1] == levels[0] | {u for u in gamma if u.dim == 2}
    # Y_0 is exactly {W : <p, W> in Gamma}
    expected_y0 = {w for w in gamma if w.sum(p).dim < 3 and fam.is_member(w.sum(p))}
    assert levels[0] == expected_y0


def test_y0_contractible_checks():
    fam = PhanFamily((standard_spec(F5, 3),))
    state = build_filtration(fam, choose_pivot(fam))
    checks = verify_y0_contractible(state)
    assert all(c.passed for c in checks)
    names = {c.name for c in checks}
    assert {"y0_acyclic", "pivot_in_y0", "join_map_into_y0"} <= names


def test_vacuous_stage_passes():
    fam = PhanFamily((standard_spec(F5, 3),))
    state = build_filtration(fam, choose_pivot(fam))
    frozen = FiltrationState(fam, state.pivot, state.geometry,
                             (state.levels[2], state.levels[2], state.levels[2]))
    rep = verify_stage(frozen, 1)
    assert rep.passed and rep.new_vertex_count == 0
    assert rep.checks[0].name == "vacuous_stage"


def test_stage_reports_all_checks_present():
    fam = PhanFamily((standard_spec(F5, 3),))
    state = build_filtration(fam, choose_pivot(fam))
    rep = verify_stage(state, 1)
    names = [c.name for c in rep.checks]
    assert names == [
        "pairwise_star_intersections_in_B",
        "stars_are_cones",
        "star_boundary_join_decomposition",
        "star_boundary_sphericity",
        "above_sets_equal_gamma_above",
        "below_sets_equal_y0_below",
        "below_sets_match_restricted_family",
        "mayer_vietoris_rank_balance",
    ]
    assert rep.passed


def _pairwise_meet_leaves_b(state, i):
    """Check (a) as the pairwise sweep: whether the stars of two new vertices
    share a simplex with a vertex outside Y_(i-1), stars and meets cut from
    the facets of |Y_i|."""
    prev = set(state.levels[i - 1])
    k = order_complex(state.levels[i])
    k = FacetComplex(k.vertices, k.facets)
    new = [j for j, u in enumerate(k.vertices) if u not in prev]
    stars = [facet_star(k, j) for j in new]
    for a in range(len(stars)):
        for b in range(a + 1, len(stars)):
            meet = facet_intersection(stars[a], stars[b])
            if any(meet.vertices[v] not in prev for f in meet.facets for v in f):
                return True
    return False


def test_star_vertex_test_agrees_with_pairwise_meet():
    """A hand-built stage 1 that adds a member line L and a member plane
    P ⊃ L, both outside Y_0: the edge {L, P} lies in both stars and not in
    B, so check (a) fails with a witness naming both, as the pairwise meet
    of the stars confirms.  On the real stages both pass."""
    fam = PhanFamily((standard_spec(F5, 3),))
    state = build_filtration(fam, choose_pivot(fam))
    for i in (1, 2):
        assert verify_stage(state, i).checks[0].passed
        assert not _pairwise_meet_leaves_b(state, i)
    y0 = set(state.levels[0])
    outside = [u for u in state.geometry.members if u not in y0]
    line, plane = next((ln, pl) for pl in outside if pl.dim == 2
                       for ln in outside if ln.dim == 1 and pl.contains_subspace(ln))
    stage1 = tuple(sorted(y0 | {line, plane}, key=Subspace.sort_key))
    hand = FiltrationState(fam, state.pivot, state.geometry,
                           (state.levels[0], stage1, state.levels[2]))
    check = verify_stage(hand, 1).checks[0]
    assert check.name == "pairwise_star_intersections_in_B" and not check.passed
    assert str(line.basis) in check.witness and str(plane.basis) in check.witness
    assert _pairwise_meet_leaves_b(hand, 1)


def test_full_verification_small_instance():
    rep = run_verification(PhanFamily((diagonal_spec(F5, (1, 1)),)))
    assert rep.passed
    # dimension-2 case: wedge of 0-spheres, count = vertices - 1 = 3
    assert rep.predicted_spheres == rep.direct_spheres == 3


def test_negative_control_fails_with_witness():
    rep = run_verification(PhanFamily((standard_spec(F5, 3),)), negative_control=True)
    assert not rep.passed
    witnesses = [c.witness for s in rep.stages for c in s.checks if not c.passed]
    witnesses += [c.witness for c in rep.y0 if not c.passed]
    assert witnesses and any(w for w in witnesses)
    # the last stage adds the points, which have no member below them: the
    # empty residue waives the restricted-family comparison, although
    # delta_restriction refuses the degenerate pivot before it looks
    last = {c.name: c.passed for c in rep.stages[-1].checks}
    assert rep.stages[-1].new_vertex_count and last["below_sets_match_restricted_family"]


def test_verification_matches_direct_homology_chamber():
    rep = run_verification(PhanFamily((chamber_spec(F3, 3),)))
    assert rep.passed
    assert rep.predicted_spheres == rep.direct_spheres == 10


def test_stage_index_validation():
    fam = PhanFamily((standard_spec(F5, 3),))
    state = build_filtration(fam, choose_pivot(fam))
    with pytest.raises(ValueError):
        verify_stage(state, 0)
    with pytest.raises(ValueError):
        verify_stage(state, 5)


def test_verification_reduces_each_complex_once(homology_calls):
    family, _ = load_family(str(SPECS / "t0_q5_dim3.json"))
    assert run_verification(family).passed
    assert homology_calls and set(homology_calls.values()) == {1}


def test_f3_4_stage_set_checks():
    """n = 3, where the below and above sets of a new plane hold lines as
    well as points.  F_3^4 lies outside the bound (2^3 > 3): the set
    identities and the restricted-family comparison hold at every stage,
    while sphericity at stage 1 and the rank balance at stage 3 fail."""
    rep = run_verification(PhanFamily((standard_spec(F3, 4),)))
    assert rep.level_sizes == [91, 106, 130, 138]
    assert [s.boundary_rank_sum for s in rep.stages] == [25, 0, 56]
    assert (rep.predicted_spheres, rep.direct_spheres) == (81, 69)
    failed = {(s.stage, c.name) for s in rep.stages for c in s.checks if not c.passed}
    assert failed == {(1, "star_boundary_sphericity"), (3, "mayer_vietoris_rank_balance")}


@pytest.mark.parametrize("name", BUNDLED_N2 + ["standard_q3_dim4"])
def test_star_restriction_equals_intersection_with_b(name):
    """Check (c) reads A_j ∩ B as the join |Y_(i-1)^<U * Y_(i-1)^>U|, the
    full subcomplex of |Y_n| on U's below and above sets in Y_(i-1).  The
    star of U_j in |Y_i| cut down to the vertices of Y_(i-1) and the
    intersection of the star with |Y_(i-1)|, both from the facets, are the
    oracles, and ``intersect_complexes`` of the graph's star with |Y_(i-1)|
    agrees.  Vertex order and facets must agree, so the homology reports
    do too."""
    if name == "standard_q3_dim4":
        family = PhanFamily((standard_spec(F3, 4),))
    else:
        family, _ = load_family(str(SPECS / f"{name}.json"))
    state = build_filtration(family, choose_pivot(family))
    top = state.graph[0]
    nonempty = 0
    for i in range(1, state.n + 1):
        prev = set(state.levels[i - 1])
        k = order_complex(state.levels[i])
        b = order_complex(state.levels[i - 1])
        facets_k, facets_b = FacetComplex(k.vertices, k.facets), FacetComplex(b.vertices, b.facets)
        for j, u in enumerate(k.vertices):
            if u in prev:
                continue
            below, above = state.around(u, i - 1)
            join = induced_subcomplex(top, below + above)
            star = facet_star(facets_k, j)
            cut = facet_cut(star, prev)
            meet = facet_intersection(star, facets_b)
            graph_meet = intersect_complexes(star_closure(k, j), b)
            assert (join.vertices, tuple(join.facets)) == (cut.vertices, cut.facets) \
                == (meet.vertices, meet.facets) \
                == (graph_meet.vertices, tuple(graph_meet.facets))
            nonempty += not join.is_empty()
    assert nonempty or state.n == 1  # for n = 1, A_j ∩ B is the empty (-1)-sphere


def test_join_witness_names_the_first_failing_vertex(monkeypatch):
    """Check (c) compares Γ^>U, read from the graph, with the residues above
    U lifted by X ↦ X + U.  With the first member dropped from the residue
    above the second and third new vertices, the check fails and its
    witness names the second, the first that fails, and the lifted member
    dropped; the join itself, cut from |Y_n|, is still spherical."""
    fam = PhanFamily((standard_spec(F5, 3),))
    state = build_filtration(fam, choose_pivot(fam))
    stage = 2
    prev = set(state.levels[stage - 1])
    new = [u for u in state.levels[stage] if u not in prev]
    assert len(new) >= 3
    real = residues.residue_above
    dropped = {}

    def short(spec, u):
        residue = real(spec, u)
        if u not in new[1:3]:
            return residue
        first, *rest = residue.members()
        dropped[u] = first.sum(u)
        return SimpleNamespace(members=lambda: rest)

    monkeypatch.setattr(residues, "residue_above", short)
    checks = {c.name: c for c in verify_stage(state, stage).checks}
    join = checks["star_boundary_join_decomposition"]
    assert not join.passed
    assert join.witness == f"U = {new[1].basis}: above sets differ at {[dropped[new[1]].basis]}"
    assert checks["star_boundary_sphericity"].passed
    assert list(dropped) == [new[1]]  # the check stops at its first failing vertex


def test_stage_keeps_nothing_it_built(monkeypatch):
    """After ``verify_stage`` returns, no complex the stage built is still
    reachable: each join A_j ∩ B, tracked by a weak reference as
    ``induced_subcomplex`` hands it to the filtration, is gone.  A stage
    builds one join per new vertex and nothing else: on F_3^4, 15, 24 and
    8.  |Y_n| is the state's own, the same object on every call."""
    family = PhanFamily((standard_spec(F3, 4),))
    state = build_filtration(family, choose_pivot(family))
    top = state.graph[0]
    assert state.homology and state.graph[0] is top
    built = []
    real = filtration.induced_subcomplex

    def tracking(*args):
        k = real(*args)
        built.append(weakref.ref(k))
        return k

    monkeypatch.setattr(filtration, "induced_subcomplex", tracking)
    counts = []
    for i in range(1, state.n + 1):
        built.clear()
        verify_stage(state, i)
        gc.collect()
        counts.append(len(built))
        assert [ref for ref in built if ref() is not None] == []
    assert counts == [15, 24, 8]
    assert state.graph[0] is top


def test_cone_check_names_the_first_star_that_is_not_the_cone_over_its_link():
    """Check (b) compares the neighbours that the graph lists for each new
    vertex U with the point masks, which must find each one comparable with
    U: with the pivot point, a member of Y_0, put into the successor row of
    the first new point, the check fails, naming that point and the pivot;
    check (a) still passes, since the pivot lies in B."""
    fam = PhanFamily((standard_spec(F5, 3),))
    state = build_filtration(fam, choose_pivot(fam))
    stage = 2
    prev = set(state.levels[stage - 1])
    first = next(u for u in state.levels[stage] if u not in prev)
    top = state.graph[0]
    assert state.homology and top.pred  # built from the rows before the corruption
    x, p = top.vertex_index[first], top.vertex_index[state.pivot]
    assert first.dim == state.pivot.dim == 1 and p not in top.succ[x]
    top.succ[x] = sorted(top.succ[x] + [p])  # the state is this test's own
    checks = {c.name: c for c in verify_stage(state, stage).checks}
    cones = checks["stars_are_cones"]
    assert not cones.passed
    assert cones.witness == (f"U = {first.basis}: star vertex {state.pivot.basis} "
                             "is not comparable with U")
    assert checks["pairwise_star_intersections_in_B"].passed


def test_programming_error_in_restricted_family_is_raised(monkeypatch):
    """Only the construction's own errors become a witness; the negative
    control keeps its degenerate-pivot witness, and a TypeError escapes."""
    family, _ = load_family(str(SPECS / "t0_q5_dim3.json"))
    rep = run_verification(family, negative_control=True)
    witnesses = [c.witness for s in rep.stages for c in s.checks
                 if c.name == "below_sets_match_restricted_family" and not c.passed]
    assert witnesses == ["U = ((0, 1, 0), (0, 0, 1)): delta_restriction failed: "
                         "pivot is degenerate for the top form of spec 0"]

    def broken(*args, **kwargs):
        raise TypeError("broken restricted family")

    monkeypatch.setattr(filtration, "delta_restriction", broken)
    with pytest.raises(TypeError, match="broken restricted family"):
        run_verification(family)


@pytest.mark.parametrize("side", ["above", "below"])
def test_set_checks_name_a_member_dropped_from_the_previous_level(side):
    """Check (d) reads the below and above sets in Y_(i-1) from an index of
    Y_(i-1) alone.  With one member W dropped from Y_1 of F_3^4 and Γ and
    Y_0 left whole, the comparison with Γ (W a hyperplane above a new
    plane) or with Y_0 (W a member of Y_0 below one) fails and names W."""
    family = PhanFamily((standard_spec(F3, 4),))
    state = build_filtration(family, choose_pivot(family))
    stage = 2
    y0, prev = set(state.levels[0]), state.levels[stage - 1]
    new = [u for u in state.levels[stage] if u not in set(prev)]
    if side == "above":
        dropped = next(w for w in prev if w not in y0 and any(
            w.dim > u.dim and w.contains_subspace(u) for u in new))
    else:
        dropped = next(w for w in prev if w in y0 and any(
            w.dim < u.dim and u.contains_subspace(w) for u in new))
    levels = list(state.levels)
    levels[stage - 1] = tuple(w for w in prev if w != dropped)
    cut = FiltrationState(family, state.pivot, state.geometry, tuple(levels))
    checks = {c.name: c for c in verify_stage(cut, stage).checks}
    name = {"above": "above_sets_equal_gamma_above", "below": "below_sets_equal_y0_below"}[side]
    assert not checks[name].passed and str(dropped.basis) in checks[name].witness
    assert {c.name for c in verify_stage(state, stage).checks if not c.passed} == set()


def _family(name):
    if name == "standard_q3_dim4":
        return PhanFamily((standard_spec(F3, 4),))
    if name == "random_q3_dim4":  # t = 0 with a seeded random form
        return PhanFamily((random_phan_spec(random.Random(2), F3, 4, 0),))
    return load_family(str(SPECS / f"{name}.json"))[0]


@pytest.mark.parametrize("name", sorted(p.stem for p in SPECS.glob("*.json"))
                         + ["standard_q3_dim4", "random_q3_dim4"])
def test_level_homology_matches_each_level_complex(name, homology_calls):
    """The homology of every level, read from one filtered reduction of
    |Y_n|, equals ``reduced_homology`` of the order complex of that level
    (the oracle), for the canonical pivot and for the negative control's
    isotropic one, whose Y_0 may be empty or have homology.  No level but
    |Y_n| is reduced by the state."""
    family = _family(name)
    pivots = [choose_pivot(family)]
    try:
        pivots.append(find_degenerate_pivot(family))
    except PivotNotFoundError:
        pass
    for pivot in pivots:
        state = build_filtration(family, pivot)
        reports = state.homology
        assert list(homology_calls.values()) == [1]
        assert next(iter(homology_calls)).vertices == state.graph[0].vertices
        homology_calls.clear()
        for level, rep in zip(state.levels, reports):
            assert rep[:4] == reduced_homology(order_complex(level))[:4]


GRAPH_SPECS = sorted(p.stem for p in SPECS.glob("*.json")) + ["standard_q3_dim4"]


@pytest.mark.parametrize("name", GRAPH_SPECS)
def test_stage_sets_match_the_containment_sweep(name):
    """The below and above sets that a stage reads from |Y_n|'s successor
    and predecessor lists (in Y_(i-1), in Y_0 and in Γ = Y_n) are the
    increasing vertex indices of the members that a ``contains_subspace``
    sweep finds."""
    family = _family(name)
    state = build_filtration(family, choose_pivot(family))
    vs = state.graph[0].vertices
    for i in range(1, state.n + 1):
        prev = set(state.levels[i - 1])
        for u in state.levels[i]:
            if u in prev:
                continue
            for level, side in ((i - 1, 0), (i - 1, 1), (0, 0), (state.n, 1)):
                got = state.around(u, level)[side]
                assert got == sorted(got)
                assert {vs[j] for j in got} == oracle_below_above(state.levels[level], u)[side]


@pytest.mark.parametrize("name", GRAPH_SPECS)
def test_graph_cut_equals_facet_cut_and_order_complex(name):
    """``induced_subcomplex`` of |Γ| walks Γ's successor lists cut to the
    kept vertices.  For every level Y_i and every join
    |Y_(i-1)^<U * Y_(i-1)^>U| (its sets found by the containment sweep) it
    gives the complex of the facet-cut oracle and the order complex of the
    subset: the same vertices, facets and face counts, and the order
    complex's successor lists.  The facet cut runs on |Γ| rebuilt from its
    facets, and for a join on U's star in that copy, which holds every
    chain of members comparable with U."""
    family = _family(name)
    state = build_filtration(family, choose_pivot(family))
    gamma = order_complex(state.geometry.members)
    facets_only = FacetComplex(gamma.vertices, gamma.facets)
    cuts = [(facets_only, set(level)) for level in state.levels]
    for i in range(1, state.n + 1):
        prev = set(state.levels[i - 1])
        cuts += [(facet_star(facets_only, gamma.vertex_index[u]),
                  set.union(*oracle_below_above(prev, u)))
                 for u in state.levels[i] if u not in prev]
    assert len(cuts) > len(state.levels)
    for facets, keep in cuts:
        graph_cut = induced_subcomplex(gamma, [gamma.vertex_index[w] for w in keep])
        cut = facet_cut(facets, keep)
        direct = order_complex(keep)
        assert graph_cut.succ == direct.succ
        assert (graph_cut.vertices, tuple(graph_cut.facets), graph_cut.face_counts()) \
            == (cut.vertices, cut.facets, cut.face_counts()) \
            == (direct.vertices, tuple(direct.facets), direct.face_counts())
