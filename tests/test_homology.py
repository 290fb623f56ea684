import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phangeo.field import make_field
from phangeo.homology import (
    cohen_macaulay_check,
    pi1_status,
    reduced_homology,
    sphericity_verdict,
)
from phangeo.morse import (
    IntegerMatrix,
    _cells,
    boundary_matrices,
    filtered_homology,
    morse_complex,
    smith_invariant_factors,
)
from phangeo.simplicial import SimplicialComplex, order_complex
from phangeo.specfile import load_family
from phangeo.suites import chamber_spec, standard_spec
from phangeo.phan import PhanFamily, vertices

from conftest import (
    FacetComplex,
    face_poset,
    facet_cut,
    join,
    link_sweep_failures,
    matching_is_acyclic,
    modular_smith,
    multiply,
    naive_smith,
    pi1_trivial,
    poset_complex,
    snf_homology,
    tuple_cells,
)

SPECS = Path(__file__).resolve().parent.parent / "specs"
F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2, 1)
F5 = make_field(5, 1)

# minimal 6-vertex triangulation of RP^2: H~_1 = Z/2
RP2 = [(0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
       (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5)]


def _dunce_hat() -> list[tuple[int, ...]]:
    """The dunce hat: a disk whose boundary, read around it, is the word
    a a a^-1 for the path a = 0 -> 1 -> 2 -> 0.  The nine boundary edges
    each meet one of the inner ring's vertices 3..11, and vertex 12 cones
    the ring.  Contractible but not collapsible: every edge lies in two
    triangles or more."""
    outer = [0, 1, 2, 0, 1, 2, 0, 2, 1]
    facets = []
    for i in range(9):
        a, b, u, w = outer[i], outer[(i + 1) % 9], 3 + i, 3 + (i + 1) % 9
        facets += [(a, b, u), (b, u, w), (u, w, 12)]
    return [tuple(sorted(f)) for f in facets]


DUNCE_HAT = _dunce_hat()


def _matrix(rows):
    nr = len(rows)
    nc = len(rows[0]) if rows else 0
    ents = tuple((i, j, rows[i][j]) for i in range(nr) for j in range(nc) if rows[i][j])
    return IntegerMatrix(nr, nc, ents)


def test_boundary_of_single_edge():
    k = FacetComplex([0, 1], [(0, 1)])
    d1 = boundary_matrices(k)[1]
    assert (d1.nrows, d1.ncols) == (2, 1)
    assert sorted(d1.entries) == [(0, 0, -1), (1, 0, 1)]


def test_boundary_squares_to_zero(rng):
    for _ in range(10):
        n = rng.randrange(4, 8)
        facets = [tuple(sorted(rng.sample(range(n), rng.randrange(2, 5)))) for _ in range(6)]
        k = FacetComplex(range(n), facets)
        mats = boundary_matrices(k)
        for a, b in zip(mats, mats[1:]):
            assert not multiply(a, b).entries


def test_hollow_triangle():
    k = FacetComplex([0, 1, 2], [(0, 1), (0, 2), (1, 2)])
    assert len(smith_invariant_factors(boundary_matrices(k)[1])) == 2
    rep = reduced_homology(face_poset(k))
    assert rep.betti == (0, 1) and rep.torsion == ((), ())


def test_isolated_points():
    k = FacetComplex(range(5), [])
    rep = reduced_homology(face_poset(k))
    assert rep.betti == (4,)
    assert rep.betti_number(0) == 4
    empty = FacetComplex([], [])
    assert reduced_homology(face_poset(empty)).betti_number(-1) == 1
    assert rep.betti_number(-1) == 0


def test_torsion_projective_plane():
    k = FacetComplex(range(6), RP2)
    rep = reduced_homology(face_poset(k))
    assert rep.betti == (0, 0, 0)
    assert rep.torsion[1] == (2,)
    v = sphericity_verdict(rep, 2)
    assert not v.spherical  # torsion below the top degree
    assert pi1_trivial(k) == "unknown"  # pi_1 = Z/2, must not claim trivial


def test_join_of_zero_spheres_is_circle():
    s0a = FacetComplex(["a", "b"], [])
    s0b = FacetComplex(["c", "d"], [])
    assert reduced_homology(face_poset(join(s0a, s0b))).betti == (0, 1)


def test_join_concentration_numerics():
    """Reduced homology of a join of homology wedges concentrates in the sum
    dimension plus one, with multiplicative rank."""
    two_circles = FacetComplex(range(5), [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    three_points = FacetComplex(range(3), [])
    j = join(two_circles, three_points)
    rep = reduced_homology(face_poset(j))
    assert rep.betti[2] == 2 * 2  # b1 = 2 times b0 = 2
    assert all(b == 0 for d, b in enumerate(rep.betti) if d != 2)


def test_cone_is_acyclic():
    base = FacetComplex(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
    cone = join(FacetComplex(["apex"], []), base)
    rep = reduced_homology(face_poset(cone))
    assert rep.is_acyclic()
    v = sphericity_verdict(rep, 2)
    assert v.spherical and v.sphere_count == 0


def _verdict(k, d):
    return sphericity_verdict(reduced_homology(face_poset(k)), d)


def test_sphericity_flags():
    empty = FacetComplex([], [])
    v = _verdict(empty, 1)
    assert not v.nonempty and not v.spherical
    with pytest.raises(ValueError):
        _verdict(FacetComplex([0], []), -1)
    with pytest.raises(ValueError):
        _verdict(FacetComplex([0, 1], [(0, 1)]), 0)  # dim 1 > 0
    wedge = FacetComplex(range(5), [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    vw = _verdict(wedge, 1)
    assert vw.spherical and vw.sphere_count == 2


def test_pi1_examples():
    tetra = FacetComplex(range(4), [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    assert pi1_trivial(tetra) == "trivial"
    rep = reduced_homology(face_poset(tetra))
    assert rep.critical == (0, 0, 1) and pi1_status(rep, 2) == "trivial"
    assert _verdict(tetra, 2).sphere_count == 1
    disconnected = FacetComplex(range(4), [(0, 1), (2, 3)])
    assert pi1_trivial(disconnected) == "unknown"
    base = FacetComplex(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
    cone = join(FacetComplex(["apex"], []), base)
    assert pi1_trivial(cone) == "trivial"


def test_pi1_status_gate():
    """Not applicable below dimension 2 or on the empty complex; unknown
    while H~_0 or H~_1 is non-zero, which leaves a critical vertex or edge;
    a tree, whose spanning forest leaves neither, is trivial."""
    circle = reduced_homology(face_poset(FacetComplex(range(3), [(0, 1), (1, 2), (0, 2)])))
    assert pi1_status(circle, 1) == "not_applicable"
    empty = FacetComplex([], [])
    assert pi1_status(reduced_homology(face_poset(empty)), 2) == "not_applicable"
    assert pi1_status(circle, 2) == "unknown"
    two_points = FacetComplex(range(2), [])
    assert pi1_status(reduced_homology(face_poset(two_points)), 2) == "unknown"
    path = FacetComplex(range(3), [(0, 1), (1, 2)])
    assert pi1_status(reduced_homology(face_poset(path)), 2) == "trivial" == pi1_trivial(path)


def test_pi1_disk_of_four_triangles():
    """Four triangles around vertex 3: the last relator reaches its root only
    through the two merges the relators before it made, and kills it."""
    disk = FacetComplex(range(6), [(0, 3, 4), (1, 2, 3), (1, 3, 4), (2, 3, 5)])
    rep = reduced_homology(face_poset(disk))
    assert rep.is_acyclic() and rep.critical == (0, 0, 0)
    assert pi1_trivial(disk) == "trivial"


def test_pi1_chamber_f3_4_is_trivial():
    """The opposite-chamber geometry of F_3^4 is simply connected with
    homology free in degree 2 only: a homotopy wedge of 134 2-spheres."""
    k = order_complex(vertices(PhanFamily((chamber_spec(F3, 4),))).members)
    rep = reduced_homology(k)
    assert rep.betti == (0, 0, 134) and rep.torsion == ((), (), ())
    assert pi1_trivial(k) == "trivial"
    assert pi1_status(rep, 2) == "trivial"


def test_pi1_stays_unknown_where_it_must():
    rp2 = FacetComplex(range(6), RP2)
    assert pi1_trivial(rp2) == "unknown"  # pi_1 = Z/2
    rep = reduced_homology(face_poset(rp2))
    assert rep.critical == (0, 1, 1) and pi1_status(rep, 2) == "unknown"
    edges = FacetComplex(range(4), [(0, 1), (2, 3)])
    assert pi1_trivial(edges) == "unknown"
    f34 = order_complex(vertices(PhanFamily((standard_spec(F3, 4),))).members)
    assert pi1_trivial(f34) == "unknown"  # H~_1 = Z^4
    assert pi1_status(reduced_homology(f34), 2) == "unknown"


def test_pi1_long_fan_needs_no_recursion():
    """A fan of 2999 triangles around vertex 0 plus one flap on the edge
    {1, 2}: 3000 generators, a spanning tree about 3000 edges deep, and
    relators that chain the fan's spokes about 3000 deep in the union-find
    before the flap's relator lets the first triangle resolve."""
    n = 3000
    fan = FacetComplex(range(n + 2), [(0, i, i + 1) for i in range(1, n)] + [(1, 2, n + 1)])
    assert len(fan.simplices(1)) - fan.num_vertices + 1 == 3000
    assert pi1_trivial(fan) == "trivial"


@settings(max_examples=300, deadline=None)
@given(st.integers(3, 7).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.lists(st.integers(0, n - 1), min_size=2, max_size=3, unique=True),
             max_size=2 * n))))
def test_pi1_trivial_implies_vanishing_low_homology(drawn):
    """The oracle's "trivial" is sound: a simply connected complex is
    connected and has H_1 = 0, whatever the rule derived on the way.  The
    library's "trivial", read from the Morse matching of the face poset,
    implies the oracle's on the face poset."""
    n, facets = drawn
    k = FacetComplex(range(n), [tuple(sorted(f)) for f in facets])
    sd = face_poset(k)
    rep = reduced_homology(sd)
    if pi1_trivial(k) == "trivial":
        assert all(rep.betti_number(i) == 0 and not rep.torsion_at(i) for i in (0, 1))
    if pi1_status(rep, 2) == "trivial":
        assert pi1_trivial(sd) == "trivial"


def test_cm_single_simplex():
    k = poset_complex("abcd", ["ab", "bc", "cd"])  # one chain, one 3-simplex
    assert k.facets == [(0, 1, 2, 3)]
    rep = cohen_macaulay_check(k)
    assert rep.passed


def test_cm_non_pure_complex_fails():
    """A non-pure complex is a failed verdict, not an input error: the lone
    vertex is a facet below the top dimension, so its link is empty but must
    be 0-spherical, and the whole complex is disconnected."""
    k = poset_complex("abc", ["ab"])
    assert k.facets == [(0, 1), (2,)]
    rep = cohen_macaulay_check(k)
    assert not rep.passed and rep.dim == 1 and rep.simplices_checked == 5
    assert [(f.simplex, f.target_dim, f.reason) for f in rep.failures] == [
        ((), 1, "homology not concentrated in top degree"),
        ((2,), 0, "link is empty but must be 0-spherical"),
    ]


def test_cm_failure_set_is_precise():
    """The bowtie a < b < c, d < e < c (two triangles glued at c) fails
    exactly at the middle vertex c, whose link is a pair of disjoint
    edges."""
    bowtie = poset_complex("abdec", ["ab", "bc", "de", "ec"])
    assert bowtie.facets == [(0, 1, 4), (2, 3, 4)]
    rep = cohen_macaulay_check(bowtie)
    assert not rep.passed
    assert [f.simplex for f in rep.failures] == [(4,)]
    assert rep.failures[0].target_dim == 1
    assert [f.simplex for f in rep.failures] == [s for s, _, _ in link_sweep_failures(bowtie)]


@pytest.mark.parametrize("name", ["t0_q4_dim3", "standard_q3_dim4", "standard_q4_dim4",
                                  "chamber_q5_dim4", "chamber_q2_dim5", "standard_q2_dim5"])
def test_cm_matches_the_link_sweep(name):
    """Facet and codimension-1 links are settled by a facet lookup, and the
    others are full subcomplexes on the vertices comparable with the
    simplex; the generic sweep, which cuts every link from the facets and
    reduces it, is the oracle.  The expected failure counts: 3 on the
    non-pure t0_q4_dim3, 1 (the whole complex) on F_3^4, 353 on F_4^4, none
    on chamber F_5^4, and 33 and 1453 on chamber and standard F_2^5, whose
    dimension 3 has the sweep reduce edge links too."""
    if name.endswith("dim5"):
        spec = chamber_spec if name.startswith("chamber") else standard_spec
        family = PhanFamily((spec(F2, 5),))
    elif name.startswith("standard"):
        field = F3 if name == "standard_q3_dim4" else F4
        family = PhanFamily((standard_spec(field, 4),))
    else:
        family, _ = load_family(str(SPECS / f"{name}.json"))
    k = order_complex(vertices(family).members)
    got = [(f.simplex, f.target_dim, f.reason) for f in cohen_macaulay_check(k).failures]
    assert got == link_sweep_failures(k)
    assert len(got) == {"t0_q4_dim3": 3, "standard_q3_dim4": 1, "standard_q4_dim4": 353,
                        "chamber_q5_dim4": 0, "chamber_q2_dim5": 33,
                        "standard_q2_dim5": 1453}[name]
    assert name.startswith("t0") or k.dim == int(name[-1]) - 2


def test_cm_lists_no_simplex_of_codimension_below_two(monkeypatch):
    """On F_3^4 (dimension 2) the sweep reduces the links of the empty
    simplex and of the vertices only: edges and triangles are settled by
    the facets and counted, never listed.  The whole complex's homology is
    reduced beforehand, so any listing of its edges or triangles would be
    the sweep's own; the links list their own edges to count components."""
    import phangeo.homology

    k = order_complex(vertices(PhanFamily((standard_spec(F3, 4),))).members)
    whole = reduced_homology(k)
    monkeypatch.setattr(phangeo.homology, "reduced_homology",
                        lambda sub: whole if sub is k else reduced_homology(sub))
    listed = SimplicialComplex.simplices

    def refused(self, j):
        if self is k and j >= k.dim - 1:
            raise AssertionError(f"{j}-simplices listed")
        return listed(self, j)

    monkeypatch.setattr(SimplicialComplex, "simplices", refused)
    rep = cohen_macaulay_check(k)
    assert rep.simplices_checked == 1 + 138 + 648 + 576
    assert [(f.simplex, f.target_dim, f.reason) for f in rep.failures] == [
        ((), 2, "homology not concentrated in top degree")]


def test_cm_non_pure_failures_follow_the_link_sweep():
    """Two tetrahedra on a common triangle (a < b < c < d and c < e), a
    triangle h < i < d and an edge j < e hanging off them: the edge's link
    is built, reduced and found empty; the triangle, a 2-dimensional facet,
    is listed after every reduced link, in facet order, exactly where the
    generic sweep reports it."""
    k = poset_complex("abchijde", ["ab", "bc", "cd", "ce", "hi", "id", "je"])
    assert k.facets == [(0, 1, 2, 6), (0, 1, 2, 7), (3, 4, 6), (5, 7)]
    rep = cohen_macaulay_check(k)
    got = [(f.simplex, f.target_dim, f.reason) for f in rep.failures]
    assert got == link_sweep_failures(k)
    assert ((5, 7), 1, "link is empty but must be 1-spherical") in got
    assert got[-1] == ((3, 4, 6), 0, "link is empty but must be 0-spherical")
    assert rep.dim == 3 and rep.simplices_checked == 1 + sum(k.face_counts())


def test_cm_two_triangles_glued_along_edge_pass():
    # a < b < c and a < b < d: shellable, hence Cohen-Macaulay; all links
    # are contractible or spheres
    k = poset_complex("abcd", ["ab", "bc", "bd"])
    assert k.facets == [(0, 1, 2), (0, 1, 3)]
    assert cohen_macaulay_check(k).passed


def test_opposite_chamber_homology():
    vs = vertices(PhanFamily((chamber_spec(F3, 3),)))
    k = order_complex(vs.members)
    assert k.num_vertices == 18 and k.face_counts() == [18, 27]
    rep = reduced_homology(k)
    assert rep.betti == (0, 10)  # b1 = q^3 - 2q^2 + 1 = 10


def test_f3_4_geometry_homology():
    """The smallest n = 3 geometry, F_3^4 with the standard form: a real
    d_2 (648 x 576) goes through the Smith normal form.  The Betti numbers
    are those of bench/reference.json, computed without phangeo."""
    k = order_complex(vertices(PhanFamily((standard_spec(F3, 4),))).members)
    assert k.face_counts() == [138, 648, 576]
    rep = reduced_homology(k)
    assert rep.betti == (0, 4, 69)
    assert rep.torsion == ((), (), ())


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=4, unique=True),
             max_size=2 * n))))
@example((1, []))
@example((0, []))  # the empty complex
@example((5, []))  # isolated vertices only
@example((4, [[0, 1], [2, 3]]))  # two components
@example((7, [[0, 1, 2], [3, 4, 5]]))  # two triangles and an isolated vertex
@example((6, [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3], [4, 5]]))  # sphere + edge
@example((8, [[0, 1, 2, 3], [4, 5, 6, 7], [3, 4]]))  # two tetrahedra joined by an edge
@example((6, RP2))  # Z/2 in degree 1 must survive the reduction
@example((13, DUNCE_HAT))  # the queue gets stuck
def test_reduced_homology_matches_full_snf(drawn):
    """The spanning forest (dimension <= 1) and the Morse complex (dimension
    >= 2) agree with the Smith form of every boundary, on random complexes
    up to dimension 3, disconnected ones, isolated vertices and
    0-dimensional ones included, each reduced through its face poset.  The
    Morse complex is a chain complex on the critical cells: ∂∂ = 0, it
    keeps the face counts, and its matching is acyclic, with the critical
    cells the report counts."""
    n, facets = drawn
    k = FacetComplex(range(n), [tuple(sorted(f)) for f in facets])
    sd = face_poset(k)
    rep = reduced_homology(sd)
    assert (rep.betti, rep.torsion) == snf_homology(k)
    if sd.dim >= 2:
        [(counts, critical)], mats, mate = morse_complex(sd)
        assert counts == sd.face_counts()
        assert critical == [0] + [m.ncols for m in mats]
        assert [m.nrows for m in mats] == [0] + [m.ncols for m in mats[:-1]]
        assert all(not multiply(a, b).entries for a, b in zip(mats, mats[1:]))
        assert matching_is_acyclic(sd, mate)
        assert rep.critical == tuple(m.ncols for m in mats)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=4, unique=True),
             max_size=8),
    st.lists(st.integers(0, 3), min_size=n, max_size=n))))
@example((3, [[0, 1, 2]], [1, 2, 1]))  # no vertex of level 0: K_0 is empty
@example((4, [[0, 1], [1, 2], [0, 2], [0, 1, 3], [1, 2, 3], [0, 2, 3]],
          [0, 0, 0, 1]))  # K_0 is a circle, coned off at level 1
@example((6, RP2, [0, 0, 1, 1, 2, 2]))
@example((13, DUNCE_HAT, [0] * 12 + [1]))  # K_0 is the dunce hat less its cone vertex
@example((8, [[0, 1, 2, 3], [4, 5, 6, 7], [3, 4]], [3, 2, 1, 0, 0, 1, 2, 3]))
def test_filtered_homology_matches_each_level(drawn):
    """One filtered reduction gives the homology of every full subcomplex
    K_i on the vertices of level <= i, as ``reduced_homology`` of K_i (the
    oracle) reads it; empty levels and levels with homology included.  Both
    are read through the face posets, each face at the largest level of its
    vertices.  The matching is acyclic with each pair inside one level, the
    Morse boundaries compose to zero, and each stage counts K_i's faces."""
    n, facets, level = drawn
    k = FacetComplex(range(n), [tuple(sorted(f)) for f in facets])
    sd = face_poset(k)
    sd_level = [max(level[v] for v in face) for face in sd.vertices]
    reports = filtered_homology(sd, sd_level)
    stages, mats, mate = morse_complex(sd, sd_level)
    assert len(reports) == len(stages) == max(level) + 1
    for i, (rep, (counts, _)) in enumerate(zip(reports, stages)):
        k_i = face_poset(facet_cut(k, {v for v in range(n) if level[v] <= i}))
        assert rep[:4] == reduced_homology(k_i)[:4]
        assert counts == k_i.face_counts()
    assert matching_is_acyclic(sd, mate, sd_level)
    assert all(not multiply(a, b).entries for a, b in zip(mats, mats[1:]))


def test_matching_checker_rejects_a_pair_across_levels():
    """The checker's level test is not vacuous: on the path 0 - 2 - 1 whose
    middle vertex enters at level 1, the unfiltered matching pairs vertex 1
    (level 0) with the edge 12 (level 1), and fails; the filtered one
    leaves both critical, the second point of K_0 and the edge joining it.
    The path is the order complex of the poset 0 < 2 > 1."""
    k = poset_complex(range(3), [(0, 2), (1, 2)])
    level = [0, 0, 1]
    _, _, mate = morse_complex(k)
    assert mate == [1, 0, 5, 4, 3, 2]  # ids: empty, vertices 0-2, edges 02 12
    assert matching_is_acyclic(k, mate) and not matching_is_acyclic(k, mate, level)
    _, _, mate = morse_complex(k, level)
    assert mate == [1, 0, -2, 4, 3, -2] and matching_is_acyclic(k, mate, level)


def test_dunce_hat_keeps_critical_cells():
    """The dunce hat is contractible but not collapsible, so no acyclic
    matching leaves only the first vertex: the coreduction gets stuck with a
    critical edge and triangle, and the Smith form of the Morse ∂_2 cancels
    them.  The critical edge leaves the library's pi_1 status "unknown",
    which is sound; the edge-path oracle finds the group trivial.  The
    complex is reduced through its face poset, whose matching gets stuck
    the same way."""
    k = FacetComplex(range(13), DUNCE_HAT)
    assert k.face_counts() == [13, 39, 27]
    sd = face_poset(k)
    _, mats, mate = morse_complex(sd)
    assert [m.ncols for m in mats] == [0, 1, 1]
    assert smith_invariant_factors(mats[2]) == [1]
    assert matching_is_acyclic(sd, mate)
    rep = reduced_homology(sd)
    assert rep.is_acyclic() and snf_homology(k) == ((0, 0, 0), ((), (), ()))
    assert rep.critical == (0, 1, 1)
    assert pi1_status(rep, 2) == "unknown"
    assert pi1_trivial(k) == "trivial"


@pytest.mark.parametrize("name", sorted(p.stem for p in SPECS.glob("*.json")))
def test_morse_matching_is_acyclic_on_bundled_specs(name):
    """The coreduction matching of every bundled spec's complex is a
    discrete gradient, and the report counts its critical cells."""
    family, _ = load_family(str(SPECS / f"{name}.json"))
    k = order_complex(vertices(family).members)
    _, mats, mate = morse_complex(k)
    assert matching_is_acyclic(k, mate)
    assert reduced_homology(k).critical == tuple(m.ncols for m in mats)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 3)), max_size=10).flatmap(
    lambda drawn: st.tuples(st.just(sorted(drawn)), st.lists(
        st.booleans(), min_size=len(drawn) ** 2, max_size=len(drawn) ** 2))))
@example(([], []))  # the empty complex
@example(([(0, 0), (1, 1), (2, 0), (3, 2), (4, 1)], [True] * 25))  # a 4-simplex
def test_cells_match_the_simplex_index(drawn):
    """The engine numbers its cells from the successor lists; the simplex
    tuples with an index per degree (``tuple_cells``) are the oracle: every
    cell's faces and level agree, on random posets up to dimension 4 with
    random vertex levels.  Each element has a rank 0-4, listed by rank,
    and a pair of ranks r < s is related or not as drawn."""
    ranked, related = drawn
    n = len(ranked)
    k = poset_complex(range(n), [(i, j) for i in range(n) for j in range(n)
                                 if ranked[i][0] < ranked[j][0] and related[i * n + j]])
    level = [lv for _, lv in ranked]
    assert k.dim <= 4
    assert _cells(k, level) == tuple_cells(k, level)


@pytest.mark.parametrize("name", sorted(p.stem for p in SPECS.glob("*.json")))
def test_cells_match_the_simplex_index_on_bundled_specs(name, rng):
    """The same agreement on the complex of every bundled spec, with one
    level and with random levels."""
    family, _ = load_family(str(SPECS / f"{name}.json"))
    k = order_complex(vertices(family).members)
    for level in ([0] * k.num_vertices, [rng.randrange(4) for _ in range(k.num_vertices)]):
        assert _cells(k, level) == tuple_cells(k, level)


def test_morse_complex_reads_only_the_successor_lists(monkeypatch):
    """The engine reads neither the maximal chains nor the simplex lists:
    with ``facets`` and ``simplices`` patched to raise, it reduces chamber
    F_2^5, of dimension 3, filtered and unfiltered: b~ = (0, 0, 32, 1).
    ``morse`` keeps no ``combinations``."""
    import phangeo.morse

    family, _ = load_family(str(SPECS / "chamber_q2_dim5.json"))
    k = order_complex(vertices(family).members)
    level = [min(v.dim, 3) - 1 for v in k.vertices]

    def refused(*args):
        raise AssertionError("a simplex listed or a maximal chain walked")

    monkeypatch.setattr(SimplicialComplex, "facets", property(refused))
    monkeypatch.setattr(SimplicialComplex, "simplices", refused)
    assert "combinations" not in vars(phangeo.morse)
    assert reduced_homology(k).betti == (0, 0, 32, 1)
    assert filtered_homology(k, level)[-1].betti == (0, 0, 32, 1)


def test_matching_checker_rejects_a_cycle():
    """The checker is not vacuous: on the cone from 0 over the square
    1, 2 < 3, 4 (the order complex of 0 < 1, 2 < 3, 4), matching the edges
    at vertex 0 with the triangles 013, 023, 024, 014 closes the V-path
    01 < 013 > 03 < 023 > 02 < 024 > 04 < 014 > 01, and fails it."""
    k = poset_complex(range(5), [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4)])
    _, _, mate = morse_complex(k)
    assert matching_is_acyclic(k, mate)
    # ids: 0 empty, 1-5 vertices, 6-13 edges 01 02 03 04 13 14 23 24,
    # 14-17 triangles 013 014 023 024
    cyclic = [1, 0] + [-2] * 4 + [14, 17, 16, 15] + [-2] * 4 + [6, 9, 8, 7]
    assert not matching_is_acyclic(k, cyclic)


def test_homology_reduces_no_full_boundary(monkeypatch):
    """From dimension 2 up, Smith forms run on the Morse complex only: no
    full boundary matrix is assembled, and RP^2's Morse ∂_2 carries the 2."""
    import phangeo.morse

    def refused(k):
        raise AssertionError("boundary_matrices called")

    monkeypatch.setattr(phangeo.morse, "boundary_matrices", refused)
    k = face_poset(FacetComplex(range(6), RP2))
    assert reduced_homology(k).torsion == ((), (2,), ())
    _, mats, _ = morse_complex(k)
    assert smith_invariant_factors(mats[2])[-1] == 2
    f34 = order_complex(vertices(PhanFamily((standard_spec(F3, 4),))).members)
    assert reduced_homology(f34).betti == (0, 4, 69)


def test_euler_consistency_random(rng):
    for _ in range(15):
        n = rng.randrange(3, 9)
        facets = [tuple(sorted(rng.sample(range(n), rng.randrange(1, min(n, 4) + 1))))
                  for _ in range(rng.randrange(1, 7))]
        k = FacetComplex(range(n), facets)
        rep = reduced_homology(face_poset(k))  # raises internally if Euler books disagree
        assert rep.euler_characteristic == k.euler_characteristic()


def test_snf_agrees_with_naive_oracle(rng):
    for _ in range(60):
        nr = rng.randrange(1, 14)
        nc = rng.randrange(1, 14)
        rows = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)]
        m = _matrix(rows)
        expected = naive_smith(rows)
        assert smith_invariant_factors(m) == expected


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(lambda nc: st.lists(
    st.lists(st.integers(-4, 4), min_size=nc, max_size=nc), min_size=1, max_size=8)))
def test_snf_property_against_naive_oracle(rows):
    assert smith_invariant_factors(_matrix(rows)) == naive_smith(rows)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10).flatmap(lambda nc: st.lists(
    st.lists(st.integers(-6, 6), min_size=nc, max_size=nc), min_size=1, max_size=10)))
@example([[0, 0], [0, 0]])
@example([[3]])  # M = 3, so the reduced matrix is zero
@example([[2, 0], [0, 4]])
@example([[6, 0, 0], [0, 10, 0], [0, 0, 0]])
def test_modular_oracle_matches_naive_oracle(rows):
    """The tier-1 oracle modulo a determinantal multiple against the
    unbounded textbook elimination, on matrices up to 10 x 10."""
    assert modular_smith(rows) == naive_smith(rows)


def test_snf_known_values():
    m = _matrix([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert smith_invariant_factors(m) == [2, 2, 156]
    assert smith_invariant_factors(_matrix([[0, 0], [0, 0]])) == []
    # the pivot moves from row 0 to row 1's remainder; row 0, rewritten by
    # that step, is the next pivot row
    assert smith_invariant_factors(_matrix([[2, 2, 2, 0], [3, 2, 2, 5]])) == [1, 2]


def _planted(rng, nr, nc, factors, ops):
    """diag(factors) padded with zeros to nr x nc, hidden as U.D.V by ops
    random elementary row and as many column operations."""
    a = [[0] * nc for _ in range(nr)]
    for i, d in enumerate(factors):
        a[i][i] = d
    for _ in range(ops):
        i, j = rng.sample(range(nr), 2)
        q = rng.choice((-2, -1, 1, 2))
        a[i] = [x + q * y for x, y in zip(a[i], a[j])]
        i, j = rng.sample(range(nc), 2)
        q = rng.choice((-2, -1, 1, 2))
        for row in a:
            row[i] += q * row[j]
    return a


def test_snf_recovers_planted_factors():
    """Non-unit pivots, remainder steps and re-keyed rows at sizes the
    naive oracle cannot reach: the planted invariant factors come back
    exactly, also after permuting rows and columns."""
    rng = random.Random(2718)
    for nr, nc, ones in ((60, 80, 40), (50, 35, 25), (12, 9, 3)):
        factors = [1] * ones + [2, 2, 6, 12]
        rows = _planted(rng, nr, nc, factors, 3 * (nr + nc) // 2)
        assert sum(x != 0 for row in rows for x in row) > 4 * len(factors)
        assert smith_invariant_factors(_matrix(rows)) == factors
        rperm = rng.sample(range(nr), nr)
        cperm = rng.sample(range(nc), nc)
        shuffled = [[rows[i][j] for j in cperm] for i in rperm]
        assert smith_invariant_factors(_matrix(shuffled)) == factors
