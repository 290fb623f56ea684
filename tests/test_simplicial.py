import random
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phangeo.field import make_field
from phangeo.homology import cohen_macaulay_check
from phangeo.linalg import Subspace
from phangeo.simplicial import (
    SimplicialComplex,
    export_facets,
    intersect_complexes,
    link,
    order_complex,
    purity_and_dimension,
    star_closure,
)
from phangeo.specfile import load_family
from phangeo.suites import random_phan_spec, standard_spec
from phangeo.phan import PhanFamily, vertices

from conftest import chain_facets, facet_cut, join, poset_complex

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2, 1)
F5 = make_field(5, 1)
SPECS = Path(__file__).resolve().parent.parent / "specs"


def test_constructor_maximalizes_and_covers_vertices():
    k = SimplicialComplex([0, 1, 2, 3], [(0, 1), (0,), (1,)])
    assert k.facet_sets() == frozenset(
        {frozenset({0, 1}), frozenset({2}), frozenset({3})}
    )
    assert k.dim == 1
    with pytest.raises(ValueError):
        SimplicialComplex([0, 1], [(0, 2)])


def test_facet_representation_roundtrip():
    facets = [(0, 1, 2), (1, 2, 3), (3, 4)]
    k = SimplicialComplex(range(5), facets)
    all_simplices = [s for d in range(k.dim + 1) for s in k.simplices(d)]
    again = SimplicialComplex(range(5), all_simplices)
    assert again.facet_sets() == k.facet_sets()


def test_order_complex_antichain_and_chain():
    points = [s for s in _subs(F3, 3, 1)][:4]
    k = order_complex(points)
    assert purity_and_dimension(k) == (True, 0) and len(k.facets) == 4
    chain = [
        Subspace.span(F3, 3, [(1, 0, 0)]),
        Subspace.span(F3, 3, [(1, 0, 0), (0, 1, 0)]),
        Subspace.full(F3, 3),
    ]
    k2 = order_complex(chain)
    assert len(k2.facets) == 1 and k2.dim == 2


def _subs(field, dim, k):
    from phangeo.linalg import enumerate_subspaces
    return list(enumerate_subspaces(field, dim, k))


def _check_against_chain_oracle(subspaces):
    k = order_complex(subspaces)
    assert set(k.vertices) == set(subspaces)
    assert k.facet_sets() == chain_facets(subspaces)
    return k


@pytest.mark.parametrize("path", sorted(SPECS.glob("*.json")), ids=lambda p: p.stem)
def test_order_complex_matches_chain_oracle_on_bundled_specs(path):
    family, _ = load_family(str(path))
    _check_against_chain_oracle(vertices(family).members)


def test_order_complex_matches_chain_oracle_on_f3_4():
    k = _check_against_chain_oracle(vertices(PhanFamily((standard_spec(F3, 4),))).members)
    assert k.face_counts() == [138, 648, 576]


def _listed_counts(k):
    """The face counts by listing every simplex of every dimension."""
    return [len(k.simplices(j)) for j in range(k.dim + 1)]


@pytest.mark.parametrize("name", sorted(p.stem for p in SPECS.glob("*.json"))
                         + ["F3^4", "F4^4"])
def test_order_complex_counts_its_chains(name):
    """``order_complex`` counts its chains over the successor lists; the
    counts equal the listed faces.  The complex of F_4^4 is not pure: its
    maximal edges count as edges, not as top simplices."""
    if name in ("F3^4", "F4^4"):
        family = PhanFamily((standard_spec(F3 if name == "F3^4" else F4, 4),))
    else:
        family, _ = load_family(str(SPECS / f"{name}.json"))
    k = order_complex(vertices(family).members)
    assert k._chain_counts is not None
    assert k.face_counts() == _listed_counts(k)
    if name == "F4^4":
        assert purity_and_dimension(k) == (False, 2)
        assert k.face_counts() == [400, 3072, 3840] and len(k.facets) == 4032


def _assert_simplices_listed(k):
    """``simplices(j)`` is the sorted listing of the (j+1)-subsets of the
    facets for every j up to one past the top, and the top simplices are
    the top facets themselves, the very tuples."""
    for j in range(k.dim + 2):
        assert k.simplices(j) == sorted({c for f in k.facets for c in combinations(f, j + 1)})
    assert list(map(id, k.simplices(k.dim))) == [id(f) for f in k.facets if len(f) == k.dim + 1]


@pytest.mark.parametrize("name", sorted(p.stem for p in SPECS.glob("*.json"))
                         + ["F3^4 seeded", "F4^4", "0-dimensional", "empty"])
def test_simplices_are_the_sorted_listing(name):
    """On the order complexes of the bundled specs, of F_3^4 with a seeded
    random form and of the non-pure F_4^4, and on a 0-dimensional and the
    empty complex."""
    if name in ("0-dimensional", "empty"):
        k = SimplicialComplex("abc" if name == "0-dimensional" else "", [])
        assert k.dim == (0 if name == "0-dimensional" else -1)
    else:
        if name == "F3^4 seeded":
            family = PhanFamily((random_phan_spec(random.Random(2), F3, 4, 0),))
        elif name == "F4^4":
            family = PhanFamily((standard_spec(F4, 4),))
        else:
            family, _ = load_family(str(SPECS / f"{name}.json"))
        k = order_complex(vertices(family).members)
        assert name != "F4^4" or purity_and_dimension(k) == (False, 2)
    _assert_simplices_listed(k)


def test_generic_face_counts_match_the_listing():
    """Links, stars and facet cuts of complexes without successor lists
    count their faces from the facets.  A 0-dimensional complex counts
    each vertex once; the empty complex has no faces."""
    k = order_complex(vertices(PhanFamily((standard_spec(F3, 4),))).members)
    pieces = [link(k, ()), link(k, k.facets[0]), SimplicialComplex([], []),
              SimplicialComplex("abc", []), facet_cut(link(k, ()), set(k.vertices[::3]))]
    for v in range(0, k.num_vertices, 5):
        pieces += [link(k, (v,)), star_closure(k, v)]
    pieces += [link(k, f[:2]) for f in k.facets[::40]]
    for piece in pieces:
        assert piece._chain_counts is None
        assert piece.face_counts() == _listed_counts(piece)
    assert {p.dim for p in pieces} == {-1, 0, 1, 2}
    assert SimplicialComplex("abc", []).face_counts() == [3]
    assert SimplicialComplex([], []).face_counts() == []


def test_order_complex_with_zero_and_full_subspace():
    """The zero subspace (mask 0) lies below, the full one above, every
    other member; both are cone points of every maximal chain."""
    rng = random.Random(2024)
    zero, full = Subspace.zero(F3, 3), Subspace.full(F3, 3)
    middle = rng.sample(_subs(F3, 3, 1), 6) + rng.sample(_subs(F3, 3, 2), 6)
    k = _check_against_chain_oracle([zero, full] + middle)
    assert all({zero, full} <= f for f in k.facet_sets())
    everything = [s for d in range(4) for s in _subs(F2, 3, d)]
    k = _check_against_chain_oracle(everything)
    assert len(k.facets) == 7 * 3  # flags of F_2^3: points times lines through each


def test_order_complex_ignores_input_order():
    members = list(vertices(PhanFamily((standard_spec(F5, 3),))).members)
    members += [Subspace.zero(F5, 3), Subspace.full(F5, 3)]
    k = order_complex(members)
    shuffled = members + members[:5]  # repeated members count once
    random.Random(7).shuffle(shuffled)
    k2 = _check_against_chain_oracle(shuffled)
    assert k2.vertices == k.vertices and k2.facets == k.facets


def test_order_complex_of_phan_geometry_is_pure():
    vs = vertices(PhanFamily((standard_spec(F5, 3),)))
    k = order_complex(vs.members)
    assert purity_and_dimension(k) == (True, 1)
    # incidence = inclusion: every facet is a point inside a plane
    for f in k.facets:
        a, b = (k.vertices[i] for i in f)
        assert a.dim == 1 and b.dim == 2 and b.contains_subspace(a)


def test_link_examples():
    k = SimplicialComplex([0, 1, 2], [(0, 1, 2)])
    assert link(k, (0, 1, 2)).is_empty()
    tri = SimplicialComplex([0, 1, 2], [(0, 1), (0, 2), (1, 2)])
    lk = link(tri, (0,))
    assert set(lk.vertices) == {1, 2} and lk.dim == 0
    with pytest.raises(ValueError):
        link(tri, (0, 1, 2))


def test_link_of_vertex_is_below_join_above():
    vs = vertices(PhanFamily((standard_spec(F3, 3),)))
    k = order_complex(vs.members)
    assert set(k.vertices) == set(vs.members)
    for i, u in enumerate(k.vertices):
        lk = link(k, (i,))
        below_above = {
            x for x in vs.members
            if (x.dim < u.dim and u.contains_subspace(x))
            or (x.dim > u.dim and x.contains_subspace(u))
        }
        assert set(lk.vertices) == below_above


def test_star_closure_is_cone_over_link():
    vs = vertices(PhanFamily((standard_spec(F3, 3),)))
    k = order_complex(vs.members)
    for i, u in enumerate(k.vertices[:10]):
        star = star_closure(k, i)
        lk = link(k, (i,))
        rebuilt = frozenset(f | {u} for f in lk.facet_sets()) if not lk.is_empty() \
            else frozenset({frozenset({u})})
        assert star.facet_sets() == rebuilt
        assert len(star.facets) == sum(1 for f in k.facet_sets() if u in f)


def test_star_of_isolated_vertex():
    k = SimplicialComplex([0, 1, 2], [(1, 2)])
    st = star_closure(k, 0)
    assert st.facet_sets() == frozenset({frozenset({0})})


def test_join_identities():
    pt = SimplicialComplex(["apex"], [])
    tri = SimplicialComplex([0, 1, 2], [(0, 1), (0, 2), (1, 2)])
    cone = join(pt, tri)
    assert cone.dim == tri.dim + 1
    assert all((0, "apex") in f for f in cone.facet_sets())
    empty = SimplicialComplex([], [])
    assert join(empty, tri).facet_sets() == frozenset(
        frozenset((1, v) for v in f) for f in tri.facet_sets()
    )


def test_intersect_complexes():
    a = SimplicialComplex([0, 1, 2], [(0, 1, 2)])
    b = SimplicialComplex([1, 2, 3], [(0, 1, 2)])
    inter = intersect_complexes(a, b)
    assert inter.facet_sets() == frozenset({frozenset({1, 2})})
    assert inter.vertices == (1, 2) and inter.facets == ((0, 1),)


def test_export_format():
    k = SimplicialComplex(["a", "b", "c"], [(0, 1), (2,)])
    text = export_facets(k)
    lines = text.strip().split("\n")
    assert lines[0] == "3"
    assert set(lines[1:]) == {"0 1", "2"}


# -- property test against a label-level oracle ---------------------------------


def _closure(facets):
    """Every non-empty face of the given label sets."""
    return {frozenset(c) for f in facets for r in range(1, len(f) + 1)
            for c in combinations(sorted(f), r)}


def _maximal(simplices):
    return frozenset(s for s in simplices if not any(s < t for t in simplices))


def _oracle(labels, facets):
    """All simplices, by labels, of the complex on `labels` spanned by the
    index sets `facets`; every label is a vertex."""
    return _closure([{labels[i] for i in f} for f in facets] + [{v} for v in labels])


def _covered_in_order(labels, simplices):
    used = set().union(*simplices)
    return tuple(v for v in labels if v in used)


@st.composite
def _labelled_complexes(draw, pool="abcdefg", max_facets=6):
    labels = draw(st.permutations(pool))[:draw(st.integers(0, len(pool)))]
    if not labels:
        return labels, []
    facets = draw(st.lists(st.sets(st.integers(0, len(labels) - 1), min_size=1, max_size=4),
                           max_size=max_facets))
    return labels, facets


@settings(max_examples=150, deadline=None)
@given(_labelled_complexes(), _labelled_complexes(),
       _labelled_complexes(pool="fghijklmnop", max_facets=12), st.data())
def test_operations_match_label_oracle(c1, c2, c3, data):
    (labels, facets), (labels2, facets2), (labels3, facets3) = c1, c2, c3
    k = SimplicialComplex(labels, facets)
    simps = _oracle(labels, facets)
    assert k.vertices == tuple(labels)
    assert k.facet_sets() == _maximal(simps)
    assert all(list(f) == sorted(set(f)) for f in k.facets) and list(k.facets) == sorted(k.facets)
    for d in range(-1, 5):
        got = k.simplices(d) if d >= 0 else []
        assert got == sorted(got)
        assert {frozenset(labels[i] for i in s) for s in got} == \
            {s for s in simps if len(s) == d + 1}
    _assert_simplices_listed(k)
    if not labels:
        return

    s = data.draw(st.sampled_from(sorted(simps, key=sorted)))
    lk = link(k, [labels.index(v) for v in s])
    expected = {t - s for t in simps if s < t}
    assert lk.facet_sets() == _maximal(expected)
    assert lk.vertices == _covered_in_order(labels, expected)

    v = data.draw(st.sampled_from(labels))
    star = star_closure(k, labels.index(v))
    expected = {t for t in simps if t | {v} in simps}
    assert star.facet_sets() == _maximal(expected)
    assert star.vertices == _covered_in_order(labels, expected)

    other = SimplicialComplex(labels2, facets2)
    expected = simps & _oracle(labels2, facets2)
    inter = intersect_complexes(k, other)
    assert inter.facet_sets() == _maximal(expected)
    assert inter.vertices == _covered_in_order(labels, expected)
    # shares at most f and g with k, so most of its facets miss k
    far = SimplicialComplex(labels3, facets3)
    expected = simps & _oracle(labels3, facets3)
    inter = intersect_complexes(k, far)
    assert inter.facet_sets() == _maximal(expected)
    assert inter.vertices == _covered_in_order(labels, expected)

    outside = frozenset(labels) - set().union(*(t for t in simps if s <= t))
    if outside:
        with pytest.raises(ValueError):
            link(k, [labels.index(v) for v in s | {min(outside)}])


@settings(max_examples=20, deadline=None)
@given(st.permutations("abde").filter(
    lambda p: p.index("a") < p.index("b") and p.index("d") < p.index("e")))
def test_bowtie_fails_at_labelled_middle_vertex(order):
    """The bowtie a < b < c, d < e < c (two triangles glued at c), on vertex
    orders drawn over its linear extensions: the Cohen-Macaulay sweep fails
    exactly at the index of label c."""
    bowtie = poset_complex([*order, "c"], ["ab", "bc", "de", "ec"])
    at = {v: i for i, v in enumerate(bowtie.vertices)}
    assert bowtie.facet_sets() == {frozenset("abc"), frozenset("dec")}
    rep = cohen_macaulay_check(bowtie)
    assert [f.simplex for f in rep.failures] == [(at["c"],)]
    assert bowtie.vertices[rep.failures[0].simplex[0]] == "c"


def _rebuilt_unchanged(k):
    """The maximalizing constructor leaves the facets of k as they are."""
    return SimplicialComplex(k.vertices, k.facets).facets == k.facets


@pytest.mark.parametrize("name", sorted(p.stem for p in SPECS.glob("*.json")) + ["F3^4"])
def test_complexes_built_from_maximal_facets_need_no_maximalizing(name):
    """order_complex, link and star_closure build their complexes from facets
    that are maximal by construction, with no maximalizing: the constructor
    that maximalizes returns the same facets.  Links of the empty simplex,
    of every vertex, of some facets (empty complexes) and of faces of
    each of those; stars of every vertex."""
    if name == "F3^4":
        family = PhanFamily((standard_spec(F3, 4),))
    else:
        family, _ = load_family(str(SPECS / f"{name}.json"))
    k = order_complex(vertices(family).members)
    assert _rebuilt_unchanged(k)
    assert link(k, ()).facets == k.facets and _rebuilt_unchanged(link(k, ()))
    for v in range(k.num_vertices):
        assert _rebuilt_unchanged(link(k, (v,)))
        assert _rebuilt_unchanged(star_closure(k, v))
    for f in k.facets[::max(1, len(k.facets) // 40)]:
        empty = link(k, f)
        assert empty.is_empty() and empty.facets == ()
        for s in {f[:2], f[1:], f[::2]}:
            assert _rebuilt_unchanged(link(k, s))
