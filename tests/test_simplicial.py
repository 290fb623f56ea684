import random
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phangeo.field import make_field
from phangeo.homology import cohen_macaulay_check
from phangeo.linalg import Subspace, enumerate_subspaces
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

from conftest import (
    FacetComplex,
    chain_facets,
    facet_cut,
    facet_intersection,
    facet_link,
    facet_star,
    join,
    oracle_is_member,
    poset_complex,
)

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2, 1)
F5 = make_field(5, 1)
SPECS = Path(__file__).resolve().parent.parent / "specs"


def test_constructor_maximalizes_and_covers_vertices():
    """The facet oracle keeps the maximal facets given and covers every
    vertex."""
    k = FacetComplex([0, 1, 2, 3], [(0, 1), (0,), (1,)])
    assert k.facet_sets() == frozenset(
        {frozenset({0, 1}), frozenset({2}), frozenset({3})}
    )
    assert k.dim == 1
    with pytest.raises(ValueError):
        FacetComplex([0, 1], [(0, 2)])


def test_facet_representation_roundtrip():
    facets = [(0, 1, 2), (1, 2, 3), (3, 4)]
    k = FacetComplex(range(5), facets)
    all_simplices = [s for d in range(k.dim + 1) for s in k.simplices(d)]
    again = FacetComplex(range(5), all_simplices)
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


@pytest.mark.parametrize("name", sorted(p.stem for p in SPECS.glob("*.json"))
                         + ["F3^4 seeded"])
def test_order_complex_orders_the_vertices_itself(name):
    """``order_complex`` is the one place that orders vertices: fed the
    members of |Γ| reversed or shuffled, it gives the same vertices,
    successor lists and face counts as in the order ``vertices`` returns.
    Each spec's ``members()``, in subspace-table order, lists no subspace
    twice and is, as a set, the membership oracle's."""
    if name == "F3^4 seeded":
        family = PhanFamily((random_phan_spec(random.Random(2), F3, 4, 0),))
    else:
        family, _ = load_family(str(SPECS / f"{name}.json"))
    members = vertices(family).members
    k = order_complex(members)
    for order in (members[::-1], random.Random(5).sample(members, len(members))):
        other = order_complex(order)
        assert (other.vertices, other.succ, other.face_counts()) == (
            k.vertices, k.succ, k.face_counts())
    amb = family.ambient
    for spec in family.specs:
        listed = spec.members()
        assert len(set(listed)) == len(listed)
        assert set(listed) == {u for d in range(1, amb.dim)
                               for u in enumerate_subspaces(amb.field, amb.dim, d)
                               if oracle_is_member(spec, u)}


def _listed_counts(k):
    """The face counts by listing every simplex of every dimension."""
    return [len(k.simplices(j)) for j in range(k.dim + 1)]


def _counted_then_walked(k):
    """(facet count, purity) as read before any maximal chain is listed,
    and as read from the walked facets afterwards."""
    assert "facets" not in vars(k)
    counted = (k.num_facets, purity_and_dimension(k)[0])
    assert "facets" not in vars(k)
    walked = (len(k.facets), len({len(f) for f in k.facets}) <= 1)
    return counted, walked


@pytest.mark.parametrize("name", sorted(p.stem for p in SPECS.glob("*.json"))
                         + ["F3^4", "F3^4 seeded", "F4^4"])
def test_order_complex_counts_its_chains(name):
    """``order_complex`` counts its chains over the successor lists; the
    counts equal the listed faces.  ``num_facets`` counts the maximal
    chains over the covers, and ``purity_and_dimension`` calls a complex
    pure when they are as many as its top chains; both are read before any
    maximal chain is listed and agree with the walked facets.  The
    complexes of F_4^4 and t0_q4_dim3 are not pure: their maximal edges
    resp. points are facets below the top."""
    if name == "F3^4 seeded":
        family = PhanFamily((random_phan_spec(random.Random(2), F3, 4, 0),))
    elif name in ("F3^4", "F4^4"):
        family = PhanFamily((standard_spec(F3 if name == "F3^4" else F4, 4),))
    else:
        family, _ = load_family(str(SPECS / f"{name}.json"))
    k = order_complex(vertices(family).members)
    assert k.face_counts() == _listed_counts(k)
    counted, walked = _counted_then_walked(k)
    assert counted == walked and counted[1] is (name not in ("F4^4", "t0_q4_dim3"))
    sizes = {len(f) for f in k.facets}
    assert purity_and_dimension(k) == (len(sizes) == 1, max(sizes) - 1)
    if name == "F4^4":
        assert purity_and_dimension(k) == (False, 2)
        assert k.face_counts() == [400, 3072, 3840] and len(k.facets) == 4032


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 9).flatmap(lambda n: st.tuples(
    st.just(n), st.sets(st.tuples(st.integers(0, max(n - 1, 0)),
                                  st.integers(0, max(n - 1, 0))), max_size=20))))
def test_facet_count_and_purity_match_the_walk_on_random_posets(poset):
    """On the order complexes of random posets on up to 9 elements, the
    count and purity equal the walk's, and the count equals the number of
    chains that no longer chain contains, found by listing every chain."""
    n, pairs = poset
    k = poset_complex(range(n), [(x, y) for x, y in pairs if x < y])
    counted, walked = _counted_then_walked(k)
    assert counted == walked
    chains = {frozenset(c) for j in range(k.dim + 1) for c in k.simplices(j)}
    assert counted[0] == sum(not any(c < d for d in chains) for c in chains)


def _assert_simplices_listed(k):
    """``simplices(j)`` is the sorted listing of the (j+1)-subsets of the
    facets for every j up to one past the top, and the top simplices are
    the top facets."""
    for j in range(k.dim + 2):
        assert k.simplices(j) == sorted({c for f in k.facets for c in combinations(f, j + 1)})
    assert k.simplices(k.dim) == [f for f in k.facets if len(f) == k.dim + 1]


@pytest.mark.parametrize("name", sorted(p.stem for p in SPECS.glob("*.json"))
                         + ["F3^4 seeded", "F4^4", "0-dimensional", "empty"])
def test_simplices_are_the_sorted_listing(name):
    """On the order complexes of the bundled specs, of F_3^4 with a seeded
    random form and of the non-pure F_4^4, and on a 0-dimensional and the
    empty complex."""
    if name in ("0-dimensional", "empty"):
        k = poset_complex("abc" if name == "0-dimensional" else "", [])
        assert k.dim == (0 if name == "0-dimensional" else -1)
        assert purity_and_dimension(k) == (True, k.dim)
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
    """Links and stars, graph cuts, count their chains; the facet oracle's
    cuts count their faces from the facets, and both equal the listing.  A
    0-dimensional complex counts each vertex once; the empty complex has no
    faces."""
    k = order_complex(vertices(PhanFamily((standard_spec(F3, 4),))).members)
    pieces = [link(k, ()), link(k, k.facets[0]), poset_complex("", []),
              poset_complex("abc", []), facet_cut(k, set(k.vertices[::3]))]
    for v in range(0, k.num_vertices, 5):
        pieces += [link(k, (v,)), star_closure(k, v)]
    pieces += [link(k, f[:2]) for f in k.facets[::40]]
    for piece in pieces:
        assert piece.face_counts() == _listed_counts(piece)
    assert {p.dim for p in pieces} == {-1, 0, 1, 2}
    assert poset_complex("abc", []).face_counts() == [3]
    assert poset_complex("", []).face_counts() == []


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


def test_hash_walks_no_maximal_chain(monkeypatch):
    """A complex hashes from its labels and face counts, which equal
    complexes share: with ``facets`` patched to raise, |Γ| of t0_q5_dim3
    hashes, and a closed star cut from it hashes as the order complex of
    the same members built directly, to which it is equal."""
    family, _ = load_family(str(SPECS / "t0_q5_dim3.json"))
    gamma = order_complex(vertices(family).members)
    star = star_closure(gamma, 0)
    direct = order_complex(reversed(star.vertices))

    def refuse(self):
        raise AssertionError("maximal chains walked for a hash")

    monkeypatch.setattr(SimplicialComplex, "facets", property(refuse))
    assert isinstance(hash(gamma), int) and hash(star) == hash(direct)
    monkeypatch.undo()
    assert star == direct and star != gamma


def test_link_examples():
    """The link of a maximal chain is empty; in the circle a, b < c, d, the
    link of a is the pair c, d.  The facet oracle refuses a non-simplex."""
    k = poset_complex("abc", ["ab", "bc"])
    assert link(k, (0, 1, 2)).is_empty()
    square = poset_complex("abcd", ["ac", "ad", "bc", "bd"])
    lk = link(square, (0,))
    assert lk.vertices == ("c", "d") and lk.dim == 0
    tri = FacetComplex([0, 1, 2], [(0, 1), (0, 2), (1, 2)])
    assert set(facet_link(tri, (0,)).vertices) == {1, 2}
    with pytest.raises(ValueError):
        facet_link(tri, (0, 1, 2))


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
    k = poset_complex("abc", ["bc"])
    st = star_closure(k, 0)
    assert st.facet_sets() == frozenset({frozenset({"a"})})


def test_join_identities():
    pt = FacetComplex(["apex"], [])
    tri = FacetComplex([0, 1, 2], [(0, 1), (0, 2), (1, 2)])
    cone = join(pt, tri)
    assert cone.dim == tri.dim + 1
    assert all((0, "apex") in f for f in cone.facet_sets())
    empty = FacetComplex([], [])
    assert join(empty, tri).facet_sets() == frozenset(
        frozenset((1, v) for v in f) for f in tri.facet_sets()
    )


def test_intersect_complexes():
    """The chains 0 < 1 < 2 and 1 < 2 < 3 share the edge 1 < 2."""
    a = poset_complex([0, 1, 2], [(0, 1), (1, 2)])
    b = poset_complex([1, 2, 3], [(1, 2), (2, 3)])
    inter = intersect_complexes(a, b)
    assert inter.facet_sets() == frozenset({frozenset({1, 2})})
    assert inter.vertices == (1, 2) and inter.facets == [(0, 1)]


def test_export_format():
    k = poset_complex("abc", ["ab"])
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
    """The facet oracles (``FacetComplex``, ``facet_link``, ``facet_star``
    and ``facet_intersection``) against the simplices listed by labels."""
    (labels, facets), (labels2, facets2), (labels3, facets3) = c1, c2, c3
    k = FacetComplex(labels, facets)
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
    lk = facet_link(k, [labels.index(v) for v in s])
    expected = {t - s for t in simps if s < t}
    assert lk.facet_sets() == _maximal(expected)
    assert lk.vertices == _covered_in_order(labels, expected)

    v = data.draw(st.sampled_from(labels))
    star = facet_star(k, labels.index(v))
    expected = {t for t in simps if t | {v} in simps}
    assert star.facet_sets() == _maximal(expected)
    assert star.vertices == _covered_in_order(labels, expected)

    other = FacetComplex(labels2, facets2)
    expected = simps & _oracle(labels2, facets2)
    inter = facet_intersection(k, other)
    assert inter.facet_sets() == _maximal(expected)
    assert inter.vertices == _covered_in_order(labels, expected)
    # shares at most f and g with k, so most of its facets miss k
    far = FacetComplex(labels3, facets3)
    expected = simps & _oracle(labels3, facets3)
    inter = facet_intersection(k, far)
    assert inter.facet_sets() == _maximal(expected)
    assert inter.vertices == _covered_in_order(labels, expected)

    outside = frozenset(labels) - set().union(*(t for t in simps if s <= t))
    if outside:
        with pytest.raises(ValueError):
            facet_link(k, [labels.index(v) for v in s | {min(outside)}])


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
    """The maximalizing facet oracle leaves the facets of k as they are."""
    return FacetComplex(k.vertices, k.facets).facets == tuple(k.facets)


@pytest.mark.parametrize("name", sorted(p.stem for p in SPECS.glob("*.json")) + ["F3^4"])
def test_complexes_built_from_maximal_facets_need_no_maximalizing(name):
    """The maximal chains walked from the covers of order_complex, link and
    star_closure are maximal, sorted and cover every vertex: the facet
    oracle, which maximalizes, returns the same facets.  Links of the empty
    simplex, of every vertex, of some facets (empty complexes) and of faces
    of each of those; stars of every vertex."""
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
        assert empty.is_empty() and empty.facets == []
        for s in {f[:2], f[1:], f[::2]}:
            assert _rebuilt_unchanged(link(k, s))


def _labelled(k):
    return k.vertices, k.facet_sets()


@pytest.mark.parametrize("name", sorted(p.stem for p in SPECS.glob("*.json"))
                         + ["F3^4 seeded", "bowtie"])
def test_graph_cuts_equal_the_facet_oracles(name):
    """``link``, ``star_closure`` and ``intersect_complexes``, cut from the
    successor lists, equal the facet oracles by labels: the link of every
    chain, the star of every vertex, and the meet of each star with the
    next vertex's star and with the link of its first facet's other
    vertices."""
    if name == "bowtie":
        k = poset_complex("abdec", ["ab", "bc", "de", "ec"])
    else:
        if name == "F3^4 seeded":
            family = PhanFamily((random_phan_spec(random.Random(2), F3, 4, 0),))
        else:
            family, _ = load_family(str(SPECS / f"{name}.json"))
        k = order_complex(vertices(family).members)
    fk = FacetComplex(k.vertices, k.facets)
    for s in [t for j in range(k.dim + 1) for t in k.simplices(j)]:
        assert _labelled(link(k, s)) == _labelled(facet_link(fk, s)), s
    stars = [star_closure(k, v) for v in range(k.num_vertices)]
    oracle_stars = [facet_star(fk, v) for v in range(k.num_vertices)]
    for v, (star, oracle) in enumerate(zip(stars, oracle_stars)):
        assert _labelled(star) == _labelled(oracle), v
        w = (v + 1) % k.num_vertices
        assert _labelled(intersect_complexes(star, stars[w])) \
            == _labelled(facet_intersection(oracle, oracle_stars[w]))
        f = next(f for f in k.facets if v in f)
        rest = tuple(x for x in f if x != v)
        assert _labelled(intersect_complexes(star, link(k, rest))) \
            == _labelled(facet_intersection(oracle, facet_link(fk, rest)))
