import random

import pytest

from phangeo.field import make_field
from phangeo import linalg as la
from phangeo import masks
from phangeo.linalg import Flag, Subspace

from conftest import (
    enumerate_vectors,
    gaussian_binomial,
    normalized_points,
    oracle_contains_subspace,
    oracle_intersect,
    oracle_is_opposite,
    oracle_is_transversal,
    oracle_normal,
    oracle_rref,
    oracle_subspaces_of,
)


F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2, 2)
F5 = make_field(5, 1)

E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)


def random_subspace(rng, field, ambient, dim):
    while True:
        rows = [tuple(rng.randrange(field.q) for _ in range(ambient)) for _ in range(dim)]
        s = Subspace.span(field, ambient, rows)
        if s.dim == dim:
            return s


def test_span_is_canonical(rng):
    for _ in range(30):
        a = random_subspace(rng, F5, 4, rng.randrange(1, 4))
        # re-span from random linear combinations of the basis
        combos = []
        for _ in range(6):
            v = [0] * 4
            for row in a.basis:
                c = rng.randrange(5)
                v = [F5.add(x, F5.mul(c, y)) for x, y in zip(v, row)]
            combos.append(tuple(v))
        again = Subspace.span(F5, 4, combos + list(a.basis))
        assert again == a and again.basis == a.basis


def test_lattice_examples():
    a = Subspace.span(F2, 3, [E1, E2])
    b = Subspace.span(F2, 3, [E2, E3])
    assert a.intersect(b).basis == ((0, 1, 0),)
    assert a.intersect(a) == a
    assert a.sum(Subspace.zero(F2, 3)) == a


def test_modular_dimension_identity(rng):
    for _ in range(50):
        a = random_subspace(rng, F3, 4, rng.randrange(0, 5))
        b = random_subspace(rng, F3, 4, rng.randrange(0, 5))
        assert a.dim + b.dim == a.sum(b).dim + a.intersect(b).dim


@pytest.mark.parametrize("p,e,sigma_order", [(2, 1, 1), (3, 1, 1), (2, 2, 1), (2, 2, 2),
                                           (5, 1, 1), (3, 2, 1), (3, 2, 2)])
def test_meets_and_containment_match_the_vector_oracles(p, e, sigma_order, rng):
    """intersect and contains_subspace read point masks; the oracles list
    vectors and reduce basis rows.  Random subspaces of F_q^4 (q <= 5) or
    F_q^3 of every dimension, the zero and whole spaces, and spans of some
    basis rows of each, so that containments hold."""
    field = make_field(p, e, sigma_order)
    ambient = 4 if field.q <= 5 else 3
    spaces = [Subspace.zero(field, ambient), Subspace.full(field, ambient)]
    spaces += [random_subspace(rng, field, ambient, rng.randrange(1, ambient)) for _ in range(8)]
    spaces += [Subspace.span(field, ambient, rng.sample(s.basis, rng.randrange(s.dim + 1)))
               for s in spaces[2:6]]
    contained = 0
    for a in spaces:
        for b in spaces:
            assert a.intersect(b).basis == oracle_intersect(a, b).basis
            assert a.contains_subspace(b) == oracle_contains_subspace(a, b)
            contained += a != b and a.contains_subspace(b)
    assert contained


def test_is_opposite():
    assert oracle_is_opposite(Subspace.span(F3, 3, [E1]), Subspace.span(F3, 3, [E2, E3]))
    a = Subspace.span(F3, 3, [E1])
    assert not oracle_is_opposite(a, a)
    assert oracle_is_opposite(Subspace.zero(F3, 3), Subspace.full(F3, 3))


def test_subspace_counts_match_gaussian_binomials():
    for field in (F2, F3, F4, F5):
        for n in range(1, 5):
            for k in range(n + 1):
                got = sum(1 for _ in la.enumerate_subspaces(field, n, k))
                assert got == gaussian_binomial(n, k, field.q)


def test_point_and_plane_counts():
    assert sum(1 for _ in la.enumerate_subspaces(F5, 2, 1)) == 6  # |F|+1
    assert sum(1 for _ in la.enumerate_subspaces(F2, 4, 2)) == 35
    zs = list(la.enumerate_subspaces(F3, 3, 0))
    assert zs == [Subspace.zero(F3, 3)]


def test_enumeration_no_duplicates():
    seen = set()
    for s in la.enumerate_subspaces(F4, 3, 2):
        assert s not in seen
        seen.add(s)
    assert len(seen) == gaussian_binomial(3, 2, 4)


def test_transversality_examples():
    """The rank oracle behind the membership tests of ``tests/test_phan.py``
    (``PhanSpec.is_member`` decides transversality from point masks)."""
    v = Subspace.full(F3, 3)
    trivial_flag = Flag((Subspace.zero(F3, 3), v))
    a = Subspace.span(F3, 3, [E1])
    assert oracle_is_transversal(a, trivial_flag)
    flag = Flag((Subspace.zero(F3, 3), Subspace.span(F3, 3, [E1, E2]), v))
    assert not oracle_is_transversal(Subspace.span(F3, 3, [E1]), flag)
    assert oracle_is_transversal(v, flag)


def test_transversality_iff_opposite_incident_subspace(rng):
    """A is transversal to F iff some subspace C incident with F is opposite
    to A (brute force over all subspaces): the rank oracle for
    transversality agrees with this characterization."""
    for field, dim in [(F2, 3), (F3, 3), (F2, 4)]:
        all_subs = [s for k in range(dim + 1) for s in la.enumerate_subspaces(field, dim, k)]
        for _ in range(12):
            t = rng.randrange(0, dim - 1)
            members = [Subspace.zero(field, dim)]
            dims = sorted(rng.sample(range(1, dim), t))
            ok = True
            for d in dims:
                cand = [s for s in all_subs if s.dim == d and s.contains_subspace(members[-1])]
                members.append(rng.choice(cand))
            members.append(Subspace.full(field, dim))
            flag = Flag(tuple(members))
            a = random_subspace(rng, field, dim, rng.randrange(0, dim + 1))
            incident_opposite = any(
                all(c.contains_subspace(m) or m.contains_subspace(c) for m in members)
                and oracle_is_opposite(a, c)
                for c in all_subs
            )
            assert oracle_is_transversal(a, flag) == incident_opposite


def test_complement_properties(rng):
    v = Subspace.full(F5, 4)
    for _ in range(20):
        a = random_subspace(rng, F5, 4, rng.randrange(0, 5))
        c = la.complement(a, v)
        assert a.sum(c) == v and a.intersect(c).dim == 0
    assert la.complement(v, v) == Subspace.zero(F5, 4)
    w = random_subspace(rng, F5, 4, 2)
    assert la.complement(Subspace.zero(F5, 4), w) == w
    with pytest.raises(ValueError):
        la.complement(v, random_subspace(rng, F5, 4, 2))


def test_complement_deterministic_and_policy_independent(rng):
    a = Subspace.span(F2, 3, [E1])
    v = Subspace.full(F2, 3)
    c1 = la.complement(a, v)
    c2 = la.complement(a, v)
    assert c1 == c2 and oracle_is_opposite(a, c1)
    vecs = list(v.vectors())
    rng.shuffle(vecs)
    c3 = la.complement(a, v, vector_order=vecs)
    assert oracle_is_opposite(a, c3)


def test_vector_enumeration_order():
    vecs = list(enumerate_vectors(F3, 2))
    assert vecs[0] == (0, 0) and vecs[1] == (1, 0) and vecs[3] == (0, 1)
    assert len(vecs) == 9 and len(set(vecs)) == 9


def test_subspaces_of_a_subspace():
    s = Subspace.span(F3, 4, [(1, 0, 0, 1), (0, 1, 0, 2)])
    pts = list(la.enumerate_subspaces_of(s, 1))
    assert len(pts) == 4  # q+1 points of a plane
    for p in pts:
        assert s.contains_subspace(p) and p.dim == 1


@pytest.mark.parametrize("field", [F2, F3, F4, F5], ids=lambda f: f"q{f.q}")
def test_subspace_table_matches_echelon_mapping(field, rng):
    """enumerate_subspaces_of reads the ambient's subspace table; the
    oracle maps the echelon matrices of F_q^dim onto the space's basis.
    Each subspace comes once, for every k, on the zero space, the full space
    and random spaces of ambients up to 4."""
    for ambient in range(1, 5):
        spaces = [Subspace.zero(field, ambient), Subspace.full(field, ambient)]
        spaces += [random_subspace(rng, field, ambient, rng.randrange(1, ambient + 1))
                   for _ in range(3)]
        for u in spaces:
            for k in range(u.dim + 1):
                got = la.enumerate_subspaces_of(u, k)
                assert len(set(got)) == len(got)
                assert set(got) == set(oracle_subspaces_of(u, k))
            for k in (-1, u.dim + 1):
                with pytest.raises(ValueError):
                    la.enumerate_subspaces_of(u, k)


@pytest.mark.parametrize("field,ambient", [(F3, 4), (F4, 3)], ids=["F3^4", "hermitian F4^3"])
def test_subspaces_of_match_the_whole_table_filter(field, ambient):
    """enumerate_subspaces_of reads only the table entries whose lowest point
    lies in the space; the oracle filters the whole table by containment.
    Same subspace objects, same table order, for every subspace and every
    k."""
    record = la._ambient(field, ambient)
    spaces = [s for k in range(ambient + 1) for s in la.enumerate_subspaces(field, ambient, k)]
    for u in spaces:
        for k in range(u.dim + 1):
            want = [s for s in record[k] if oracle_contains_subspace(u, s)]
            got = la.enumerate_subspaces_of(u, k)
            assert type(got) is tuple and list(map(id, got)) == list(map(id, want))


def test_lookup_by_mask_returns_the_listed_objects_after_eviction():
    """The subspace tables of more ambients than any cache holds are built,
    F_2 to F_13 with d = 2..4 and q^d <= 3000, after F_3^3 has been read both
    ways; then ``Subspace.from_mask`` of each point mask of F_3^3 is the
    very object that ``enumerate_subspaces_of`` lists for it."""
    whole = Subspace.full(F3, 3)
    for point in la.enumerate_subspaces_of(whole, 1):
        assert Subspace.from_mask(F3, 3, point.point_mask) is point
    for p, e in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1)]:
        field = make_field(p, e)
        for d in range(2, 5):
            if field.q**d <= 3000:
                full = Subspace.full(field, d)
                for k in range(d + 1):
                    la.enumerate_subspaces_of(full, k)
    for point in la.enumerate_subspaces_of(whole, 1):
        assert Subspace.from_mask(F3, 3, point.point_mask) is point


def test_dropping_the_ambient_records_drops_their_hyperplane_masks():
    """The hyperplane masks belong to their ambient's record: once the
    records are dropped, the perps of a new form read a hyperplane table
    swept afresh, equal to the old one but not the same object."""
    from phangeo.forms import HermitianForm

    def hyperplanes():
        form = HermitianForm(F3, Subspace.full(F3, 3), ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        return form._perps.hyperplanes

    first = hyperplanes()
    la._ambient.cache_clear()
    again = hyperplanes()
    assert again == first and again is not first


@pytest.mark.parametrize("p,e,sigma", [(2, 2, 2), (3, 2, 2), (5, 2, 2), (2, 9, 1)])
def test_rref_matches_the_method_path(p, e, sigma, rng):
    """The table-driven rref against elimination through the Field methods,
    on random matrices over sigma-order-2 fields and over F_2^9, whose
    tables are computed on lookup."""
    field = make_field(p, e, sigma)
    for _ in range(60):
        nrows, ncols = rng.randrange(1, 6), rng.randrange(1, 6)
        rows = [[rng.choice((0, rng.randrange(field.q))) for _ in range(ncols)]
                for _ in range(nrows)]
        assert la.rref(field, rows) == oracle_rref(field, rows)


def _subspaces_of_f_q_3(field):
    return [s for k in range(4) for s in la.enumerate_subspaces(field, 3, k)]


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_point_mask_is_the_set_of_normalized_points(p, e):
    """Bit i for each nonzero vector whose first nonzero coordinate is 1,
    the i-th in the order of the point table; q = 4 and q = 9 exercise the
    non-prime encodings."""
    field = make_field(p, e)
    q = field.q
    position = {v: i for i, v in enumerate(normalized_points(field, 3))}
    subs = _subspaces_of_f_q_3(field)
    assert len(subs) == 2 + 2 * (q**2 + q + 1)
    for s in subs:
        expected = 0
        for v in s.vectors():
            if any(v) and next(x for x in v if x) == 1:
                expected |= 1 << position[v]
        assert s.point_mask == expected
        assert bin(s.point_mask).count("1") == (q**s.dim - 1) // (q - 1)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_mask_containment_matches_contains_subspace(p, e):
    subs = _subspaces_of_f_q_3(make_field(p, e))
    for a in subs:
        for b in subs:
            assert (a.point_mask & ~b.point_mask == 0) == b.contains_subspace(a)


@pytest.mark.parametrize("p,e,ambient", [(2, 1, 4), (3, 1, 4), (2, 2, 3), (3, 2, 3), (5, 1, 2)])
def test_hyperplane_masks_are_keyed_by_their_normals(p, e, ambient):
    """Each hyperplane appears once, under the point of a normal c: its mask
    holds exactly the points y with sum_j c_j y_j = 0, checked through the
    Field methods on every point; q = 4 and q = 9 exercise the non-prime
    encodings."""
    field = make_field(p, e)
    q = field.q
    points = normalized_points(field, ambient)
    table = la._ambient(field, ambient).hyperplanes
    assert len(table) == (q**ambient - 1) // (q - 1)
    for key, mask in table.items():
        assert 0 <= key < len(points)  # the key is a normalized vector
        normal = points[key]
        for bit, y in enumerate(points):
            dot = 0
            for c, x in zip(normal, y):
                dot = field.add(dot, field.mul(c, x))
            assert (mask >> bit & 1) == (dot == 0)


MASK_AMBIENTS = [(2, 1, 1, 5), (3, 1, 1, 4), (2, 2, 1, 4), (2, 2, 2, 4), (5, 1, 1, 4),
                 (3, 1, 1, 3), (11, 1, 1, 3), (5, 1, 1, 2), (3, 2, 2, 2), (3, 1, 1, 1)]


@pytest.mark.parametrize("p,e,sigma_order,ambient", MASK_AMBIENTS)
def test_table_masks_match_the_listed_masks(p, e, sigma_order, ambient):
    """The table's masks are hyperplane meets; every one equals the listed
    mask, and so does the mask of a subspace outside the tables."""
    field = make_field(p, e, sigma_order)
    for k in range(ambient + 1):
        for s in la._ambient(field, ambient)[k]:
            assert s.point_mask == masks.listed_mask(field, ambient, s.basis)
            assert Subspace(field, ambient, s.basis).point_mask == s.point_mask


@pytest.mark.parametrize("p,e,sigma_order,ambient", MASK_AMBIENTS)
def test_swept_hyperplanes_match_the_table(p, e, sigma_order, ambient):
    """The coordinate sweep gives each hyperplane of the table its listed
    mask, under its normal found by a search over vectors; the ambient
    record's ``hyperplanes`` are the sweep."""
    field = make_field(p, e, sigma_order)
    position = {v: i for i, v in enumerate(normalized_points(field, ambient))}
    expected = {}
    for h in la._ambient(field, ambient)[ambient - 1]:
        expected[position[oracle_normal(field, h)]] = masks.listed_mask(field, ambient, h.basis)
    assert masks.swept_hyperplanes(field, ambient) == expected
    assert la._ambient(field, ambient).hyperplanes == expected


@pytest.mark.parametrize("p,e,sigma_order,ambient", MASK_AMBIENTS)
def test_masks_are_as_wide_as_the_point_table(p, e, sigma_order, ambient):
    """Bit i is the i-th point of the k = 1 table, which lists the
    normalized vectors in the order of ``normalized_points``, so the whole
    space is 2^N - 1 for N points, and every hyperplane mask, table mask
    and point perp lies below 2^N."""
    from phangeo.forms import HermitianForm

    field = make_field(p, e, sigma_order)
    record = la._ambient(field, ambient)
    points = record[1]
    n = len(points)
    assert [s.basis[0] for s in points] == normalized_points(field, ambient)
    assert all(s.point_mask == 1 << i for i, s in enumerate(points))
    assert Subspace.full(field, ambient).point_mask == (1 << n) - 1
    assert all(mask >> n == 0 for mask in record.hyperplanes.values())
    assert all(s.point_mask >> n == 0 for k in range(ambient + 1) for s in record[k])
    identity = tuple(tuple(int(i == j) for j in range(ambient)) for i in range(ambient))
    perps = HermitianForm(field, Subspace.full(field, ambient), identity)._perps
    assert all(perps[i] >> n == 0 for i in range(n))
