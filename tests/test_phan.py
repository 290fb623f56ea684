import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phangeo import filtration
from phangeo.field import make_field
from phangeo.forms import HermitianForm, RadicalConditionError
from phangeo.linalg import (
    Flag,
    Subspace,
    enumerate_subspaces,
    enumerate_subspaces_of,
    rref,
)
from phangeo import residues, suites
from phangeo.phan import PhanFamily, PhanSpec, vertices
from phangeo.residues import (
    EmptyResidueError,
    MembershipError,
    delta_restriction,
    residue_above,
    residue_below,
)
from phangeo.specfile import dump_family, load_family
from phangeo.suites import (
    chamber_spec,
    desk_geometries,
    diagonal_spec,
    family_geometries,
    mixed_t1_spec,
    random_phan_spec,
    run_delta_suite,
    run_residue_suite,
    standard_spec,
)

from conftest import (
    oracle_is_member,
    oracle_is_nondegenerate,
    oracle_is_opposite,
    oracle_perp,
    oracle_is_transversal,
    oracle_k_of,
    oracle_pivot_walk,
    unit_form,
)

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2, 2)
F5 = make_field(5, 1)
F9 = make_field(3, 2, 2)


def test_spec_validation():
    v3 = Subspace.full(F5, 3)
    flag = Flag((Subspace.zero(F5, 3), v3))
    PhanSpec(flag, (unit_form(v3),))
    degenerate = HermitianForm(F5, v3, tuple(tuple(0 for _ in range(3)) for _ in range(3)))
    with pytest.raises(RadicalConditionError):
        PhanSpec(flag, (degenerate,))
    with pytest.raises(ValueError):
        PhanSpec(flag, ())


def test_k_of():
    spec = standard_spec(F5, 3)
    u = Subspace.span(F5, 3, [(1, 0, 0)])
    assert spec.k_of(u) == 0  # t = 0: always 0
    with pytest.raises(ValueError):
        spec.k_of(Subspace.zero(F5, 3))
    cham = chamber_spec(F3, 3)
    p_opp = Subspace.span(F3, 3, [(0, 0, 1)])  # opposite V_2 = <e1,e2>
    assert cham.k_of(p_opp) == 2
    assert cham.k_of(Subspace.span(F3, 3, [(1, 0, 0)])) == 0


def test_membership_trivialities():
    spec = standard_spec(F5, 3)
    assert not spec.is_member(Subspace.zero(F5, 3))
    assert not spec.is_member(Subspace.full(F5, 3))


def test_t0_membership_is_nondegeneracy():
    spec = standard_spec(F5, 3)
    w = spec.forms[0]
    for k in (1, 2):
        for u in enumerate_subspaces(F5, 3, k):
            assert spec.is_member(u) == oracle_is_nondegenerate(w, u)


def test_chamber_membership_is_opposition():
    """t = n members are exactly the subspaces opposite the flag member of
    complementary dimension (independent oracle)."""
    cham = chamber_spec(F3, 3)
    for k in (1, 2):
        for u in enumerate_subspaces(F3, 3, k):
            assert cham.is_member(u) == oracle_is_opposite(u, cham.flag[3 - k])
    assert len(cham.members()) == 2 * 3**2


def test_vertex_counts():
    assert len(vertices(PhanFamily((standard_spec(F4, 2),))).members) == 2
    assert len(vertices(PhanFamily((diagonal_spec(F5, (1, 1)),))).members) == 4
    assert len(vertices(PhanFamily((standard_spec(F5, 3),))).members) == 50
    # the bound 2^2 = 4 < 5 holds, so the geometry is non-empty in every dim
    vs = vertices(PhanFamily((standard_spec(F5, 3),)))
    assert {u.dim for u in vs.members} == {1, 2}


def _every_subspace(field, dim):
    return [u for k in range(dim + 1) for u in enumerate_subspaces(field, dim, k)]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return ValueError


def _recorded_delta_specs(family):
    """Every spec that delta_restriction builds along the filtration of the
    family."""
    specs = []

    def recording(*args, **kwargs):
        fam = residues.delta_restriction(*args, **kwargs)
        specs.extend(fam.specs)
        return fam

    mp = pytest.MonkeyPatch()
    mp.setattr(filtration, "delta_restriction", recording)
    try:
        filtration.run_verification(family)
    finally:
        mp.undo()
    return specs


def _membership_oracle_specs():
    rng = random.Random(8)
    specs = [s for _, s in desk_geometries()]
    specs += [s for _, fam in family_geometries() for s in fam.specs]
    specs += [random_phan_spec(rng, field, dim, t)
              for field, dim in ((F2, 4), (F3, 3), (F3, 4), (F4, 3), (F5, 3), (F9, 3))
              for t in range(1, dim - 1)]
    specs += [standard_spec(F4, 3), standard_spec(F9, 3), chamber_spec(F4, 3)]
    residues = []
    for spec in specs:
        for u in spec.members()[::7]:
            residues.append(residue_below(spec, u))
            residues.append(residue_above(spec, u))
    # F_2^5, the one ambient here where U ∩ V_(k+1) can reach dimension 3, as
    # it does for every 4-dimensional member of mixed_t1_spec(F2, 5, 4) and V_1;
    # their residues have ambients of dimension at most 4, so they are left out
    specs += [random_phan_spec(rng, F2, 5, t) for _ in range(2) for t in (1, 2, 3)]
    specs += [mixed_t1_spec(F2, 5, 4)]
    return specs + residues, _recorded_delta_specs(PhanFamily((standard_spec(F5, 3),)))


def _decoded_meet_dim(spec, u) -> int:
    """dim(U ∩ V_(k+1)) where is_member reads that intersection as a meet of
    point masks (a proper non-zero transversal subspace of the ambient that
    is not inside V_(k+1)), else 0."""
    if not (0 < u.dim < spec.ambient.dim and spec.ambient.contains_subspace(u)
            and oracle_is_transversal(u, spec.flag)):
        return 0
    v = spec.flag[oracle_k_of(spec, u) + 1]
    return 0 if v.contains_subspace(u) else u.intersect(v).dim


def test_membership_matches_rref_oracle():
    """is_member and k_of read point masks; they agree with the rref
    versions on every subspace of the coordinate space holding each spec's
    ambient, inside and outside the ambient, for bundled, random, hermitian,
    residue and restricted-family specs.  The random specs on F_2^5 make
    is_member test meets of two masks of dimension 3 and more."""
    subspaces = {}
    specs, delta = _membership_oracle_specs()
    decoded = set()
    for spec in specs + delta:
        key = (spec.field, spec.ambient.ambient)
        if key not in subspaces:
            subspaces[key] = _every_subspace(*key)
        for u in subspaces[key]:
            assert spec.is_member(u) == oracle_is_member(spec, u), (spec, u)
            if not u.is_zero():
                assert _outcome(spec.k_of, u) == _outcome(oracle_k_of, spec, u)
            decoded.add(_decoded_meet_dim(spec, u))
    assert delta and any(not s.ambient.is_full() for s in specs)
    assert max(decoded) >= 3


def test_mask_nondegeneracy_matches_gram_rank():
    """nondegenerate_on_mask agrees with the Gram-rank oracle on every
    subspace of the domain of every form of the membership specs:
    q in {2, 3, 4, 5, 9} with sigma of order 2 over F_4 and F_9, forms with
    a non-zero radical (every w_i with i >= 1), residues above a member on
    their perp sections and restricted-family specs; plus sigma of order 1
    over F_4 and F_9."""
    specs, delta = _membership_oracle_specs()
    f4id, f9id = make_field(2, 2, 1), make_field(3, 2, 1)
    specs += [standard_spec(f4id, 3), standard_spec(f9id, 3),
              random_phan_spec(random.Random(3), f4id, 3, 1),
              random_phan_spec(random.Random(4), f9id, 3, 1)]
    kinds = set()
    for spec in specs + delta:
        for w in spec.forms:
            kinds.add((w.field.q, w.field.sigma_order, w.radical().is_zero()))
            for k in range(w.domain.dim + 1):
                for s in enumerate_subspaces_of(w.domain, k):
                    assert w.nondegenerate_on_mask(s.point_mask) == oracle_is_nondegenerate(w, s)
    assert {(q, o, r) for q, o, r in kinds if not r} >= {(2, 1, False), (3, 1, False),
                                                       (4, 2, False), (5, 1, False),
                                                       (9, 2, False)}
    assert {(4, 1, True), (9, 1, True), (9, 1, False)} <= kinds


def test_vertices_run_no_elimination(monkeypatch, tmp_path):
    """Once the spec file is loaded, enumerating the vertices of F_3^4 runs
    neither an rref nor a restriction's Gram matrix: membership is mask
    algebra only."""
    import phangeo.linalg

    path = tmp_path / "f34.json"
    dump_family(PhanFamily((standard_spec(F3, 4),)), str(path))
    family, _ = load_family(str(path))

    def refused(*args):
        raise AssertionError("elimination called")

    monkeypatch.setattr(phangeo.linalg, "rref", refused)
    monkeypatch.setattr(HermitianForm, "restrict", refused)
    assert len(vertices(family).members) == 138


def _transport(spec, rows):
    """The spec carried through the invertible map with the given rows, and
    the map on subspaces: g is an isometry from spec to the image spec."""
    field = spec.field
    dim = spec.ambient.ambient

    def image(s):
        return Subspace.span(field, dim, [tuple(_apply(field, rows, v)) for v in s.basis])

    inv = _invert(field, rows)
    tflag = Flag(tuple(image(m) for m in spec.flag.members))
    # transported gram over the image basis
    tforms = []
    for w in spec.forms:
        dom = image(w.domain)
        gram = tuple(
            tuple(w.evaluate(_apply(field, inv, x), _apply(field, inv, y))
                  for y in dom.basis)
            for x in dom.basis
        )
        tforms.append(HermitianForm(field, dom, gram))
    return PhanSpec(tflag, tuple(tforms)), image


def test_membership_invariant_under_isometry(rng):
    """Transporting the whole structure through a random invertible map
    preserves membership."""
    spec = standard_spec(F5, 3)
    for _ in range(5):
        while True:
            rows = [tuple(rng.randrange(5) for _ in range(3)) for _ in range(3)]
            if len(rref(F5, rows)) == 3:
                break
        tspec, image = _transport(spec, rows)
        for k in (1, 2):
            for u in enumerate_subspaces(F5, 3, k):
                assert spec.is_member(u) == tspec.is_member(image(u))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(F2, 3), (F3, 3), (F4, 3), (F5, 3), (F9, 2), (F2, 4)]),
       st.data())
def test_membership_invariant_under_isometry_property(config, data):
    """For drawn specs and drawn invertible maps g, U is a member iff gU is a
    member of the transported spec, on every subspace: the point-mask
    encoding does not depend on coordinates."""
    field, dim = config
    t = data.draw(st.integers(0, dim - 2), label="t")
    spec = random_phan_spec(random.Random(data.draw(st.integers(0, 2**32 - 1))), field, dim, t)
    entry = st.integers(0, field.q - 1)
    rows = data.draw(st.lists(st.tuples(*[entry] * dim), min_size=dim, max_size=dim)
                     .filter(lambda r: len(rref(field, r)) == dim), label="g")
    tspec, image = _transport(spec, rows)
    for u in _every_subspace(field, dim):
        assert spec.is_member(u) == tspec.is_member(image(u))


def _apply(field, rows, v):
    out = [0] * len(rows[0])
    for c, row in zip(v, rows):
        if c:
            out = [field.add(x, field.mul(c, y)) for x, y in zip(out, row)]
    return tuple(out)


def _invert(field, rows):
    n = len(rows)
    aug = [list(rows[i]) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    red = rref(field, aug)
    return [tuple(r[n:]) for r in red]


def test_residue_below_trivialities():
    spec = standard_spec(F5, 3)
    point = next(u for u in spec.members() if u.dim == 1)
    res = residue_below(spec, point)
    assert res.members() == ()  # no proper non-trivial subspaces of a line
    with pytest.raises(MembershipError):
        residue_below(spec, Subspace.full(F5, 3))


def test_residue_above_hyperplane_is_empty():
    spec = standard_spec(F5, 3)
    plane = next(u for u in spec.members() if u.dim == 2)
    res = residue_above(spec, plane)
    assert res.ambient.dim == 1 and res.members() == ()
    assert plane.sum(res.ambient).is_full() and plane.intersect(res.ambient).is_zero()


def test_residues_match_literal_sets_exhaustively():
    result = run_residue_suite(
        geometries=[("t0_q3_dim3", standard_spec(F3, 3)),
                    ("chamber_q3_dim3", chamber_spec(F3, 3)),
                    ("t1_q3_dim3", mixed_t1_spec(F3, 3, 1))],
        families=[],
    )
    assert result.passed, result.failures
    assert result.instances > 0


def test_family_residues_match_intersections():
    result = run_residue_suite(geometries=[], families=family_geometries())
    assert result.passed, result.failures


def test_residues_with_alternating_forms_build():
    """Over F_2 with identity sigma, the identity form on F_2^4 restricts
    to alternating non-degenerate forms on planes of even-weight vectors:
    the residue below such a member and the residue above a member whose
    perp is one are specs all the same, with no members, as their points
    are isotropic.  A spec needs no non-isotropic vector; only a geometry
    file does."""
    f2 = make_field(2, 1)
    spec = standard_spec(f2, 4)
    even = Subspace.span(f2, 4, [(1, 1, 0, 0), (0, 1, 1, 0)])
    odd = Subspace.span(f2, 4, [(1, 1, 1, 0), (0, 0, 0, 1)])
    assert spec.is_member(even) and spec.is_member(odd)
    below, above = residue_below(spec, even), residue_above(spec, odd)
    assert above.ambient == even
    for res in (below, above):
        assert [w.admits_nonisotropic_vector() for w in res.forms] == [False]
        assert res.members() == ()
    plane = Flag((Subspace.zero(f2, 2), Subspace.full(f2, 2)))
    alternating = HermitianForm(f2, plane.top, ((0, 1), (1, 0)))
    assert vertices(PhanFamily((PhanSpec(plane, (alternating,)),))).members == ()


def test_residue_radicals_validated():
    """Every residue spec passes its own constructor invariants; exercised
    across an entire geometry."""
    spec = mixed_t1_spec(F3, 4, 3)
    for u in spec.members():
        residue_below(spec, u)
        residue_above(spec, u)


def test_delta_restriction_t0_shape():
    spec = standard_spec(F5, 3)
    fam = PhanFamily((spec,))
    p = Subspace.span(F5, 3, [(1, 0, 0)])
    u = next(x for x in vertices(fam).members
             if x.dim == 2 and not x.contains_subspace(p))
    sub = delta_restriction(fam, p, u)
    assert 1 <= len(sub.specs) <= 2
    assert all(s.ambient == u for s in sub.specs)
    # first output is the plain restriction of the form to u
    restricted = spec.forms[0].restrict(u)
    assert any(s.forms[-1].gram == restricted.gram for s in sub.specs)


def test_delta_restriction_errors():
    spec = standard_spec(F5, 3)
    fam = PhanFamily((spec,))
    p = Subspace.span(F5, 3, [(1, 0, 0)])
    u_through = next(x for x in vertices(fam).members
                     if x.dim == 2 and x.contains_subspace(p))
    with pytest.raises(ValueError):
        delta_restriction(fam, p, u_through)
    point = next(x for x in vertices(fam).members
                 if x.dim == 1 and not x.contains_subspace(p))
    with pytest.raises(EmptyResidueError):
        delta_restriction(fam, p, point)


def test_delta_restriction_matches_oracle_everywhere():
    result = run_delta_suite(
        geometries=[("t0_q3_dim3", standard_spec(F3, 3)),
                    ("chamber_q3_dim3", chamber_spec(F3, 3))],
        families=[],
    )
    assert result.passed, result.failures
    assert result.notes["branch_hits"].get("hyperplane_l_t", 0) > 0


def test_delta_radical_branch_is_reachable_and_correct():
    result = run_delta_suite(
        geometries=[("t0_q3_dim4", standard_spec(F3, 4))],
        families=[],
    )
    assert result.passed, result.failures
    assert result.notes["branch_hits"].get("radical_augmented", 0) > 0


@pytest.mark.parametrize("seed", [0, 7, 2026])
def test_delta_suite_draws_a_second_pivot(seed, monkeypatch):
    """Each job of the delta suite runs at its canonical pivot and at one
    other point; a multiple of the canonical vector is the same point, so
    it is never drawn as the second.  The draw is from the job's first
    4 (_EXTRA_PIVOTS + 1) + 1 pivot points, those of the oracle's walk.  A
    job on a plane (n = 1) has no member with a member below, so the suite
    skips it before the draw: it neither lists its members nor restricts
    them."""
    pivots, pools, listed = {}, {}, []
    walk = PhanFamily.pivot_points

    def recording(family, p, u, branches=None):
        pivots.setdefault(family, set()).add(p)
        return delta_restriction(family, p, u, branches=branches)

    def recording_walk(family, isotropic=False):
        for p in walk(family, isotropic):
            pools.setdefault(family, []).append(p)
            yield p

    def recording_vertices(family):
        listed.append(family)
        return vertices(family)

    monkeypatch.setattr(suites, "delta_restriction", recording)
    monkeypatch.setattr(suites, "vertices", recording_vertices)
    monkeypatch.setattr(PhanFamily, "pivot_points", recording_walk)
    assert run_delta_suite(seed=seed).passed
    jobs = [PhanFamily((spec,)) for _, spec in desk_geometries()]
    jobs += [family for _, family in family_geometries()]
    assert set(pivots) == {family for family in jobs if family.n > 1}
    assert all(len(points) == 2 for points in pivots.values())
    assert {family for family in jobs if family.n == 1}.isdisjoint(listed)
    size = 4 * (suites._EXTRA_PIVOTS + 1) + 1
    assert pools == {family: oracle_pivot_walk(family)[:size] for family in jobs}


def test_delta_unit_scalar_choice_is_irrelevant():
    """The arbitrary non-degenerate form on one-dimensional flag pieces may
    be [c] for any nonzero c without changing the vertex set: every 1 x 1
    form of the restricted family, scaled by c, gives the same vertices."""
    cham = chamber_spec(F3, 3)
    fam = PhanFamily((cham,))
    p = Subspace.span(F3, 3, [(0, 0, 1)])
    scaled = 0
    for u in vertices(fam).members:
        if u.contains_subspace(p) or not all(s.has_member_below(u) for s in fam.specs):
            continue
        fam_u = delta_restriction(fam, p, u)
        base = set(vertices(fam_u).members)
        for c in (2,):
            specs = []
            for s in fam_u.specs:
                forms = tuple(
                    HermitianForm(F3, w.domain, ((F3.mul(c, w.gram[0][0]),),))
                    if w.domain.dim == 1 else w for w in s.forms)
                scaled += forms != s.forms
                specs.append(PhanSpec(s.flag, forms))
            assert set(vertices(PhanFamily(tuple(specs))).members) == base
    assert scaled


def test_family_bound_reports():
    assert PhanFamily((standard_spec(F5, 3),)).bound()["satisfied"]  # 4 < 5
    f4id = make_field(2, 2, 1)
    assert not PhanFamily((standard_spec(f4id, 3),)).bound()["satisfied"]  # 4 < 4 fails
    b = PhanFamily((chamber_spec(F3, 3),)).bound()
    assert b["satisfied"] and b["lhs"] == 2  # rank-one improvement: 2 < 3
    f9 = make_field(3, 2, 2)
    b9 = PhanFamily((standard_spec(f9, 3),)).bound()
    assert b9["satisfied"] and b9["lhs"] == 8  # 2*(3+1) = 8 < 9


RESTRICTED = {
    "chamber_q3_dim3": lambda: PhanFamily((chamber_spec(F3, 3),)),
    "t0_q5_dim3": lambda: PhanFamily((standard_spec(F5, 3),)),
    "t0_q4h_dim3": lambda: PhanFamily((standard_spec(F4, 3),)),
    "t0_q3_dim4": lambda: PhanFamily((standard_spec(F3, 4),)),
}


def _restricted_families(family):
    """(U, restricted family) for each member U off the canonical pivot
    whose restricted family ``delta_restriction`` builds, as check (d) of
    ``filtration-verify`` makes them."""
    p = filtration.choose_pivot(family)
    for u in vertices(family).members:
        if not u.contains_subspace(p) and all(s.has_member_below(u) for s in family.specs):
            yield u, delta_restriction(family, p, u)


@pytest.mark.parametrize("name", list(RESTRICTED))
def test_restricted_perp_tables_match_the_oracle(name):
    """The residue_below and Lemma 4.9 forms of the restricted families read
    their perps from the table of their root, the form that their chain of
    restrictions starts from, x^perp in S being x^perp in D cut by S; at
    every point x of each domain that cut is ``oracle_perp``'s.  The
    restrictions are counted by the shared table."""
    restricted = 0
    for _, fam in _restricted_families(RESTRICTED[name]()):
        for spec in fam.specs:
            for w in spec.forms:
                root = w
                while root._parent is not None:
                    root = root._parent
                restricted += w._perps is root._perps and root is not w
                for x in enumerate_subspaces_of(w.domain, 1):
                    perp = w._perps[x.point_mask.bit_length() - 1] & w.domain.point_mask
                    assert Subspace.from_mask(w.field, x.ambient, perp) == oracle_perp(w, x)
    assert restricted


@pytest.mark.parametrize("name", list(RESTRICTED))
def test_restricted_membership_matches_the_oracle(name):
    """The one-pass ``is_member`` equals ``oracle_is_member`` on every spec
    of the restricted families, for every subspace of U and for the
    subspaces of the ambient outside U (containment), and a subspace of
    another ambient is refused with ValueError."""
    family = RESTRICTED[name]()
    amb = family.ambient
    everywhere = [s for k in range(amb.dim + 1) for s in enumerate_subspaces_of(amb, k)]
    alien = Subspace.span(family.field, amb.dim + 1, [(1,) + (0,) * amb.dim])
    checked = 0
    for u, fam in _restricted_families(family):
        inside = [s for k in range(u.dim + 1) for s in enumerate_subspaces_of(u, k)]
        for spec in fam.specs:
            for s in inside + [s for s in everywhere if not u.contains_subspace(s)]:
                assert spec.is_member(s) == oracle_is_member(spec, s)
                checked += 1
            with pytest.raises(ValueError):
                spec.is_member(alien)
    assert checked
