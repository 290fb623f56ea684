import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phangeo.field import make_field
from phangeo.forms import HermitianForm, HermitianSymmetryError
from phangeo.linalg import Flag, Subspace, complement, enumerate_subspaces_of
from phangeo.phan import PhanSpec
from phangeo.residues import DegeneratePivotError, extend_forms, project_form
from phangeo.suites import (
    random_hermitian_gram,
    random_phan_spec,
    random_subspace,
    shuffled_complement_policy,
)

from conftest import (
    count_isotropic_points,
    enumerate_vectors,
    find_nonisotropic_pair,
    oracle_admits_nonisotropic_vector,
    oracle_extended_grams,
    oracle_form_value,
    oracle_is_nondegenerate,
    oracle_nondegenerate_on,
    oracle_perp,
    oracle_radical,
    unit_form,
)

F3 = make_field(3, 1)
F4 = make_field(2, 2, 2)
F5 = make_field(5, 1)
F9 = make_field(3, 2, 2)


def test_symmetry_validation():
    v2 = Subspace.full(F5, 2)
    with pytest.raises(HermitianSymmetryError):
        HermitianForm(F5, v2, ((1, 2), (3, 1)))
    v2h = Subspace.full(F9, 2)
    x = F9.from_coeffs((0, 1))  # not fixed by sigma
    assert F9.sigma(x) != x
    HermitianForm(F9, v2h, ((1, x), (F9.sigma(x), 1)))  # fine
    with pytest.raises(HermitianSymmetryError):
        HermitianForm(F9, v2h, ((1, x), (x, 1)))


def test_evaluate_examples():
    v3 = Subspace.full(F5, 3)
    w = unit_form(v3)
    assert w.evaluate((0, 0, 0), (1, 2, 3)) == 0
    x = (1, 1, 0)
    y = (1, F5.neg(1), 0)
    assert w.evaluate(x, y) == 0  # 1 - 1
    with pytest.raises(ValueError):
        w.evaluate((1, 0), (0, 1))


def test_hermitian_norm_matches_direct_polynomial_evaluation():
    """w(x, x) for the standard hermitian plane equals x1^(q'+1) + x2^(q'+1)
    computed through independent field exponentiation."""
    v2 = Subspace.full(F4, 2)
    w = unit_form(v2)
    for x1 in range(F4.q):
        for x2 in range(F4.q):
            direct = F4.add(F4.pow(x1, 3), F4.pow(x2, 3))
            assert w.evaluate((x1, x2), (x1, x2)) == direct


def test_hermitian_symmetry_of_evaluation(rng):
    v3 = Subspace.full(F9, 3)
    for _ in range(25):
        w = HermitianForm(F9, v3, random_hermitian_gram(rng, F9, 3))
        x = tuple(rng.randrange(9) for _ in range(3))
        y = tuple(rng.randrange(9) for _ in range(3))
        assert w.evaluate(y, x) == F9.sigma(w.evaluate(x, y))


def test_radical_examples():
    v2 = Subspace.full(F3, 2)
    assert unit_form(v2).radical().is_zero()
    zero = HermitianForm(F3, v2, ((0, 0), (0, 0)))
    assert zero.radical() == v2
    rank1 = HermitianForm(F3, v2, ((1, 0), (0, 0)))
    assert rank1.radical().basis == ((0, 1),)


def test_nondegeneracy_examples():
    v2 = Subspace.full(F4, 2)
    w = unit_form(v2)
    assert oracle_is_nondegenerate(w, Subspace.zero(F4, 2))
    omega = F4.from_coeffs((0, 1))
    iso = Subspace.span(F4, 2, [(1, omega)])  # norm 1 + w^3 = 0
    assert not oracle_is_nondegenerate(w, iso)
    assert oracle_is_nondegenerate(w, Subspace.span(F4, 2, [(1, 0)]))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([make_field(2, 1), F3, F4, make_field(2, 2, 1), F5, F9,
                        make_field(3, 2, 1)]),
       st.integers(1, 4), st.data())
def test_nondegeneracy_is_full_gram_rank(field, ambient, data):
    """The Gram-rank test agrees with the radical on random subspaces of
    random domains, the zero subspace included."""
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    domain = random_subspace(rng, field, ambient, data.draw(st.integers(0, ambient)))
    w = HermitianForm(field, domain, random_hermitian_gram(rng, field, domain.dim))
    for k in range(domain.dim + 1):
        rows = []
        for _ in range(k):
            v = (0,) * ambient
            for r in domain.basis:
                c = rng.randrange(field.q)
                v = tuple(field.add(x, field.mul(c, y)) for x, y in zip(v, r))
            rows.append(v)
        sub = Subspace.span(field, ambient, rows)
        assert oracle_is_nondegenerate(w, sub) == w.restrict(sub).radical().is_zero()
    assert oracle_is_nondegenerate(w) == w.radical().is_zero()


@pytest.mark.parametrize("p,e,sigma", [(2, 2, 2), (3, 2, 2), (5, 2, 2), (2, 9, 1)])
def test_one_triangle_gram_matches_the_method_path(p, e, sigma, rng):
    """The Gram-rank oracle ranks the Gram matrix that restrict evaluates on
    one triangle through the lookup tables, and nondegenerate_on_mask reads
    the perp masks; the method oracle evaluates both triangles through the
    Field methods.  Random forms
    on random domains of F_q^4 (some degenerate), random subspaces of the
    domain; F_2^9 computes its table entries on lookup.  The perp table has
    one entry per point of the domain and the hyperplane table one per
    hyperplane of F_q^4, so the mask test is checked for q <= 9 only."""
    field = make_field(p, e, sigma)
    seen = set()
    for _ in range(40):
        domain = random_subspace(rng, field, 4, rng.randrange(1, 5))
        w = HermitianForm(field, domain, random_hermitian_gram(rng, field, domain.dim))
        for k in range(1, domain.dim + 1):
            rows = []
            for _ in range(k):
                v = (0,) * 4
                for r in domain.basis:
                    c = rng.randrange(field.q)
                    v = tuple(field.add(x, field.mul(c, y)) for x, y in zip(v, r))
                rows.append(v)
            sub = Subspace.span(field, 4, rows)
            got = oracle_is_nondegenerate(w, sub)
            assert got == oracle_nondegenerate_on(w, sub.basis)
            if field.q <= 9:
                assert w.nondegenerate_on_mask(sub.point_mask) == got
            seen.add(got)
    assert seen == {True, False} or field.q > 25  # over F_2^9 nearly all are non-degenerate


def test_gram_of_matches_pairwise_values(rng):
    """gram_of is [w(x_i, x_j)] by the pairwise oracle on random vector
    lists with zero, repeated and dependent vectors, on the whole space and
    on a plane of it, for sigma of order 1 (F_3, F_5, F_9 with the identity)
    and of order 2 (hermitian F_4 and F_9); a vector outside the domain
    raises ValueError."""
    for field in (F3, F5, make_field(3, 2, 1), F4, F9):
        full = Subspace.full(field, 3)
        for domain in (full, random_subspace(rng, field, 3, 2)):
            w = HermitianForm(field, domain, random_hermitian_gram(rng, field, domain.dim))
            vecs = list(domain.vectors())
            for size in range(4):
                xs = [rng.choice(vecs) for _ in range(size)] + [(0, 0, 0)]
                a, b = rng.randrange(field.q), rng.randrange(field.q)
                xs += [xs[0], tuple(field.add(field.mul(a, x), field.mul(b, y))
                                    for x, y in zip(xs[0], xs[-1]))]
                rng.shuffle(xs)
                assert w.gram_of(xs) == tuple(tuple(oracle_form_value(w, x, y) for y in xs)
                                              for x in xs)
            assert w.gram_of([]) == ()
            outside = [v for v in full.vectors() if domain.coordinates(v) is None]
            assert len(outside) == (0 if domain is full else field.q**3 - field.q**2)
            for bad in outside[:3] + [(1, 0)]:
                with pytest.raises(ValueError):
                    w.gram_of(vecs[:2] + [bad])


def test_restrict_rejects_foreign_targets():
    plane = Subspace.span(F5, 3, [(1, 0, 0), (0, 1, 0)])
    w = unit_form(plane)
    outside = Subspace.span(F5, 3, [(0, 0, 1)])
    for bad in (outside, Subspace.full(F5, 3), Subspace.zero(F5, 2),
                Subspace.span(F5, 2, [(1, 0)]), Subspace.zero(F3, 3)):
        with pytest.raises(ValueError):
            w.restrict(bad)
        with pytest.raises(ValueError):
            oracle_is_nondegenerate(w, bad)


def test_perp(rng):
    v3 = Subspace.full(F5, 3)
    w = unit_form(v3)
    assert w.perp(Subspace.zero(F5, 3)) == v3
    zero = HermitianForm(F5, v3, tuple(tuple(0 for _ in range(3)) for _ in range(3)))
    s = Subspace.span(F5, 3, [(1, 2, 0)])
    assert zero.perp(s) == v3
    for _ in range(20):
        k = rng.randrange(0, 4)
        rows = [tuple(rng.randrange(5) for _ in range(3)) for _ in range(k)]
        s = Subspace.span(F5, 3, rows)
        assert w.perp(s).dim == 3 - s.dim  # rank-nullity for nondegenerate w


ORACLE_FIELDS = [(2, 1, 1), (3, 1, 1), (2, 2, 1), (2, 2, 2), (5, 1, 1), (3, 2, 1), (3, 2, 2)]


def _random_member(rng, field, space):
    v = (0,) * space.ambient
    for r in space.basis:
        c = rng.randrange(field.q)
        v = tuple(field.add(x, field.mul(c, y)) for x, y in zip(v, r))
    return v


@pytest.mark.parametrize("p,e,sigma_order", ORACLE_FIELDS)
def test_perps_radicals_and_isotropy_match_the_vector_oracles(p, e, sigma_order, rng):
    """perp, radical and admits_nonisotropic_vector read point masks; the
    oracles list the domain's vectors and evaluate the form on them.  Random
    forms (ten, or five over F_9) on random domains of F_q^4 (q <= 3) or
    F_q^3, with random subspaces of each dimension of the domain; every
    third form has its last basis row in its radical, every fourth is zero,
    and the second has the identity Gram matrix."""
    field = make_field(p, e, sigma_order)
    ambient = 4 if field.q <= 3 else 3
    radicals, isotropy = set(), set()
    for i in range(10 if field.q <= 5 else 5):
        domain = random_subspace(rng, field, ambient, rng.randrange(1, ambient + 1))
        k = domain.dim
        gram = [list(r) for r in random_hermitian_gram(rng, field, k)]
        if i % 3 == 0:
            for j in range(k):
                gram[j][k - 1] = gram[k - 1][j] = 0
        if i % 4 == 0:
            gram = [[0] * k for _ in range(k)]
        if i == 1:
            gram = [[int(a == b) for b in range(k)] for a in range(k)]
        w = HermitianForm(field, domain, tuple(map(tuple, gram)))
        rad = w.radical()
        assert rad.basis == oracle_radical(w).basis
        radicals.add(rad.is_zero())
        admits = w.admits_nonisotropic_vector()
        assert admits == oracle_admits_nonisotropic_vector(w)
        isotropy.add(admits)
        for dim in range(k + 1):
            s = Subspace.span(field, ambient, [_random_member(rng, field, domain)
                                               for _ in range(dim)])
            assert w.perp(s).basis == oracle_perp(w, s).basis
    assert radicals == {True, False} and isotropy == {True, False}


@pytest.mark.parametrize("p,e,sigma_order", [(3, 1, 1), (2, 2, 1), (2, 2, 2), (3, 2, 2)])
def test_a_restriction_of_a_restriction_reads_its_roots_perp_table(p, e, sigma_order, rng):
    """A form on F_q^4 restricted to a random 3-space, and that restriction
    to a random plane in it: ``restrict`` builds no perp table, and on
    first use both restrictions read the root form's own table.  On every
    subspace of the plane, perp_mask and nondegenerate_on_mask match the
    vector oracles, as do the plane's radical and isotropy.  The second
    root has its last basis vector in its radical."""
    field = make_field(p, e, sigma_order)
    verdicts = set()
    for i in range(3):
        gram = [list(r) for r in random_hermitian_gram(rng, field, 4)]
        if i == 1:
            for j in range(4):
                gram[j][3] = gram[3][j] = 0
        root = HermitianForm(field, Subspace.full(field, 4), tuple(map(tuple, gram)))
        middle = root.restrict(random_subspace(rng, field, 4, 3))
        w = middle.restrict(rng.choice(enumerate_subspaces_of(middle.domain, 2)))
        assert all("_perps" not in vars(form) for form in (root, middle, w))
        assert w._perps is root._perps and middle._perps is root._perps
        assert w.radical() == oracle_radical(w)
        assert w.admits_nonisotropic_vector() == oracle_admits_nonisotropic_vector(w)
        for k in range(3):
            for s in enumerate_subspaces_of(w.domain, k):
                assert w.perp_mask(s) == oracle_perp(w, s).point_mask
                verdict = w.nondegenerate_on_mask(s.point_mask)
                assert verdict == oracle_is_nondegenerate(w, s)
                verdicts.add(verdict)
    assert verdicts == {True, False}


def test_isotropic_point_counts():
    v2_4 = Subspace.full(F4, 2)
    assert count_isotropic_points(unit_form(v2_4), v2_4) == 3  # = sqrt(q)+1
    v2_5 = Subspace.full(F5, 2)
    assert count_isotropic_points(unit_form(v2_5), v2_5) == 2
    zero = HermitianForm(F5, v2_5, ((0, 0), (0, 0)))
    assert count_isotropic_points(zero, v2_5) == 6  # q+1


def test_isotropic_count_bounds_exhaustive():
    # sigma = id: a rank-2 symmetric form vanishes on at most 2 points of the line pencil
    for field in (F3, F5):
        v2 = Subspace.full(field, 2)
        for g01 in range(field.q):
            for g00 in range(field.q):
                for g11 in range(field.q):
                    w = HermitianForm(field, v2, ((g00, g01), (g01, g11)))
                    if w.radical().dim == 0:
                        assert count_isotropic_points(w, v2) <= 2
    # hermitian: at most sqrt(q)+1
    for field in (F4, F9):
        v2 = Subspace.full(field, 2)
        fixed = field.fixed_elements()
        for g00 in fixed:
            for g11 in fixed:
                for g01 in range(field.q):
                    w = HermitianForm(field, v2, ((g00, g01), (field.sigma(g01), g11)))
                    if w.radical().dim == 0:
                        assert count_isotropic_points(w, v2) <= field.sqrt_q + 1


def test_pair_search_examples():
    v2 = Subspace.full(F5, 2)
    assert find_nonisotropic_pair([unit_form(v2)]) == ((1, 0), (0, 1))


def test_pair_search_bound_sigma_id_exhaustive():
    """m = 2 bilinear forms over F_5 in dimension 2: since 2m = 4 < 5, the
    search must succeed for every pair of forms admitting non-isotropic
    vectors."""
    v2 = Subspace.full(F5, 2)
    forms = []
    for g00, g01, g11 in itertools.product(range(5), repeat=3):
        w = HermitianForm(F5, v2, ((g00, g01), (g01, g11)))
        if w.admits_nonisotropic_vector():
            forms.append(w)
    for w1 in forms:
        for w2 in forms:
            assert find_nonisotropic_pair([w1, w2]) is not None


def test_pair_search_bound_hermitian_exhaustive():
    """One hermitian form over F_9 in dimension 2: (sqrt(q)+1)m = 4 < 9."""
    v2 = Subspace.full(F9, 2)
    fixed = F9.fixed_elements()
    for g00 in fixed:
        for g11 in fixed:
            for g01 in range(F9.q):
                w = HermitianForm(F9, v2, ((g00, g01), (F9.sigma(g01), g11)))
                if w.admits_nonisotropic_vector():
                    assert find_nonisotropic_pair([w]) is not None


def test_extend_forms_t0_is_identity():
    v3 = Subspace.full(F5, 3)
    w = unit_form(v3)
    spec = PhanSpec(Flag((Subspace.zero(F5, 3), v3)), (w,))
    p = Subspace.span(F5, 3, [(1, 0, 0)])
    (ext,) = extend_forms(spec, p)
    assert ext.gram == w.gram


def test_extend_forms_postconditions_random(rng):
    """Restriction, radical and common-perp postconditions under both
    complement policies on random flags (also exercised at scale by the
    extension suite), and the exact Gram matrices: the oracle's
    entry-by-entry sums of the original forms over the components of the
    decomposition that the extension used."""
    for _ in range(12):
        field, dim = rng.choice([(F3, 3), (F5, 3), (F4, 3), (F3, 4)])
        t = rng.randrange(0, dim - 1)
        spec = random_phan_spec(rng, field, dim, t)
        flag, forms = spec.flag, spec.forms
        pivot = None
        for v in flag.top.vectors():
            if any(v) and forms[-1].evaluate(v, v) != 0:
                pivot = Subspace.span(field, dim, [v])
                break
        for base in (complement, shuffled_complement_policy(rng)):
            complements = []

            def policy(a, within, base=base):
                complements.append(base(a, within))
                return complements[-1]

            ext = extend_forms(spec, pivot, complement_policy=policy)
            assert [e.gram for e in ext] == oracle_extended_grams(spec, pivot, complements)
            for i, w in enumerate(forms):
                assert ext[i].restrict(flag[i + 1]).gram == w.gram
                assert ext[i].radical() == flag[i]
            pv = pivot.basis[0]
            perps = [e.perp(pivot) for e in ext]
            assert all(e.evaluate(pv, pv) != 0 for e in ext)
            assert all(pp == perps[0] for pp in perps)


def test_extend_forms_rejects_degenerate_pivot():
    v3 = Subspace.full(F5, 3)
    w = unit_form(v3)
    spec = PhanSpec(Flag((Subspace.zero(F5, 3), v3)), (w,))
    p = Subspace.span(F5, 3, [(1, 2, 0)])  # 1 + 4 = 0 mod 5
    assert w.evaluate((1, 2, 0), (1, 2, 0)) == 0
    with pytest.raises(DegeneratePivotError):
        extend_forms(spec, p)


def test_extend_forms_rejects_a_non_complement():
    """A complement policy that returns a subspace of the wrong dimension,
    or one of the right dimension that meets the subspace it should
    complement, leaves no direct sum V = C_1 ⊕ ... ⊕ C_(t+1) ⊕ p: ValueError."""
    v3 = Subspace.full(F5, 3)
    line = Subspace.span(F5, 3, [(1, 0, 0)])
    spec = PhanSpec(Flag((Subspace.zero(F5, 3), line, v3)),
                    (unit_form(line), HermitianForm(F5, v3, ((0, 0, 0), (0, 1, 0), (0, 0, 1)))))
    p = Subspace.span(F5, 3, [(0, 1, 0)])
    assert extend_forms(spec, p, complement_policy=complement)
    for policy in (lambda a, within: within,
                   lambda a, within: a if a.dim else complement(a, within)):
        with pytest.raises(ValueError, match="direct-sum decomposition"):
            extend_forms(spec, p, complement_policy=policy)


def test_project_form_basics():
    v3 = Subspace.full(F5, 3)
    w = unit_form(v3)
    p = Subspace.span(F5, 3, [(1, 0, 0)])
    wp = project_form(w, p)
    # w^p kills p
    assert wp.evaluate((1, 0, 0), (0, 1, 2)) == 0
    assert wp.evaluate((1, 0, 0), (1, 0, 0)) == 0
    # and agrees with w on the perp of p
    for v in ((0, 1, 0), (0, 0, 1), (0, 2, 3)):
        for u in ((0, 1, 0), (0, 1, 4)):
            assert wp.evaluate(v, u) == w.evaluate(v, u)
    with pytest.raises(DegeneratePivotError):
        project_form(w, Subspace.span(F5, 3, [(1, 2, 0)]))


def test_projection_radical_identity_random(rng):
    """pr_W(Rad(w| <W,p>)) = Rad(w^p|_W) as exact subspace equality."""
    for field in (F3, F4):
        v4 = Subspace.full(field, 4)
        done = 0
        while done < 25:
            w = HermitianForm(field, v4, random_hermitian_gram(rng, field, 4))
            pv = tuple(rng.randrange(field.q) for _ in range(4))
            if not any(pv) or w.evaluate(pv, pv) == 0:
                continue
            p = Subspace.span(field, 4, [pv])
            rows = [tuple(rng.randrange(field.q) for _ in range(4))
                    for _ in range(rng.randrange(1, 4))]
            cand = Subspace.span(field, 4, rows)
            if cand.dim == 0 or cand.intersect(p).dim != 0:
                continue
            wp_space = cand.sum(p)
            lhs_rad = w.restrict(wp_space).radical()
            lhs = Subspace.span(field, 4, [_component_along(cand, p, r) for r in lhs_rad.basis])
            rhs = project_form(w, p).restrict(cand).radical()
            assert lhs == rhs
            done += 1


def _shifts(field, x, pv):
    """x - a*p for each a in F_q."""
    return [tuple(field.sub(c, field.mul(a, d)) for c, d in zip(x, pv))
            for a in range(field.q)]


def _component_along(w_space, p, x):
    """The component in W of x in W ⊕ p: the one x - a*p that lies in W."""
    (y,) = [y for y in _shifts(w_space.field, x, p.basis[0])
            if w_space.coordinates(y) is not None]
    return y


def test_project_form_matches_brute_force_projection(rng):
    """On F_3^4 and hermitian F_4^4, pr(x) is the one x - a*p (a in F_q)
    perpendicular to p, found by trying every a, and project_form's w^p is
    w(pr(x), pr(y)) on every basis pair and every diagonal pair."""
    for field in (F3, F4):
        v4 = Subspace.full(field, 4)
        vectors = list(enumerate_vectors(field, 4))
        done = 0
        while done < 4:
            w = HermitianForm(field, v4, random_hermitian_gram(rng, field, 4))
            pv = rng.choice(vectors)
            if not any(pv) or w.evaluate(pv, pv) == 0:
                continue
            p = Subspace.span(field, 4, [pv])
            pr = {}
            for x in vectors:
                (pr[x],) = [y for y in _shifts(field, x, pv)
                            if oracle_form_value(w, y, pv) == 0]
            wp = project_form(w, p)
            assert wp.gram == tuple(tuple(oracle_form_value(w, pr[x], pr[y]) for y in v4.basis)
                                    for x in v4.basis)
            for x in vectors:
                assert wp.evaluate(x, x) == oracle_form_value(w, pr[x], pr[x])
            done += 1
