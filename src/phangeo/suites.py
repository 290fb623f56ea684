"""Randomized and exhaustive property suites for the structural lemmas:
form extension, residues below/above (single and family), the projection
radical identity, and the restricted-family vertex-set equality.

The suites are callable from the command line (lemma-tests) and from the
test suite; all randomness flows through an explicit seed.  Comparison sets
are always computed directly from the membership predicate, independently of
the construction under test.
"""

from __future__ import annotations

import random

from .field import Field, make_field
from .forms import HermitianForm
from .linalg import (
    Flag,
    Subspace,
    combine,
    complement,
    enumerate_subspaces_of,
    solve_coordinates,
)
from .phan import PhanFamily, PhanSpec, vertices
from .residues import (
    delta_restriction,
    extend_forms,
    lifted_residue_above,
    project_form,
    residue_below,
)

__all__ = [
    "SuiteResult",
    "random_hermitian_gram",
    "random_subspace",
    "random_flag",
    "random_phan_spec",
    "shuffled_complement_policy",
    "standard_spec",
    "chamber_spec",
    "diagonal_spec",
    "desk_geometries",
    "family_geometries",
    "run_extension_suite",
    "run_projection_suite",
    "run_residue_suite",
    "run_delta_suite",
    "run_all_suites",
]


class SuiteResult:
    """The instances, failures and notes of one suite, filled in as it runs."""

    def __init__(self, name: str):
        self.name = name
        self.instances = 0
        self.failures: list[str] = []
        self.notes: dict = {}

    @property
    def passed(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "instances": self.instances,
            "passed": self.passed,
            "failures": self.failures,
            "notes": self.notes,
        }


# -- random generators ---------------------------------------------------------


def random_hermitian_gram(rng: random.Random, field: Field, k: int):
    g = [[0] * k for _ in range(k)]
    for i in range(k):
        g[i][i] = rng.choice(field.fixed_elements())
        for j in range(i + 1, k):
            v = rng.randrange(field.q)
            g[i][j] = v
            g[j][i] = field.sigma(v)
    return tuple(tuple(r) for r in g)


def random_subspace(rng: random.Random, field: Field, ambient: int, dim: int) -> Subspace:
    while True:
        rows = [tuple(rng.randrange(field.q) for _ in range(ambient)) for _ in range(dim)]
        s = Subspace.span(field, ambient, rows)
        if s.dim == dim:
            return s


def random_flag(rng: random.Random, field: Field, ambient: int, t: int) -> Flag:
    """A flag 0 = V_0 < ... < V_(t+1) = V with random intermediate dims."""
    dims = sorted(rng.sample(range(1, ambient), t))
    members = [Subspace.zero(field, ambient)]
    for d in dims:
        while True:
            s = random_subspace(rng, field, ambient, d)
            if s.contains_subspace(members[-1]) and s.dim > members[-1].dim:
                members.append(s)
                break
            # force the chain by extending the previous member
            ext = [list(r) for r in members[-1].basis]
            while len(ext) < d:
                ext.append([rng.randrange(field.q) for _ in range(ambient)])
            s = Subspace.span(field, ambient, ext)
            if s.dim == d:
                members.append(s)
                break
    members.append(Subspace.full(field, ambient))
    return Flag(tuple(members))


def _form_with_radical(rng: random.Random, field: Field, lower: Subspace,
                       upper: Subspace, tries: int = 200) -> HermitianForm:
    """A sigma-hermitian form on ``upper`` with radical exactly ``lower``
    that admits a non-isotropic vector."""
    comp = complement(lower, upper)
    adapted = list(lower.basis) + list(comp.basis)
    k = upper.dim
    r = lower.dim
    coords = [solve_coordinates(field, adapted, d) for d in upper.basis]
    for _ in range(tries):
        block = random_hermitian_gram(rng, field, k - r)
        g_ad = [[0] * k for _ in range(k)]
        for a in range(k - r):
            for b in range(k - r):
                g_ad[r + a][r + b] = block[a][b]
        gram = [[0] * k for _ in range(k)]
        for a in range(k):
            ca = coords[a]
            for b in range(k):
                cb = coords[b]
                tot = 0
                for x in range(k):
                    if ca[x] == 0:
                        continue
                    for y in range(k):
                        if cb[y] == 0 or g_ad[x][y] == 0:
                            continue
                        tot = field.add(
                            tot, field.mul(field.mul(ca[x], field.sigma(cb[y])), g_ad[x][y])
                        )
                gram[a][b] = tot
        w = HermitianForm(field, upper, tuple(tuple(row) for row in gram))
        if w.radical() == lower and w.admits_nonisotropic_vector():
            return w
    raise RuntimeError("failed to draw a form with the requested radical")


def random_phan_spec(rng: random.Random, field: Field, ambient: int, t: int) -> PhanSpec:
    flag = random_flag(rng, field, ambient, t)
    forms = tuple(
        _form_with_radical(rng, field, flag[i], flag[i + 1]) for i in range(t + 1)
    )
    return PhanSpec(flag, forms)


def shuffled_complement_policy(rng: random.Random):
    """A complement policy drawing candidate vectors in a seeded random
    order; used to confirm the extension postconditions do not depend on the
    choice of complements."""

    def policy(a: Subspace, within: Subspace) -> Subspace:
        vecs = list(within.vectors())
        rng.shuffle(vecs)
        return complement(a, within, vector_order=vecs)

    return policy


# -- named instances -------------------------------------------------------------


def standard_spec(field: Field, dim: int) -> PhanSpec:
    """t = 0 with the identity Gram matrix on the full space."""
    v = Subspace.full(field, dim)
    gram = tuple(tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim))
    return PhanSpec(Flag((Subspace.zero(field, dim), v)), (HermitianForm(field, v, gram),))


def diagonal_spec(field: Field, diag) -> PhanSpec:
    """t = 0 with a diagonal Gram matrix on the full space."""
    dim = len(diag)
    v = Subspace.full(field, dim)
    gram = tuple(tuple(diag[i] if i == j else 0 for j in range(dim)) for i in range(dim))
    return PhanSpec(Flag((Subspace.zero(field, dim), v)), (HermitianForm(field, v, gram),))


def chamber_spec(field: Field, dim: int) -> PhanSpec:
    """t = n: the full coordinate flag with rank-one forms, which carves out
    the geometry opposite a chamber."""
    subs = [
        Subspace.span(
            field, dim,
            [tuple(1 if j == i else 0 for j in range(dim)) for i in range(k)],
        )
        for k in range(dim + 1)
    ]
    forms = []
    for i in range(dim):
        k = i + 1
        gram = tuple(tuple(1 if a == b == k - 1 else 0 for b in range(k)) for a in range(k))
        forms.append(HermitianForm(field, subs[k], gram))
    return PhanSpec(Flag(tuple(subs)), tuple(forms))


def mixed_t1_spec(field: Field, dim: int, v1_dim: int) -> PhanSpec:
    """t = 1 with a coordinate flag member: identity form on V_1, rank
    dim - v1_dim form on V with radical V_1 (the hyperplane-residue pattern
    when v1_dim = dim - 1)."""
    v1 = Subspace.span(
        field, dim, [tuple(1 if j == i else 0 for j in range(dim)) for i in range(v1_dim)]
    )
    v = Subspace.full(field, dim)
    g0 = tuple(tuple(1 if i == j else 0 for j in range(v1_dim)) for i in range(v1_dim))
    g1 = tuple(
        tuple(1 if (i == j and i >= v1_dim) else 0 for j in range(dim)) for i in range(dim)
    )
    return PhanSpec(
        Flag((Subspace.zero(field, dim), v1, v)),
        (HermitianForm(field, v1, g0), HermitianForm(field, v, g1)),
    )


def desk_geometries() -> list[tuple[str, PhanSpec]]:
    """The single-spec desk-scale instances the residue and delta suites
    sweep exhaustively (dim <= 4, q <= 5)."""
    f2 = make_field(2, 1)
    f3 = make_field(3, 1)
    f4h = make_field(2, 2, 2)
    f5 = make_field(5, 1)
    return [
        ("t0_q3_dim3", standard_spec(f3, 3)),
        ("t0_q5_dim3", standard_spec(f5, 3)),
        ("t0_q4h_dim2", standard_spec(f4h, 2)),
        ("t0_q4h_dim3", standard_spec(f4h, 3)),
        ("t0_q5_dim2", diagonal_spec(f5, (1, 1))),
        ("t0_q3_dim4", standard_spec(f3, 4)),
        ("chamber_q2_dim3", chamber_spec(f2, 3)),
        ("chamber_q3_dim3", chamber_spec(f3, 3)),
        ("chamber_q2_dim4", chamber_spec(f2, 4)),
        ("t1_q3_dim3", mixed_t1_spec(f3, 3, 1)),
        ("t1_q3_dim4_ex36", mixed_t1_spec(f3, 4, 3)),
    ]


def family_geometries() -> list[tuple[str, PhanFamily]]:
    f3 = make_field(3, 1)
    f5 = make_field(5, 1)
    return [
        ("family2_q5_dim3",
         PhanFamily((standard_spec(f5, 3), diagonal_spec(f5, (1, 1, 2))))),
        ("family2_q3_dim3",
         PhanFamily((standard_spec(f3, 3), diagonal_spec(f3, (1, 1, 2))))),
    ]


# -- suites ------------------------------------------------------------------------


def _spec_pool(rng: random.Random, count: int) -> list[PhanSpec]:
    configs = [
        (make_field(3, 1), 3), (make_field(3, 1), 4),
        (make_field(2, 2, 2), 3), (make_field(2, 2, 2), 4),
        (make_field(5, 1), 3), (make_field(5, 1), 4),
        (make_field(3, 1), 2), (make_field(5, 1), 2),
    ]
    pool = []
    while len(pool) < count:
        field, dim = configs[len(pool) % len(configs)]
        t = rng.randrange(0, dim - 1)
        pool.append(random_phan_spec(rng, field, dim, t))
    return pool


def run_extension_suite(seed: int = 0, count: int = 100) -> SuiteResult:
    """Form extension on generated flags under two complement policies:
    restriction equality, radical preservation, pivot non-degeneracy with a
    common perp."""
    rng = random.Random(seed)
    res = SuiteResult("extension_lemma")
    for spec in _spec_pool(rng, count):
        flag, forms = spec.flag, spec.forms
        top = forms[-1]
        pivot = None
        vecs = list(flag.top.vectors())
        rng.shuffle(vecs)
        for v in vecs:
            if any(v) and top.evaluate(v, v) != 0:
                pivot = Subspace.span(spec.field, flag.top.ambient, [v])
                break
        if pivot is None:
            continue
        policies = {"canonical": None, "shuffled": shuffled_complement_policy(rng)}
        for pname, policy in policies.items():
            tag = f"[{spec.field!r} dim={flag.top.dim} t={spec.t} policy={pname}]"
            try:
                ext = extend_forms(flag, forms, pivot, complement_policy=policy)
            except Exception as exc:
                res.failures.append(f"{tag} extend_forms raised: {exc}")
                continue
            for i, w in enumerate(forms):
                if ext[i].restrict(flag[i + 1]).gram != w.gram:
                    res.failures.append(f"{tag} restriction differs at {i}")
                if ext[i].radical() != flag[i]:
                    res.failures.append(f"{tag} radical differs at {i}")
            pv = pivot.basis[0]
            if any(e.evaluate(pv, pv) == 0 for e in ext):
                res.failures.append(f"{tag} pivot degenerate for an extended form")
            perps = [e.perp(pivot) for e in ext]
            if any(pp != perps[0] for pp in perps):
                res.failures.append(f"{tag} perps of the pivot differ")
        res.instances += 1
    return res


def run_projection_suite(seed: int = 0, count: int = 100) -> SuiteResult:
    """Projection-form radical identity on random (form, W, p) triples over
    F_3^4 and F_4^4 (hermitian), as exact subspace equality."""
    rng = random.Random(seed)
    res = SuiteResult("projection_lemma")
    fields = [make_field(3, 1), make_field(2, 2, 2)]
    per_field = (count + 1) // 2
    for field in fields:
        v4 = Subspace.full(field, 4)
        done = 0
        while done < per_field:
            w = HermitianForm(field, v4, random_hermitian_gram(rng, field, 4))
            vecs = [v for v in v4.vectors() if any(v)]
            pv = rng.choice(vecs)
            if w.evaluate(pv, pv) == 0:
                continue
            p = Subspace.span(field, 4, [pv])
            dim_w = rng.randrange(1, 4)
            cand = random_subspace(rng, field, 4, dim_w)
            if cand.intersect(p).dim != 0:
                continue
            wp_space = cand.sum(p)
            lhs_rad = w.restrict(wp_space).radical()
            # the component in W of each radical vector along p
            rows = p.basis + cand.basis
            lhs = Subspace.span(field, 4, [
                combine(field, solve_coordinates(field, rows, r)[1:], cand.basis, 4)
                for r in lhs_rad.basis])
            rhs = project_form(w, p).restrict(cand).radical()
            if lhs != rhs:
                res.failures.append(
                    f"[{field!r}] gram={w.gram} p={p.basis} W={cand.basis}: {lhs.basis} != {rhs.basis}"
                )
            done += 1
            res.instances += 1
    return res


def _jobs(geometries, families) -> list[tuple[str, PhanFamily]]:
    """The named test families of a suite: each single spec as a one-spec
    family, then the families (the desk geometries and family geometries by
    default)."""
    jobs = [(name, PhanFamily((spec,)))
            for name, spec in (geometries if geometries is not None else desk_geometries())]
    return jobs + list(families if families is not None else family_geometries())


def run_residue_suite(geometries=None, families=None) -> SuiteResult:
    """Residues below/above every member of every test geometry equal the
    literal below/above sets; a family's residues intersect over its specs,
    a single spec running as a one-spec family."""
    res = SuiteResult("residue_lemma")
    for name, family in _jobs(geometries, families):
        members = set(vertices(family).members)
        for u in sorted(members, key=Subspace.sort_key):
            below_lit = {x for x in members
                         if x.dim < u.dim and x.point_mask & ~u.point_mask == 0}
            below = set.intersection(*(set(residue_below(spec, u).members())
                                       for spec in family.specs))
            if below != below_lit:
                res.failures.append(f"[{name}] below mismatch at U={u.basis}")
            above_lit = {x for x in members
                         if x.dim > u.dim and u.point_mask & ~x.point_mask == 0}
            if lifted_residue_above(family, u) != above_lit:
                res.failures.append(f"[{name}] above mismatch at U={u.basis}")
            res.instances += 1
    return res


def _delta_oracle(family: PhanFamily, p: Subspace, u: Subspace) -> set[Subspace]:
    """{W < U : W and <W, p> both in the intersection geometry}, straight
    from the membership predicate."""
    out = set()
    nplus1 = family.ambient.dim
    for k in range(1, u.dim):
        for w in enumerate_subspaces_of(u, k):
            if not family.is_member(w):
                continue
            wp = w.sum(p)
            if wp.dim < nplus1 and family.is_member(wp):
                out.add(w)
    return out


def run_delta_suite(geometries=None, families=None,
                    extra_pivots: int = 1, seed: int = 0) -> SuiteResult:
    """Restricted-family vertex sets against the direct oracle, for the
    canonical pivot plus seeded extra pivots, on every admissible member."""
    rng = random.Random(seed)
    res = SuiteResult("delta_lemma")
    branch_hits: dict[str, int] = {}
    for name, family in _jobs(geometries, families):
        tops = [s.forms[-1] for s in family.specs]
        pivots = []
        for v in family.ambient.vectors():
            if any(v) and all(w.evaluate(v, v) != 0 for w in tops):
                pivots.append(Subspace.span(family.field, family.ambient.ambient, [v]))
                if len(pivots) > 4 * (extra_pivots + 1):
                    break
        if not pivots:
            continue
        chosen = [pivots[0]] + rng.sample(pivots[1:], min(extra_pivots, len(pivots) - 1))
        gamma = vertices(family).members
        for p in chosen:
            for u in gamma:
                if u.contains_subspace(p):
                    continue
                if not all(s.has_member_below(u) for s in family.specs):
                    continue
                branches: list[str] = []
                try:
                    fam_u = delta_restriction(family, p, u, branches=branches)
                except Exception as exc:
                    res.failures.append(f"[{name}] U={u.basis} p={p.basis}: raised {exc}")
                    continue
                got = set(vertices(fam_u).members)
                expected = _delta_oracle(family, p, u)
                if got != expected:
                    res.failures.append(
                        f"[{name}] U={u.basis} p={p.basis}: "
                        f"{sorted(x.basis for x in got ^ expected)}"
                    )
                for b in branches:
                    branch_hits[b] = branch_hits.get(b, 0) + 1
                if len(fam_u.specs) > 2 * family.m:
                    res.failures.append(
                        f"[{name}] U={u.basis}: {len(fam_u.specs)} specs exceed 2m"
                    )
                res.instances += 1
    res.notes["branch_hits"] = dict(sorted(branch_hits.items()))
    return res


def run_all_suites(seed: int = 0, count: int = 100) -> list[SuiteResult]:
    return [
        run_extension_suite(seed=seed, count=count),
        run_projection_suite(seed=seed, count=count),
        run_residue_suite(),
        run_delta_suite(seed=seed),
    ]
