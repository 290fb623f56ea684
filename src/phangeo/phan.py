"""Generalized Phan geometries of type A_n: membership, enumeration,
residues below/above an element, families (intersections), and the
restriction of a family to a member relative to a pivot point.

A spec consists of a flag {0} = V_0 < ... < V_(t+1) = V inside an ambient
subspace together with forms w_i on V_(i+1) whose radical is exactly V_i.
A subspace U belongs to the geometry iff it is proper, non-trivial,
transversal to the flag, and U ∩ V_(k+1) is non-degenerate for the form
w_k selected by k = k_U, the least index with U ∩ V_(k+1) != 0.

Membership is mask algebra only (``Subspace.point_mask``): containment in
the ambient, transversality and k_U come from one pass over the point
counts of U's meets with the flag members, whose masks each spec keeps, and
U ∩ V_(k+1) is the meet of two masks, whose non-degeneracy w_k reads from
the perp masks of its points (``HermitianForm.nondegenerate_on_mask``).  No
basis is decoded, no Gram matrix built and no elimination run.  A spec's
radical conditions compare masks too (``HermitianForm.perp_mask``).

Residues stay in the ambient space.  The residue below U is a spec on U;
the residue above U, the geometry of V/U, is a spec on the perp section
(U ∩ V_(k+1))^perp(w_k), a complement of U in V, whose forms are
restrictions of the spec's own.
"""

from __future__ import annotations

from functools import lru_cache

from .field import Field
from .forms import (
    DegeneratePivotError,
    HermitianForm,
    NoNonisotropicVectorError,
    RadicalConditionError,
    extend_forms,
    project_form,
)
from .linalg import Flag, Frozen, Subspace, enumerate_subspaces_of

__all__ = [
    "PhanSpec",
    "PhanFamily",
    "GeometryVertexSet",
    "MembershipError",
    "EmptyResidueError",
    "DeltaConstructionError",
    "vertices",
    "residue_below",
    "residue_above",
    "delta_restriction",
    "bound_report",
    "family_bound_report",
]


class MembershipError(ValueError):
    """An operation required a geometry member and got a non-member."""


class EmptyResidueError(ValueError):
    """A family restriction required a non-empty residue below the member."""


class DeltaConstructionError(RuntimeError):
    """The flag/form construction of the restricted family broke an expected
    radical property; indicates a violated precondition."""


class PhanSpec(Frozen):
    """A generalized Phan geometry: a flag with forms pinned to its members.

    ``require_nonisotropic`` controls the check that every form admits a
    non-isotropic vector.  Specs built internally for residues relax it:
    over a field of characteristic two with identity sigma a restriction of
    a valid form may be alternating, while the membership predicate itself
    never needs the existence of non-isotropic vectors.  The flag/radical
    invariants are always enforced.  Two specs are equal iff their flags and
    forms are; ``require_nonisotropic`` takes no part in equality or hashing.
    """

    def __init__(self, flag: Flag, forms: tuple[HermitianForm, ...],
                 require_nonisotropic: bool = True):
        t = len(flag.members) - 2
        if len(forms) != t + 1:
            raise ValueError(
                f"flag of length {t + 2} needs {t + 1} forms, got {len(forms)}"
            )
        for i, w in enumerate(forms):
            if w.domain != flag[i + 1]:
                raise ValueError(f"form {i} is not defined on flag member V_{i + 1}")
            if w.perp_mask(w.domain) != flag[i].point_mask:
                raise RadicalConditionError(
                    f"Rad(omega_{i}) != V_{i}: radical condition fails at index {i}"
                )
        if require_nonisotropic:
            for i, w in enumerate(forms):
                if not w.admits_nonisotropic_vector():
                    raise NoNonisotropicVectorError(
                        f"omega_{i} admits no non-isotropic vector"
                    )
        object.__setattr__(self, "flag", flag)
        object.__setattr__(self, "forms", forms)
        object.__setattr__(self, "require_nonisotropic", require_nonisotropic)
        # for each flag member V_(i+1): its point mask, and by dim U the point
        # count that U ∩ V_(i+1) must have if it is not 0, that of dimension
        # dim U + dim V_(i+1) - dim V (transversality; none when that is <= 0)
        top, q = flag.top.dim, flag.field.q
        points = [(q**d - 1) // (q - 1) for d in range(top + 1)]
        object.__setattr__(self, "_top", flag.top)
        object.__setattr__(self, "_meets", tuple(
            (v.point_mask, tuple(points[max(0, d + v.dim - top)] for d in range(top)))
            for v in flag.members[1:]))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.flag, self.forms) == (other.flag, other.forms)

    def __hash__(self) -> int:
        return hash((self.flag, self.forms))

    @property
    def field(self) -> Field:
        return self.flag.field

    @property
    def ambient(self) -> Subspace:
        return self.flag.top

    @property
    def t(self) -> int:
        return len(self.flag.members) - 2

    @property
    def n(self) -> int:
        return self.ambient.dim - 1

    # -- membership ----------------------------------------------------------

    def k_of(self, u: Subspace) -> int:
        """Least i with U ∩ V_(i+1) != 0: the first flag member whose point
        mask meets U's."""
        if u.is_zero():
            raise ValueError("k_U is undefined for the zero subspace")
        for i in range(self.t + 1):
            if u.point_mask & self.flag[i + 1].point_mask:
                return i
        raise ValueError("subspace meets no flag member; is it inside the ambient?")

    def is_member(self, u: Subspace) -> bool:
        """Whether u is proper, non-zero, inside the ambient, transversal to
        the flag, and U ∩ V_(k+1) is non-degenerate for w_k, k = k_U, read
        from the meet of the point masks.

        One pass over the flag members V_1 .. V_(t+1) = V settles the rest:
        a non-zero meet with V_(i+1) must have the point count of dimension
        dim U + dim V_(i+1) - dim V (transversality), which for V itself is
        all of U's points (containment), and the first such meet is the
        governing U ∩ V_(k+1).  U misses V only if it misses every member."""
        d, top = u.dim, self._top
        if d == 0 or d >= top.dim:
            return False
        top._check_compatible(u)
        m = u.point_mask
        k = governing = None
        for i, (mask, need) in enumerate(self._meets):
            meet = m & mask
            if meet:
                if meet.bit_count() != need[d]:
                    return False
                if k is None:
                    k, governing = i, meet
        return k is not None and self.forms[k].nondegenerate_on_mask(governing)

    def members(self) -> tuple[Subspace, ...]:
        """The members, sorted."""
        return tuple(sorted((s for k in range(1, self.ambient.dim)
                             for s in enumerate_subspaces_of(self.ambient, k)
                             if self.is_member(s)), key=Subspace.sort_key))

    def has_member_below(self, u: Subspace) -> bool:
        """Whether some member lies strictly below u (a non-empty residue);
        stops at the first one found."""
        return any(self.is_member(s)
                   for k in range(1, u.dim) for s in enumerate_subspaces_of(u, k))


def _spec_avoidance_cost(spec: PhanSpec) -> int:
    """Per-spec constant in the sufficient bound: rank-one forms (the
    opposite-chamber shape) only exclude a hyperplane of vectors, so their
    constant improves from 2 resp. sqrt(q)+1 to 1."""
    ranks = [spec.flag[i + 1].dim - spec.flag[i].dim for i in range(spec.t + 1)]
    if all(r == 1 for r in ranks):
        return 1
    if spec.field.sigma_order == 1:
        return 2
    return spec.field.sqrt_q + 1


def _cost_bound(n: int, q: int, sigma_order: int, costs: list[int]) -> dict:
    """The sufficient bound 2^(n-1) * (sum of the per-spec costs) < q."""
    m = len(costs)
    lhs = (2 ** (n - 1) if n >= 1 else 0) * sum(costs)
    if all(c == 2 for c in costs):
        text = f"2^{n}*{m} = {lhs} < q = {q}"
    elif all(c == 1 for c in costs):
        text = f"2^{n - 1}*{m} = {lhs} < q = {q}"
    elif len(set(costs)) == 1:
        text = f"2^{n - 1}*(sqrt(q)+1)*{m} = {lhs} < q = {q}"
    else:
        text = f"2^{n - 1}*({'+'.join(map(str, costs))}) = {lhs} < q = {q}"
    return {"satisfied": lhs < q, "lhs": lhs, "rhs": q, "inequality": text,
            "n": n, "q": q, "m": m, "sigma_order": sigma_order}


def bound_report(n: int, q: int, m: int, sigma_order: int) -> dict:
    """The bound row for m specs of cost 2 each, or sqrt(q)+1 each when sigma
    has order two: the rows of ``bounds-table``."""
    cost = 2 if sigma_order == 1 else round(q**0.5) + 1
    return _cost_bound(n, q, sigma_order, [cost] * m)


def family_bound_report(family: "PhanFamily") -> dict:
    costs = [_spec_avoidance_cost(s) for s in family.specs]
    return {**_cost_bound(family.n, family.field.q, family.field.sigma_order, costs),
            "form_costs": costs}


class PhanFamily(Frozen):
    """A finite family of specs over one ambient space; its geometry is the
    intersection of the member geometries."""

    def __init__(self, specs: tuple[PhanSpec, ...]):
        if not specs:
            raise ValueError("a family needs at least one spec")
        amb = specs[0].ambient
        if any(s.ambient != amb for s in specs):
            raise ValueError("family members must share the ambient space")
        object.__setattr__(self, "specs", specs)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.specs == other.specs

    def __hash__(self) -> int:
        return hash((self.specs,))

    @property
    def ambient(self) -> Subspace:
        return self.specs[0].ambient

    @property
    def field(self) -> Field:
        return self.specs[0].field

    @property
    def m(self) -> int:
        return len(self.specs)

    @property
    def n(self) -> int:
        return self.ambient.dim - 1

    def bound(self) -> dict:
        return family_bound_report(self)

    def is_member(self, u: Subspace) -> bool:
        return all(s.is_member(u) for s in self.specs)


class GeometryVertexSet:
    """The vertex set of a family's geometry."""

    def __init__(self, family: PhanFamily, members: tuple[Subspace, ...]):
        self.family = family
        self.members = members

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def by_dim(self) -> dict[int, list[Subspace]]:
        out: dict[int, list[Subspace]] = {}
        for u in self.members:
            out.setdefault(u.dim, []).append(u)
        return out


def vertices(family: PhanFamily) -> GeometryVertexSet:
    """All subspaces belonging to every spec of the family: the members of
    the first spec (enumerated exhaustively) that every other spec
    accepts."""
    first, *rest = family.specs
    return GeometryVertexSet(family, tuple(u for u in first.members()
                                           if all(s.is_member(u) for s in rest)))


def residue_below(spec: PhanSpec, u: Subspace) -> PhanSpec:
    """The geometry {x in Gamma : x < u} as a spec on the ambient u."""
    if not spec.is_member(u):
        raise MembershipError("residue_below requires a geometry member")
    k = spec.k_of(u)
    members = tuple(spec.flag[i].intersect(u) for i in range(k, spec.t + 2))
    flag = Flag(members)
    forms = tuple(
        spec.forms[i].restrict(members[i - k + 1]) for i in range(k, spec.t + 1)
    )
    return PhanSpec(flag, forms, require_nonisotropic=False)


def residue_above(spec: PhanSpec, u: Subspace) -> PhanSpec:
    """The geometry {x in Gamma : x > u} as a spec on the section
    W = (u ∩ V_(k+1))^perp(w_k), which complements u in V and stands for V/u.

    A member X of the returned spec corresponds to the member X + u of the
    residue.  Its flag is (V_i + u) ∩ W up to the first member equal to W,
    with the spec's forms restricted to it: V_0 < ... < V_k < W, or
    V_0 < ... < V_k if V_k = W, since each V_i with i <= k misses u and
    lies in Rad(w_k) ⊆ W, and V_(k+1) + u = V.  Only w_k is cut down, to W.
    """
    if not spec.is_member(u):
        raise MembershipError("residue_above requires a geometry member")
    k = spec.k_of(u)
    section = spec.forms[k].perp(u.intersect(spec.flag[k + 1]))
    members, forms = spec.flag.members[:k + 1], spec.forms[:k]
    if members[-1] != section:
        members += (section,)
        forms += (spec.forms[k].restrict(section),)
    return PhanSpec(Flag(members), forms, require_nonisotropic=False)


def _distinct_chain(entries):
    """Distinct values of a weakly increasing chain plus, per step, the index
    of the entry immediately before the first occurrence of the upper value."""
    chain = [entries[0]]
    cands = []
    for i in range(1, len(entries)):
        if entries[i] != chain[-1]:
            chain.append(entries[i])
            cands.append(i - 1)
    return chain, cands


@lru_cache(maxsize=64)
def _extended_forms(spec: PhanSpec, p: Subspace) -> tuple[HermitianForm, ...]:
    """The spec's forms extended around the pivot p.  They depend on (spec, p)
    alone, so the restrictions to every member share them."""
    return extend_forms(spec.flag, spec.forms, p)


@lru_cache(maxsize=64)
def _joined_flag(spec: PhanSpec, p: Subspace) -> tuple[Subspace, ...]:
    """The flag members <V_i, p>, which depend on (spec, p) alone."""
    return tuple(v.sum(p) for v in spec.flag.members)


@lru_cache(maxsize=256)
def _projected_form(spec: PhanSpec, p: Subspace, i: int) -> HermitianForm:
    """The i-th extended form projected onto the perp of p."""
    return project_form(_extended_forms(spec, p)[i], p)


def _lemma49_spec(spec: PhanSpec, p: Subspace, u: Subspace,
                  branches: list | None = None) -> PhanSpec:
    """The second restricted spec on u: flag <V_i, p> ∩ u with projected
    extended forms, including the collapsed one-dimensional and augmented
    radical branches."""
    f = spec.field
    entries = []
    l_u = None
    for i, joined in enumerate(_joined_flag(spec, p)):
        z = joined.intersect(u)
        entries.append(z)
        if z == u:
            l_u = i
            break
    assert l_u is not None
    chain, cands = _distinct_chain(entries[: l_u + 1])

    def unit(sub: Subspace) -> HermitianForm:
        k = sub.dim
        gram = tuple(tuple(1 if a == b else 0 for b in range(k)) for a in range(k))
        return HermitianForm(f, sub, gram)

    flag_members = [chain[0]]
    step_forms: list[HermitianForm] = []
    for j, (upper, cand) in enumerate(zip(chain[1:], cands)):
        lower = flag_members[-1]
        candidate = _projected_form(spec, p, cand).restrict(upper)
        rad = candidate.radical()
        if rad == lower:
            flag_members.append(upper)
            step_forms.append(candidate)
        elif j == 0 and upper.dim == 1:
            # collapsed duplicate or fully degenerate first entry: the form on
            # a one-dimensional first flag piece is an arbitrary
            # non-degenerate one
            flag_members.append(upper)
            step_forms.append(unit(upper))
        elif j == 0 and rad.dim == 1:
            # degenerate branch: augment the flag with the radical R
            flag_members.append(rad)
            step_forms.append(unit(rad))
            flag_members.append(upper)
            step_forms.append(candidate)
            if branches is not None:
                branches.append("radical_augmented")
        else:
            raise DeltaConstructionError(
                f"unexpected radical at step {j}: dim {rad.dim}"
            )
    if branches is not None:
        if l_u == spec.t:
            branches.append("hyperplane_l_t")
        if len(chain) > 1 and chain[1].dim == 1:
            branches.append("one_dim_first_entry")
    return PhanSpec(Flag(tuple(flag_members)), tuple(step_forms),
                    require_nonisotropic=False)


def delta_restriction(family: PhanFamily, p: Subspace, u: Subspace,
                      branches: list | None = None) -> PhanFamily:
    """Restrict the family to a member u relative to a pivot point p.

    Returns a family of at most 2m specs on u whose intersection geometry is
    {W < u : W and <W, p> both belong to the family intersection}.  Per spec
    the output carries the residue below u and a spec built from the flag
    <V_i, p> ∩ u with projected extended forms; structurally equal specs are
    emitted once.
    """
    if p.dim != 1:
        raise ValueError("pivot must be one-dimensional")
    if u.contains_subspace(p):
        raise ValueError("pivot lies inside the member subspace")
    if not family.is_member(u):
        raise MembershipError("delta_restriction requires a member of the family")
    out: list[PhanSpec] = []
    for j, spec in enumerate(family.specs):
        pv = p.basis[0]
        if spec.forms[-1].evaluate(pv, pv) == 0:
            raise DegeneratePivotError(
                f"pivot is degenerate for the top form of spec {j}"
            )
        if not spec.has_member_below(u):
            raise EmptyResidueError(f"spec {j} has an empty residue below the member")
        for candidate in (residue_below(spec, u),
                          _lemma49_spec(spec, p, u, branches)):
            if candidate not in out:
                out.append(candidate)
    return PhanFamily(tuple(out))
