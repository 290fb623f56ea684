"""Residues and restricted families, and the form constructions they rest
on: the extension of a flag's forms around a pivot point and the
projection form onto the perp of a non-degenerate point.

Residues stay in the ambient space.  The residue below U is a spec on U;
the residue above U, the geometry of V/U, is a spec on the perp section
(U ∩ V_(k+1))^perp(w_k), a complement of U in V, whose forms are
restrictions of the spec's own.  The restriction of a family to a member u
relative to a pivot point p (``delta_restriction``) carries, per spec, the
residue below u and a spec on u built from the flag <V_i, p> ∩ u with the
extended forms projected onto the perp of p.

``delta_restriction`` owns the restricted family's hypothesis, that every
spec has a member below u: it is the one caller of ``has_member_below`` in
the package, and its ``EmptyResidueError`` is how check (d) of the
filtration and the delta suite of ``suites`` learn that the hypothesis fails.

Only ``filtration`` and ``suites`` import this module, so ``build``,
``homology`` and ``cm-check`` never compile it.
"""

from __future__ import annotations

from functools import lru_cache

from .forms import HermitianForm
from .linalg import Flag, Subspace, combine, complement, rref, solve_coordinates
from .phan import PhanFamily, PhanSpec

__all__ = [
    "MembershipError",
    "EmptyResidueError",
    "DeltaConstructionError",
    "DegeneratePivotError",
    "extend_forms",
    "project_form",
    "residue_below",
    "residue_above",
    "lifted_residue_above",
    "delta_restriction",
]


class MembershipError(ValueError):
    """An operation required a geometry member and got a non-member."""


class EmptyResidueError(ValueError):
    """A family restriction required a non-empty residue below the member."""


class DeltaConstructionError(RuntimeError):
    """The flag/form construction of the restricted family broke an expected
    radical property; indicates a violated precondition."""


class DegeneratePivotError(ValueError):
    """A pivot point required to be non-degenerate is isotropic."""


def extend_forms(spec: PhanSpec, p: Subspace, complement_policy=None):
    """Extend the spec's forms to the whole space around a pivot point p.

    Requires p non-degenerate for the top form.  Returns forms on all of
    V = flag.top such that each restricts to the original on V_(i+1), keeps
    radical V_i, and makes p non-degenerate with one common perp.  Over a
    direct decomposition V = C_1 ⊕ ... ⊕ C_(t+1) ⊕ p with projections pr_j,
    extended form i is w_t(pr_p, pr_p) + sum_(j >= i) w_j(pr_j, pr_j): the
    Gram matrix of each summand is built once, and the sums run from the
    top down.
    """
    flag, forms, t = spec.flag, spec.forms, spec.t
    if p.dim != 1:
        raise ValueError("pivot must be one-dimensional")
    pv = p.basis[0]
    top = forms[t]
    if top.evaluate(pv, pv) == 0:
        raise DegeneratePivotError("pivot point is degenerate for the top form")

    comp = complement_policy if complement_policy is not None else complement
    parts = [comp(flag[i - 1], flag[i]) for i in range(1, t + 1)]
    parts += [comp(flag[t], top.perp(p)), p]
    # V = C_1 ⊕ ... ⊕ C_(t+1) ⊕ p iff the stacked bases reduce to V's
    stacked = [row for part in parts for row in part.basis]
    f = flag.field
    if len(stacked) != flag.top.dim or rref(f, stacked) != flag.top.basis:
        raise ValueError("parts do not form a direct-sum decomposition of the ambient")

    # the component of each top-space basis vector in each summand, from
    # its coordinates over the stacked bases
    proj = [[] for _ in parts]
    for d in flag.top.basis:
        coords = solve_coordinates(f, stacked, d)
        offset = 0
        for comps, part in zip(proj, parts):
            comps.append(combine(f, coords[offset:offset + part.dim], part.basis, len(d)))
            offset += part.dim

    add = f.add_table
    gram = top.gram_of(proj[t + 1])
    out = []
    for j in range(t, -1, -1):
        summand = forms[j].gram_of(proj[j])
        gram = tuple(tuple(add[x][y] for x, y in zip(r, s)) for r, s in zip(gram, summand))
        out.append(HermitianForm(f, flag.top, gram))
    return tuple(reversed(out))


def project_form(form: HermitianForm, p: Subspace) -> HermitianForm:
    """The form w^p(v, w) = w(pr(v), pr(w)) for the projection pr onto the
    perp of a non-degenerate point p in the decomposition D = p ⊕ p^perp:
    pr(v) = v - w(v, p) w(p, p)^-1 p, so that w(pr(v), p) = 0, w being
    linear in its first argument.  Its Gram matrix is that of the projected
    basis of D."""
    if p.dim != 1 or not form.domain.contains_subspace(p):
        raise ValueError("p must be a one-dimensional subspace of the domain")
    pv = p.basis[0]
    wpp = form.evaluate(pv, pv)
    if wpp == 0:
        raise DegeneratePivotError("projection pivot is degenerate for the form")
    f = form.field
    scale = f.inv(wpp)
    projected = []
    for d in form.domain.basis:
        a = f.mul(form.evaluate(d, pv), scale)
        projected.append(tuple(f.sub(x, f.mul(a, y)) for x, y in zip(d, pv)))
    return HermitianForm(f, form.domain, form.gram_of(projected))


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
    return PhanSpec(flag, forms)


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
    return PhanSpec(Flag(members), forms)


def lifted_residue_above(family: PhanFamily, u: Subspace) -> set[Subspace]:
    """The members of the family's geometry above u read from the residues:
    the members of each spec's residue above u, each lifted by X ↦ X + u,
    intersected over the specs."""
    return set.intersection(*({x.sum(u) for x in residue_above(spec, u).members()}
                              for spec in family.specs))


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
def _pivot_frame(spec: PhanSpec, p: Subspace
                 ) -> tuple[tuple[Subspace, ...], tuple[HermitianForm, ...]]:
    """The flag members <V_i, p> and the spec's forms extended around p and
    projected onto the perp of p, which depend on (spec, p) alone, so the
    restrictions to every member share them.  Once ``delta_restriction``
    has found p non-degenerate for the top form, the extension cannot fail:
    V_t = Rad(w_t) lies in p^perp, which misses p."""
    joined = tuple(v.sum(p) for v in spec.flag.members)
    return joined, tuple(project_form(w, p) for w in extend_forms(spec, p))


def _lemma49_spec(spec: PhanSpec, p: Subspace, u: Subspace,
                  branches: list | None = None) -> PhanSpec:
    """The second restricted spec on u: flag <V_i, p> ∩ u with projected
    extended forms, including the collapsed one-dimensional and augmented
    radical branches."""
    f = spec.field
    joined_flag, projected = _pivot_frame(spec, p)
    entries = []
    l_u = None
    for i, joined in enumerate(joined_flag):
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
        candidate = projected[cand].restrict(upper)
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
    return PhanSpec(Flag(tuple(flag_members)), tuple(step_forms))


def delta_restriction(family: PhanFamily, p: Subspace, u: Subspace,
                      branches: list | None = None) -> PhanFamily:
    """Restrict the family to a member u relative to a pivot point p.

    Returns a family of at most 2m specs on u whose intersection geometry is
    {W < u : W and <W, p> both belong to the family intersection}.  Per spec
    the output carries the residue below u and a spec built from the flag
    <V_i, p> ∩ u with projected extended forms; structurally equal specs are
    emitted once.  Right after its argument checks, before any pivot test or
    construction, it raises ``EmptyResidueError`` when some spec has no
    member below u, so that error alone means the lemma's hypothesis fails.
    """
    if p.dim != 1:
        raise ValueError("pivot must be one-dimensional")
    if u.contains_subspace(p):
        raise ValueError("pivot lies inside the member subspace")
    if not family.is_member(u):
        raise MembershipError("delta_restriction requires a member of the family")
    if not all(spec.has_member_below(u) for spec in family.specs):
        raise EmptyResidueError("a spec has an empty residue below the member")
    out: list[PhanSpec] = []
    pv = p.basis[0]
    for j, spec in enumerate(family.specs):
        if spec.forms[-1].evaluate(pv, pv) == 0:
            raise DegeneratePivotError(f"pivot is degenerate for the top form of spec {j}")
        for candidate in (residue_below(spec, u),
                          _lemma49_spec(spec, p, u, branches)):
            if candidate not in out:
                out.append(candidate)
    return PhanFamily(tuple(out))
