"""Generalized Phan geometries of type A_n: membership, enumeration,
families (intersections) and the sufficient bounds.

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

Residues below and above an element and the restriction of a family to a
member relative to a pivot point live in :mod:`phangeo.residues`, which
only the filtration and the lemma suites load.
"""

from __future__ import annotations

from .field import Field
from .forms import HermitianForm, RadicalConditionError
from .linalg import Flag, Frozen, Subspace, enumerate_subspaces_of

__all__ = [
    "PhanSpec",
    "PhanFamily",
    "GeometryVertexSet",
    "vertices",
    "bound_report",
    "family_bound_report",
]


def __getattr__(name: str):
    # bench/trace_cli.py wraps delta_restriction under its old home
    if name == "delta_restriction":
        from . import residues
        return residues.delta_restriction
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class PhanSpec(Frozen):
    """A generalized Phan geometry: a flag with forms pinned to its members.

    The flag/radical invariants are enforced; whether each form admits a
    non-isotropic vector is a condition on geometry files, which
    ``specfile.parse_family`` checks.  Two specs are equal iff their flags
    and forms are.
    """

    def __init__(self, flag: Flag, forms: tuple[HermitianForm, ...]):
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
        object.__setattr__(self, "flag", flag)
        object.__setattr__(self, "forms", forms)
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

    # -- membership ----------------------------------------------------------

    def k_of(self, u: Subspace) -> int:
        """Least i with U ∩ V_(i+1) != 0: the first flag member whose point
        mask meets U's."""
        if u.is_zero():
            raise ValueError("k_U is undefined for the zero subspace")
        for i, (mask, _) in enumerate(self._meets):
            if u.point_mask & mask:
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
        """The members in subspace-table order: by dimension, then as
        ``enumerate_subspaces_of`` lists them.  Callers read them as a set
        or hand them to ``order_complex``, which orders the vertices."""
        return tuple(s for k in range(1, self.ambient.dim)
                     for s in enumerate_subspaces_of(self.ambient, k)
                     if self.is_member(s))

    def has_member_below(self, u: Subspace) -> bool:
        """Whether some member lies strictly below u (a non-empty residue);
        stops at the first one found."""
        return any(self.is_member(s)
                   for k in range(1, u.dim) for s in enumerate_subspaces_of(u, k))


def _spec_avoidance_cost(field: Field, members) -> int:
    """Per-spec constant in the sufficient bound, read from the ranks of
    its flag's steps: rank-one forms (the opposite-chamber shape) only
    exclude a hyperplane of vectors, so their constant improves from 2 resp.
    sqrt(q)+1 to 1."""
    if all(b.dim - a.dim == 1 for a, b in zip(members, members[1:])):
        return 1
    if field.sigma_order == 1:
        return 2
    return field.sqrt_q + 1


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
    return _flags_bound(family.n, family.field, [s.flag.members for s in family.specs])


def _flags_bound(n: int, field: Field, flags) -> dict:
    """The bound row of a family of specs over F_q^(n+1) whose flags have
    the given members: it reads only n, q, sigma, m and the members'
    dimensions, so a geometry file is gated on it before its flags are
    validated by point masks (``specfile._spec_bound``)."""
    costs = [_spec_avoidance_cost(field, members) for members in flags]
    return {**_cost_bound(n, field.q, field.sigma_order, costs), "form_costs": costs}


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

    def __init__(self, members: tuple[Subspace, ...]):
        self.members = members


def vertices(family: PhanFamily) -> GeometryVertexSet:
    """All subspaces belonging to every spec of the family: the members of
    the first spec (enumerated exhaustively) that every other spec
    accepts, in the first spec's member order."""
    first, *rest = family.specs
    return GeometryVertexSet(tuple(u for u in first.members()
                                   if all(s.is_member(u) for s in rest)))
