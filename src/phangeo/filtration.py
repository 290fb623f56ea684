"""The inductive filtration Y_0 ⊆ Y_1 ⊆ ... ⊆ Y_n of a family's geometry
around a pivot point, with machine-checked stage hypotheses.

Y_0 collects the members W for which <p, W> stays in the geometry; Y_i adds
all members of dimension n+1-i.  Each stage is certified by combinatorial
surrogates for the gluing lemma's hypotheses: pairwise star intersections
landing in the previous level (tested as: no star holds a second new
vertex), cone structure of the stars, the join decomposition and
homology-level sphericity of the star boundaries, the below/above set
identities, agreement of the below sets with the restricted family, and
exact Mayer-Vietoris rank bookkeeping.  Checks report failures with
witnesses instead of raising.

|Y_(i-1)| is the order complex of a subset of Y_i, so it is a full
subcomplex of |Y_i|: a chain of Y_i whose members all lie in Y_(i-1) is a
chain of Y_(i-1).  A star boundary A_j ∩ B is therefore the star of U_j
with the vertices outside Y_(i-1) dropped from each facet
(``induced_subcomplex``), with no search through the facets of B.  So too
every |Y_i| is the full subcomplex of |Y_n| on the vertices of level <= i,
and one filtered reduction of |Y_n| (``filtered_homology``) gives the
homology of every level.

One containment graph serves the whole filtration.  |Y_n| is built once, by
``order_complex``, which keeps the strict successors of each vertex
(``succ``).  Every |Y_i| below it and every join |Y_(i-1)^<U * Y_(i-1)^>U|
is the order complex of a subset of Y_n, so each is ``induced_subcomplex``
of |Y_n|, walked from those lists cut to the subset; the below and above
sets of checks (c) and (d) are read from the same lists and their reverse,
by vertex index.  A star boundary is cut from the star's facets instead,
so check (c) compares two separate constructions.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

from .homology import HomologyReport, reduced_homology, sphericity_verdict
from .linalg import Subspace
from .morse import filtered_homology
from .phan import GeometryVertexSet, PhanFamily, vertices
from .residues import DeltaConstructionError, EmptyResidueError, delta_restriction
from .simplicial import (
    SimplicialComplex,
    induced_subcomplex,
    link,
    order_complex,
    star_closure,
)

__all__ = [
    "PivotNotFoundError",
    "CheckResult",
    "StageReport",
    "FiltrationState",
    "FiltrationReport",
    "choose_pivot",
    "find_degenerate_pivot",
    "build_filtration",
    "verify_stage",
    "verify_y0_contractible",
    "run_verification",
]


class PivotNotFoundError(RuntimeError):
    """The pivot search found no point of the kind it looks for."""


class CheckResult(namedtuple("CheckResult", "name passed witness", defaults=(None,))):
    """One named check; a failing check carries a witness string."""

    __slots__ = ()

    def as_dict(self) -> dict:
        out = {"name": self.name, "passed": self.passed}
        if self.witness:
            out["witness"] = self.witness
        return out


class StageReport:
    """The checks of one stage, as ``verify_stage`` records them."""

    def __init__(self, stage: int, new_vertex_count: int):
        self.stage = stage
        self.new_vertex_count = new_vertex_count
        self.checks: list[CheckResult] = []
        self.boundary_rank_sum = 0  # sum over new vertices of rank H~_(n-2)(A_j ∩ B)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "stage": self.stage,
            "new_vertices": self.new_vertex_count,
            "passed": self.passed,
            "boundary_rank_sum": self.boundary_rank_sum,
            "checks": [c.as_dict() for c in self.checks],
        }


class FiltrationState:
    """The levels Y_0 .. Y_n (each sorted, each inside the next, Y_n = Γ) of
    a family's geometry around a pivot, and what the checks read of them,
    each computed once per state: the join <U, p> of every member, the
    complex |Y_n| with the strict predecessors of each of its vertices, and
    the homology of every level, from one filtered reduction of |Y_n|; no
    lower level's complex is kept (``level_complex``)."""

    def __init__(self, family: PhanFamily, pivot: Subspace, geometry: GeometryVertexSet,
                 levels: tuple[tuple[Subspace, ...], ...], joins: dict | None = None):
        self.family = family
        self.pivot = pivot
        self.geometry = geometry
        self.levels = levels
        self.joins = _joins(geometry.members, pivot) if joins is None else joins

    @property
    def n(self) -> int:
        return self.family.n

    def level_complex(self, i: int) -> SimplicialComplex:
        """|Y_i|: |Y_n| is kept by the state (``graph``), and a lower level
        is its full subcomplex on Y_i, cut afresh on every call, so that it
        dies with the stage that reads it, its indexes with it."""
        top = self.graph[0]
        return top if i == self.n else induced_subcomplex(top, set(self.levels[i]))

    @cached_property
    def graph(self) -> tuple[SimplicialComplex, list[list[int]], list[set[int]]]:
        """|Y_n|, the order complex of Y_n, the strict predecessors of each
        of its vertices (its successor lists turned round, as increasing
        vertex indices), and the vertex indices of each level."""
        top = order_complex(self.levels[self.n])
        pred = [[] for _ in top.succ]
        for i, si in enumerate(top.succ):
            for j in si:
                pred[j].append(i)
        at = top.vertex_index
        return top, pred, [{at[w] for w in level} for level in self.levels]

    def around(self, u: Subspace, i: int) -> tuple[list[int], list[int]]:
        """The members of Y_i strictly inside and strictly containing u, as
        increasing vertex indices of |Y_n|."""
        top, pred, levels = self.graph
        x, inside = top.vertex_index[u], levels[i]
        return [j for j in pred[x] if j in inside], [j for j in top.succ[x] if j in inside]

    @cached_property
    def homology(self) -> list[HomologyReport]:
        """The reduced homology of each level |Y_i|, from one filtered
        reduction of |Y_n| with each vertex at the level where it enters."""
        top, _, levels = self.graph
        reports = filtered_homology(top, [next(i for i, s in enumerate(levels) if j in s)
                                          for j in range(top.num_vertices)])
        return reports + reports[-1:] * (len(self.levels) - len(reports))


class FiltrationReport(namedtuple(
        "FiltrationReport",
        "pivot y0 stages final_checks predicted_spheres direct_spheres level_sizes")):
    """The outcome of ``run_verification``: the Y_0 checks, one report per
    stage, the final checks and the sphere-count ledger."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return (
            all(c.passed for c in self.y0)
            and all(s.passed for s in self.stages)
            and all(c.passed for c in self.final_checks)
        )

    def as_dict(self) -> dict:
        return {
            "pivot": None if self.pivot is None else [list(r) for r in self.pivot.basis],
            "passed": self.passed,
            "y0_checks": [c.as_dict() for c in self.y0],
            "stages": [s.as_dict() for s in self.stages],
            "final_checks": [c.as_dict() for c in self.final_checks],
            "predicted_sphere_count": self.predicted_spheres,
            "direct_sphere_count": self.direct_spheres,
            "level_sizes": self.level_sizes,
        }


def _first_point(family: PhanFamily, degenerate: bool, message: str) -> Subspace:
    """First point (canonical vector order) that is isotropic for some top
    form when ``degenerate``, and non-degenerate for every top form when not."""
    tops = [spec.forms[-1] for spec in family.specs]
    for v in family.ambient.vectors():
        if any(v) and any(w.evaluate(v, v) == 0 for w in tops) == degenerate:
            return Subspace.span(family.field, family.ambient.ambient, [v])
    raise PivotNotFoundError(message)


def choose_pivot(family: PhanFamily) -> Subspace:
    """First point non-degenerate for the top form of every spec in the
    family."""
    return _first_point(family, False, "no point is non-degenerate for all top forms "
                        "(bound violation or paper-bound slack)")


def find_degenerate_pivot(family: PhanFamily) -> Subspace:
    """First point isotropic for at least one top form: a deliberate
    hypothesis violation for negative-control runs."""
    return _first_point(family, True, "every point is non-degenerate for every top form")


def _joins(members, p: Subspace) -> dict[Subspace, Subspace]:
    """<W, p> for each member W, which is W itself when W holds p."""
    return {w: w if w.point_mask & p.point_mask else w.sum(p) for w in members}


def build_filtration(family: PhanFamily, pivot: Subspace) -> FiltrationState:
    geometry = vertices(family)
    members = set(geometry.members)
    nplus1 = family.ambient.dim
    joins = _joins(geometry.members, pivot)
    y0 = [w for w in geometry.members if joins[w] in members]
    levels = [tuple(sorted(y0, key=Subspace.sort_key))]
    for i in range(1, family.n + 1):
        cur = set(levels[-1])
        cur.update(w for w in geometry.members if w.dim == nplus1 - i)
        levels.append(tuple(sorted(cur, key=Subspace.sort_key)))
    return FiltrationState(family, pivot, geometry, tuple(levels), joins)


def verify_y0_contractible(state: FiltrationState) -> list[CheckResult]:
    """Homology-level acyclicity of |Y_0| plus the structural facts carried
    by the retraction U -> <U, p> -> p."""
    y0, p, rep, joins = state.levels[0], state.pivot, state.homology[0], state.joins
    y0set, top = set(y0), state.family.ambient.dim
    acyclic = rep.is_acyclic() and bool(y0)
    leaves = next((u for u in y0 if joins[u].dim < top and joins[u] not in y0set), None)
    misses = next((u for u in y0 if not joins[u].contains_subspace(p)), None)
    return [
        CheckResult("y0_acyclic", acyclic,
                    None if acyclic else f"reduced betti {rep.betti}, torsion {rep.torsion}"),
        CheckResult("pivot_in_y0", p in y0set,
                    None if p in y0set else f"pivot {p.basis} not in Y_0"),
        CheckResult("join_map_into_y0", leaves is None,
                    None if leaves is None else f"<U,p> leaves Y_0 for U = {leaves.basis}"),
        CheckResult("join_image_in_star_of_p", misses is None,
                    None if misses is None else f"{misses.basis}"),
    ]


def _spherical_check(k: SimplicialComplex, report: HomologyReport,
                     d: int) -> tuple[bool, str | None]:
    """Homology-level d-sphericity with the (-1)-dimensional convention: the
    empty complex is exactly the (-1)-sphere wedge."""
    if d == -1:
        return (k.is_empty(), None if k.is_empty() else "expected empty complex")
    if k.is_empty():
        return False, f"empty complex cannot be {d}-spherical"
    v = sphericity_verdict(report, d)
    if v.spherical:
        return True, None
    return False, f"concentrated={v.homology_concentrated} torsion_free={v.torsion_free_top}"


def verify_stage(state: FiltrationState, i: int) -> StageReport:
    """Verify the gluing hypotheses when passing from Y_(i-1) to Y_i.

    With B = |Y_(i-1)| and A_j the closed star in |Y_i| of each new vertex
    U_j: (a) pairwise A_j1 ∩ A_j2 ⊆ B, tested as "no A_j holds a second new
    vertex" (a simplex of A_j1 ∩ A_j2 with a new vertex W spans a simplex with
    U_j1 and one with U_j2, so W ≠ U_j1 lies in A_j1 or W = U_j1 lies in A_j2;
    conversely an edge {U, W} of new vertices lies in both stars and not in
    B); (b) each A_j is a cone with apex U_j; (c) A_j ∩ B equals the join
    |Y_(i-1)^<U * Y_(i-1)^>U| and is spherical in dimension n-2 at the
    homology level, where A_j ∩ B is read off the star's facets by
    restriction to the vertices of Y_(i-1), exact because B is a full
    subcomplex of |Y_i|, and the join is built separately, as the full
    subcomplex of |Y_n| on the below and above sets; (d) Y_(i-1)^>U = Γ^>U,
    Y_(i-1)^<U = Y_0^<U, and the below set matches the intersection geometry
    of the restricted family; plus exact Mayer-Vietoris rank bookkeeping.
    One pass over the new vertices, in level order, builds each one's star,
    link and A_j ∩ B, checks them and lets them go before the next vertex.
    Each failing check is recorded with the witness of its first failing
    vertex, never raised.
    """
    if not 1 <= i <= state.n:
        raise ValueError(f"stage index must lie in 1..{state.n}")
    prev_set = set(state.levels[i - 1])
    new = [u for u in state.levels[i] if u not in prev_set]
    report = StageReport(stage=i, new_vertex_count=len(new))
    n = state.n
    if not new:
        report.checks.append(CheckResult("vacuous_stage", True))
        return report

    k_cur = state.level_complex(i)
    index = k_cur.vertex_index
    top = state.graph[0]
    bad_pair = bad_cone = bad_join = bad_sphere = bad_above = bad_below = bad_delta = None
    for u in new:
        star = star_closure(k_cur, index[u])

        # (a) pairwise star intersections land in B: some A_j1 ∩ A_j2 holds
        # a simplex outside B iff some star holds a second new vertex
        w = next((w for w in star.vertices if w != u and w not in prev_set), None)
        if w is not None:
            bad_pair = bad_pair or f"star({u.basis}) contains the new vertex {w.basis}"

        # (b) the star is a cone with apex its vertex, A_j = U_j * link(U_j),
        # compared as sets of facets over the star's vertex indices
        if bad_cone is None:
            at = star.vertex_index
            apex = at.get(u, -1)
            lk = link(k_cur, (index[u],))
            to_star = [at.get(w, -1) for w in lk.vertices]
            rebuilt = {tuple(sorted([apex, *map(to_star.__getitem__, f)])) for f in lk.facets}
            if not all(apex in f for f in star.facets):
                bad_cone = f"U = {u.basis}: facet without the apex"
            elif (rebuilt or {(apex,)}) != set(star.facets):
                bad_cone = f"U = {u.basis}: star is not the cone over its link"

        # (c) the star boundary: join decomposition and (n-2)-sphericity; (d)
        # the below/above set identities and the restricted-family comparison.
        # The below and above sets are increasing vertex indices of |Y_n|, read
        # from its containment graph (Γ = Y_n).  A_j ∩ B and the join both list
        # their vertices in |Y_n|'s order and their facets sorted, so they have
        # the same facets iff these tuples agree
        below, above = state.around(u, i - 1)
        a_cap_b = induced_subcomplex(star, prev_set)
        join = induced_subcomplex(top, {top.vertices[j] for j in below + above})
        if (a_cap_b.vertices, a_cap_b.facets) != (join.vertices, join.facets):
            bad_join = bad_join or f"U = {u.basis}"
        a_cap_b_homology = reduced_homology(a_cap_b)
        ok, why = _spherical_check(a_cap_b, a_cap_b_homology, n - 2)
        report.boundary_rank_sum += a_cap_b_homology.betti_number(n - 2)
        if not ok:
            bad_sphere = bad_sphere or f"U = {u.basis}: {why}"
        above_gamma = state.around(u, n)[1]
        if above != above_gamma:
            bad_above = bad_above or _set_witness(u, top, above, above_gamma)
        below_y0 = state.around(u, 0)[0]
        if below != below_y0:
            bad_below = bad_below or _set_witness(u, top, below, below_y0)
        if bad_delta is None:
            bad_delta = _delta_comparison(state, u, {top.vertices[j] for j in below_y0})

    # Mayer-Vietoris rank bookkeeping at degree n-1
    lhs = state.homology[i].betti_number(n - 1)
    rhs = state.homology[i - 1].betti_number(n - 1) + report.boundary_rank_sum
    report.checks = [CheckResult(name, witness is None, witness) for name, witness in (
        ("pairwise_star_intersections_in_B", bad_pair),
        ("stars_are_cones", bad_cone),
        ("star_boundary_join_decomposition", bad_join),
        ("star_boundary_sphericity", bad_sphere),
        ("above_sets_equal_gamma_above", bad_above),
        ("below_sets_equal_y0_below", bad_below),
        ("below_sets_match_restricted_family", bad_delta),
        ("mayer_vietoris_rank_balance",
         None if lhs == rhs else f"rank H~_{n-1}(Y_{i}) = {lhs} != {rhs}"))]
    return report


def _set_witness(u: Subspace, k: SimplicialComplex, a, b) -> str:
    """Names U and the members on which its two sets of vertex indices of k
    differ."""
    diff = set(a).symmetric_difference(b)
    return f"U = {u.basis}: sets differ at {sorted(k.vertices[j].basis for j in diff)}"


def _delta_comparison(state: FiltrationState, u: Subspace, below_y0) -> str | None:
    """Compare {W < U : W, <W,p> in the geometry} with the vertex set of the
    restricted family; returns a witness string on mismatch."""
    p = state.pivot
    if u.contains_subspace(p):
        return None  # <p,W> <= U for W < U; nothing to restrict
    try:
        fam = delta_restriction(state.family, p, u)
        got = set(vertices(fam).members)
    except EmptyResidueError:
        # Lemma's hypothesis fails (empty residue); the literal set must
        # then also be computable directly, nothing to compare against.
        return None
    except (ValueError, DeltaConstructionError) as exc:
        # the construction's own errors are recorded, not raised: negative
        # controls land here; any other exception is a programming error.
        # delta_restriction stops at the first failing spec, so the residues
        # of the specs after it are still unchecked; an empty one waives the
        # comparison as above
        if not all(s.has_member_below(u) for s in state.family.specs):
            return None
        return f"U = {u.basis}: delta_restriction failed: {exc}"
    if got != below_y0:
        diff = {w.basis for w in got ^ below_y0}
        return f"U = {u.basis}: vertex sets differ at {sorted(diff)}"
    return None


def run_verification(family: PhanFamily, negative_control: bool = False) -> FiltrationReport:
    """Full pipeline: choose a pivot, build the filtration, verify Y_0 and
    every stage, and balance the sphere-count ledger against the direct
    homology of the geometry.  A family without a pivot gets a report whose
    one Y_0 check, ``pivot_found``, fails with the search's message; the
    negative control's search for an isotropic point raises
    ``PivotNotFoundError`` when there is none."""
    if negative_control:
        pivot = find_degenerate_pivot(family)
    else:
        try:
            pivot = choose_pivot(family)
        except PivotNotFoundError as exc:
            return FiltrationReport(
                pivot=None, y0=[CheckResult("pivot_found", False, str(exc))], stages=[],
                final_checks=[], predicted_spheres=None, direct_spheres=None, level_sizes=[])
    state = build_filtration(family, pivot)
    y0_checks = verify_y0_contractible(state)
    stages = [verify_stage(state, i) for i in range(1, state.n + 1)]

    n = state.n
    # Y_0 contributes nothing (acyclic); each stage adds its boundary ranks
    predicted = sum(s.boundary_rank_sum for s in stages)

    # Y_n holds every member, so |Y_n| is the geometry complex
    gamma_homology = state.homology[n]
    direct = gamma_homology.betti_number(n - 1)
    final = []
    verdict = sphericity_verdict(gamma_homology, n - 1)
    final.append(
        CheckResult(
            "final_sphere_count_agreement", predicted == direct,
            None if predicted == direct else f"predicted {predicted}, direct {direct}",
        )
    )
    ok = verdict.spherical and verdict.sphere_count >= 1
    final.append(
        CheckResult(
            "gamma_spherical_nontrivial", ok,
            None if ok else "geometry complex is not a non-trivial homology wedge",
        )
    )
    return FiltrationReport(
        pivot=pivot,
        y0=y0_checks,
        stages=stages,
        final_checks=final,
        predicted_spheres=predicted,
        direct_spheres=direct,
        level_sizes=[len(l) for l in state.levels],
    )
