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

The filtration is thus one level per vertex of |Γ| = |Y_n|: 0 on Y_0 and
n+1-dim U elsewhere.  Every |Y_i| is the full subcomplex of |Γ| on the
vertices of level <= i, so one filtered reduction of |Γ|
(``filtered_homology``) gives the homology of every level.  In an order
complex the link of a vertex U is the order complex of the members
comparable with U (Quillen, Adv. Math. 1978), so the star boundary A_j ∩ B
is the join |Y_(i-1)^<U * Y_(i-1)^>U| of the restricted family below U and
the residue above U, generalized Phan geometries of lower rank.  |Γ| is
built once, by ``order_complex``; every new vertex is read from the levels
and every neighbour, below and above set from |Γ|'s successor and
predecessor lists (``succ``, ``pred``) cut by level, every join cut from
them (``induced_subcomplex``): no lower level, star or link is built.
Each graph reading is compared with a construction that shares no code
with the graph: the point masks (b), the residues above U (c) and the
restricted families (d).

Pivots come from one walk of the ambient, ``PhanFamily.pivot_points``,
which ``choose_pivot``, ``find_degenerate_pivot`` and the delta suite's
pivot pool all read.  Check (d) leaves the restricted family's hypothesis,
a member below U in every spec, to ``delta_restriction``: its
``EmptyResidueError`` waives the comparison, and no other error does.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

from .homology import HomologyReport, reduced_homology, sphericity_verdict
from .linalg import Subspace
from .morse import filtered_homology
from .phan import PhanFamily, vertices
from .residues import (DeltaConstructionError, EmptyResidueError, delta_restriction,
                       lifted_residue_above)
from .simplicial import SimplicialComplex, induced_subcomplex, order_complex

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


class StageReport(namedtuple("StageReport", "stage new_vertices boundary_rank_sum checks")):
    """The outcome of ``verify_stage`` for stage i: the number of new
    vertices, the sum over them of rank H~_(n-2)(A_j ∩ B) and the checks.
    Its fields are its report keys."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {**self._asdict(), "passed": self.passed,
                "checks": [c.as_dict() for c in self.checks]}


class FiltrationState:
    """The filtration Y_0 .. Y_n of a family's geometry around a pivot, as
    |Γ| = |Y_n| with one level per vertex: ``level[j]`` is the stage at
    which vertex j enters, 0 on Y_0 and n+1-dim U_j elsewhere, so |Y_i| is
    the full subcomplex on the vertices of level <= i; ``joins[j]`` is
    <U_j, p>.  The homology of every level is computed once per state, from
    one filtered reduction of |Γ|; no lower level's complex is built."""

    def __init__(self, family: PhanFamily, pivot: Subspace, complex: SimplicialComplex,
                 level: list[int], joins: list[Subspace]):
        self.family = family
        self.pivot = pivot
        self.complex = complex
        self.level = level
        self.joins = joins

    @property
    def n(self) -> int:
        return self.family.n

    def around(self, x: int, i: int) -> tuple[list[int], list[int]]:
        """The members of Y_i strictly inside and strictly containing vertex
        x of |Γ|, as increasing vertex indices."""
        k, level = self.complex, self.level
        return [j for j in k.pred[x] if level[j] <= i], [j for j in k.succ[x] if level[j] <= i]

    @cached_property
    def homology(self) -> list[HomologyReport]:
        """The reduced homology of each level |Y_i|, from one filtered
        reduction of |Γ| with each vertex at its level."""
        reports = filtered_homology(self.complex, self.level)
        return reports + reports[-1:] * (self.n + 1 - len(reports))


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


def choose_pivot(family: PhanFamily) -> Subspace:
    """First point non-degenerate for the top form of every spec in the
    family."""
    for p in family.pivot_points():
        return p
    raise PivotNotFoundError("no point is non-degenerate for all top forms "
                             "(bound violation or paper-bound slack)")


def find_degenerate_pivot(family: PhanFamily) -> Subspace:
    """First point isotropic for at least one top form: a deliberate
    hypothesis violation for negative-control runs."""
    for p in family.pivot_points(isotropic=True):
        return p
    raise PivotNotFoundError("every point is non-degenerate for every top form")


def build_filtration(family: PhanFamily, pivot: Subspace) -> FiltrationState:
    k = order_complex(vertices(family).members)
    at, nplus1 = k.vertex_index, family.ambient.dim
    joins = [u if u.point_mask & pivot.point_mask else u.sum(pivot) for u in k.vertices]
    level = [0 if w in at else nplus1 - u.dim for u, w in zip(k.vertices, joins)]
    return FiltrationState(family, pivot, k, level, joins)


def verify_y0_contractible(state: FiltrationState) -> list[CheckResult]:
    """Homology-level acyclicity of |Y_0| plus the structural facts carried
    by the retraction U -> <U, p> -> p."""
    k, level, joins, p = state.complex, state.level, state.joins, state.pivot
    rep, at, top = state.homology[0], k.vertex_index, state.family.ambient.dim
    y0 = [j for j, lv in enumerate(level) if lv == 0]

    def in_y0(w: Subspace) -> bool:
        return w in at and level[at[w]] == 0

    acyclic = rep.is_acyclic() and bool(y0)
    leaves = next((k.vertices[j] for j in y0
                   if joins[j].dim < top and not in_y0(joins[j])), None)
    misses = next((k.vertices[j] for j in y0 if not joins[j].contains_subspace(p)), None)
    pivot_in = in_y0(p)
    return [
        CheckResult("y0_acyclic", acyclic,
                    None if acyclic else f"reduced betti {rep.betti}, torsion {rep.torsion}"),
        CheckResult("pivot_in_y0", pivot_in,
                    None if pivot_in else f"pivot {p.basis} not in Y_0"),
        CheckResult("join_map_into_y0", leaves is None,
                    None if leaves is None else f"<U,p> leaves Y_0 for U = {leaves.basis}"),
        CheckResult("join_image_in_star_of_p", misses is None,
                    None if misses is None else f"{misses.basis}"),
    ]


def _spherical_check(report: HomologyReport, d: int) -> tuple[bool, str | None]:
    """Homology-level d-sphericity with the (-1)-dimensional convention: the
    empty complex, the one of top dimension -1, is exactly the (-1)-sphere
    wedge."""
    empty = report.top_dim == -1
    if d == -1:
        return (empty, None if empty else "expected empty complex")
    if empty:
        return False, f"empty complex cannot be {d}-spherical"
    v = sphericity_verdict(report, d)
    if v.spherical:
        return True, None
    return False, f"concentrated={v.homology_concentrated} torsion_free={v.torsion_free_top}"


def verify_stage(state: FiltrationState, i: int) -> StageReport:
    """Verify the gluing hypotheses when passing from Y_(i-1) to Y_i.

    With B = |Y_(i-1)| and A_j the closed star in |Y_i| of each new vertex
    U_j, the cone from U_j over its neighbours in Y_i: (a) pairwise
    A_j1 ∩ A_j2 ⊆ B, tested as "no A_j holds a second new vertex" (a simplex
    of A_j1 ∩ A_j2 with a new vertex W spans a simplex with U_j1 and one with
    U_j2, so W ≠ U_j1 lies in A_j1 or W = U_j1 lies in A_j2; conversely an
    edge {U, W} of new vertices lies in both stars and not in B); (b) each
    A_j is a cone with apex U_j: the point masks find every neighbour that
    the graph lists comparable with U_j; (c) A_j ∩ B is the join
    |Y_(i-1)^<U * Y_(i-1)^>U|, cut from |Y_n| and spherical in dimension n-2
    at the homology level, whose above factor is Γ^>U by (d): the graph's
    Γ^>U equals the members of the residues above U, lifted by X ↦ X + U and
    intersected over the specs; (d) Y_(i-1)^>U = Γ^>U, Y_(i-1)^<U = Y_0^<U,
    and the below set matches the intersection geometry of the restricted
    family; plus exact Mayer-Vietoris rank bookkeeping.  One pass over the
    new vertices, in level order, lets each one's join go before the next.
    Each failing check is recorded with the witness of its first failing
    vertex, never raised.  The ``StageReport`` is built once, after the
    pass, from the new-vertex count, the boundary rank sum and the checks.
    """
    if not 1 <= i <= state.n:
        raise ValueError(f"stage index must lie in 1..{state.n}")
    level = state.level
    new = [x for x, lv in enumerate(level) if lv == i]
    n = state.n
    if not new:
        return StageReport(i, 0, 0, [CheckResult("vacuous_stage", True)])

    homology = state.homology  # reduced before |Γ|'s predecessor lists are built
    top = state.complex
    vs = top.vertices
    bad_pair = bad_cone = bad_join = bad_sphere = bad_above = bad_below = bad_delta = None
    rank_sum = 0  # sum over new vertices of rank H~_(n-2)(A_j ∩ B)
    for x in new:
        u = vs[x]
        # U's neighbours in Y_i, below and above, as vertex indices of |Γ|
        near = [j for side in state.around(x, i) for j in side]

        # (a) pairwise star intersections land in B: some A_j1 ∩ A_j2 holds
        # a simplex outside B iff some star holds a second new vertex
        w = next((vs[j] for j in near if level[j] == i), None)
        if w is not None:
            bad_pair = bad_pair or f"star({u.basis}) contains the new vertex {w.basis}"

        # (b) the star is the cone from U over its neighbours
        if bad_cone is None:
            m = u.point_mask
            w = next((vs[j] for j in near
                      if m & ~vs[j].point_mask and vs[j].point_mask & ~m), None)
            if w is not None:
                bad_cone = f"U = {u.basis}: star vertex {w.basis} is not comparable with U"

        # (c) the star boundary: the join's above factor against the
        # residues, and (n-2)-sphericity; (d) the below/above set identities
        # and the restricted-family comparison
        below, above = state.around(x, i - 1)
        above_gamma = state.around(x, n)[1]
        if bad_join is None:  # Γ^>U from the residues
            diff = lifted_residue_above(state.family, u).symmetric_difference(
                vs[j] for j in above_gamma)
            if diff:
                bad_join = f"U = {u.basis}: above sets differ at {sorted(w.basis for w in diff)}"
        join = induced_subcomplex(top, below + above)
        join_homology = reduced_homology(join)
        ok, why = _spherical_check(join_homology, n - 2)
        rank_sum += join_homology.betti_number(n - 2)
        if not ok:
            bad_sphere = bad_sphere or f"U = {u.basis}: {why}"
        if above != above_gamma:
            bad_above = bad_above or _set_witness(u, top, above, above_gamma)
        below_y0 = state.around(x, 0)[0]
        if below != below_y0:
            bad_below = bad_below or _set_witness(u, top, below, below_y0)
        if bad_delta is None:
            bad_delta = _delta_comparison(state, u, {vs[j] for j in below_y0})

    # Mayer-Vietoris rank bookkeeping at degree n-1
    lhs = homology[i].betti_number(n - 1)
    rhs = homology[i - 1].betti_number(n - 1) + rank_sum
    checks = [CheckResult(name, witness is None, witness) for name, witness in (
        ("pairwise_star_intersections_in_B", bad_pair),
        ("stars_are_cones", bad_cone),
        ("star_boundary_join_decomposition", bad_join),
        ("star_boundary_sphericity", bad_sphere),
        ("above_sets_equal_gamma_above", bad_above),
        ("below_sets_equal_y0_below", bad_below),
        ("below_sets_match_restricted_family", bad_delta),
        ("mayer_vietoris_rank_balance",
         None if lhs == rhs else f"rank H~_{n-1}(Y_{i}) = {lhs} != {rhs}"))]
    return StageReport(i, len(new), rank_sum, checks)


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
    except EmptyResidueError:  # a ValueError, so caught first
        return None  # the lemma's hypothesis fails: nothing to compare against
    except (ValueError, DeltaConstructionError) as exc:
        # the construction's own errors are recorded, not raised: negative
        # controls land here; any other exception is a programming error
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
        level_sizes=[sum(lv <= i for lv in state.level) for i in range(n + 1)],
    )
