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
(``induced_subcomplex``), with no search through the facets of B.
"""

from __future__ import annotations

from collections import namedtuple

from .homology import HomologyReport, reduced_homology, sphericity_verdict
from .linalg import Subspace
from .phan import (
    DeltaConstructionError,
    EmptyResidueError,
    GeometryVertexSet,
    PhanFamily,
    delta_restriction,
    vertices,
)
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
    """No point is non-degenerate for every top form (bound violation or
    slack in the sufficient bound)."""


class CheckResult(namedtuple("CheckResult", "name passed witness", defaults=(None,))):
    """One named check; a failing check carries a witness string."""

    __slots__ = ()

    def as_dict(self) -> dict:
        out = {"name": self.name, "passed": self.passed}
        if self.witness:
            out["witness"] = self.witness
        return out


class StageReport:
    """The checks of one stage, filled in as ``verify_stage`` runs them."""

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
    """The levels Y_0 .. Y_n (each sorted) of a family's geometry around a
    pivot."""

    def __init__(self, family: PhanFamily, pivot: Subspace, geometry: GeometryVertexSet,
                 levels: tuple[tuple[Subspace, ...], ...]):
        self.family = family
        self.pivot = pivot
        self.geometry = geometry
        self.levels = levels
        self._complexes: dict = {}

    @property
    def n(self) -> int:
        return self.family.n

    def level_complex(self, i: int) -> tuple[SimplicialComplex, HomologyReport]:
        """|Y_i| and its reduced homology, built and reduced once per state."""
        if i not in self._complexes:
            k = order_complex(self.levels[i])
            self._complexes[i] = (k, reduced_homology(k))
        return self._complexes[i]


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
            "pivot": [list(r) for r in self.pivot.basis],
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


def build_filtration(family: PhanFamily, pivot: Subspace) -> FiltrationState:
    geometry = vertices(family)
    members = set(geometry.members)
    nplus1 = family.ambient.dim
    y0 = [w for w in geometry.members if w.sum(pivot) in members]
    levels = [tuple(sorted(y0, key=Subspace.sort_key))]
    for i in range(1, family.n + 1):
        cur = set(levels[-1])
        cur.update(w for w in geometry.members if w.dim == nplus1 - i)
        levels.append(tuple(sorted(cur, key=Subspace.sort_key)))
    return FiltrationState(family, pivot, geometry, tuple(levels))


def verify_y0_contractible(state: FiltrationState) -> list[CheckResult]:
    """Homology-level acyclicity of |Y_0| plus the structural facts carried
    by the retraction U -> <U, p> -> p."""
    checks = []
    y0 = state.levels[0]
    p = state.pivot
    k0, rep = state.level_complex(0)
    checks.append(
        CheckResult(
            "y0_acyclic",
            rep.is_acyclic() and not k0.is_empty(),
            None if rep.is_acyclic() and not k0.is_empty()
            else f"reduced betti {rep.betti}, torsion {rep.torsion}",
        )
    )
    checks.append(
        CheckResult(
            "pivot_in_y0", p in set(y0),
            None if p in set(y0) else f"pivot {p.basis} not in Y_0",
        )
    )
    y0set = set(y0)
    bad = None
    for u in y0:
        up = u.sum(p)
        if up.dim < state.family.ambient.dim and up not in y0set:
            bad = u
            break
    checks.append(
        CheckResult(
            "join_map_into_y0", bad is None,
            None if bad is None else f"<U,p> leaves Y_0 for U = {bad.basis}",
        )
    )
    bad = next((u for u in y0 if not u.sum(p).contains_subspace(p)), None)
    checks.append(
        CheckResult(
            "join_image_in_star_of_p", bad is None,
            None if bad is None else f"{bad.basis}",
        )
    )
    return checks


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
    homology level, where A_j ∩ B is read off the star by restriction to the
    vertices of Y_(i-1), exact because B is a full subcomplex of |Y_i|, and
    the join is built separately as an order complex; (d) Y_(i-1)^>U = Γ^>U,
    Y_(i-1)^<U = Y_0^<U, and the below set matches the intersection geometry
    of the restricted family; plus exact Mayer-Vietoris rank bookkeeping.
    Failures are recorded with witnesses, never raised.
    """
    if not 1 <= i <= state.n:
        raise ValueError(f"stage index must lie in 1..{state.n}")
    report = StageReport(stage=i, new_vertex_count=0)
    prev = state.levels[i - 1]
    cur = state.levels[i]
    prev_set = set(prev)
    new = [u for u in cur if u not in prev_set]
    report.new_vertex_count = len(new)
    n = state.n
    if not new:
        report.checks.append(CheckResult("vacuous_stage", True))
        return report

    k_cur, cur_homology = state.level_complex(i)
    _, b_homology = state.level_complex(i - 1)
    p = state.pivot

    index = {u: j for j, u in enumerate(k_cur.vertices)}
    stars = {u: star_closure(k_cur, index[u]) for u in new}

    # (a) pairwise star intersections land in B: some A_j1 ∩ A_j2 holds a
    # simplex outside B iff some star holds a second new vertex
    bad = next(((u, w) for u in new for w in stars[u].vertices
                if w != u and w not in prev_set), None)
    report.checks.append(
        CheckResult(
            "pairwise_star_intersections_in_B", bad is None,
            None if bad is None else
            f"star({bad[0].basis}) contains the new vertex {bad[1].basis}",
        )
    )

    # (b) every star is a cone with apex its vertex, A_j = U_j * link(U_j)
    bad = None
    for u in new:
        star = stars[u].facet_sets()
        if not all(u in f for f in star):
            bad = (u, "facet without the apex")
            break
        lk = link(k_cur, (index[u],))
        rebuilt = frozenset(f | {u} for f in lk.facet_sets()) if not lk.is_empty() \
            else frozenset({frozenset({u})})
        if rebuilt != star:
            bad = (u, "star is not the cone over its link")
            break
    report.checks.append(
        CheckResult(
            "stars_are_cones", bad is None,
            None if bad is None else f"U = {bad[0].basis}: {bad[1]}",
        )
    )

    # the below and above sets in Y_(i-1) of each new vertex, read by (c) and
    # (d) from an index of Y_(i-1) by point, built for this stage apart from
    # the indexes of Γ and Y_0 that (d) compares them with: a member above U
    # holds U's lowest point, one below U has its own lowest point among U's
    # points; w ⊆ u iff w's point mask lies inside u's
    prev_through = _by_point(prev, every_point=True)
    prev_lowest = _by_point(prev, every_point=False)
    below_prev, above_prev = {}, {}
    for u in new:
        m = u.point_mask
        above_prev[u] = {w for w in prev_through.get((m & -m).bit_length(), ())
                         if w.dim > u.dim and m & ~w.point_mask == 0}
        below_prev[u] = {w for b in _bits(m) for w in prev_lowest.get(b, ())
                         if w.dim < u.dim and w.point_mask & ~m == 0}

    # (c) star boundaries: join decomposition and (n-2)-sphericity
    bad_join = None
    bad_sphere = None
    boundary_betti = {}
    for u in new:
        a_cap_b = induced_subcomplex(stars[u], prev_set)
        expected = order_complex(below_prev[u] | above_prev[u])
        if a_cap_b.facet_sets() != expected.facet_sets() and not (
            a_cap_b.is_empty() and expected.is_empty()
        ) and bad_join is None:
            bad_join = u
        a_cap_b_homology = reduced_homology(a_cap_b)
        ok, why = _spherical_check(a_cap_b, a_cap_b_homology, n - 2)
        boundary_betti[u] = a_cap_b_homology.betti_number(n - 2)
        if not ok and bad_sphere is None:
            bad_sphere = (u, why)
    report.boundary_rank_sum = sum(boundary_betti.values())
    report.checks.append(
        CheckResult(
            "star_boundary_join_decomposition", bad_join is None,
            None if bad_join is None else f"U = {bad_join.basis}",
        )
    )
    report.checks.append(
        CheckResult(
            "star_boundary_sphericity", bad_sphere is None,
            None if bad_sphere is None else f"U = {bad_sphere[0].basis}: {bad_sphere[1]}",
        )
    )

    # (d) below/above set identities and the restricted-family comparison.
    # A member above U holds U's lowest point; one below U has its own
    # lowest point among U's points.
    gamma_through = _by_point(state.geometry.members, every_point=True)
    y0_lowest = _by_point(state.levels[0], every_point=False)
    bad_above = None
    bad_below = None
    bad_delta = None
    for u in new:
        m = u.point_mask
        above_gamma = {w for w in gamma_through[(m & -m).bit_length()]
                       if w.dim > u.dim and m & ~w.point_mask == 0}
        if above_prev[u] != above_gamma and bad_above is None:
            bad_above = (u, above_prev[u] ^ above_gamma)
        below_y0 = {w for b in _bits(m) for w in y0_lowest.get(b, ())
                    if w.dim < u.dim and w.point_mask & ~m == 0}
        if below_prev[u] != below_y0 and bad_below is None:
            bad_below = (u, below_prev[u] ^ below_y0)
        if bad_delta is None:
            bad_delta = _delta_comparison(state, u, below_y0)
    report.checks.append(
        CheckResult(
            "above_sets_equal_gamma_above", bad_above is None,
            None if bad_above is None else _set_witness(*bad_above),
        )
    )
    report.checks.append(
        CheckResult(
            "below_sets_equal_y0_below", bad_below is None,
            None if bad_below is None else _set_witness(*bad_below),
        )
    )
    report.checks.append(
        CheckResult(
            "below_sets_match_restricted_family", bad_delta is None,
            bad_delta,
        )
    )

    # Mayer-Vietoris rank bookkeeping at degree n-1
    lhs = cur_homology.betti_number(n - 1)
    rhs = b_homology.betti_number(n - 1) + sum(boundary_betti.values())
    report.checks.append(
        CheckResult(
            "mayer_vietoris_rank_balance", lhs == rhs,
            None if lhs == rhs else f"rank H~_{n-1}(Y_{i}) = {lhs} != {rhs}",
        )
    )
    return report


def _set_witness(u: Subspace, diff) -> str:
    """Names U and the members on which its two sets differ."""
    return f"U = {u.basis}: sets differ at {sorted(w.basis for w in diff)}"


def _bits(mask: int):
    """The positions (bit_length) of the set bits of a point mask."""
    while mask:
        low = mask & -mask
        yield low.bit_length()
        mask ^= low


def _by_point(members, every_point: bool) -> dict[int, list[Subspace]]:
    """Point -> the members through it, or, with ``every_point`` false, the
    members whose lowest point it is."""
    out: dict[int, list[Subspace]] = {}
    for w in members:
        for b in _bits(w.point_mask):
            out.setdefault(b, []).append(w)
            if not every_point:
                break
    return out


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


def run_verification(family: PhanFamily, pivot: Subspace | None = None,
                     negative_control: bool = False) -> FiltrationReport:
    """Full pipeline: choose a pivot, build the filtration, verify Y_0 and
    every stage, and balance the sphere-count ledger against the direct
    homology of the geometry."""
    if pivot is None:
        pivot = find_degenerate_pivot(family) if negative_control else choose_pivot(family)
    state = build_filtration(family, pivot)
    y0_checks = verify_y0_contractible(state)
    stages = [verify_stage(state, i) for i in range(1, state.n + 1)]

    n = state.n
    # Y_0 contributes nothing (acyclic); each stage adds its boundary ranks
    predicted = sum(s.boundary_rank_sum for s in stages)

    # Y_n holds every member, so |Y_n| is the geometry complex
    _, gamma_homology = state.level_complex(n)
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
